//! The job-matrix grammar: a line-oriented spec that expands to a
//! [`Campaign`].
//!
//! ```text
//! # one directive per line; '#' starts a comment
//! name nightly-sweep
//! design D2                    # testbed bug (workload drive)
//! design rtl/fifo.v top fifo   # RTL file (free-run drive); top defaults
//!                              # to the file's last module
//! mode run                     # workload | run (default per design kind)
//! clock clk                    # free-run clock, a signal of every design
//!                              # (default: the design's primary clock,
//!                              # `Design::primary_clock`)
//! cycles 40                    # free-run length (default 100)
//! seeds zero 1 2 0xC0FFEE      # RegInit axis: zero-init or random seeds
//! seeds 1..8                   # inclusive range sweep
//! fault none                   # the fault axis; 'none' is a real job
//! fault auto                   # the four testbed fault classes
//! fault burst: stuck q 1 @ 3..9; flip v 0 @ 4   # FaultPlan text syntax,
//!                              # ';'-separated, labeled 'burst'
//! stim in_valid 1              # per-cycle poke (free-run only)
//! stim pix counter             # 0,1,2,... per cycle
//! ```
//!
//! Jobs expand design-major, then fault, then seed — a deterministic
//! order that the report preserves.

use crate::clients::MATRIX_SEED;
use crate::job::{Campaign, Drive, Job, ModelSet, Stim, StimValue};
use crate::CampaignError;
use hwdbg_obs::StageTimer;
use hwdbg_sim::{CompiledDesign, FaultPlan, RegInit};
use hwdbg_testbed::{faults, Target};
use std::sync::Arc;

/// How jobs drive their simulators (see [`Drive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Per-design default: workload for bugs, free-run for files.
    Auto,
    /// Testbed workload drive.
    Workload,
    /// Free-running clock drive.
    Run,
}

/// One entry on the fault axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRef {
    /// No fault injected (still a job).
    None,
    /// The four testbed-derived fault classes, per design.
    Auto,
    /// An explicit labeled plan in [`FaultPlan::parse`] text syntax.
    Plan {
        /// Report label.
        label: String,
        /// `;`-separated fault lines.
        text: String,
    },
}

/// One entry on the seed axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSpec {
    /// Zero-initialized registers and memories.
    Zero,
    /// `RegInit::Random` with this seed.
    Random(u64),
}

/// A parsed (but not yet compiled) campaign spec.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Report name.
    pub name: String,
    /// The design axis.
    pub designs: Vec<Target>,
    /// Drive mode.
    pub mode: Mode,
    /// Free-run clock override.
    pub clock: Option<String>,
    /// Free-run cycle count.
    pub cycles: u64,
    /// The seed axis (defaults to `[Zero]`).
    pub seeds: Vec<SeedSpec>,
    /// The fault axis (defaults to `[None]`).
    pub faults: Vec<FaultRef>,
    /// Per-cycle stimulus (free-run only).
    pub stim: Vec<Stim>,
}

fn parse_u64(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

impl CampaignSpec {
    /// Parses the job-matrix grammar.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] naming the offending line.
    pub fn parse(text: &str) -> Result<CampaignSpec, CampaignError> {
        let mut spec = CampaignSpec {
            name: "campaign".into(),
            designs: Vec::new(),
            mode: Mode::Auto,
            clock: None,
            cycles: 100,
            seeds: Vec::new(),
            faults: Vec::new(),
            stim: Vec::new(),
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| {
                CampaignError::Spec(format!("line {}: {what}: `{line}`", lineno + 1))
            };
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match key {
                "name" => {
                    if rest.is_empty() {
                        return Err(bad("missing campaign name"));
                    }
                    spec.name = rest.to_owned();
                }
                "design" => {
                    let mut toks = rest.split_whitespace();
                    let Some(target) = toks.next() else {
                        return Err(bad("missing design (bug ID or .v path)"));
                    };
                    let top = match (toks.next(), toks.next()) {
                        (None, _) => None,
                        (Some("top"), Some(t)) => Some(t),
                        _ => return Err(bad("expected `design <path> [top <module>]`")),
                    };
                    spec.designs.push(Target::new(target, top));
                }
                "mode" => {
                    spec.mode = match rest {
                        "workload" => Mode::Workload,
                        "run" => Mode::Run,
                        _ => return Err(bad("mode must be `workload` or `run`")),
                    };
                }
                "clock" => {
                    if rest.is_empty() {
                        return Err(bad("missing clock name"));
                    }
                    spec.clock = Some(rest.to_owned());
                }
                "cycles" => {
                    spec.cycles = parse_u64(rest).ok_or_else(|| bad("bad cycle count"))?;
                }
                "seeds" => {
                    for tok in rest.split_whitespace() {
                        if tok == "zero" {
                            spec.seeds.push(SeedSpec::Zero);
                        } else if let Some((a, b)) = tok.split_once("..") {
                            let (a, b) = match (parse_u64(a), parse_u64(b)) {
                                (Some(a), Some(b)) if a <= b => (a, b),
                                _ => return Err(bad("bad seed range (want `lo..hi`, inclusive)")),
                            };
                            for s in a..=b {
                                spec.seeds.push(SeedSpec::Random(s));
                            }
                        } else {
                            let s = parse_u64(tok).ok_or_else(|| bad("bad seed"))?;
                            spec.seeds.push(SeedSpec::Random(s));
                        }
                    }
                }
                "fault" => match rest {
                    "" => return Err(bad("missing fault (none | auto | label: plan)")),
                    "none" => spec.faults.push(FaultRef::None),
                    "auto" => spec.faults.push(FaultRef::Auto),
                    _ => {
                        let (label, text) = rest
                            .split_once(':')
                            .ok_or_else(|| bad("expected `fault <label>: <plan>`"))?;
                        spec.faults.push(FaultRef::Plan {
                            label: label.trim().to_owned(),
                            text: text.trim().to_owned(),
                        });
                    }
                },
                "stim" => {
                    let mut toks = rest.split_whitespace();
                    let (Some(name), Some(val)) = (toks.next(), toks.next()) else {
                        return Err(bad("expected `stim <signal> <value|counter>`"));
                    };
                    let value = if val == "counter" {
                        StimValue::Counter
                    } else {
                        StimValue::Const(parse_u64(val).ok_or_else(|| bad("bad stim value"))?)
                    };
                    spec.stim.push(Stim {
                        name: name.to_owned(),
                        value,
                    });
                }
                _ => return Err(bad("unknown directive")),
            }
        }
        if spec.designs.is_empty() {
            return Err(CampaignError::Spec("spec names no designs".into()));
        }
        Ok(spec)
    }

    /// Loads and compiles every design once, expands the job matrix, and
    /// returns the runnable campaign.
    ///
    /// # Errors
    ///
    /// Design load/compile failures and invalid axis combinations (fault
    /// plans or stimulus on workload drives, a workload drive on a plain
    /// RTL file).
    pub fn build(&self) -> Result<Campaign, CampaignError> {
        let mut jobs = Vec::new();
        let seeds = if self.seeds.is_empty() {
            vec![SeedSpec::Zero]
        } else {
            self.seeds.clone()
        };
        let faults = if self.faults.is_empty() {
            vec![FaultRef::None]
        } else {
            self.faults.clone()
        };
        for target in &self.designs {
            let loaded = target
                .load(&mut StageTimer::new())
                .map_err(|e| CampaignError::Design(e.to_string()))?;
            let (design, bug) = (loaded.design, loaded.bug);
            let label = match target {
                Target::Bug(id) => id.to_string(),
                Target::File { path, .. } => std::path::Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(path.as_str())
                    .to_owned(),
            };
            let drive = match (self.mode, bug) {
                (Mode::Workload | Mode::Auto, Some(id)) => Drive::Workload(id),
                (Mode::Workload, None) => {
                    return Err(CampaignError::Spec(format!(
                        "design `{label}` is a plain RTL file; workload mode needs a bug ID"
                    )));
                }
                (Mode::Run, _) | (Mode::Auto, None) => Drive::FreeRun {
                    clock: match &self.clock {
                        Some(c) if design.signals.contains_key(c) => c.clone(),
                        Some(c) => {
                            return Err(CampaignError::Spec(format!(
                                "design `{label}`: clock `{c}` names no signal of the design"
                            )));
                        }
                        None => design.primary_clock().ok_or_else(|| {
                            CampaignError::Spec(format!(
                                "design `{label}` has no clock to free-run; name one with `clock`"
                            ))
                        })?,
                    },
                    cycles: self.cycles,
                    stim: self.stim.clone(),
                },
            };
            let workload = matches!(drive, Drive::Workload(_));
            // Resolve the fault axis against this design.
            let mut plans: Vec<(String, Option<FaultPlan>)> = Vec::new();
            for fref in &faults {
                match fref {
                    FaultRef::None => plans.push(("none".into(), None)),
                    FaultRef::Auto => {
                        for (class, plan) in faults::all_plans(&design, MATRIX_SEED) {
                            plans.push((class.to_owned(), Some(plan)));
                        }
                    }
                    FaultRef::Plan { label: fl, text } => {
                        let plan = FaultPlan::parse(&text.replace(';', "\n"))?;
                        plan.validate(&design)?;
                        plans.push((fl.clone(), Some(plan)));
                    }
                }
            }
            if workload && plans.iter().any(|(_, p)| p.is_some()) {
                return Err(CampaignError::Spec(format!(
                    "design `{label}`: fault plans need `mode run` (workloads own the clocking)"
                )));
            }
            if workload && !self.stim.is_empty() {
                return Err(CampaignError::Spec(
                    "stimulus needs `mode run` (workloads drive their own inputs)".into(),
                ));
            }
            let shared = Arc::new(CompiledDesign::new(design)?);
            for (fault_label, plan) in &plans {
                for seed in &seeds {
                    let (seed_label, init) = match seed {
                        SeedSpec::Zero => ("zero".to_owned(), RegInit::Zero),
                        SeedSpec::Random(s) => (s.to_string(), RegInit::Random(*s)),
                    };
                    jobs.push(Job {
                        design: label.clone(),
                        fault: fault_label.clone(),
                        seed: seed_label,
                        shared: Arc::clone(&shared),
                        init,
                        plan: plan.clone(),
                        drive: drive.clone(),
                        models: ModelSet::std(),
                    });
                }
            }
        }
        Ok(Campaign {
            name: self.name.clone(),
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let spec = CampaignSpec::parse(
            "# demo\n\
             name demo\n\
             design D2\n\
             seeds zero 1..3 0xA\n\
             fault none\n\
             fault auto\n",
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.designs, vec![Target::Bug(hwdbg_testbed::BugId::D2)]);
        assert_eq!(
            spec.seeds,
            vec![
                SeedSpec::Zero,
                SeedSpec::Random(1),
                SeedSpec::Random(2),
                SeedSpec::Random(3),
                SeedSpec::Random(10)
            ]
        );
        assert_eq!(spec.faults.len(), 2);
    }

    #[test]
    fn rejects_unknown_directives_with_line_numbers() {
        let err = CampaignSpec::parse("design D1\nfrobnicate yes\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn workload_mode_rejects_fault_plans() {
        let spec = CampaignSpec::parse("design D1\nfault auto\n").unwrap();
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("mode run"), "{err}");
    }

    #[test]
    fn bug_workload_matrix_expands_design_major() {
        let spec = CampaignSpec::parse("design D1\ndesign D2\nseeds zero 7\n").unwrap();
        let campaign = spec.build().unwrap();
        let labels: Vec<(String, String, String)> = campaign
            .jobs
            .iter()
            .map(|j| (j.design.clone(), j.fault.clone(), j.seed.clone()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("D1".into(), "none".into(), "zero".into()),
                ("D1".into(), "none".into(), "7".into()),
                ("D2".into(), "none".into(), "zero".into()),
                ("D2".into(), "none".into(), "7".into()),
            ]
        );
    }

    /// The free-run clock is the design's primary clock, never the
    /// asynchronous reset sharing its sensitivity list (which sorts first
    /// among `Design::clocks`).
    #[test]
    fn free_run_clocks_the_primary_clock_not_an_async_reset() {
        let path = std::env::temp_dir().join(format!("spec_areset_{}.v", std::process::id()));
        std::fs::write(
            &path,
            "module x(input clock, input areset, output reg [3:0] q);
               always @(posedge clock or posedge areset)
                 if (areset) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
        )
        .unwrap();
        let spec = format!("design {}\nmode run\n", path.display());
        let campaign = CampaignSpec::parse(&spec).unwrap().build();
        std::fs::remove_file(&path).unwrap();
        let campaign = campaign.unwrap();
        assert_eq!(campaign.jobs.len(), 1);
        assert!(
            matches!(&campaign.jobs[0].drive, Drive::FreeRun { clock, .. } if clock == "clock"),
            "{:?}",
            campaign.jobs[0].drive
        );
    }

    /// A `clock` line must name a signal of the design: toggling a name the
    /// design lacks would "run" cycles in which nothing happens.
    #[test]
    fn clock_must_name_a_signal_of_the_design() {
        let path = std::env::temp_dir().join(format!("spec_clock_{}.v", std::process::id()));
        std::fs::write(
            &path,
            "module ck(input clk, output reg [3:0] q);
               always @(posedge clk) q <= q + 4'd1;
             endmodule",
        )
        .unwrap();
        let build = |clock: &str| {
            let spec = format!(
                "design {}\nmode run\nclock {clock}\ncycles 5\n",
                path.display()
            );
            CampaignSpec::parse(&spec).unwrap().build()
        };
        let (bad, good) = (build("nosuch"), build("clk"));
        std::fs::remove_file(&path).unwrap();
        match bad {
            Err(CampaignError::Spec(m)) => assert!(m.contains("clock `nosuch`"), "{m}"),
            other => panic!(
                "expected a spec error, got {:?}",
                other.map(|c| c.jobs.len())
            ),
        }
        assert_eq!(good.unwrap().jobs.len(), 1);
    }
}
