//! `campaign_sweep`: one client submitting fault campaigns back to back.
//!
//! Set-up compiles the 20 testbed designs once. Each round is one
//! `hwdbg_campaign::Campaign` on [`WORKERS`] worker: every design ×
//! {no fault + the four fault classes}, each job with its own
//! `RegInit::Random` seed drawn from the run seed, free-running
//! [`CYCLES`] cycles under stimulus derived from the design's input
//! ports. Many short engines over small shared designs: the simulator
//! kernel, fault injection and the per-job engine pool do the work; the
//! front end is not in the loop.

use crate::trace::Tracer;
use crate::{
    end_to_end, figures, median, peak_rss_mb, per_layer, percentile, pin_to_current_cpu,
    timed_setup, Args, Ctx, Host, LayerCounts, Op, Report, Rng,
};
use hwdbg_campaign::{Campaign, Drive, Job, ModelSet, Stim, StimValue, Verdict};
use hwdbg_dataflow::{Design, SigKind};
use hwdbg_ip::StdModels;
use hwdbg_sim::{CompiledDesign, RegInit, SimConfig, Simulator};
use hwdbg_testbed::faults::{build_plan, FAULT_CLASSES};
use hwdbg_testbed::{metadata, BugId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers per campaign. One: on a shared 2-vCPU Xeon host, two
/// workers doubled jobs/s but spread it by 12%, and the job p99 by 34%,
/// over ten runs; that is wider than any bound the benchmark may set. The
/// pool still schedules every job, and `campaign.steals` reads 0.
const WORKERS: usize = 1;

/// Cycles each job free-runs.
const CYCLES: u64 = 2000;

/// Every `CHECK_EVERY`-th round is re-run with `Campaign::run_serial`
/// after the window and compared job by job.
const CHECK_EVERY: usize = 8;

struct Prepared {
    id: BugId,
    shared: Arc<CompiledDesign>,
    clock: String,
    stim: Vec<Stim>,
}

fn is_reset(name: &str) -> bool {
    matches!(name, "rst" | "rst_n" | "reset" | "reset_n" | "aresetn") || name.ends_with("_rst")
}

/// Stimulus from the input ports: resets held inactive, 1-bit inputs
/// (valids, readies, enables) held high, wider inputs counting cycles.
fn stimulus(design: &Design) -> Vec<Stim> {
    let clocks = design.clocks();
    design
        .signals
        .values()
        .filter(|s| s.kind == SigKind::Input && !clocks.contains(&s.name))
        .map(|s| {
            let value = if is_reset(&s.name) {
                StimValue::Const(u64::from(s.name.ends_with('n')))
            } else if s.width == 1 {
                StimValue::Const(1)
            } else {
                StimValue::Counter
            };
            Stim {
                name: s.name.clone(),
                value,
            }
        })
        .collect()
}

fn elaborate(ctx: &Ctx, id: BugId, tr: &mut Tracer) -> Result<Design, String> {
    let meta = metadata(id);
    ctx.front_end(tr, meta.source, meta.top)
        .map_err(|e| format!("{id}: {e}"))
}

/// Elaborates and compiles the 20 designs; `tr` records the layers when
/// the traced run replays one set-up.
fn prepare(ctx: &Ctx, tr: &mut Tracer) -> Result<Vec<Prepared>, String> {
    BugId::ALL
        .into_iter()
        .map(|id| {
            let design = elaborate(ctx, id, tr)?;
            let clock = design
                .clocks()
                .into_iter()
                .next()
                .unwrap_or_else(|| "clk".into());
            let stim = stimulus(&design);
            let compiled = tr
                .time("sim.compile", || CompiledDesign::new(design))
                .map_err(|e| format!("{id}: {e}"))?;
            let shared = Arc::new(compiled);
            Ok(Prepared {
                id,
                shared,
                clock,
                stim,
            })
        })
        .collect()
}

/// One round's campaign: every design × every fault, fresh seeds.
fn round_campaign(prepared: &[Prepared], rng: &mut Rng) -> Campaign {
    let mut jobs = Vec::with_capacity(prepared.len() * (1 + FAULT_CLASSES.len()));
    for p in prepared {
        for fault in std::iter::once("none").chain(FAULT_CLASSES) {
            let seed = rng.next_u64();
            let plan = match fault {
                "none" => None,
                class => match build_plan(p.shared.design(), class, seed) {
                    Some(plan) => Some(plan),
                    None => continue,
                },
            };
            jobs.push(Job {
                design: p.id.to_string(),
                fault: fault.to_owned(),
                seed: seed.to_string(),
                shared: Arc::clone(&p.shared),
                init: RegInit::Random(seed),
                plan,
                drive: Drive::FreeRun {
                    clock: p.clock.clone(),
                    cycles: CYCLES,
                    stim: p.stim.clone(),
                },
                models: ModelSet::std(),
            });
        }
    }
    Campaign {
        name: "campaign_sweep".into(),
        jobs,
    }
}

/// The deterministic part of a job record: verdict, cycles, detail.
type Digest = (Verdict, u64, String);

fn digest(report: &hwdbg_campaign::CampaignReport) -> Vec<Digest> {
    report
        .records
        .iter()
        .map(|r| (r.verdict, r.cycles, r.detail.clone()))
        .collect()
}

/// Times one `hwdbg sim`-shaped and one `hwdbg lint`-shaped command on a
/// design: parse → elaborate → compile → free-run the job length, and
/// parse → elaborate → all lint passes. Returns both in seconds.
fn commands(ctx: &Ctx, p: &Prepared) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let design = elaborate(ctx, p.id, &mut Tracer::new())?;
    let mut sim = Simulator::new(design, &StdModels, SimConfig::default())
        .map_err(|e| format!("{}: {e}", p.id))?;
    let names: Vec<&str> = p.stim.iter().map(|s| s.name.as_str()).collect();
    let plan = sim.stimulus_plan(&names).map_err(|e| e.to_string())?;
    for cycle in 0..CYCLES {
        for (i, s) in p.stim.iter().enumerate() {
            let v = match s.value {
                StimValue::Const(c) => c,
                StimValue::Counter => cycle,
            };
            sim.poke_id_u64(plan.id(i), v);
        }
        sim.step(&p.clock).map_err(|e| format!("{}: {e}", p.id))?;
    }
    let sim_cmd = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let design = elaborate(ctx, p.id, &mut Tracer::new())?;
    let findings = ctx.lint(&mut Tracer::new(), &mut LayerCounts::default(), &design);
    std::hint::black_box(findings);
    Ok((sim_cmd, t.elapsed().as_secs_f64()))
}

/// Times what the campaign's engine pool does per job: `from_compiled`
/// for a design's first job on a worker, `reset` for the rest.
fn probe_job_setup(prepared: &[Prepared], counts: &mut LayerCounts, rng: &mut Rng) {
    let per_design = 1 + FAULT_CLASSES.len();
    for p in prepared {
        let config = |seed| {
            SimConfig {
                init: RegInit::Random(seed),
                ..SimConfig::default()
            }
            .with_metrics(true)
        };
        let t = Instant::now();
        let Ok(mut sim) =
            Simulator::from_compiled(Arc::clone(&p.shared), &StdModels, config(rng.next_u64()))
        else {
            continue;
        };
        let mut ns = t.elapsed().as_nanos();
        for _ in 1..per_design {
            let t = Instant::now();
            if sim.reset(&StdModels, config(rng.next_u64())).is_err() {
                break;
            }
            ns += t.elapsed().as_nanos();
        }
        counts.job_setup_ns += u64::try_from(ns).unwrap_or(u64::MAX);
        counts.job_setup_n += per_design as u64;
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    // The campaign's worker is a thread of its own, and the vCPUs of a
    // shared host slow down independently of each other: the calibration
    // kernel, timed on this thread, did not follow the jobs' speed. Bound
    // to one processor, the worker runs where the kernel does (this
    // thread only waits while the campaign runs).
    let pinned = pin_to_current_cpu();
    let ctx = Ctx::default();
    let (prepared, setup_s) = timed_setup(|| prepare(&ctx, &mut Tracer::new()))?;

    let mut rng = Rng::new(args.seed);
    let mut tr = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut ops = Vec::new();
    let mut job_ms: Vec<Vec<f64>> = Vec::new();
    let mut digests: Vec<Vec<Digest>> = Vec::new();
    let mut kept: Vec<(usize, Campaign)> = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let mut host = Host::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < window {
        let campaign = round_campaign(&prepared, &mut rng);
        let traced = args.trace && round % 2 == 1;
        tr.set_on(traced);
        let root = tr.begin_op("round");
        let t = Instant::now();
        let report = tr
            .time("campaign.run", || campaign.run(WORKERS))
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        tr.end(root);
        let round_cycles: u64 = report.records.iter().map(|r| r.cycles).sum();
        // After each untraced campaign the client runs the two commands on
        // one design, in rotation, so they see the same host as the
        // campaign next to them.
        let (sim_cmd, lint_cmd) = if args.trace {
            (0.0, 0.0)
        } else {
            commands(&ctx, &prepared[round % prepared.len()])?
        };
        ops.push(Op {
            wall: wall.as_secs_f64(),
            cal: host.mark(),
            jobs: report.records.len() as u64,
            cycles: round_cycles,
            item: round % prepared.len(),
            sim_cmd,
            lint_cmd,
        });
        job_ms.push(
            report
                .job_wall
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
        );
        host.sample();
        if traced {
            let job_wall: Duration = report.job_wall.iter().sum();
            counts.rounds += 1;
            counts.busy_frac_sum +=
                job_wall.as_secs_f64() / (report.wall.as_secs_f64() * report.workers as f64);
            counts.steals += report.steals;
            counts.kernel_cycles += round_cycles;
            counts.kernel_s += job_wall.as_secs_f64();
            counts.jobs += report.records.len() as u64;
            counts.add_sim(&report.merged);
            tr.set_on(false);
            probe_job_setup(&prepared, &mut counts, &mut rng);
        } else if args.trace {
            counts.untraced_ops += 1;
            counts.untraced_op_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        }
        digests.push(digest(&report));
        if round.is_multiple_of(CHECK_EVERY) {
            kept.push((round, campaign));
        }
        round += 1;
    }
    tr.set_on(false);
    let rss = peak_rss_mb();

    // Checks: every job completed, and the sampled rounds match the
    // serial reference job by job.
    let mut report = Report::default();
    for (r, d) in digests.iter().enumerate() {
        for (verdict, ran, detail) in d {
            let err = (*verdict != Verdict::Completed || *ran != CYCLES)
                .then(|| format!("round {r}: {} after {ran} cycles: {detail}", verdict.name()));
            report.check(err);
        }
    }
    for (r, campaign) in &kept {
        let serial = campaign.run_serial().map_err(|e| e.to_string())?;
        let err = (digest(&serial) != digests[*r])
            .then(|| format!("round {r}: pool results differ from run_serial"));
        report.check(err);
    }
    report.samples.push(("rounds", ops.len()));
    report
        .samples
        .push(("jobs", ops.iter().map(|o| o.jobs as usize).sum()));
    report.samples.push(("serial_checked_rounds", kept.len()));
    report.samples.push(("pinned", usize::from(pinned)));

    if args.trace {
        // The front end and compile run only in set-up here: one traced
        // replay of it gives their per-set-up figures.
        let mut setup_tr = Tracer::new();
        setup_tr.set_on(true);
        let root = setup_tr.begin_op("setup");
        prepare(&ctx, &mut setup_tr)?;
        setup_tr.end(root);
        counts.setup = Some(setup_tr.summary());
        counts.parse_bytes = BugId::ALL
            .iter()
            .map(|&id| metadata(id).source.len() as u64)
            .sum();
        let summary = tr.summary();
        per_layer(&mut report, &summary, &counts, &ctx.lint_spans);
        let path = crate::trace_path(args);
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        // A session here is one job: its latency is the campaign's own
        // per-job wall time, scaled by its campaign's slowdown.
        let mut st = figures(&ops, &mut host);
        let mut all_ms: Vec<f64> = Vec::new();
        for (o, ms) in ops.iter().zip(&job_ms) {
            let slow = host.around(o.cal);
            all_ms.extend(ms.iter().map(|m| m / slow));
        }
        st.ops_per_s = st.jobs_per_s;
        st.p50_ms = median(&mut all_ms);
        st.p99_ms = percentile(&mut all_ms, 0.99);
        end_to_end(&mut report, setup_s, &st, rss, &mut host);
    }
    Ok(report)
}
