//! `debug_session`: one closed-loop client debugging the 20 testbed bugs.
//!
//! A session takes one buggy design through parse → flatten → resolve →
//! compile → the bug's own workload → lint, then through every tool that
//! applies: SignalCat, FSM Monitor and Dependency Monitor always, and for
//! data-loss bugs LossCheck and the Statistics Monitor. Each tool goes
//! instrument → re-resolve → re-compile → re-simulate under the bug's
//! workload → observe. The client cycles all 20 bugs in an order drawn
//! from the seed.

use crate::trace::Tracer;
use crate::{
    end_to_end, figures, peak_rss_mb, per_layer, timed_setup, Args, Ctx, Host, LayerCounts, Op,
    Report, Rng, TOOLS, TOOL_SPANS,
};
use hwdbg_dataflow::{resolve, DepKind, Design, PropGraph, SigKind};
use hwdbg_ip::StdModels;
use hwdbg_obs::SimCounters;
use hwdbg_rtl::Module;
use hwdbg_sim::{CompiledDesign, SimConfig, Simulator};
use hwdbg_testbed::{lint_expect, metadata, workloads, BugId, Outcome};
use hwdbg_tools::losscheck::LossCheckConfig;
use hwdbg_tools::signalcat::SignalCatConfig;
use hwdbg_tools::statmon::Event;
use hwdbg_tools::{DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a tool observed: the tool-side counters it filled.
type Obs = [u64; 6];

fn obs(c: &SimCounters) -> Obs {
    [
        c.trace_entries,
        c.trace_wraps,
        c.fsm_transitions,
        c.dep_updates,
        c.stat_events,
        c.shadow_updates,
    ]
}

/// A tool's result in one session: not started (not applicable), skipped
/// with a reason (started, no observation), or its observation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ToolResult {
    NotApplicable,
    Skipped(String),
    Observed(Obs),
}

/// Everything checked about one session, after the timed window.
#[derive(PartialEq)]
struct Record {
    id: BugId,
    outcome: Result<Outcome, String>,
    lints: Vec<&'static str>,
    tools: [ToolResult; 5],
}

/// Per-session timings and work counts.
#[derive(Default)]
struct Cost {
    sim_cmd: Duration,
    lint_cmd: Duration,
    cycles: u64,
    jobs: u64,
}

fn cycles_of(sim: &Simulator, design: &Design) -> u64 {
    design.clocks().iter().map(|c| sim.cycle(c)).sum()
}

fn sim_config(tr: &Tracer) -> SimConfig {
    SimConfig::default().with_metrics(tr.on())
}

/// The state one session's tool runs share.
struct Session<'a> {
    ctx: &'a Ctx,
    tr: &'a mut Tracer,
    counts: &'a mut LayerCounts,
    cost: Cost,
    id: BugId,
}

impl Session<'_> {
    /// Re-elaborates, re-compiles and re-simulates an instrumented module
    /// under the bug's workload.
    fn rerun(&mut self, module: &Module) -> Result<Simulator, String> {
        let (tr, lib) = (&mut *self.tr, &self.ctx.lib);
        let design = tr
            .time("dataflow.reresolve", || resolve(module.clone(), lib))
            .map_err(|e| format!("re-resolve: {e}"))?;
        let compiled = tr
            .time("sim.recompile", || CompiledDesign::new(design))
            .map_err(|e| format!("re-compile: {e}"))?;
        let config = sim_config(tr);
        let mut sim = tr
            .time("sim.job_setup", || {
                Simulator::from_compiled(Arc::new(compiled), &StdModels, config)
            })
            .map_err(|e| format!("engine: {e}"))?;
        let id = self.id;
        tr.time("sim.resimulate", || workloads::run(id, &mut sim))
            .map_err(|e| format!("re-simulate: {e}"))?;
        let cycles = cycles_of(&sim, sim.design());
        self.cost.cycles += cycles;
        self.cost.jobs += 1;
        if tr.on() {
            self.counts.kernel_cycles += cycles;
            if let Some(c) = sim.counters() {
                self.counts.add_sim(c);
            }
        }
        Ok(sim)
    }

    /// One tool end to end. `instrument` builds the tool's result, `view`
    /// gives its instrumented module and generated line count, and
    /// `observe` reads the re-simulated engine.
    fn tool<I>(
        &mut self,
        which: usize,
        instrument: impl FnOnce() -> Result<I, String>,
        view: impl Fn(&I) -> (&Module, usize),
        observe: impl FnOnce(&I, &Simulator, &mut SimCounters),
    ) -> ToolResult {
        let (root, instrument_span, observe_span) = TOOL_SPANS[which];
        let open = self.tr.begin(root);
        let result = (|| {
            let info = self.tr.time(instrument_span, instrument)?;
            let (module, lines) = view(&info);
            if self.tr.on() {
                self.counts.generated_lines[which].0 += lines as u64;
                self.counts.generated_lines[which].1 += 1;
            }
            let sim = self.rerun(module)?;
            let mut c = SimCounters::default();
            self.tr.time(observe_span, || observe(&info, &sim, &mut c));
            Ok::<_, String>(obs(&c))
        })();
        self.tr.end(open);
        let out = match result {
            Ok(o) => ToolResult::Observed(o),
            Err(reason) => ToolResult::Skipped(reason),
        };
        if self.tr.on() {
            match out {
                ToolResult::Observed(_) => self.counts.tools_run += 1,
                _ => self.counts.tools_skipped += 1,
            }
        }
        out
    }
}

/// The Dependency Monitor's target: the loss sink, else the first FSM
/// register, else the first register of the design.
fn depmon_target(id: BugId, design: &Design) -> Option<String> {
    let meta = metadata(id);
    meta.loss
        .map(|l| l.sink)
        .into_iter()
        .chain(meta.fsm_registers.iter().copied())
        .find(|n| design.signals.contains_key(*n))
        .map(str::to_owned)
        .or_else(|| {
            design
                .signals
                .values()
                .find(|s| s.kind == SigKind::Reg && !s.name.starts_with("__"))
                .map(|s| s.name.clone())
        })
}

fn session(ctx: &Ctx, tr: &mut Tracer, counts: &mut LayerCounts, id: BugId) -> (Record, Cost) {
    let meta = metadata(id);
    let mut cost = Cost::default();
    let root = tr.begin_op("session");
    let t0 = Instant::now();
    let not_run = || {
        [
            ToolResult::NotApplicable,
            ToolResult::NotApplicable,
            ToolResult::NotApplicable,
            ToolResult::NotApplicable,
            ToolResult::NotApplicable,
        ]
    };

    // Front end, compile, the bug's workload.
    if tr.on() {
        counts.parse_bytes += meta.source.len() as u64;
    }
    let front = ctx.front_end(tr, meta.source, meta.top);
    let t_front = t0.elapsed();
    let base = front.and_then(|design| {
        let compiled = tr
            .time("sim.compile", || CompiledDesign::new(design))
            .map_err(|e| format!("compile: {e}"))?;
        let config = sim_config(tr);
        let mut sim = tr
            .time("sim.job_setup", || {
                Simulator::from_compiled(Arc::new(compiled), &StdModels, config)
            })
            .map_err(|e| format!("engine: {e}"))?;
        let outcome = tr
            .time("sim.simulate", || workloads::run(id, &mut sim))
            .map_err(|e| format!("simulate: {e}"))?;
        Ok((sim, outcome))
    });
    let t_sim = t0.elapsed();
    let (sim, outcome) = match base {
        Ok(b) => b,
        Err(e) => {
            tr.end(root);
            let record = Record {
                id,
                outcome: Err(e),
                lints: Vec::new(),
                tools: not_run(),
            };
            return (record, cost);
        }
    };
    let design = sim.design();
    let cycles = cycles_of(&sim, design);
    cost.cycles += cycles;
    cost.jobs += 1;
    if tr.on() {
        counts.kernel_cycles += cycles;
        if let Some(c) = sim.counters() {
            counts.add_sim(c);
        }
    }

    // Lint, through the same driver `hwdbg lint` uses.
    let t_lint0 = t0.elapsed();
    let findings = ctx.lint(tr, counts, design);
    let t_lint = t0.elapsed();
    cost.sim_cmd = t_sim;
    cost.lint_cmd = t_front + (t_lint - t_lint0);
    let mut lints: Vec<&'static str> = findings.iter().map(|f| f.code.as_str()).collect();
    lints.sort_unstable();
    lints.dedup();

    // The tools.
    let graph = tr
        .time("dataflow.propgraph", || PropGraph::build(design, &ctx.lib))
        .map_err(|e| format!("propagation graph: {e}"));
    let mut tools = not_run();
    let mut run = Session {
        ctx,
        tr: &mut *tr,
        counts: &mut *counts,
        cost,
        id,
    };
    tools[0] = run.tool(
        0,
        || SignalCat::instrument(design, &SignalCatConfig::default()).map_err(|e| e.to_string()),
        |i| (&i.module, i.generated_lines),
        SignalCat::observe,
    );
    tools[1] = run.tool(
        1,
        || {
            FsmMonitor::new()
                .instrument(design)
                .map_err(|e| e.to_string())
        },
        |i| (&i.module, i.generated_lines),
        FsmMonitor::observe,
    );
    tools[2] = run.tool(
        2,
        || {
            let graph = graph.as_ref().map_err(Clone::clone)?;
            let target = depmon_target(id, design).ok_or("no register to watch")?;
            let kinds = [DepKind::Data, DepKind::Control];
            let chain = DependencyMonitor::analyze(design, graph, &target, 2, &kinds)
                .map_err(|e| e.to_string())?;
            DependencyMonitor::instrument(design, &chain).map_err(|e| e.to_string())
        },
        |i| (&i.module, i.generated_lines),
        |_, s, c| DependencyMonitor::observe(s, c),
    );
    if let Some(loss) = meta.loss {
        tools[3] = run.tool(
            3,
            || {
                let graph = graph.as_ref().map_err(Clone::clone)?;
                let cfg = LossCheckConfig {
                    source: loss.source.to_owned(),
                    sink: loss.sink.to_owned(),
                    source_valid: loss.valid.to_owned(),
                };
                LossCheck::instrument(design, graph, &cfg).map_err(|e| e.to_string())
            },
            |i| (&i.module, i.generated_lines),
            |_, s, c| LossCheck::observe(s.logs(), c),
        );
        tools[4] = run.tool(
            4,
            || {
                let expr = hwdbg_rtl::parse_expr(loss.valid).map_err(|e| e.to_string())?;
                StatisticsMonitor::instrument(design, &[Event::new("valid", expr)], None)
                    .map_err(|e| e.to_string())
            },
            |i| (&i.module, i.generated_lines),
            StatisticsMonitor::observe,
        );
    }
    let cost = run.cost;
    tr.end(root);
    let record = Record {
        id,
        outcome: Ok(outcome),
        lints,
        tools,
    };
    (record, cost)
}

/// Keeps a session's record: as one more of an equal record already kept,
/// else as a new one. Keeping every record, a 30 s run held about 10 MiB
/// of them by the end, which `peak_rss_mb` counted as the program's.
fn keep(records: &mut Vec<(Record, usize)>, record: Record) {
    match records.iter_mut().find(|(r, _)| *r == record) {
        Some((_, n)) => *n += 1,
        None => records.push((record, 1)),
    }
}

/// Checks every record (each of the `n` equal sessions it stands for):
/// the outcome is one of the bug's documented symptoms, the L-codes equal
/// the lint snapshot, and each tool observed the same thing as in the
/// bug's first session.
fn check(records: &[(Record, usize)], report: &mut Report) {
    let mut first: Vec<Option<&[ToolResult; 5]>> = vec![None; BugId::ALL.len()];
    for (r, n) in records {
        let meta = metadata(r.id);
        let slot = BugId::ALL.iter().position(|&b| b == r.id).unwrap_or(0);
        let mut err = match &r.outcome {
            Err(e) => Some(format!("{}: {e}", r.id)),
            Ok(Outcome::Pass) => Some(format!("{}: buggy design passed", r.id)),
            Ok(Outcome::Fail { symptom, .. }) if !meta.symptoms.contains(symptom) => Some(format!(
                "{}: symptom {symptom} not in {:?}",
                r.id, meta.symptoms
            )),
            Ok(_) => None,
        };
        let expected = lint_expect::expected_lints(r.id);
        if err.is_none() && r.lints != expected {
            err = Some(format!(
                "{}: lint {:?}, expected {expected:?}",
                r.id, r.lints
            ));
        }
        match first[slot] {
            None => {
                first[slot] = Some(&r.tools);
                for (tool, t) in TOOLS.iter().zip(&r.tools) {
                    if let ToolResult::Skipped(reason) = t {
                        eprintln!("perfbench: {} {tool} skipped: {reason}", r.id);
                    }
                }
            }
            Some(f) if err.is_none() && *f != r.tools => {
                err = Some(format!(
                    "{}: tools {:?} != first round {f:?}",
                    r.id, r.tools
                ));
            }
            Some(_) => {}
        }
        for _ in 0..*n {
            report.check(err.clone());
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ctx = Ctx::default();
    let mut tr = Tracer::new();
    let mut counts = LayerCounts::default();
    // Set-up is one warm cycle over all 20 bugs, so lazy state and caches
    // are filled before the window opens.
    let ((), setup_s) = timed_setup(|| {
        let mut scratch = LayerCounts::default();
        for id in BugId::ALL {
            let _ = session(&ctx, &mut tr, &mut scratch, id);
        }
        Ok::<_, String>(())
    })?;

    let mut rng = Rng::new(args.seed);
    let mut order = BugId::ALL.to_vec();
    let mut records = Vec::new();
    let mut ops = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let mut host = Host::default();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < window {
        rng.shuffle(&mut order);
        // The traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured on the same mix of sessions.
        let traced = args.trace && round % 2 == 1;
        tr.set_on(traced);
        for &id in &order {
            let t = Instant::now();
            let (record, cost) = session(&ctx, &mut tr, &mut counts, id);
            let wall = t.elapsed();
            if args.trace && !traced {
                counts.untraced_ops += 1;
                counts.untraced_op_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            }
            ops.push(Op {
                wall: wall.as_secs_f64(),
                cal: host.mark(),
                jobs: cost.jobs,
                cycles: cost.cycles,
                item: id as usize,
                sim_cmd: cost.sim_cmd.as_secs_f64(),
                lint_cmd: cost.lint_cmd.as_secs_f64(),
            });
            keep(&mut records, record);
            host.sample();
        }
        round += 1;
    }
    tr.set_on(false);
    let rss = peak_rss_mb();

    let mut report = Report::default();
    check(&records, &mut report);
    report
        .samples
        .push(("sessions", records.iter().map(|(_, n)| n).sum()));
    if args.trace {
        let summary = tr.summary();
        counts.kernel_s = summary.total_s("sim.simulate") + summary.total_s("sim.resimulate");
        per_layer(&mut report, &summary, &counts, &ctx.lint_spans);
        let path = crate::trace_path(args);
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        end_to_end(&mut report, setup_s, &figures(&ops, &mut host), rss, &mut host);
    }
    Ok(report)
}
