//! `large_design`: one client taking generated designs, far bigger than
//! the testbed, through the two commands a developer runs on them:
//! `hwdbg sim` (parse → flatten → resolve → compile → simulate
//! [`CYCLES`] cycles) and `hwdbg lint` (parse → flatten → resolve → all
//! lint passes). A session is both commands on one design. The run
//! generates [`DESIGNS`] designs from its seed and cycles through them.

use crate::gen::{fires, generate, Generated, Shape};
use crate::trace::Tracer;
use crate::{
    end_to_end, figures, peak_rss_mb, per_layer, timed_setup, Args, Ctx, Host, LayerCounts, Op,
    Report, Rng,
};
use hwdbg_dataflow::Design;
use hwdbg_ip::StdModels;
use hwdbg_sim::{Backend, CompiledDesign, LogRecord, SimConfig, Simulator};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size of every generated design: 60 clusters of four leaves, so one
/// session takes about 0.25 s on a 2-vCPU Xeon host and a 30 s run sees
/// over 100 sessions for its percentiles.
const SHAPE: Shape = Shape {
    clusters: 60,
    variants: 4,
};

/// Distinct designs per run.
const DESIGNS: usize = 3;

/// Cycles the `sim` command runs.
const CYCLES: u64 = 1000;

/// Cycles compared against the `Backend::Tree` reference.
const PREFIX: u64 = 100;

const OUTPUTS: [&str; 2] = ["out", "tap"];

/// What one session leaves for the checks.
struct Outcome {
    design: usize,
    /// Hash of the simulation's logs and final outputs.
    sim_digest: u64,
    /// Hash of the lint findings (code and signals).
    lint_digest: u64,
    sim_cmd: Duration,
    lint_cmd: Duration,
}

fn front(
    ctx: &Ctx,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    g: &Generated,
) -> Result<Design, String> {
    if tr.on() {
        counts.parse_bytes += g.source.len() as u64;
    }
    ctx.front_end(tr, &g.source, g.top)
}

/// The `hwdbg sim` command; returns the finished simulator.
fn sim_cmd(
    ctx: &Ctx,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    g: &Generated,
) -> Result<Simulator, String> {
    let design = front(ctx, tr, counts, g)?;
    let compiled = tr
        .time("sim.compile", || CompiledDesign::new(design))
        .map_err(|e| format!("compile: {e}"))?;
    let config = SimConfig::default().with_metrics(tr.on());
    let mut sim = tr
        .time("sim.job_setup", || {
            Simulator::from_compiled(Arc::new(compiled), &StdModels, config)
        })
        .map_err(|e| format!("engine: {e}"))?;
    tr.time("sim.simulate", || sim.run("clk", CYCLES))
        .map_err(|e| format!("simulate: {e}"))?;
    if tr.on() {
        counts.kernel_cycles += CYCLES;
        if let Some(c) = sim.counters() {
            counts.add_sim(c);
        }
    }
    Ok(sim)
}

/// The `hwdbg lint` command; returns the findings' digest and the
/// planted patterns that did not fire.
fn lint_cmd(
    ctx: &Ctx,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    g: &Generated,
) -> Result<(u64, Vec<String>), String> {
    let design = front(ctx, tr, counts, g)?;
    let findings = ctx.lint(tr, counts, &design);
    let mut h = DefaultHasher::new();
    for f in &findings {
        f.code.as_str().hash(&mut h);
        f.signals.hash(&mut h);
    }
    let missing = g
        .planted
        .iter()
        .filter(|(code, reg)| !fires(&findings, code, reg))
        .map(|(code, reg)| format!("{code} on {reg}"))
        .collect();
    Ok((h.finish(), missing))
}

fn sim_digest(sim: &Simulator) -> u64 {
    let mut h = DefaultHasher::new();
    for r in sim.logs() {
        (r.time, r.cycle, &r.message).hash(&mut h);
    }
    for o in OUTPUTS {
        format!("{:?}", sim.peek(o).ok()).hash(&mut h);
    }
    h.finish()
}

fn session(
    ctx: &Ctx,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
    designs: &[Generated],
    which: usize,
    missing: &mut Vec<String>,
    first_logs: &mut [Option<Vec<LogRecord>>],
) -> Result<Outcome, String> {
    let g = &designs[which];
    let root = tr.begin_op("session");
    let t = Instant::now();
    let sim = sim_cmd(ctx, tr, counts, g)?;
    let sim_cmd = t.elapsed();
    let t = Instant::now();
    let (lint_digest, miss) = lint_cmd(ctx, tr, counts, g)?;
    let lint_cmd = t.elapsed();
    tr.end(root);
    let sim_digest = sim_digest(&sim);
    if first_logs[which].is_none() {
        first_logs[which] = Some(sim.logs().to_vec());
        missing.extend(miss.into_iter().map(|m| format!("design {which}: {m}")));
    }
    Ok(Outcome {
        design: which,
        sim_digest,
        lint_digest,
        sim_cmd,
        lint_cmd,
    })
}

/// Runs the production backend and the `Backend::Tree` reference side by
/// side for [`PREFIX`] cycles; outputs must agree every cycle, and the
/// logs (also those of the timed run, up to the prefix) must be equal.
fn tree_check(
    ctx: &Ctx,
    g: &Generated,
    timed_logs: &[LogRecord],
) -> Result<Option<String>, String> {
    let file = hwdbg_rtl::parse(&g.source).map_err(|e| e.to_string())?;
    let design = hwdbg_dataflow::elaborate(&file, g.top, &ctx.lib).map_err(|e| e.to_string())?;
    let mut fast = Simulator::new(design.clone(), &StdModels, SimConfig::default())
        .map_err(|e| e.to_string())?;
    let mut tree = Simulator::new(
        design,
        &StdModels,
        SimConfig::default().with_backend(Backend::Tree),
    )
    .map_err(|e| e.to_string())?;
    for cycle in 0..PREFIX {
        fast.step("clk").map_err(|e| e.to_string())?;
        tree.step("clk").map_err(|e| e.to_string())?;
        for o in OUTPUTS {
            let (a, b) = (fast.peek(o).ok(), tree.peek(o).ok());
            if a != b {
                return Ok(Some(format!(
                    "cycle {cycle}: `{o}` is {a:?}, Tree says {b:?}"
                )));
            }
        }
    }
    if fast.logs() != tree.logs() {
        return Ok(Some("logs differ from the Tree reference".into()));
    }
    let prefix: Vec<&LogRecord> = timed_logs.iter().filter(|r| r.cycle <= PREFIX).collect();
    let reference: Vec<&LogRecord> = tree.logs().iter().collect();
    if prefix.len() < reference.len() || prefix[..reference.len()] != reference[..] {
        return Ok(Some(
            "timed run's logs differ from the Tree reference".into(),
        ));
    }
    Ok(None)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ctx = Ctx::default();
    let (designs, setup_s) = timed_setup(|| {
        let mut rng = Rng::new(args.seed);
        Ok::<_, String>(
            (0..DESIGNS)
                .map(|_| generate(rng.next_u64(), SHAPE))
                .collect::<Vec<_>>(),
        )
    })?;

    let mut tr = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut missing = Vec::new();
    let mut first_logs: Vec<Option<Vec<LogRecord>>> = vec![None; DESIGNS];
    let mut ops = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let mut host = Host::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < window {
        let which = round % DESIGNS;
        // The traced run takes each design twice, untraced and traced, in
        // alternating order, so the overhead compares equal work.
        let passes: &[bool] = match (args.trace, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in passes {
            tr.set_on(traced);
            let t = Instant::now();
            let o = session(
                &ctx,
                &mut tr,
                &mut counts,
                &designs,
                which,
                &mut missing,
                &mut first_logs,
            )?;
            let wall = t.elapsed();
            if args.trace && !traced {
                counts.untraced_ops += 1;
                counts.untraced_op_ns += u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            }
            ops.push(Op {
                wall: wall.as_secs_f64(),
                cal: host.mark(),
                jobs: 1,
                cycles: CYCLES,
                item: which,
                sim_cmd: o.sim_cmd.as_secs_f64(),
                lint_cmd: o.lint_cmd.as_secs_f64(),
            });
            outcomes.push(o);
            host.sample();
        }
        round += 1;
    }
    tr.set_on(false);
    let rss = peak_rss_mb();

    // Checks: every session of a design produced the same simulation and
    // lint results as its first; each design matches the Tree reference
    // over the prefix and fires every planted pattern.
    let mut report = Report::default();
    let mut reference: Vec<Option<(u64, u64)>> = vec![None; DESIGNS];
    for o in &outcomes {
        let digest = (o.sim_digest, o.lint_digest);
        let err = match reference[o.design] {
            None => {
                reference[o.design] = Some(digest);
                None
            }
            Some(d) => (d != digest)
                .then(|| format!("design {}: results changed between sessions", o.design)),
        };
        report.check(err);
    }
    for (i, logs) in first_logs.iter().enumerate() {
        if let Some(logs) = logs {
            report.check(tree_check(&ctx, &designs[i], logs)?.map(|e| format!("design {i}: {e}")));
        }
    }
    report
        .check((!missing.is_empty()).then(|| format!("planted lint patterns missed: {missing:?}")));

    report.samples.push(("sessions", outcomes.len()));
    if args.trace {
        let summary = tr.summary();
        counts.kernel_s = summary.total_s("sim.simulate");
        per_layer(&mut report, &summary, &counts, &ctx.lint_spans);
        let path = crate::trace_path(args);
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        end_to_end(&mut report, setup_s, &figures(&ops, &mut host), rss, &mut host);
    }
    Ok(report)
}
