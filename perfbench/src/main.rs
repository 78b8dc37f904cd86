//! Whole-pipeline benchmark for hwdbg.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload debug_session|campaign_sweep|large_design \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One closed-loop client drives the library in-process for `--seconds`
//! seconds, every output is checked after the timed window, and the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` they are the per-layer ones, computed from spans
//! the benchmark records around its calls into each crate (see
//! `README.md` for the metric → layer → workload map).

mod campaign_sweep;
mod debug_session;
mod gen;
mod large_design;
mod trace;

use hwdbg_dataflow::{flatten, resolve, Design};
use hwdbg_diag::HwdbgError;
use hwdbg_ip::StdIpLib;
use hwdbg_lint::LintConfig;
use hwdbg_obs::{SimCounters, StageTimer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Summary, Tracer};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")? as f64,
        trace,
    })
}

/// What a workload hands back: check results and metrics.
#[derive(Default)]
pub struct Report {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Checked operations that failed or mismatched.
    pub failed: u64,
    /// The first few check failures, for the log.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts behind the percentiles and medians, for the log.
    pub samples: Vec<(&'static str, usize)>,
    /// The window's slowdown against the reference host, for the log.
    pub slowdown: Option<f64>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation; `err` is its failure, if any.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of `v` (`0 < q <= 1`); sorts `v`.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Set-up runs at least [`SETUP_MIN_REPS`] times and until it has taken
/// [`SETUP_MIN_S`] seconds in all (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median, so a short set-up is still read steadily.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MAX_REPS: usize = 1000;
pub const SETUP_MIN_S: f64 = 0.5;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]) and returns the last
/// result with the median wall time in seconds, scaled to the reference
/// host by the calibration kernel sampled between the repetitions.
pub fn timed_setup<T, E>(mut setup: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let before = calibration_kernel();
        let t = Instant::now();
        let value = setup()?;
        let dt = t.elapsed().as_secs_f64();
        let after = calibration_kernel();
        times.push(dt * 2.0 * CAL_REF_S / (before + after));
        total += dt;
        let enough = times.len() >= SETUP_MIN_REPS && total >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return Ok((value, median(&mut times)));
        }
    }
}

/// One finished operation of the timed window: its wall time in seconds,
/// the simulator runs and cycles it completed, and, for the design or bug
/// `item` it worked on, the time its `hwdbg sim`- and `hwdbg lint`-shaped
/// parts took; `cal` is [`Host::mark`] as it ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    pub wall: f64,
    pub cal: usize,
    pub jobs: u64,
    pub cycles: u64,
    pub item: usize,
    pub sim_cmd: f64,
    pub lint_cmd: f64,
}

/// The end-to-end figures of a window.
pub struct Figures {
    pub ops_per_s: f64,
    pub jobs_per_s: f64,
    pub cycles_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub sim_cmd_s: f64,
    pub lint_cmd_s: f64,
}

/// Rates over the summed operation time, latency percentiles, and the
/// command times as the mean over items of each item's median. The items
/// (20 bugs, 3 designs) differ several-fold in cost, and a plain median
/// across such a mixture jumps between them from run to run. Every time
/// is first scaled to the reference host by the host's slowdown around
/// its operation ([`Host::around`]).
pub fn figures(ops: &[Op], host: &mut Host) -> Figures {
    let slow: Vec<f64> = ops.iter().map(|o| host.around(o.cal)).collect();
    let secs: f64 = ops.iter().zip(&slow).map(|(o, s)| o.wall / s).sum();
    let mut wall_ms: Vec<f64> = ops.iter().zip(&slow).map(|(o, s)| o.wall * 1e3 / s).collect();
    let per_item = |f: fn(&Op) -> f64| {
        let mut by_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (o, s) in ops.iter().zip(&slow) {
            by_item.entry(o.item).or_default().push(f(o) / s);
        }
        let n = by_item.len().max(1) as f64;
        by_item.values_mut().map(|v| median(v)).sum::<f64>() / n
    };
    Figures {
        ops_per_s: ops.len() as f64 / secs,
        jobs_per_s: ops.iter().map(|o| o.jobs).sum::<u64>() as f64 / secs,
        cycles_per_s: ops.iter().map(|o| o.cycles).sum::<u64>() as f64 / secs,
        p50_ms: median(&mut wall_ms),
        p99_ms: percentile(&mut wall_ms, 0.99),
        sim_cmd_s: per_item(|o| o.sim_cmd),
        lint_cmd_s: per_item(|o| o.lint_cmd),
    }
}

/// Seconds the calibration kernel takes on the reference host, a 2-vCPU
/// Intel Xeon at 2.1 GHz.
pub const CAL_REF_S: f64 = 0.36e-3;

/// The window time between two calibration samples.
const CAL_EVERY_S: f64 = 0.02;

/// Samples on each side of an operation that [`Host::around`] takes the
/// median of.
const CAL_AROUND: usize = 8;

/// One run of a fixed CPU kernel that stands in for the host's speed:
/// fill, sort and fold a 16 KiB array on the stack. It allocates nothing
/// and runs no hwdbg code, so neither a change to the program nor the
/// heap it leaves behind can move it. The first pass warms the caches;
/// the second is timed.
fn calibration_kernel() -> f64 {
    let mut elapsed = 0.0;
    for _ in 0..2 {
        let t = Instant::now();
        let mut rng = Rng::new(42);
        let mut total = 0u64;
        for _ in 0..8 {
            let mut v = [0u64; 2048];
            for x in v.iter_mut() {
                *x = rng.next_u64();
            }
            v.sort_unstable();
            total = v.iter().fold(total, |a, &x| a.rotate_left(5) ^ x);
        }
        std::hint::black_box(total);
        elapsed = t.elapsed().as_secs_f64();
    }
    elapsed
}

/// The host's speed, sampled through the timed window.
///
/// A shared 2-vCPU Xeon host drifts by 10–20% in speed from one 30 s run
/// to the next, and each drift lasts for minutes. The end-to-end figures
/// are therefore scaled to the reference host: every time is divided, and
/// every rate multiplied, by how much slower the calibration kernel ran in
/// this window than [`CAL_REF_S`].
pub struct Host {
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Host {
    fn default() -> Host {
        Host {
            samples: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Host {
    /// Runs the kernel once per [`CAL_EVERY_S`] of window time since the
    /// last call that sampled (at most 8 times); call it between
    /// operations.
    pub fn sample(&mut self) {
        let due = (self.last.elapsed().as_secs_f64() / CAL_EVERY_S) as usize;
        if due > 0 {
            for _ in 0..due.min(8) {
                self.samples.push(calibration_kernel());
            }
            self.last = Instant::now();
        }
    }

    /// How much slower than the reference host this window ran.
    pub fn slowdown(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.samples.push(calibration_kernel());
        }
        median(&mut self.samples.clone()) / CAL_REF_S
    }

    /// The number of samples taken so far: where an operation that ends
    /// now sits among them.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference host the window ran around
    /// `mark`: the median of the [`CAL_AROUND`] samples before it and as
    /// many after it. The host slows by up to half for seconds at a time,
    /// and a latency tail scaled by the window's one slowdown is the
    /// slowest such phase, not the program's slowest operation. (64
    /// samples a side spread `large_design`'s p99 more between runs; see
    /// the README.)
    pub fn around(&mut self, mark: usize) -> f64 {
        if self.samples.is_empty() {
            self.samples.push(calibration_kernel());
        }
        let from = mark.saturating_sub(CAL_AROUND).min(self.samples.len() - 1);
        let to = (mark + CAL_AROUND).clamp(from + 1, self.samples.len());
        median(&mut self.samples[from..to].to_vec()) / CAL_REF_S
    }
}

/// Reports every end-to-end metric. The set-up time and the figures come
/// already scaled to the reference host (see [`timed_setup`] and
/// [`figures`]); the window's slowdown is only logged.
pub fn end_to_end(report: &mut Report, setup_s: f64, st: &Figures, rss: f64, host: &mut Host) {
    report.slowdown = Some(host.slowdown());
    report
        .samples
        .push(("calibration_samples", host.samples.len()));
    report.metric("setup_s", setup_s, "s");
    report.metric("sessions_per_s", st.ops_per_s, "1/s");
    report.metric("session_ms_p50", st.p50_ms, "ms");
    report.metric("session_ms_p99", st.p99_ms, "ms");
    report.metric("jobs_per_s", st.jobs_per_s, "1/s");
    report.metric("sim_cycles_per_s", st.cycles_per_s, "1/s");
    report.metric("sim_cmd_s", st.sim_cmd_s, "s");
    report.metric("lint_cmd_s", st.lint_cmd_s, "s");
    report.metric("peak_rss_mb", rss, "MiB");
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Binds the calling thread, and the threads it spawns from now on, to
/// the processor it runs on. Returns whether the binding took.
pub fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain glibc calls; the mask is a `cpu_set_t`
    // (1024 bits) that outlives the call, and pid 0 is this thread.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return false;
        };
        let mut mask = [0u64; 16];
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

/// Totals the workloads collect in the traced window, beside the spans.
#[derive(Default)]
pub struct LayerCounts {
    /// Source bytes handed to the parser.
    pub parse_bytes: u64,
    /// Cycles simulated inside `sim.simulate`/`sim.resimulate` spans (or
    /// campaign jobs), and the host seconds they took.
    pub kernel_cycles: u64,
    pub kernel_s: f64,
    /// Simulator hot-path counters from metric-enabled engines.
    pub steps: u64,
    pub units_executed: u64,
    pub regions_executed: u64,
    pub region_skips: u64,
    /// Per tool (in [`TOOLS`] order): generated lines summed, and runs.
    pub generated_lines: [(u64, u64); 5],
    pub tools_run: u64,
    pub tools_skipped: u64,
    pub lint_findings: u64,
    /// Campaign rounds: summed busy fraction, steals and jobs.
    pub busy_frac_sum: f64,
    pub steals: u64,
    pub rounds: u64,
    pub jobs: u64,
    /// Campaign engine set-up, timed outside the pool (see
    /// `campaign_sweep::probe_job_setup`): summed ns and jobs.
    pub job_setup_ns: u64,
    pub job_setup_n: u64,
    /// A traced set-up, for workloads whose front end and compile run only
    /// in set-up; those layers then read per set-up.
    pub setup: Option<Summary>,
    /// Wall time of the operations run untraced, for the overhead.
    pub untraced_ops: u64,
    pub untraced_op_ns: u64,
}

impl LayerCounts {
    /// Adds a metric-enabled engine's hot-path counters.
    pub fn add_sim(&mut self, c: &SimCounters) {
        self.steps += c.steps;
        self.units_executed += c.units_executed;
        self.regions_executed += c.regions_executed;
        self.region_skips += c.region_skips;
    }
}

/// The paper's five tools, in report order.
pub const TOOLS: [&str; 5] = ["signalcat", "fsm", "depmon", "losscheck", "statmon"];

/// Span names of each tool's instrument and observe steps.
pub const TOOL_SPANS: [(&str, &str, &str); 5] = [
    (
        "core.signalcat",
        "core.signalcat.instrument",
        "core.signalcat.observe",
    ),
    ("core.fsm", "core.fsm.instrument", "core.fsm.observe"),
    (
        "core.depmon",
        "core.depmon.instrument",
        "core.depmon.observe",
    ),
    (
        "core.losscheck",
        "core.losscheck.instrument",
        "core.losscheck.observe",
    ),
    (
        "core.statmon",
        "core.statmon.instrument",
        "core.statmon.observe",
    ),
];

/// Span names of the 16 lint passes, in registry order.
pub fn lint_span_names() -> Vec<&'static str> {
    hwdbg_lint::registry()
        .iter()
        .map(|p| &*Box::leak(format!("lint.{}", p.id()).into_boxed_str()))
        .collect()
}

/// What every workload calls the layers with.
pub struct Ctx {
    pub lib: StdIpLib,
    pub lint_cfg: LintConfig,
    /// Span names of the lint passes, in registry order.
    pub lint_spans: Vec<&'static str>,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            lib: StdIpLib::new(),
            lint_cfg: LintConfig::new(),
            lint_spans: lint_span_names(),
        }
    }
}

impl Ctx {
    /// parse → flatten → resolve, one span each.
    pub fn front_end(&self, tr: &mut Tracer, src: &str, top: &str) -> Result<Design, String> {
        let file = tr
            .time("rtl.parse", || hwdbg_rtl::parse(src))
            .map_err(|e| format!("parse: {e}"))?;
        let flat = tr
            .time("dataflow.flatten", || flatten(&file, top, &self.lib))
            .map_err(|e| format!("flatten: {e}"))?;
        tr.time("dataflow.resolve", || resolve(flat, &self.lib))
            .map_err(|e| format!("resolve: {e}"))
    }

    /// Every lint pass, through the driver `hwdbg lint` uses
    /// (`hwdbg_lint::run_all`), so a change to the driver shows. The
    /// per-pass durations its stage timer records become child spans of
    /// `lint.run_all`, laid out in pass order.
    pub fn lint(
        &self,
        tr: &mut Tracer,
        counts: &mut LayerCounts,
        design: &Design,
    ) -> Vec<HwdbgError> {
        let mut timer = StageTimer::new();
        let open = tr.begin("lint.run_all");
        let findings = hwdbg_lint::run_all(
            design,
            &self.lint_cfg,
            &mut timer,
            &mut SimCounters::default(),
        );
        if tr.on() {
            let mut at = tr.open_start_ns();
            for (stage, name) in timer.spans().iter().zip(&self.lint_spans) {
                let ns = u64::try_from(stage.elapsed.as_nanos()).unwrap_or(u64::MAX);
                tr.record(name, at, ns);
                at += ns;
            }
            counts.lint_findings += findings.len() as u64;
        }
        tr.end(open);
        findings
    }
}

/// Span names reported as a layer's `<name>_ms`; every other span (the
/// operation roots and the per-tool wrappers) is benchmark glue.
const LAYER_SPANS: [&str; 12] = [
    "rtl.parse",
    "dataflow.flatten",
    "dataflow.resolve",
    "dataflow.reresolve",
    "dataflow.propgraph",
    "sim.compile",
    "sim.recompile",
    "sim.job_setup",
    "sim.simulate",
    "sim.resimulate",
    "lint.run_all",
    "campaign.run",
];

/// Every per-layer metric, from the trace summary and the counts. A layer
/// the workload does not exercise reads 0.
pub fn per_layer(report: &mut Report, s: &Summary, c: &LayerCounts, lint_spans: &[&'static str]) {
    // Campaign jobs run inside the pool, out of the spans' reach: there
    // the engine set-up and simulate figures are per job, from the probe
    // and the campaign's own job timings.
    let per_job = (c.job_setup_n > 0 && c.jobs > 0).then(|| {
        let setup_ms = c.job_setup_ns as f64 / 1e6 / c.job_setup_n as f64;
        (setup_ms, c.kernel_s * 1e3 / c.jobs as f64 - setup_ms)
    });
    let mut reported: Vec<&str> = Vec::new();
    for name in LAYER_SPANS {
        let value = match (name, per_job, &c.setup) {
            ("sim.job_setup", Some((setup_ms, _)), _) => setup_ms,
            ("sim.simulate", Some((_, simulate_ms)), _) => simulate_ms,
            (
                "rtl.parse" | "dataflow.flatten" | "dataflow.resolve" | "sim.compile",
                _,
                Some(su),
            ) => su.per_op_ms(name),
            _ => {
                reported.push(name);
                s.per_op_ms(name)
            }
        };
        report.metric(format!("{name}_ms"), value, "ms");
    }
    let parse_s = c.setup.as_ref().unwrap_or(s).total_s("rtl.parse");
    report.metric(
        "rtl.parse_kb_per_s",
        if parse_s > 0.0 {
            c.parse_bytes as f64 / 1024.0 / parse_s
        } else {
            0.0
        },
        "KiB/s",
    );
    report.metric(
        "sim.cycles_per_s",
        if c.kernel_s > 0.0 {
            c.kernel_cycles as f64 / c.kernel_s
        } else {
            0.0
        },
        "1/s",
    );
    report.metric(
        "sim.units_per_cycle",
        if c.steps > 0 {
            c.units_executed as f64 / c.steps as f64
        } else {
            0.0
        },
        "count",
    );
    let regions = c.regions_executed + c.region_skips;
    report.metric(
        "sim.region_skip_frac",
        if regions > 0 {
            c.region_skips as f64 / regions as f64
        } else {
            0.0
        },
        "ratio",
    );
    for (i, (_, instrument, observe)) in TOOL_SPANS.iter().enumerate() {
        report.metric(format!("{instrument}_ms"), s.per_op_ms(instrument), "ms");
        report.metric(format!("{observe}_ms"), s.per_op_ms(observe), "ms");
        reported.push(instrument);
        reported.push(observe);
        let (lines, runs) = c.generated_lines[i];
        report.metric(
            format!("core.{}.generated_lines", TOOLS[i]),
            if runs > 0 {
                lines as f64 / runs as f64
            } else {
                0.0
            },
            "lines",
        );
    }
    let ops = s.ops.max(1) as f64;
    report.metric("core.tools_run", c.tools_run as f64 / ops, "count");
    report.metric("core.tools_skipped", c.tools_skipped as f64 / ops, "count");
    for name in lint_spans {
        report.metric(format!("{name}_ms"), s.per_op_ms(name), "ms");
        reported.push(name);
    }
    report.metric("lint.findings", c.lint_findings as f64 / ops, "count");
    let rounds = c.rounds.max(1) as f64;
    report.metric("campaign.busy_frac", c.busy_frac_sum / rounds, "ratio");
    report.metric("campaign.steals", c.steals as f64 / rounds, "count");

    // Accounting: layer self times plus glue add up to the traced
    // operation's wall time; the overhead compares it with the untraced
    // operations of the same run.
    let op_ms = s.op_ns as f64 / 1e6 / ops;
    let layer_ms: f64 = reported.iter().map(|n| s.per_op_ms(n)).sum();
    let untraced_ms = c.untraced_op_ns as f64 / 1e6 / c.untraced_ops.max(1) as f64;
    report.metric("trace.ops", s.ops as f64, "count");
    report.metric("trace.op_ms", op_ms, "ms");
    report.metric("trace.unattributed_ms", op_ms - layer_ms, "ms");
    report.metric("trace.untraced_op_ms", untraced_ms, "ms");
    report.metric(
        "trace.overhead_pct",
        (op_ms - untraced_ms) / untraced_ms * 100.0,
        "%",
    );
}

/// Where the traced run writes its spans, inside the checkout.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        ".bench_out/trace-{}-seed{}.jsonl",
        args.workload, args.seed
    ))
}

/// Host facts printed next to every result.
fn host_facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\"}}",
        nproc(),
        esc(&cpu),
        esc(&cmd("rustc", &["--version"])),
        esc(&cmd("git", &["rev-parse", "HEAD"])),
    )
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before the run: `campaign_sweep` binds itself to one processor.
    let host = host_facts();
    let result = match args.workload.as_str() {
        "debug_session" => debug_session::run(&args),
        "campaign_sweep" => campaign_sweep::run(&args),
        "large_design" => large_design::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"slowdown\": {}, \"samples\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host,
        report.slowdown.map_or("null".into(), |s| s.to_string()),
        samples.join(", ")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
