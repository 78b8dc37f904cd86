//! `hwdbg` — command-line front end for the toolkit.
//!
//! `hwdbg help` prints the usage text ([`USAGE`], its one copy). Each
//! subcommand accepts exactly the `--flags` its usage entry names; any
//! other flag is an error naming the flag and the subcommand.
//!
//! All errors surface as rendered [`hwdbg::diag::HwdbgError`] diagnostics
//! (stable `EXXYY` codes, source excerpts for spanned errors) rather than
//! panics or bare `Debug` dumps.

use hwdbg::dataflow::{DepKind, Design, PropGraph, SigKind};
use hwdbg::diag::{ErrorCode, HwdbgError, Severity};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::lint::{Level, LintConfig};
use hwdbg::obs::{counters_json, json_escape, render_human, stages_json, SimCounters, StageTimer};
use hwdbg::sim::{run_with_faults, Backend, FaultPlan, SimConfig, Simulator};
use hwdbg::synth::{estimate, estimate_timing, Platform};
use hwdbg::testbed::{metadata, reproduce, workloads, BugId, Loaded, Outcome, Target};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{rerun, DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hwdbg: {e}");
            ExitCode::FAILURE
        }
    }
}

type Anyhow = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), Anyhow> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "parse" => cmd_parse(rest),
        "sim" => cmd_sim(rest),
        "fsm" => cmd_fsm(rest),
        "deps" => cmd_deps(rest),
        "signalcat" => cmd_signalcat(rest),
        "losscheck" => cmd_losscheck(rest),
        "resources" => cmd_resources(rest),
        "testbed" => cmd_testbed(rest),
        "faults" => cmd_faults(rest),
        "profile" => cmd_profile(rest),
        "lint" => cmd_lint(rest),
        "campaign" => cmd_campaign(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `hwdbg help`)").into()),
    }
}

/// The usage text. An entry runs from its `hwdbg <command>` line to the
/// next entry or blank line, and names every flag the command accepts.
const USAGE: &str = "\
hwdbg — software-style bug localization for reconfigurable hardware

usage:
hwdbg parse <file.v|BUG_ID> [--top NAME]
    check and print the flat module
hwdbg sim <file.v|BUG_ID> [--top NAME] [--cycles N] [--clock CLK] [--vcd OUT]
          [--backend tree|levelized] [--json]
    simulate on the chosen execution backend
hwdbg fsm <file.v|BUG_ID> [--top NAME]
    detect FSMs (§4.2 heuristics)
hwdbg deps <file.v|BUG_ID> --var SIGNAL [--cycles K] [--top NAME]
    dependency chain (§4.3)
hwdbg signalcat <file.v|BUG_ID> [--top NAME] [--depth N]
    emit instrumented Verilog (§4.1)
hwdbg losscheck <file.v|BUG_ID> --source S --sink K --valid V [--top NAME]
    emit instrumented Verilog (§4.5)
hwdbg resources <file.v|BUG_ID> [--top NAME] [--platform harp|kc705]
    resource and timing estimate
hwdbg testbed [BUG_ID|all]
    reproduce testbed bugs (§6.1)
hwdbg faults <file.v|BUG_ID> --plan PLAN [--cycles N] [--clock CLK] [--top NAME]
    inject faults mid-simulation
hwdbg profile <file.v|BUG_ID> [--top NAME] [--cycles N] [--clock CLK] [--json]
    stage timings and hot-path counters
hwdbg lint <file.v|BUG_ID> [--top NAME] [--json] [--deny IDS] [--allow IDS] [--warn IDS]
           [--explain LXXXX]
    static bug-pattern analysis (§6)
hwdbg campaign <spec|fault-matrix|seed-sweep> [--jobs N] [--json] [--out FILE] [--seeds N]
               [--job-timeout SECS] [--retries N] [--journal FILE] [--resume FILE]
               [--baseline FILE]
    fault-tolerant simulation fleet

BUG_ID names a testbed bug (d2, C1, ...); --top defaults to the file's last module;
--clock defaults to the design's primary clock and must name one of its signals.";

fn print_usage() {
    println!("{USAGE}");
}

/// The flags `cmd` accepts: every `--name` in its [`USAGE`] entry.
fn flags_of(cmd: &str) -> Vec<&'static str> {
    let head = format!("hwdbg {cmd} ");
    USAGE
        .lines()
        .skip_while(|l| !l.starts_with(&head))
        .enumerate()
        .take_while(|(i, l)| *i == 0 || !(l.is_empty() || l.starts_with("hwdbg ")))
        .flat_map(|(_, l)| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter_map(|w| w.strip_prefix("--"))
        .collect()
}

/// Minimal flag parser: positional target plus `--key value` options and
/// the `--json` switch.
struct Opts {
    file: Option<String>,
    flags: Vec<(String, String)>,
    json: bool,
}

impl Opts {
    /// Parses the arguments of subcommand `cmd`, rejecting any flag its
    /// usage entry does not name.
    fn parse(cmd: &str, args: &[String]) -> Result<Opts, Anyhow> {
        let known = flags_of(cmd);
        let mut file = None;
        let mut flags = Vec::new();
        let mut json = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--").filter(|k| !known.contains(k)) {
                return Err(
                    format!("unknown flag `--{key}` for `hwdbg {cmd}` (see `hwdbg help`)").into(),
                );
            } else if a == "--json" {
                json = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_owned(), value.clone()));
            } else if file.is_none() {
                file = Some(a.clone());
            } else {
                return Err(format!("unexpected argument `{a}`").into());
            }
        }
        Ok(Opts { file, flags, json })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn file(&self) -> Result<&str, Anyhow> {
        self.file
            .as_deref()
            .ok_or_else(|| "missing <file.v|BUG_ID>".into())
    }
}

/// Renders a typed diagnostic against the source it points into — the
/// `error[EXXYY]` header plus a `--> path:line:col` excerpt for spanned
/// errors — and boxes it for the CLI error path.
fn rendered(diag: HwdbgError, src: &str, path: &str) -> Anyhow {
    diag.with_path(path).render(Some(src)).into()
}

/// Loads the target a subcommand names (a testbed bug id or a Verilog
/// file) and prints the elaborator's warnings against its source.
fn load(opts: &Opts, timer: &mut StageTimer) -> Result<Loaded, Anyhow> {
    let loaded = Target::new(opts.file()?, opts.get("top")).load(timer)?;
    for warn in loaded.design.lints() {
        eprintln!(
            "{}",
            warn.with_path(&loaded.label).render(Some(&loaded.source))
        );
    }
    Ok(loaded)
}

/// The clock a run drives: `--clock`, which must name a signal of the
/// design, else the design's primary clock.
fn pick_clock(opts: &Opts, design: &Design) -> Result<String, Anyhow> {
    match opts.get("clock") {
        Some(c) if design.signals.contains_key(c) => Ok(c.to_owned()),
        Some(c) => Err(format!("--clock `{c}`: the design has no signal of that name").into()),
        None => design
            .primary_clock()
            .ok_or_else(|| "the design has no clock; name a signal to toggle with --clock".into()),
    }
}

fn cmd_parse(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("parse", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    println!("{}", hwdbg::rtl::print_module(&design.flat));
    eprintln!(
        "ok: {} signals, {} comb drivers, {} clocked processes, {} blackboxes",
        design.signals.len(),
        design.combs.len(),
        design.procs.len(),
        design.blackboxes.len()
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("sim", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let cycles: u64 = opts.get("cycles").unwrap_or("100").parse()?;
    let backend_name = opts.get("backend").unwrap_or("levelized").to_owned();
    let backend = match backend_name.as_str() {
        "levelized" => Backend::Levelized,
        "tree" => Backend::Tree,
        other => return Err(format!("unknown backend `{other}` (tree|levelized)").into()),
    };
    let clock = pick_clock(&opts, &design)?;
    let mut sim = Simulator::new(
        design,
        &StdModels,
        SimConfig::default().with_backend(backend),
    )?;
    if let Some(vcd_path) = opts.get("vcd") {
        sim.attach_vcd(std::fs::File::create(vcd_path)?)?;
    }
    sim.run(&clock, cycles)?;
    let (lowered, total) = sim.compiled_design().lowering_coverage();
    let (regions, max_level, fused_signals) = sim.compiled_design().region_stats();
    if opts.json {
        let logs: Vec<String> = sim
            .logs()
            .iter()
            .map(|r| format!("\"{}\"", json_escape(&r.to_string())))
            .collect();
        println!(
            "{{\"clock\": \"{}\", \"cycles\": {}, \"finished\": {}, \
             \"backend\": \"{}\", \"lowered_units\": {lowered}, \"total_units\": {total}, \
             \"regions\": {regions}, \"max_level\": {max_level}, \
             \"fused_signals\": {fused_signals}, \"logs\": [{}]}}",
            json_escape(&clock),
            sim.cycle(&clock),
            sim.finished(),
            json_escape(&backend_name),
            logs.join(", "),
        );
        return Ok(());
    }
    for rec in sim.logs() {
        println!("{rec}");
    }
    eprintln!(
        "ran {} cycles of `{clock}`; {} log records{}",
        sim.cycle(&clock),
        sim.logs().len(),
        if sim.finished() { "; $finish reached" } else { "" }
    );
    eprintln!(
        "backend {backend_name}: {lowered}/{total} units lowered; \
         {regions} fused regions (max level {max_level}, {fused_signals} promoted signals)"
    );
    Ok(())
}

fn cmd_fsm(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("fsm", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let fsms = FsmMonitor::detect(&design);
    if fsms.is_empty() {
        println!("no FSMs detected");
        return Ok(());
    }
    for f in fsms {
        let states: Vec<String> = f
            .states
            .iter()
            .map(|(v, n)| format!("{n}={v}"))
            .collect();
        println!("{} ({} bits): {}", f.signal, f.width, states.join(", "));
    }
    Ok(())
}

fn cmd_deps(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("deps", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let var = opts.get("var").ok_or("missing --var SIGNAL")?;
    let k: u32 = opts.get("cycles").unwrap_or("3").parse()?;
    let graph = PropGraph::build(&design, &StdIpLib::new())?;
    let chain = DependencyMonitor::analyze(
        &design,
        &graph,
        var,
        k,
        &[DepKind::Data, DepKind::Control],
    )?;
    println!("dependencies of `{var}` within {k} cycles:");
    for (sig, dist) in &chain.deps {
        if sig != var {
            println!("  {dist} cycle(s): {sig}");
        }
    }
    Ok(())
}

fn cmd_signalcat(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("signalcat", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let cfg = SignalCatConfig {
        buffer_depth: opts.get("depth").unwrap_or("8192").parse()?,
        ..Default::default()
    };
    let info = SignalCat::instrument(&design, &cfg)?;
    println!("{}", hwdbg::rtl::print_module(&info.module));
    eprintln!(
        "instrumented {} $display statement(s); generated {} lines",
        info.statements.len(),
        info.generated_lines
    );
    Ok(())
}

fn cmd_losscheck(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("losscheck", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let cfg = LossCheckConfig {
        source: opts.get("source").ok_or("missing --source")?.to_owned(),
        sink: opts.get("sink").ok_or("missing --sink")?.to_owned(),
        source_valid: opts.get("valid").ok_or("missing --valid")?.to_owned(),
    };
    let graph = PropGraph::build(&design, &StdIpLib::new())?;
    let info = LossCheck::instrument(&design, &graph, &cfg)?;
    println!("{}", hwdbg::rtl::print_module(&info.module));
    eprintln!(
        "tracking {:?} on the {} -> {} path; generated {} lines",
        info.tracked, cfg.source, cfg.sink, info.generated_lines
    );
    Ok(())
}

fn cmd_resources(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("resources", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let platform = match opts.get("platform").unwrap_or("harp") {
        "harp" => Platform::IntelHarp,
        "kc705" => Platform::XilinxKc705,
        other => return Err(format!("unknown platform `{other}`").into()),
    };
    let r = estimate(&design);
    let t = estimate_timing(&design);
    let (regs, logic, bram) = r.normalized(platform);
    println!("platform: {platform}");
    println!("registers : {:>10}  ({regs:.4}%)", r.registers);
    println!("logic     : {:>10}  ({logic:.4}%)", r.logic_cells);
    println!("bram bits : {:>10}  ({bram:.4}%)", r.bram_bits);
    println!(
        "timing    : {} logic levels, Fmax ≈ {:.0} MHz",
        t.critical_levels, t.fmax_mhz
    );
    Ok(())
}

fn cmd_testbed(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("testbed", args)?;
    let which = opts.file.as_deref().unwrap_or("all");
    let ids: Vec<BugId> = if which == "all" {
        BugId::ALL.to_vec()
    } else {
        vec![which.parse()?]
    };
    let mut failures = 0;
    for id in ids {
        let r = reproduce(id)?;
        let ok = r.symptom_observed && r.fixed_passes;
        failures += (!ok) as usize;
        println!(
            "{id:<4} {} symptom={} | {}",
            if ok { "ok  " } else { "FAIL" },
            r.symptom.map_or("-".into(), |s| s.to_string()),
            r.detail
        );
    }
    if failures > 0 {
        return Err(format!("{failures} bug(s) failed to reproduce").into());
    }
    Ok(())
}

/// `hwdbg profile`: run the whole pipeline — parse, elaborate (flatten +
/// resolve), compile, simulate, analyze — with per-stage wall-clock spans
/// and the simulator's hot-path counters enabled, then report both.
///
/// The target is either a Verilog file or a testbed bug id (`d2`, `c1`,
/// ...). Analysis sub-spans run each paper tool on the design — instrument,
/// re-simulate under the profiled run's stimulus, observe — and fold its
/// tool-side counters into the same registry. A tool that cannot run does
/// not fail the profile: it is listed under `skipped` with its error code,
/// or `n/a` when it needs a loss spec the target does not have.
fn cmd_profile(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("profile", args)?;
    let mut timer = StageTimer::new();
    let loaded = load(&opts, &mut timer)?;
    let (label, bug) = (loaded.label, loaded.bug);
    let clock = pick_clock(&opts, &loaded.design)?;
    let cycles: u64 = opts.get("cycles").unwrap_or("200").parse()?;

    let mut sim = timer.time("compile", || {
        Simulator::new(loaded.design, &StdModels, SimConfig::default().with_metrics(true))
    })?;
    // Testbed bugs run their push-button workload (the profile then covers
    // a representative stimulus, and a symptom is an outcome, not a crash);
    // plain files free-run the clock. The tools' re-simulations drive the
    // same way.
    let drive = |s: &mut Simulator| match bug {
        Some(id) => workloads::run(id, s).map(drop),
        None => s.run(&clock, cycles),
    };
    let outcome = match bug {
        Some(id) => match timer.time("simulate", || workloads::run(id, &mut sim)) {
            Ok(Outcome::Pass) => "pass".to_owned(),
            Ok(Outcome::Fail { symptom, .. }) => format!("fail ({symptom})"),
            Err(e) => format!("error ({e})"),
        },
        None => {
            timer.time("simulate", || drive(&mut sim))?;
            if sim.finished() { "$finish" } else { "ran" }.to_owned()
        }
    };
    let mut counters = sim.counters().copied().unwrap_or_default();
    let design = sim.design();
    let loss = bug.and_then(|id| metadata(id).loss);

    let mut skipped: Vec<(&str, &str, String)> = Vec::new();
    let mut analyze =
        |timer: &mut StageTimer, tool, run: &mut dyn FnMut() -> Result<(), HwdbgError>| {
            if let Err(e) = timer.time(tool, run) {
                skipped.push((tool, e.code.as_str(), e.message));
            }
        };
    timer.start("analyze");
    let graph = timer.time("propgraph", || PropGraph::build(design, &StdIpLib::new()));
    let graph = graph.map_err(HwdbgError::from);
    analyze(&mut timer, "signalcat", &mut || {
        let info = SignalCat::instrument(design, &SignalCatConfig::default())?;
        SignalCat::observe(&info, &rerun(&info.module, drive)?, &mut counters);
        Ok(())
    });
    analyze(&mut timer, "fsm", &mut || {
        let info = FsmMonitor::new().instrument(design)?;
        FsmMonitor::observe(&info, &rerun(&info.module, drive)?, &mut counters);
        Ok(())
    });
    analyze(&mut timer, "depmon", &mut || {
        let target = depmon_target(design, bug).ok_or_else(|| {
            HwdbgError::new(ErrorCode::NothingToInstrument, "no register to watch")
        })?;
        let graph = graph.as_ref().map_err(Clone::clone)?;
        let kinds = [DepKind::Data, DepKind::Control];
        let chain = DependencyMonitor::analyze(design, graph, &target, 2, &kinds)?;
        let info = DependencyMonitor::instrument(design, &chain)?;
        DependencyMonitor::observe(&rerun(&info.module, drive)?, &mut counters);
        Ok(())
    });
    match loss {
        Some(loss) => {
            analyze(&mut timer, "losscheck", &mut || {
                let cfg = LossCheckConfig {
                    source: loss.source.to_owned(),
                    sink: loss.sink.to_owned(),
                    source_valid: loss.valid.to_owned(),
                };
                let info =
                    LossCheck::instrument(design, graph.as_ref().map_err(Clone::clone)?, &cfg)?;
                LossCheck::observe(rerun(&info.module, drive)?.logs(), &mut counters);
                Ok(())
            });
            analyze(&mut timer, "statmon", &mut || {
                let expr = hwdbg::rtl::parse_expr(loss.valid)?;
                let info =
                    StatisticsMonitor::instrument(design, &[Event::new("valid", expr)], None)?;
                StatisticsMonitor::observe(&info, &rerun(&info.module, drive)?, &mut counters);
                Ok(())
            });
        }
        None => {
            let why = "needs a testbed data-loss bug's loss spec";
            skipped.extend(["losscheck", "statmon"].map(|tool| (tool, "n/a", why.to_owned())));
        }
    }
    timer.finish();

    let cycles = sim.cycle(&clock);
    let (lowered, total) = sim.compiled_design().lowering_coverage();
    let (regions, max_level, fused_signals) = sim.compiled_design().region_stats();
    if opts.json {
        let skipped: Vec<String> = skipped
            .iter()
            .map(|(tool, code, message)| {
                format!(
                    "{{\"tool\": \"{tool}\", \"code\": \"{code}\", \"message\": \"{}\"}}",
                    json_escape(message)
                )
            })
            .collect();
        println!(
            "{{\"design\": \"{}\", \"clock\": \"{}\", \"cycles\": {cycles}, \
             \"outcome\": \"{}\", \"lowered_units\": {lowered}, \"total_units\": {total}, \
             \"regions\": {regions}, \"max_level\": {max_level}, \
             \"fused_signals\": {fused_signals}, \"skipped\": [{}], \"stages\": {}, \
             \"counters\": {}}}",
            json_escape(&label),
            json_escape(&clock),
            json_escape(&outcome),
            skipped.join(", "),
            stages_json(&timer),
            counters_json(&counters),
        );
    } else {
        println!("profile of {label} — clock `{clock}`, outcome: {outcome}");
        println!(
            "schedule: {lowered}/{total} units lowered; {regions} fused regions \
             (max level {max_level}, {fused_signals} promoted signals)"
        );
        let mut lines: Vec<String> = skipped
            .iter()
            .map(|(tool, code, message)| format!("{tool} ({code}: {message})"))
            .collect();
        if lines.is_empty() {
            lines.push("none".into());
        }
        println!("skipped: {}", lines.join(", "));
        println!("{}", render_human(&timer, &counters));
    }
    Ok(())
}

/// The Dependency Monitor's watch target: a testbed bug's loss sink, else
/// its first labelled FSM register, else the design's first register.
fn depmon_target(design: &Design, bug: Option<BugId>) -> Option<String> {
    let meta = bug.map(metadata);
    let sink = meta.as_ref().and_then(|m| m.loss).map(|l| l.sink);
    let fsms = meta.iter().flat_map(|m| m.fsm_registers.iter().copied());
    sink.into_iter()
        .chain(fsms)
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

/// `hwdbg lint`: run the static bug-pattern passes over an elaborated
/// design and render every finding against its source. The target is
/// either a Verilog file or a testbed bug id (`d1`, `c3`, ...).
///
/// `--deny`/`--allow`/`--warn` take comma-separated L-codes, in any letter
/// case, and override the built-in levels; a code no pass emits is an
/// error. Any deny-level finding makes the command exit nonzero, so
/// `--deny L0501` turns a lint into a CI gate.
fn cmd_lint(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("lint", args)?;
    // `--explain LXXXX` needs no design: resolve the code and exit.
    if let Some(code) = opts.get("explain") {
        return explain_code(code, opts.json);
    }

    let mut cfg = LintConfig::new();
    for (flag, level) in [
        ("allow", Level::Allow),
        ("warn", Level::Warn),
        ("deny", Level::Deny),
    ] {
        if let Some(list) = opts.get(flag) {
            for code in list.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                let Some(known) = hwdbg::lint::lint_code(code) else {
                    return Err(format!("unknown lint code `{code}`").into());
                };
                cfg.set(known.as_str(), level);
            }
        }
    }

    let mut timer = StageTimer::new();
    let loaded = load(&opts, &mut timer)?;
    let (label, design) = (&loaded.label, &loaded.design);

    let mut counters = SimCounters::default();
    timer.start("lint");
    let findings = hwdbg::lint::run_all(design, &cfg, &mut timer, &mut counters);
    timer.finish();
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();

    if opts.json {
        let items: Vec<String> = findings
            .iter()
            .map(|f| {
                let span = f
                    .span
                    .map_or("null".to_owned(), |s| format!("[{}, {}]", s.start, s.end));
                let signals: Vec<String> = f
                    .signals
                    .iter()
                    .map(|s| format!("\"{}\"", json_escape(s)))
                    .collect();
                format!(
                    "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", \
                     \"span\": {span}, \"signals\": [{}]}}",
                    f.code.as_str(),
                    f.severity,
                    json_escape(&f.message),
                    signals.join(", ")
                )
            })
            .collect();
        println!(
            "{{\"design\": \"{}\", \"top\": \"{}\", \"errors\": {errors}, \
             \"findings\": [{}], \"stages\": {}, \"counters\": {}}}",
            json_escape(label),
            json_escape(&design.flat.name),
            items.join(", "),
            stages_json(&timer),
            counters_json(&counters),
        );
    } else {
        for f in &findings {
            println!("{}", f.clone().with_path(label).render(Some(&loaded.source)));
        }
        eprintln!(
            "{label}: {} finding(s) ({errors} error(s)) from {} pass(es)",
            findings.len(),
            counters.lint_passes
        );
    }
    if errors > 0 {
        return Err(format!("{errors} deny-level finding(s)").into());
    }
    Ok(())
}

/// `hwdbg lint --explain LXXXX`: print what a code fingerprints, the
/// Table 1 subclass it targets, and a minimal triggering example.
fn explain_code(code: &str, json: bool) -> Result<(), Anyhow> {
    let Some(e) = hwdbg::lint::explain(code) else {
        return Err(format!(
            "unknown lint code `{code}` (codes look like L0501; \
             see `hwdbg lint` findings for the full set)"
        )
        .into());
    };
    if json {
        println!(
            "{{\"code\": \"{}\", \"subclass\": \"{}\", \"summary\": \"{}\", \
             \"example\": \"{}\"}}",
            e.code,
            json_escape(e.subclass),
            json_escape(e.summary),
            json_escape(e.example),
        );
    } else {
        println!("{} — Table 1 subclass: {}", e.code, e.subclass);
        println!();
        println!("{}", e.summary);
        println!();
        println!("example:");
        for line in e.example.lines() {
            println!("    {line}");
        }
    }
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), Anyhow> {
    let opts = Opts::parse("faults", args)?;
    let design = load(&opts, &mut StageTimer::new())?.design;
    let plan_path = opts.get("plan").ok_or("missing --plan PLAN")?;
    let plan_src = std::fs::read_to_string(plan_path)?;
    let plan = FaultPlan::parse(&plan_src)
        .map_err(|e| rendered(e.into(), &plan_src, plan_path))?;
    plan.validate(&design)
        .map_err(|e| rendered(e.into(), &plan_src, plan_path))?;
    let clock = pick_clock(&opts, &design)?;
    let cycles: u64 = opts.get("cycles").unwrap_or("100").parse()?;

    eprintln!("injecting {} fault(s):", plan.faults.len());
    for f in &plan.faults {
        eprintln!("  {f}");
    }
    let mut sim = Simulator::new(design, &StdModels, SimConfig::default())?;
    match run_with_faults(&mut sim, &clock, cycles, &plan) {
        Ok(ran) => {
            for rec in sim.logs() {
                println!("{rec}");
            }
            let forced = sim.forced_signals();
            eprintln!(
                "ran {ran} cycles of `{clock}` under faults; {} log records{}{}",
                sim.logs().len(),
                if sim.finished() { "; $finish reached" } else { "" },
                if forced.is_empty() {
                    String::new()
                } else {
                    format!("; still forced at exit: {}", forced.join(", "))
                }
            );
            Ok(())
        }
        // A typed simulation error under faults is a *finding*, not a
        // crash: render it with its code and the signals involved.
        Err(e) => {
            let diag: HwdbgError = e.into();
            Err(diag.render(None).into())
        }
    }
}

/// `hwdbg campaign` — run a job matrix across worker threads and print
/// one aggregated report.
///
/// The target is a builtin campaign (`fault-matrix`, `seed-sweep`) or a
/// spec file in the job-matrix grammar (see `hwdbg-campaign` docs and
/// README). `--jobs N` picks the worker count (default: available
/// parallelism); `--json` prints the full machine-readable report (the
/// `results` section of which is byte-identical for any `--jobs` value);
/// `--out FILE` streams the JSON report to a file as jobs retire.
///
/// Fault tolerance: `--job-timeout SECS` arms a per-job wall-clock
/// watchdog (hung jobs become `timed-out` records); `--retries N` reruns
/// crashed/timed-out jobs up to N times; `--journal FILE` appends each
/// retired record to a crash-safe JSONL journal; `--resume FILE` replays
/// a journal from a killed run and executes only the remainder (the
/// final results section is byte-identical to an uninterrupted run);
/// `--baseline FILE` diffs this run's verdicts against a prior report
/// and exits nonzero on drift.
fn cmd_campaign(args: &[String]) -> Result<(), Anyhow> {
    use hwdbg::campaign::journal::{self, JournalWriter, StreamingReport};
    use hwdbg::campaign::{baseline, CampaignError, JobRecord, RunOptions};
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::Mutex;

    // CampaignError carries a stable E08xx code; render it like every
    // other diagnostic instead of Debug-dumping.
    fn rendered_campaign(e: CampaignError) -> Anyhow {
        let diag: HwdbgError = e.into();
        diag.render(None).into()
    }
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    let opts = Opts::parse("campaign", args)?;
    let target = opts.file.as_deref().ok_or(
        "missing campaign target: a spec file, `fault-matrix`, or `seed-sweep`",
    )?;
    let jobs: usize = match opts.get("jobs") {
        Some(n) => n.parse()?,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut run_opts = RunOptions::default();
    if let Some(t) = opts.get("job-timeout") {
        let secs: f64 = t.parse()?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("--job-timeout must be a positive number of seconds, got `{t}`").into());
        }
        run_opts.job_timeout = Some(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(r) = opts.get("retries") {
        run_opts.retries = r.parse()?;
    }
    let campaign = match target {
        "fault-matrix" => hwdbg::campaign::clients::fault_matrix()?,
        "seed-sweep" => {
            let seeds: u64 = opts.get("seeds").unwrap_or("4").parse()?;
            hwdbg::campaign::clients::seed_sweep(seeds)?
        }
        path => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))?;
            hwdbg::campaign::CampaignSpec::parse(&src)?.build()?
        }
    };

    // Journal: `--resume` replays + appends to an existing journal;
    // `--journal` starts a fresh one.
    let mut completed: BTreeMap<usize, JobRecord> = BTreeMap::new();
    let mut writer: Option<JournalWriter> = None;
    if let Some(rp) = opts.get("resume") {
        let state = journal::load(Path::new(rp)).map_err(rendered_campaign)?;
        journal::validate(&state, &campaign).map_err(rendered_campaign)?;
        if state.torn_tail {
            eprintln!("{rp}: torn final line (crash damage); that job will rerun");
        }
        eprintln!(
            "resuming {rp}: {} of {} jobs already journaled",
            state.completed.len(),
            campaign.jobs.len()
        );
        completed = state.completed;
        writer = Some(JournalWriter::resume(Path::new(rp))?);
    } else if let Some(jp) = opts.get("journal") {
        writer = Some(JournalWriter::create(Path::new(jp), &campaign)?);
    }

    // `--out` streams the report as jobs retire; replayed records land
    // in the stream up front so a resumed file is complete too.
    let mut stream: Option<StreamingReport> = None;
    if let Some(out) = opts.get("out") {
        let mut s = StreamingReport::create(Path::new(out), &campaign.name, campaign.jobs.len())?;
        for (i, r) in &completed {
            s.push(*i, r)?;
        }
        stream = Some(s);
    }

    let writer = Mutex::new(writer);
    let stream = Mutex::new(stream);
    let retire = |i: usize, r: &JobRecord| {
        // On I/O failure, warn once and stop writing — a full disk must
        // not take down the campaign itself.
        let mut w = lock(&writer);
        if let Some(jw) = w.as_mut() {
            if let Err(e) = jw.append(i, r) {
                eprintln!("journal write failed, disabling journal: {e}");
                *w = None;
            }
        }
        drop(w);
        let mut s = lock(&stream);
        if let Some(sr) = s.as_mut() {
            if let Err(e) = sr.push(i, r) {
                eprintln!("--out stream write failed, disabling: {e}");
                *s = None;
            }
        }
    };
    let mut report = campaign
        .run_with(jobs, run_opts, &completed, retire)
        .map_err(rendered_campaign)?;

    if let Some(mut jw) = lock(&writer).take() {
        jw.sync()?;
        report.journal_flushes = jw.flushes();
    }
    if let Some(sr) = lock(&stream).take() {
        sr.finish(&report)?;
    }

    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }

    // `--baseline`: typed verdict drift is a failure the exit code must
    // carry, with the per-job table on stderr.
    if let Some(bp) = opts.get("baseline") {
        let text = std::fs::read_to_string(bp).map_err(|e| format!("{bp}: {e}"))?;
        let base = baseline::parse_baseline(&text).map_err(rendered_campaign)?;
        let d = baseline::diff(&report.records, &base);
        if !d.is_clean() {
            eprintln!("{}", d.render_table());
            return Err(rendered_campaign(CampaignError::Baseline(format!(
                "{} verdict(s) drifted from baseline {bp}",
                d.drifted.len()
            ))));
        }
        if !d.missing.is_empty() || !d.added.is_empty() {
            eprint!("{}", d.render_table());
        }
        eprintln!("baseline {bp}: no verdict drift");
    }
    Ok(())
}
