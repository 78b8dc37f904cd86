//! Resilience suite: every testbed bug × every applicable fault class,
//! through simulation *and* through all five debugging tools.
//!
//! The contract under test is the robustness story of this PR: when the
//! design under observation is perturbed mid-simulation (stuck nets, bit
//! flips, dropped handshakes, scrambled registers), every layer either
//! completes with a degraded-but-valid report or returns a typed error
//! (`SimError` / `ToolError` / `HwdbgError`) — it never panics. A panic
//! anywhere in this suite is a test failure by construction.

use hwdbg::dataflow::{resolve, DepKind, PropGraph, SigKind};
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::rtl::parse_expr;
use hwdbg::sim::{run_with_faults, FaultPlan, SimConfig, Simulator};
use hwdbg::testbed::faults::{all_plans, FAULT_CLASSES};
use hwdbg::testbed::{buggy_design, metadata, BugId};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::signalcat::SignalCatConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{DependencyMonitor, FsmMonitor, LossCheck, SignalCat, StatisticsMonitor};

/// Cycles to drive each faulted simulation. Long enough that every plan's
/// fault window (cycles 8..20) opens and closes while the workload-free
/// clock is still running.
const FAULT_CYCLES: u64 = 40;

const SEED: u64 = 0xC0FFEE;

fn clock_of(design: &hwdbg::dataflow::Design) -> Option<String> {
    design.primary_clock()
}

/// Runs one faulted simulation of `design`, returning whether it
/// completed (Ok) or failed with a typed error (also fine).
fn faulted_run(design: hwdbg::dataflow::Design, clock: &str, plan: &FaultPlan) {
    let mut sim = match Simulator::new(design, &StdModels, SimConfig::default()) {
        Ok(s) => s,
        // A typed construction error is an acceptable outcome.
        Err(_e) => return,
    };
    // Ok(cycles) or a typed SimError are both acceptable; what is not
    // acceptable — a panic — would abort the test.
    let _ = run_with_faults(&mut sim, clock, FAULT_CYCLES, plan);
}

/// Every bug survives every applicable fault class in plain simulation.
#[test]
fn all_bugs_survive_all_fault_classes() {
    let mut pairs = 0usize;
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let plans = all_plans(&design, SEED);
        assert_eq!(
            plans.len(),
            FAULT_CLASSES.len(),
            "{id}: every fault class must apply, got {plans:?}"
        );
        for (class, plan) in &plans {
            faulted_run(design.clone(), &clock, plan);
            pairs += 1;
            let _ = class;
        }
    }
    // 20 designs × 4 classes: the suite must exercise the full matrix,
    // not silently skip its way to green.
    assert_eq!(
        pairs,
        BugId::ALL.len() * FAULT_CLASSES.len(),
        "fault matrix incomplete: only {pairs} (bug, class) pairs ran"
    );
}

/// The four fault classes all apply to at least one design each (no class
/// is dead code in the suite).
#[test]
fn every_fault_class_is_exercised() {
    let mut seen = std::collections::BTreeSet::new();
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        for (class, _) in all_plans(&design, SEED) {
            seen.insert(class);
        }
    }
    for class in FAULT_CLASSES {
        assert!(seen.contains(class), "fault class {class} never applied");
    }
}

/// SignalCat reconstruction stays panic-free on faulted runs across the
/// whole testbed.
#[test]
fn signalcat_survives_faults() {
    let lib = StdIpLib::new();
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let info = match SignalCat::instrument(&design, &SignalCatConfig::default()) {
            Ok(i) => i,
            Err(_e) => continue, // typed ToolError: acceptable
        };
        let instrumented = resolve(info.module.clone(), &lib).unwrap();
        for (_class, plan) in all_plans(&design, SEED) {
            let Ok(mut sim) = Simulator::new(instrumented.clone(), &StdModels, SimConfig::default())
            else {
                continue;
            };
            let _ = run_with_faults(&mut sim, &clock, FAULT_CYCLES, &plan);
            // Reconstruction over a perturbed buffer must not panic.
            let _records = SignalCat::reconstruct(&info, &sim);
        }
    }
}

/// FSM Monitor tracing stays panic-free on faulted runs — including
/// stuck/scrambled state registers driving the FSM into unnamed states.
#[test]
fn fsm_monitor_survives_faults() {
    let lib = StdIpLib::new();
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let info = match FsmMonitor::new().instrument(&design) {
            Ok(i) => i,
            Err(_e) => continue,
        };
        let instrumented = resolve(info.module.clone(), &lib).unwrap();
        for (_class, plan) in all_plans(&design, SEED) {
            let Ok(mut sim) = Simulator::new(instrumented.clone(), &StdModels, SimConfig::default())
            else {
                continue;
            };
            let _ = run_with_faults(&mut sim, &clock, FAULT_CYCLES, &plan);
            let _transitions = FsmMonitor::trace(&info, &sim);
        }
    }
}

/// Dependency Monitor: analyze a register's chain, instrument, run
/// faulted, reconstruct updates. Never panics.
#[test]
fn dependency_monitor_survives_faults() {
    let lib = StdIpLib::new();
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let Some(target) = design
            .signals
            .values()
            .find(|s| s.kind == SigKind::Reg && !s.name.starts_with("__"))
            .map(|s| s.name.clone())
        else {
            continue;
        };
        let graph = PropGraph::build(&design, &lib).unwrap();
        let chain = match DependencyMonitor::analyze(
            &design,
            &graph,
            &target,
            2,
            &[DepKind::Data, DepKind::Control],
        ) {
            Ok(c) => c,
            Err(_e) => continue,
        };
        let info = match DependencyMonitor::instrument(&design, &chain) {
            Ok(i) => i,
            Err(_e) => continue,
        };
        let instrumented = resolve(info.module.clone(), &lib).unwrap();
        for (_class, plan) in all_plans(&design, SEED) {
            let Ok(mut sim) = Simulator::new(instrumented.clone(), &StdModels, SimConfig::default())
            else {
                continue;
            };
            let _ = run_with_faults(&mut sim, &clock, FAULT_CYCLES, &plan);
            let _updates = DependencyMonitor::trace(&sim);
        }
    }
}

/// Statistics Monitor: count valid/ready strobes while the strobes
/// themselves are being dropped or scrambled. Never panics.
#[test]
fn statistics_monitor_survives_faults() {
    let lib = StdIpLib::new();
    for id in BugId::ALL {
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let events: Vec<Event> = design
            .signals
            .values()
            .filter(|s| {
                s.width == 1
                    && matches!(s.kind, SigKind::Input | SigKind::Output)
                    && !s.name.starts_with("__")
                    && s.name != "clk"
                    && s.name != "rst"
            })
            .filter_map(|s| {
                let expr = parse_expr(&s.name).ok()?;
                Some(Event::new(format!("ev_{}", s.name), expr))
            })
            .collect();
        if events.is_empty() {
            continue;
        }
        let info = match StatisticsMonitor::instrument(&design, &events, None) {
            Ok(i) => i,
            Err(_e) => continue,
        };
        let instrumented = resolve(info.module.clone(), &lib).unwrap();
        for (_class, plan) in all_plans(&design, SEED) {
            let Ok(mut sim) = Simulator::new(instrumented.clone(), &StdModels, SimConfig::default())
            else {
                continue;
            };
            let _ = run_with_faults(&mut sim, &clock, FAULT_CYCLES, &plan);
            let counts = StatisticsMonitor::counts(&info, &sim);
            // Degraded-but-valid: every declared event still has a count.
            assert_eq!(counts.len(), events.len(), "{id}: missing event counts");
        }
    }
}

/// LossCheck on the data-loss bugs while faults drop the very handshakes
/// it watches: raw reports may be noisier or emptier than the clean run,
/// but reporting never panics.
#[test]
fn losscheck_survives_faults() {
    let lib = StdIpLib::new();
    for id in BugId::ALL {
        let meta = metadata(id);
        let Some(spec) = meta.loss else { continue };
        let design = buggy_design(id).unwrap();
        let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
        let graph = PropGraph::build(&design, &lib).unwrap();
        let cfg = LossCheckConfig {
            source: spec.source.into(),
            sink: spec.sink.into(),
            source_valid: spec.valid.into(),
        };
        let info = match LossCheck::instrument(&design, &graph, &cfg) {
            Ok(i) => i,
            Err(_e) => continue,
        };
        let instrumented = resolve(info.module.clone(), &lib).unwrap();
        for (_class, plan) in all_plans(&design, SEED) {
            let Ok(mut sim) = Simulator::new(instrumented.clone(), &StdModels, SimConfig::default())
            else {
                continue;
            };
            let _ = run_with_faults(&mut sim, &clock, FAULT_CYCLES, &plan);
            let _reports = LossCheck::reports(sim.logs());
        }
    }
}

/// Peeks every observable (non-generated, non-memory) signal of the
/// design, giving one bit-for-bit snapshot of the architectural state.
fn snapshot(sim: &Simulator, design: &hwdbg::dataflow::Design) -> Vec<(String, hwdbg::bits::Bits)> {
    design
        .signals
        .values()
        .filter(|s| !s.name.starts_with("__"))
        .filter_map(|s| Some((s.name.clone(), sim.peek(&s.name).ok()?.clone())))
        .collect()
}

/// Checkpoint/restore must erase a fault's footprint completely: run to a
/// checkpoint, let a fault plan force registers (window still open — the
/// force is live at restore time), restore, and rerun fault-free. The
/// rerun's cycle-by-cycle state must match a never-faulted run bit for
/// bit. Guards the `Checkpoint`-captures-`forces` fix: before it, the
/// leaked force pinned the register through the rerun.
#[test]
fn restore_after_faulted_run_replays_bit_for_bit() {
    const PREFIX: u64 = 10;
    const FAULTED: u64 = 12;
    const REPLAY: u64 = 20;

    let design = buggy_design(BugId::D2).unwrap();
    let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
    let (target, width) = design
        .signals
        .values()
        .find(|s| s.kind == SigKind::Reg && !s.name.starts_with("__"))
        .map(|s| (s.name.clone(), s.width))
        .unwrap();

    // Ground truth: the same stimulus with no fault ever injected.
    let mut clean = Simulator::new(design.clone(), &StdModels, SimConfig::default()).unwrap();
    clean.run(&clock, PREFIX).unwrap();
    let mut expected = Vec::new();
    for _ in 0..REPLAY {
        clean.step(&clock).unwrap();
        expected.push(snapshot(&clean, &design));
    }

    // Candidate: checkpoint, simulate under an open-ended stuck-at force
    // (until=None — still pinned when we restore), then rewind and replay.
    let mut sim = Simulator::new(design.clone(), &StdModels, SimConfig::default()).unwrap();
    sim.run(&clock, PREFIX).unwrap();
    let cp = sim.checkpoint().unwrap();
    // Fault cycles are absolute clock cycles; the window opens shortly
    // after the checkpoint (taken at cycle PREFIX) and never closes.
    let plan = FaultPlan::new().stuck_at(
        &target,
        hwdbg::bits::Bits::from_u64(width, 0xA5),
        PREFIX + 2,
        None,
    );
    for _ in 0..FAULTED {
        hwdbg::sim::step_with_faults(&mut sim, &clock, &plan).unwrap();
    }
    assert!(
        !sim.forced_signals().is_empty(),
        "the fault window must still be open at restore time"
    );
    sim.restore(&cp).unwrap();
    assert!(
        sim.forced_signals().is_empty(),
        "restore must drop forces applied after the checkpoint"
    );
    for (cycle, want) in expected.iter().enumerate() {
        sim.step(&clock).unwrap();
        let got = snapshot(&sim, &design);
        assert_eq!(
            &got, want,
            "cycle {cycle} after restore diverged from the never-faulted run"
        );
    }
}

/// A fault plan that names a signal the design does not have is rejected
/// with a typed error naming the culprit, not a panic downstream.
#[test]
fn bogus_plan_is_rejected_by_validate() {
    let design = buggy_design(BugId::D1).unwrap();
    let plan = FaultPlan::new().handshake_drop("no_such_wire", 0, None);
    let err = plan.validate(&design).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no_such_wire"), "error must name the signal: {msg}");
    let diag: hwdbg::diag::HwdbgError = err.into();
    assert_eq!(diag.code, hwdbg::diag::ErrorCode::BadFaultPlan);
}

/// Forces really do pin signals against the design's own drivers: a
/// stuck-at fault on a register holds its value for the whole window.
#[test]
fn stuck_at_actually_pins_the_register() {
    let design = buggy_design(BugId::D2).unwrap();
    let clock = clock_of(&design).unwrap_or_else(|| "clk".into());
    let Some((_, plan)) = all_plans(&design, SEED)
        .into_iter()
        .find(|(c, _)| *c == "stuck-at")
    else {
        panic!("D2 must have a stuck-at plan");
    };
    let target = plan.faults[0].signal.clone();
    let mut sim = Simulator::new(design, &StdModels, SimConfig::default()).unwrap();
    let mut pinned_values = std::collections::BTreeSet::new();
    for cycle in 0..24u64 {
        let _ = hwdbg::sim::step_with_faults(&mut sim, &clock, &plan);
        // Inside the window (fault active from cycle 8 to 20) the value
        // must be the forced one, every cycle.
        if (9..20).contains(&cycle) {
            pinned_values.insert(sim.peek(&target).unwrap().to_u64());
        }
    }
    assert_eq!(
        pinned_values.len(),
        1,
        "stuck-at must hold one value across the window: {pinned_values:?}"
    );
}
