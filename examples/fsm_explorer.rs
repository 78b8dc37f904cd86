//! FSM Monitor across the whole testbed: detect every state machine with
//! the §4.2 heuristics, recover state names from localparams, and print a
//! live transition trace for the SDSPI controller.
//!
//! Run with `cargo run --example fsm_explorer`.

use hwdbg::testbed::{buggy_design, metadata, workloads, BugId};
use hwdbg::tools::{rerun, FsmMonitor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("FSMs detected across the 20 testbed designs:\n");
    for id in BugId::ALL {
        let design = buggy_design(id)?;
        let fsms = FsmMonitor::detect(&design);
        if fsms.is_empty() {
            continue;
        }
        for f in &fsms {
            let states: Vec<String> = f.states.values().cloned().collect();
            println!(
                "  {:<4} {:<22} {:<10} ({} bits) states: {}",
                id.to_string(),
                metadata(id).app,
                f.signal,
                f.width,
                states.join(", ")
            );
        }
    }

    // A missed one-hot FSM, patched in by the developer (§4.2).
    let demo = buggy_design(BugId::S2)?;
    let mut monitor = FsmMonitor::new();
    monitor.add_signal("tx_phase");
    let patched = monitor.detect_with_patches(&demo);
    println!(
        "\nS2's one-hot `tx_phase` is a detector false negative; after the\n\
         developer patches it in, {} FSMs are monitored in axis_demo.",
        patched.len()
    );

    // Live transition trace on the SDSPI response FSM (bug D9's design).
    println!("\nSDSPI command FSM transition trace:");
    let design = buggy_design(BugId::D9)?;
    let info = FsmMonitor::new().instrument(&design)?;
    let sim = rerun(&info.module, |s| workloads::run(BugId::D9, s).map(drop))?;
    for t in FsmMonitor::trace(&info, &sim) {
        println!(
            "  cycle {:>3}: {} {} -> {}",
            t.cycle, t.signal, t.from_name, t.to_name
        );
    }
    Ok(())
}
