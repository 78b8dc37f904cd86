//! The paper's §6.3 case study, replayed end-to-end: debugging the
//! Grayscale accelerator's buffer overflow (bug D2) with the toolkit.
//!
//! 1. The host observes the acceleration task hanging.
//! 2. FSM Monitor shows the read FSM in RD_FINISH but the write FSM still
//!    in WR_DATA — the hang is in write-side logic.
//! 3. Statistics Monitor confirms fewer outputs than inputs: data loss.
//! 4. LossCheck pinpoints the loss at the `linebuf` line buffer.
//!
//! Run with `cargo run --example debug_grayscale`.

use hwdbg::dataflow::PropGraph;
use hwdbg::ip::{StdIpLib, StdModels};
use hwdbg::rtl::parse_expr;
use hwdbg::sim::{SimConfig, Simulator};
use hwdbg::testbed::{buggy_design, metadata, workloads, BugId, Outcome};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::statmon::Event;
use hwdbg::tools::{rerun, FsmMonitor, LossCheck, StatisticsMonitor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = StdIpLib::new();
    let design = buggy_design(BugId::D2)?;

    // Step 1: the symptom — the acceleration task hangs.
    let mut sim = Simulator::new(design.clone(), &StdModels, SimConfig::default())?;
    let Outcome::Fail { symptom, detail } = workloads::run(BugId::D2, &mut sim)? else {
        panic!("the buggy design should fail");
    };
    println!("[host] symptom: {symptom} — {detail}\n");

    // Step 2: FSM Monitor. Re-execute with FSM tracing.
    let monitor = FsmMonitor::new();
    let fsm_info = monitor.instrument(&design)?;
    println!(
        "[fsm-monitor] detected FSMs: {:?} ({} lines of tracing logic generated)",
        fsm_info.fsms.iter().map(|f| f.signal.clone()).collect::<Vec<_>>(),
        fsm_info.generated_lines
    );
    let traced = rerun(&fsm_info.module, |s| workloads::run(BugId::D2, s).map(drop))?;
    let transitions = FsmMonitor::trace(&fsm_info, &traced);
    let last_rd = transitions.iter().rfind(|t| t.signal == "rd_state");
    let last_wr = transitions.iter().rfind(|t| t.signal == "wr_state");
    println!(
        "[fsm-monitor] read FSM ended in {}, write FSM ended in {}",
        last_rd.map_or("?".into(), |t| t.to_name.clone()),
        last_wr.map_or("?".into(), |t| t.to_name.clone())
    );
    println!("[developer] reading finished but writing did not: the hang is in write logic\n");

    // Step 3: Statistics Monitor — count inputs vs. outputs.
    let events = vec![
        Event::new("pixels_in", parse_expr("pix_in_valid")?),
        Event::new("pixels_out", parse_expr("pix_out_valid")?),
    ];
    let stat_info = StatisticsMonitor::instrument(&design, &events, None)?;
    let counted = rerun(&stat_info.module, |s| {
        workloads::run(BugId::D2, s).map(drop)
    })?;
    let counts = StatisticsMonitor::counts(&stat_info, &counted);
    println!(
        "[stat-monitor] pixels in = {}, pixels out = {} -> data loss inside the accelerator\n",
        counts["pixels_in"], counts["pixels_out"]
    );

    // Step 4: LossCheck localizes the loss.
    let graph = PropGraph::build(&design, &lib)?;
    let Some(spec) = metadata(BugId::D2).loss else {
        return Err("D2 metadata is missing its loss spec".into());
    };
    let cfg = LossCheckConfig {
        source: spec.source.into(),
        sink: spec.sink.into(),
        source_valid: spec.valid.into(),
    };
    let lc = LossCheck::instrument(&design, &graph, &cfg)?;
    println!(
        "[losscheck] tracking {:?} along the {} -> {} path ({} lines generated)",
        lc.tracked, cfg.source, cfg.sink, lc.generated_lines
    );
    let buggy = rerun(&lc.module, |s| workloads::run(BugId::D2, s).map(drop))?;
    let raw = LossCheck::reports(buggy.logs());
    let ground = rerun(&lc.module, |s| {
        workloads::run_ground_truth(BugId::D2, s).map(drop)
    })?;
    let filtered = LossCheck::filter(&raw, &LossCheck::reports(ground.logs()));
    println!("[losscheck] raw reports: {raw:?}");
    println!("[losscheck] after ground-truth filtering: {filtered:?}");
    println!("\n[developer] the loss is an out-of-bounds write into `linebuf` — the");
    println!("            wr_ptr wrap at LINE-1 is missing. Bug localized.");
    Ok(())
}
