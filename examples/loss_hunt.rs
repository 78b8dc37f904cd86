//! LossCheck across every data-loss bug in the testbed: instrument, run
//! the failing workload, filter with the passing test, and report where
//! the data went missing — reproducing the 6-of-7 localization result of
//! §6.3 (including D1's lone false positive and D11's mis-filtered miss).
//!
//! Run with `cargo run --example loss_hunt`.

use hwdbg::dataflow::PropGraph;
use hwdbg::ip::StdIpLib;
use hwdbg::testbed::{buggy_design, metadata, workloads, BugId};
use hwdbg::tools::losscheck::LossCheckConfig;
use hwdbg::tools::{rerun, LossCheck};

const LOSS_BUGS: [BugId; 7] = [
    BugId::D1,
    BugId::D2,
    BugId::D3,
    BugId::D4,
    BugId::D11,
    BugId::C2,
    BugId::C4,
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = StdIpLib::new();
    let mut localized = 0;
    for id in LOSS_BUGS {
        let meta = metadata(id);
        let Some(spec) = meta.loss else {
            eprintln!("{id:?}: no loss spec, skipping");
            continue;
        };
        let design = buggy_design(id)?;
        let graph = PropGraph::build(&design, &lib)?;
        let cfg = LossCheckConfig {
            source: spec.source.into(),
            sink: spec.sink.into(),
            source_valid: spec.valid.into(),
        };
        let info = LossCheck::instrument(&design, &graph, &cfg)?;
        let buggy = rerun(&info.module, |s| workloads::run(id, s).map(drop))?;
        let raw = LossCheck::reports(buggy.logs());

        let ground = rerun(&info.module, |s| {
            workloads::run_ground_truth(id, s).map(drop)
        })?;
        let suppressed = LossCheck::reports(ground.logs());
        let filtered = LossCheck::filter(&raw, &suppressed);

        let hit = filtered.contains(spec.expect);
        localized += hit as usize;
        println!(
            "{id:>4} ({:<22}) tracked {:>2} regs | reports: {:?}{}",
            meta.app,
            info.tracked.len(),
            filtered,
            if hit {
                format!("  -> loss at `{}` localized", spec.expect)
            } else {
                "  -> mis-filtered (the paper's D11 false negative)".into()
            }
        );
    }
    println!("\nlocalized {localized}/{} data-loss bugs (paper: 6/7)", LOSS_BUGS.len());
    Ok(())
}
