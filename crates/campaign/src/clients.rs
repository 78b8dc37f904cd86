//! Prebuilt campaigns mirroring the legacy serial suites.
//!
//! * [`fault_matrix`] — the fault-injection robustness matrix (every
//!   testbed bug × every fault class), previously a serial double loop in
//!   `tests/fault_injection.rs`. Same seed, same cycle count, same
//!   "completes or typed error, never a panic" contract — but each
//!   design is compiled once and shared across its four class jobs, and
//!   the jobs shard across workers.
//! * [`seed_sweep`] — `RegInit::Random` workload sweeps: every testbed
//!   bug run under N random register/memory initializations, checking
//!   the verdict is seed-stable.

use crate::job::{Campaign, Drive, Job, ModelSet};
use crate::CampaignError;
use hwdbg_sim::{CompiledDesign, RegInit};
use hwdbg_testbed::{buggy_design, faults, BugId};
use std::sync::Arc;

/// The legacy fault-matrix seed (`tests/fault_injection.rs` uses the
/// same constant, so campaign plans match the serial suite's exactly).
pub const MATRIX_SEED: u64 = 0xC0FFEE;

/// The legacy fault-matrix run length, in cycles.
pub const MATRIX_CYCLES: u64 = 40;

/// Builds the full fault-injection matrix: every testbed bug × every
/// fault class, 40 faulted cycles each, zero-init. One compiled design
/// per bug shared across its four class jobs.
///
/// # Errors
///
/// Design build/compile failures ([`CampaignError::Design`]).
pub fn fault_matrix() -> Result<Campaign, CampaignError> {
    let mut jobs = Vec::with_capacity(BugId::ALL.len() * faults::FAULT_CLASSES.len());
    for id in BugId::ALL {
        let design = buggy_design(id).map_err(|e| CampaignError::Design(format!("{id}: {e}")))?;
        let clock = design
            .primary_clock()
            .ok_or_else(|| CampaignError::Design(format!("{id}: design has no clock")))?;
        let plans = faults::all_plans(&design, MATRIX_SEED);
        let shared = Arc::new(CompiledDesign::new(design)?);
        for (class, plan) in plans {
            jobs.push(Job {
                design: id.to_string(),
                fault: class.to_owned(),
                seed: "zero".into(),
                shared: Arc::clone(&shared),
                init: RegInit::Zero,
                plan: Some(plan),
                drive: Drive::FreeRun {
                    clock: clock.clone(),
                    cycles: MATRIX_CYCLES,
                    stim: Vec::new(),
                },
                models: ModelSet::std(),
            });
        }
    }
    Ok(Campaign {
        name: "fault-matrix".into(),
        jobs,
    })
}

/// Builds a `RegInit::Random` seed sweep: every testbed bug's workload
/// under seeds `1..=n_seeds`, one compiled design per bug shared across
/// its seed jobs. Useful for shaking out init-sensitive verdicts.
///
/// # Errors
///
/// Design build/compile failures ([`CampaignError::Design`]).
pub fn seed_sweep(n_seeds: u64) -> Result<Campaign, CampaignError> {
    let mut jobs = Vec::new();
    for id in BugId::ALL {
        let design = buggy_design(id).map_err(|e| CampaignError::Design(format!("{id}: {e}")))?;
        let shared = Arc::new(CompiledDesign::new(design)?);
        for seed in 1..=n_seeds.max(1) {
            jobs.push(Job {
                design: id.to_string(),
                fault: "none".into(),
                seed: seed.to_string(),
                shared: Arc::clone(&shared),
                init: RegInit::Random(seed),
                plan: None,
                drive: Drive::Workload(id),
                models: ModelSet::std(),
            });
        }
    }
    Ok(Campaign {
        name: "seed-sweep".into(),
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_matrix_covers_every_pair_once() {
        let campaign = fault_matrix().unwrap();
        assert_eq!(
            campaign.jobs.len(),
            BugId::ALL.len() * faults::FAULT_CLASSES.len()
        );
        // Each bug's four jobs share one compiled design.
        for chunk in campaign.jobs.chunks(faults::FAULT_CLASSES.len()) {
            for j in &chunk[1..] {
                assert!(Arc::ptr_eq(&chunk[0].shared, &j.shared));
            }
        }
    }

    #[test]
    fn seed_sweep_uses_random_init() {
        let campaign = seed_sweep(3).unwrap();
        assert_eq!(campaign.jobs.len(), BugId::ALL.len() * 3);
        assert!(campaign
            .jobs
            .iter()
            .all(|j| matches!(j.init, RegInit::Random(_))));
    }
}
