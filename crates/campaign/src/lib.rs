//! Parallel simulation campaigns: many (design × fault plan × seed ×
//! stimulus) jobs sharded across OS threads over shared compiled designs.
//!
//! The paper's debugging workflows — fault-resilience matrices, seed
//! sweeps, differential tool comparisons — are embarrassingly parallel,
//! but every job used to pay the full `Simulator::new` compile. This
//! crate splits that cost: each distinct design is compiled **once** into
//! an immutable [`Arc<CompiledDesign>`](hwdbg_sim::CompiledDesign) shared
//! by every worker, and each job spins up only the cheap per-engine
//! mutable state via [`Simulator::from_compiled`](hwdbg_sim::Simulator).
//!
//! Scheduling is a std-only work-stealing pool (no external crates, per
//! the offline-build constraint): each worker owns a deque, pops LIFO
//! from its own back, and steals the front half of a victim's deque when
//! empty. Results are keyed by input job index, so the aggregated report
//! is **byte-identical** no matter how many workers ran or how the steal
//! race resolved — `tests/determinism.rs` pins that property across the
//! full 20-bug × 4-fault matrix.
//!
//! Entry points:
//! * [`CampaignSpec::parse`] — the job-matrix grammar (CLI spec files);
//! * [`clients::fault_matrix`] / [`clients::seed_sweep`] — the legacy
//!   serial suites rebuilt as campaigns;
//! * [`Campaign::run`] / [`Campaign::run_serial`] — execute and aggregate.

#![warn(missing_docs)]

mod job;
mod queue;
mod report;
mod runner;
mod spec;

pub mod baseline;
pub mod clients;
pub mod journal;

pub use job::{Campaign, Drive, Job, ModelSet, RunOptions, Stim, StimValue, Verdict};
pub use report::{CampaignReport, JobRecord};
pub use spec::{CampaignSpec, FaultRef, Mode, SeedSpec};

use hwdbg_sim::SimError;
use std::fmt;

/// Errors produced while building or running a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The job-matrix spec text is malformed.
    Spec(String),
    /// A design could not be loaded, elaborated, or compiled.
    Design(String),
    /// A simulator error outside any job (job-level errors become
    /// [`Verdict::Error`] records instead).
    Sim(SimError),
    /// A worker thread died; the report would be incomplete. Legacy
    /// variant: the pool now recovers dead workers, so this no longer
    /// arises from scheduling.
    Worker(String),
    /// The journal file is unreadable, corrupt beyond a torn tail, or
    /// does not match the campaign being resumed.
    Journal(String),
    /// The `--baseline` report is unreadable or not a campaign report.
    Baseline(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "campaign spec error: {m}"),
            CampaignError::Design(m) => write!(f, "campaign design error: {m}"),
            CampaignError::Sim(e) => write!(f, "campaign simulator error: {e}"),
            CampaignError::Worker(m) => write!(f, "campaign worker error: {m}"),
            CampaignError::Journal(m) => write!(f, "campaign journal error: {m}"),
            CampaignError::Baseline(m) => write!(f, "campaign baseline error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SimError> for CampaignError {
    fn from(e: SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<CampaignError> for hwdbg_diag::HwdbgError {
    fn from(e: CampaignError) -> Self {
        use hwdbg_diag::{ErrorCode, HwdbgError};
        match e {
            CampaignError::Sim(se) => se.into(),
            CampaignError::Spec(m) => HwdbgError::new(ErrorCode::CampaignSpec, m),
            CampaignError::Design(m) => HwdbgError::new(ErrorCode::CampaignDesign, m),
            CampaignError::Worker(m) => HwdbgError::new(ErrorCode::CampaignWorker, m),
            CampaignError::Journal(m) => {
                let code = if m.contains("corrupt") || m.contains("malformed") {
                    ErrorCode::JournalCorrupt
                } else {
                    ErrorCode::JournalMismatch
                };
                HwdbgError::new(code, m)
            }
            CampaignError::Baseline(m) => HwdbgError::new(ErrorCode::BaselineDrift, m),
        }
    }
}
