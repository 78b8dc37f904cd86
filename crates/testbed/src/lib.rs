//! Testbed of 20 reproducible FPGA bugs (the paper's Table 2) plus the
//! 68-bug study catalog (Table 1).
//!
//! Every bug ships with its buggy Verilog source, the fix, a workload that
//! exhibits the symptom push-button, and metadata matching the paper's
//! classification. [`reproduce`] runs the buggy design (expecting the
//! symptom) and the fixed design (expecting a pass), which is the property
//! the integration tests and the Table 2 harness rely on.
//!
//! # Examples
//!
//! ```
//! use hwdbg_testbed::{reproduce, BugId};
//!
//! let report = reproduce(BugId::C1)?;
//! assert!(report.symptom_observed);
//! assert!(report.fixed_passes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod lint_expect;
pub mod snippets;
pub mod study;
mod target;
pub mod workloads;

pub use target::{LoadError, Loaded, Target};

use hwdbg_dataflow::Design;
use hwdbg_ip::StdModels;
use hwdbg_obs::StageTimer;
use hwdbg_sim::{SimConfig, SimError, Simulator};
use std::fmt;

/// The three top-level bug classes of the study (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BugClass {
    /// Improper consideration of data size/endianness/layout (§3.2).
    DataMisAccess,
    /// Violations of inter-component communication standards (§3.3).
    Communication,
    /// Remaining violations of intended functionality (§3.4).
    Semantic,
}

impl fmt::Display for BugClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BugClass::DataMisAccess => "Data Mis-Access",
            BugClass::Communication => "Communication",
            BugClass::Semantic => "Semantic",
        })
    }
}

/// The thirteen bug subclasses of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Subclass {
    BufferOverflow,
    BitTruncation,
    Misindexing,
    EndiannessMismatch,
    FailureToUpdate,
    Deadlock,
    ProducerConsumerMismatch,
    SignalAsynchrony,
    UseWithoutValid,
    ProtocolViolation,
    ApiMisuse,
    IncompleteImplementation,
    ErroneousExpression,
}

impl Subclass {
    /// The class this subclass belongs to.
    pub fn class(self) -> BugClass {
        use Subclass::*;
        match self {
            BufferOverflow | BitTruncation | Misindexing | EndiannessMismatch
            | FailureToUpdate => BugClass::DataMisAccess,
            Deadlock | ProducerConsumerMismatch | SignalAsynchrony | UseWithoutValid => {
                BugClass::Communication
            }
            ProtocolViolation | ApiMisuse | IncompleteImplementation | ErroneousExpression => {
                BugClass::Semantic
            }
        }
    }

    /// Human-readable name as printed in Table 1.
    pub fn name(self) -> &'static str {
        use Subclass::*;
        match self {
            BufferOverflow => "Buffer Overflow",
            BitTruncation => "Bit Truncation",
            Misindexing => "Misindexing",
            EndiannessMismatch => "Endianness Mismatch",
            FailureToUpdate => "Failure-to-Update",
            Deadlock => "Deadlock",
            ProducerConsumerMismatch => "Producer-Consumer Mismatch",
            SignalAsynchrony => "Signal Asynchrony",
            UseWithoutValid => "Use-Without-Valid",
            ProtocolViolation => "Protocol Violation",
            ApiMisuse => "API Misuse",
            IncompleteImplementation => "Incomplete Implementation",
            ErroneousExpression => "Erroneous Expression",
        }
    }
}

impl fmt::Display for Subclass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Observable symptom categories (Table 2 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Symptom {
    /// Infinite stall ("Stuck").
    Stuck,
    /// Data loss ("Loss").
    DataLoss,
    /// Incorrect output value ("Incor.").
    IncorrectOutput,
    /// An external monitor (FPGA shell / protocol checker) reports an
    /// error ("Ext.").
    ExternalError,
}

impl fmt::Display for Symptom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Symptom::Stuck => "Stuck",
            Symptom::DataLoss => "Loss",
            Symptom::IncorrectOutput => "Incor.",
            Symptom::ExternalError => "Ext.",
        })
    }
}

/// The debugging tools of the paper (Table 2 "Helpful Tools" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tool {
    /// SignalCat (§4.1).
    SignalCat,
    /// FSM Monitor (§4.2).
    FsmMonitor,
    /// Statistics Monitor (§4.4).
    StatMonitor,
    /// Dependency Monitor (§4.3).
    DepMonitor,
    /// LossCheck (§4.5).
    LossCheck,
}

impl fmt::Display for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tool::SignalCat => "SC",
            Tool::FsmMonitor => "FSM",
            Tool::StatMonitor => "Stat.",
            Tool::DepMonitor => "Dep.",
            Tool::LossCheck => "LC",
        })
    }
}

/// Target platform of a testbed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugPlatform {
    /// Intel HARP (synthesized with Quartus in the paper).
    Harp,
    /// Xilinx (synthesized with Vivado in the paper).
    Xilinx,
    /// Platform-independent.
    Generic,
}

impl fmt::Display for BugPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BugPlatform::Harp => "HARP",
            BugPlatform::Xilinx => "Xilinx",
            BugPlatform::Generic => "Generic",
        })
    }
}

/// Identifier of a testbed bug (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum BugId {
    D1, D2, D3, D4, D5, D6, D7, D8, D9, D10, D11, D12, D13,
    C1, C2, C3, C4,
    S1, S2, S3,
}

impl BugId {
    /// All 20 bugs in Table 2 order.
    pub const ALL: [BugId; 20] = [
        BugId::D1, BugId::D2, BugId::D3, BugId::D4, BugId::D5, BugId::D6, BugId::D7,
        BugId::D8, BugId::D9, BugId::D10, BugId::D11, BugId::D12, BugId::D13,
        BugId::C1, BugId::C2, BugId::C3, BugId::C4,
        BugId::S1, BugId::S2, BugId::S3,
    ];
}

impl fmt::Display for BugId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::str::FromStr for BugId {
    type Err = String;

    /// Parses a bug ID by its Table-2 name (`D2`, `c4`, ...), case
    /// insensitively — campaign spec files and CLI arguments both resolve
    /// through here.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BugId::ALL
            .into_iter()
            .find(|id| id.to_string().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown bug id `{s}` (expected one of D1..D13, C1..C4, S1..S3)"))
    }
}

/// LossCheck configuration metadata for the data-loss bugs.
#[derive(Debug, Clone, Copy)]
pub struct LossSpec {
    /// Source register/input.
    pub source: &'static str,
    /// Sink register/output.
    pub sink: &'static str,
    /// Valid signal for the source.
    pub valid: &'static str,
    /// Register expected to be localized as the loss site (LossCheck
    /// report names; memories may carry an `!oob` tag).
    pub expect: &'static str,
    /// Whether ground-truth filtering is required to localize this bug.
    pub needs_filtering: bool,
}

/// Static metadata for one testbed bug (one Table 2 row).
#[derive(Debug, Clone)]
pub struct BugMeta {
    /// Bug identifier.
    pub id: BugId,
    /// Bug subclass (implies the class).
    pub subclass: Subclass,
    /// Application the bug lives in.
    pub app: &'static str,
    /// Target platform.
    pub platform: BugPlatform,
    /// Symptoms the bug exhibits.
    pub symptoms: &'static [Symptom],
    /// Tools that help localize the root cause.
    pub helpful: &'static [Tool],
    /// Top module name.
    pub top: &'static str,
    /// Buggy source text.
    pub source: &'static str,
    /// `(find, replace)` patches that produce the fixed design.
    pub fix: &'static [(&'static str, &'static str)],
    /// Target clock frequency in MHz (§6.4).
    pub target_mhz: f64,
    /// LossCheck setup for data-loss bugs.
    pub loss: Option<LossSpec>,
    /// Ground-truth state registers that implement FSMs (for the FSM
    /// detector's confusion matrix in §6.3/§4.2).
    pub fsm_registers: &'static [&'static str],
}

impl BugMeta {
    /// The fixed source (patches applied).
    ///
    /// # Panics
    ///
    /// Panics if a patch does not match the source (a testbed bug).
    pub fn fixed_source(&self) -> String {
        let mut src = self.source.to_owned();
        for (find, replace) in self.fix {
            assert!(
                src.contains(find),
                "{}: fix patch `{}` not found",
                self.id,
                find
            );
            src = src.replace(find, replace);
        }
        src
    }
}

mod meta;
pub use meta::metadata;

/// Elaborates the buggy design of a bug.
///
/// # Errors
///
/// Propagates parse/elaboration errors (a testbed regression if they occur).
pub fn buggy_design(id: BugId) -> Result<Design, Box<dyn std::error::Error>> {
    Ok(Target::Bug(id).load(&mut StageTimer::new())?.design)
}

/// Elaborates the fixed design of a bug.
///
/// # Errors
///
/// Propagates parse/elaboration errors.
pub fn fixed_design(id: BugId) -> Result<Design, Box<dyn std::error::Error>> {
    let m = metadata(id);
    let top = Some(m.top.to_owned());
    Ok(target::elaborate_source(&m.fixed_source(), top, &mut StageTimer::new())?)
}

/// Builds a simulator for any elaborated design with the standard IP
/// models.
///
/// # Errors
///
/// Propagates simulator construction errors.
pub fn simulator(design: Design) -> Result<Simulator, SimError> {
    Simulator::new(design, &StdModels, SimConfig::default())
}

/// Result of a workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The design behaved correctly.
    Pass,
    /// The design misbehaved.
    Fail {
        /// The observed symptom category.
        symptom: Symptom,
        /// Human-readable description of what went wrong.
        detail: String,
    },
}

/// Report produced by [`reproduce`].
#[derive(Debug, Clone)]
pub struct BugReport {
    /// Which bug was reproduced.
    pub id: BugId,
    /// True if the buggy design exhibited a symptom listed in its
    /// metadata.
    pub symptom_observed: bool,
    /// The observed symptom, if any.
    pub symptom: Option<Symptom>,
    /// Failure detail from the workload.
    pub detail: String,
    /// True if the patched design passed the same workload.
    pub fixed_passes: bool,
}

/// Reproduces a bug push-button: runs the workload against the buggy
/// design (expecting the documented symptom) and against the fixed design
/// (expecting a pass).
///
/// # Errors
///
/// Propagates elaboration/simulation errors; a `BugReport` with
/// `symptom_observed == false` indicates the testbed itself regressed.
pub fn reproduce(id: BugId) -> Result<BugReport, Box<dyn std::error::Error>> {
    let m = metadata(id);
    let mut buggy = simulator(buggy_design(id)?)?;
    let outcome = workloads::run(id, &mut buggy)?;
    let (symptom_observed, symptom, detail) = match outcome {
        Outcome::Pass => (false, None, "buggy design unexpectedly passed".to_owned()),
        Outcome::Fail { symptom, detail } => {
            (m.symptoms.contains(&symptom), Some(symptom), detail)
        }
    };
    let mut fixed = simulator(fixed_design(id)?)?;
    let fixed_passes = matches!(workloads::run(id, &mut fixed)?, Outcome::Pass);
    Ok(BugReport {
        id,
        symptom_observed,
        symptom,
        detail,
        fixed_passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_covers_all_bugs() {
        for id in BugId::ALL {
            let m = metadata(id);
            assert_eq!(m.id, id);
            assert!(!m.symptoms.is_empty(), "{id}");
            assert!(m.helpful.contains(&Tool::SignalCat), "{id}: SC helps all");
            // Fix patches apply cleanly and change the source.
            assert_ne!(m.fixed_source(), m.source, "{id}");
        }
    }

    #[test]
    fn all_designs_elaborate_buggy_and_fixed() {
        for id in BugId::ALL {
            buggy_design(id).unwrap_or_else(|e| panic!("{id} buggy: {e}"));
            fixed_design(id).unwrap_or_else(|e| panic!("{id} fixed: {e}"));
        }
    }

    #[test]
    fn class_assignment_matches_table1() {
        assert_eq!(Subclass::BufferOverflow.class(), BugClass::DataMisAccess);
        assert_eq!(Subclass::Deadlock.class(), BugClass::Communication);
        assert_eq!(Subclass::ErroneousExpression.class(), BugClass::Semantic);
    }

    #[test]
    fn loss_bugs_have_loss_specs() {
        // The seven data-loss bugs of §6.3: D1–D4, D11, C2, C4.
        for id in [BugId::D1, BugId::D2, BugId::D3, BugId::D4, BugId::D11, BugId::C2, BugId::C4]
        {
            assert!(metadata(id).loss.is_some(), "{id}");
        }
    }
}
