//! What a debug session runs on: a testbed bug or a Verilog file. Every
//! `hwdbg` subcommand and campaign spec loads its design through
//! [`Target::load`], the one place the default top module is chosen.

use crate::{metadata, BugId};
use hwdbg_dataflow::{flatten, resolve, Design};
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_ip::StdIpLib;
use hwdbg_obs::StageTimer;
use std::fmt;

/// A design to debug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A testbed bug: its buggy source and documented top module.
    Bug(BugId),
    /// A Verilog file.
    File {
        /// Path to the source.
        path: String,
        /// Top module; `None` picks the file's last module.
        top: Option<String>,
    },
}

/// A target read, parsed and elaborated.
#[derive(Debug)]
pub struct Loaded {
    /// `testbed:D2` for a bug, the path for a file.
    pub label: String,
    /// The Verilog source the design came from.
    pub source: String,
    /// The elaborated design.
    pub design: Design,
    /// The bug, for a testbed target.
    pub bug: Option<BugId>,
}

/// A target that failed to load: the diagnostic, labelled with the
/// target, plus the source it points into once read, so it renders with
/// a source excerpt.
#[derive(Debug)]
pub struct LoadError {
    /// The diagnostic.
    pub error: Box<HwdbgError>,
    /// The source text, when reading it succeeded.
    pub source: Option<String>,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.error.render(self.source.as_deref()))
    }
}

impl std::error::Error for LoadError {}

impl Target {
    /// A bug id names that testbed bug (case-insensitively, through
    /// [`BugId::from_str`](std::str::FromStr)); anything else is a file
    /// path, elaborated at `top` when given.
    pub fn new(arg: &str, top: Option<&str>) -> Target {
        match arg.parse() {
            Ok(id) => Target::Bug(id),
            Err(_) => Target::File {
                path: arg.to_owned(),
                top: top.map(str::to_owned),
            },
        }
    }

    /// Reads, parses and elaborates the target against the standard IP
    /// library, timing `parse` and `elaborate` (`flatten`, `resolve`)
    /// spans on `timer`.
    ///
    /// # Errors
    ///
    /// I/O, parse and elaboration diagnostics.
    pub fn load(&self, timer: &mut StageTimer) -> Result<Loaded, LoadError> {
        let fail = |e: HwdbgError, label: &str, source| LoadError {
            error: Box::new(e.with_path(label)),
            source,
        };
        let (label, source, top, bug) = match self {
            Target::Bug(id) => {
                let m = metadata(*id);
                let top = Some(m.top.to_owned());
                (format!("testbed:{id}"), m.source.to_owned(), top, Some(*id))
            }
            Target::File { path, top } => match std::fs::read_to_string(path) {
                Ok(source) => (path.clone(), source, top.clone(), None),
                Err(e) => return Err(fail(e.into(), path, None)),
            },
        };
        match elaborate_source(&source, top, timer) {
            Ok(design) => Ok(Loaded {
                label,
                source,
                design,
                bug,
            }),
            Err(e) => Err(fail(e, &label, Some(source))),
        }
    }
}

/// Parses and elaborates `source` at `top`, else at its last module,
/// timing the stages on `timer`.
pub(crate) fn elaborate_source(
    source: &str,
    top: Option<String>,
    timer: &mut StageTimer,
) -> Result<Design, HwdbgError> {
    let file = timer.time("parse", || hwdbg_rtl::parse(source))?;
    let Some(top) = top.or_else(|| file.modules.last().map(|m| m.name.clone())) else {
        return Err(HwdbgError::new(
            ErrorCode::UnknownModule,
            "file contains no modules",
        ));
    };
    let lib = StdIpLib::new();
    timer.start("elaborate");
    let design = timer
        .time("flatten", || flatten(&file, &top, &lib))
        .and_then(|flat| timer.time("resolve", || resolve(flat, &lib)));
    timer.finish();
    Ok(design?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_ids_parse_in_any_case_and_paths_keep_their_top() {
        assert_eq!(Target::new("d2", Some("ignored")), Target::Bug(BugId::D2));
        assert_eq!(
            Target::new("rtl/x.v", Some("x")),
            Target::File {
                path: "rtl/x.v".into(),
                top: Some("x".into())
            }
        );
    }

    #[test]
    fn bug_targets_load_with_timed_stages() {
        let mut timer = StageTimer::new();
        let loaded = Target::Bug(BugId::C1).load(&mut timer).unwrap();
        assert_eq!(loaded.label, "testbed:C1");
        assert_eq!(loaded.design.flat.name, metadata(BugId::C1).top);
        assert_eq!(loaded.bug, Some(BugId::C1));
        let names: Vec<&str> = timer.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["parse", "elaborate", "flatten", "resolve"]);
    }

    #[test]
    fn missing_files_are_labelled_io_errors() {
        let err = Target::new("no/such/file.v", None)
            .load(&mut StageTimer::new())
            .unwrap_err();
        assert_eq!(err.error.code, ErrorCode::Io);
        assert!(err.to_string().contains("no/such/file.v"), "{err}");
    }
}
