//! The per-run lint context: design facts that several passes read,
//! computed once by [`run_all`](crate::run_all) before the first pass.

use hwdbg_dataflow::{ClockedProc, Design, PropGraph};
use hwdbg_rtl::{Dir, Expr, LValue, Span, Stmt};
use std::collections::{BTreeSet, HashMap};

/// The processes that touch one signal, as indices into
/// [`Design::procs`] and [`Design::combs`], in declaration order.
#[derive(Debug, Default)]
pub(crate) struct SigUses {
    /// Clocked processes whose `reads` contain the signal.
    pub(crate) proc_readers: Vec<usize>,
    /// Clocked processes whose `writes` contain the signal.
    pub(crate) proc_writers: Vec<usize>,
    /// Combinational drivers whose `reads` contain the signal.
    pub(crate) comb_readers: Vec<usize>,
    /// Read by an output port or a blackbox input.
    read_by_port_or_blackbox: bool,
}

/// What every pass of one lint run shares: the design plus the derived
/// tables more than one pass needs. Built once per run, so no pass pays
/// for a whole-design scan another pass already made.
pub struct LintCtx<'d> {
    design: &'d Design,
    /// The local propagation graph ([`PropGraph::build_local`]).
    pub(crate) graph: PropGraph,
    /// Input-port names of the flat module.
    pub(crate) input_ports: BTreeSet<String>,
    /// Output-port names of the flat module. Clock-written outputs are
    /// classified [`SigKind::Reg`](hwdbg_dataflow::SigKind) in
    /// [`Design::signals`], so port direction must come from the module AST.
    pub(crate) output_ports: BTreeSet<String>,
    /// Reset-style inputs (lowercase name contains `rst` or `reset`).
    pub(crate) reset_inputs: BTreeSet<String>,
    /// Single-target continuous-assign drivers: `name -> (rhs, span)`. Used
    /// to expand one level of combinational aliasing (`full`, `count`, …)
    /// when interpreting guards.
    pub(crate) comb_aliases: HashMap<&'d str, (&'d Expr, Span)>,
    /// Per-signal use index over the signals some clocked process writes.
    uses: HashMap<&'d str, SigUses>,
}

impl<'d> LintCtx<'d> {
    /// Computes the shared tables for `design`.
    pub fn new(design: &'d Design) -> LintCtx<'d> {
        let ports = |dir: Dir| {
            design
                .flat
                .ports
                .iter()
                .filter(move |p| p.dir == dir)
                .map(|p| p.net.name.as_str())
        };
        let input_ports: BTreeSet<String> = ports(Dir::Input).map(str::to_owned).collect();
        let reset_inputs = input_ports
            .iter()
            .filter(|n| {
                let n = n.to_lowercase();
                n.contains("rst") || n.contains("reset")
            })
            .cloned()
            .collect();

        // Only signals a clocked process writes are ever asked about (an
        // assignment target in a clocked block, an FSM state register), so
        // only they are indexed; every other read is a cheap failed lookup.
        let mut uses: HashMap<&str, SigUses> = HashMap::new();
        for (i, p) in design.procs.iter().enumerate() {
            for w in &p.writes {
                uses.entry(w).or_default().proc_writers.push(i);
            }
        }
        for (i, p) in design.procs.iter().enumerate() {
            for r in &p.reads {
                if let Some(u) = uses.get_mut(r.as_str()) {
                    u.proc_readers.push(i);
                }
            }
        }
        let mut comb_aliases = HashMap::new();
        for (i, c) in design.combs.iter().enumerate() {
            for r in &c.reads {
                if let Some(u) = uses.get_mut(r.as_str()) {
                    u.comb_readers.push(i);
                }
            }
            if let Stmt::Assign {
                lhs: LValue::Id(n),
                rhs,
                span,
                ..
            } = &c.body
            {
                comb_aliases.insert(n.as_str(), (rhs, *span));
            }
        }
        let bb_inputs = design
            .blackboxes
            .iter()
            .flat_map(|bb| bb.in_conns.values())
            .flat_map(Expr::idents);
        for name in ports(Dir::Output).chain(bb_inputs) {
            if let Some(u) = uses.get_mut(name) {
                u.read_by_port_or_blackbox = true;
            }
        }

        LintCtx {
            design,
            graph: PropGraph::build_local(design),
            input_ports,
            output_ports: ports(Dir::Output).map(str::to_owned).collect(),
            reset_inputs,
            comb_aliases,
            uses,
        }
    }

    /// The design under analysis.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// Which processes read or write `name`; `None` unless some clocked
    /// process writes it.
    pub(crate) fn uses(&self, name: &str) -> Option<&SigUses> {
        self.uses.get(name)
    }

    /// True when `name` is visible outside the clocked process `proc`: read
    /// by another clocked process, a comb driver, a blackbox input or an
    /// output port. `proc` itself accounts for at most one proc reader.
    pub(crate) fn read_outside(&self, name: &str, proc: &ClockedProc) -> bool {
        self.uses(name).is_some_and(|u| {
            u.read_by_port_or_blackbox
                || !u.comb_readers.is_empty()
                || u.proc_readers.len() > usize::from(proc.reads.contains(name))
        })
    }
}
