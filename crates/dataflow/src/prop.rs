//! Propagation relations and dependency graphs.
//!
//! This module implements the paper's core static analysis (§4.5.1): a
//! table of *propagation relations* `X ⇝σ Y`, meaning the value of `X` at
//! cycle `k` influences `Y` at cycle `k + latency` when the condition `σ`
//! holds at cycle `k`. Dependency Monitor consumes the same table for
//! k-cycle backward slicing, LossCheck uses it to synthesize shadow
//! logic, and the lint taint passes interpret it abstractly at compile
//! time.
//!
//! Relations are keyed by interned [`SigId`]s and share their condition
//! expressions via [`Arc`], so building the table allocates per *guard
//! case*, not per edge; [`BuildStats`] records the sharing and
//! construction asserts that no new names were interned (every edge
//! endpoint must already be in the design's [`SignalTable`]).

use crate::blackbox::BlackboxLib;
use crate::design::Design;
use crate::intern::{SigId, SignalTable};
use crate::DataflowError;
use hwdbg_rtl::{
    path_condition, path_condition_with, walk, BinaryOp, Expr, Guard, LValue, Span, Stmt, UnaryOp,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Whether an edge is a data flow or a control influence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// `src` appears on the right-hand side of the assignment to `dst`.
    Data,
    /// `src` appears in the path condition (or index) guarding the
    /// assignment to `dst`.
    Control,
}

/// One propagation relation `src ⇝cond dst`.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The influencing signal (resolve via [`PropGraph::name`]).
    pub src: SigId,
    /// The influenced signal.
    pub dst: SigId,
    /// Condition under which the propagation happens (`1'b1` if always).
    /// Shared between every relation extracted from the same guard case.
    pub cond: Arc<Expr>,
    /// Data or control dependency.
    pub kind: DepKind,
    /// Cycles of delay: 1 for clocked assignments, 0 for combinational.
    pub latency: u32,
    /// The assignment that produced the relation ([`Span::synthetic`] for
    /// blackbox model edges, which have no source).
    pub span: Span,
}

/// Allocation counters from [`PropGraph`] construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Total relations extracted.
    pub relations: usize,
    /// Distinct condition expressions allocated; every relation beyond
    /// this count shares an existing `Arc`.
    pub distinct_conds: usize,
    /// Signals in the table — identical to the design's, since
    /// construction interns nothing.
    pub signals: usize,
}

/// One normalized conjunct of a relation condition.
///
/// [`cond_leaves`] splits positive conjunctions and strips negations;
/// disjunctions and comparisons stay opaque, so each leaf is an
/// atomic fact that must hold (`positive`) or must not (`!positive`)
/// for the propagation to happen.
#[derive(Debug, Clone, Copy)]
pub struct CondLeaf<'a> {
    /// The atomic expression (negations peeled off).
    pub expr: &'a Expr,
    /// Polarity after peeling: `false` means the leaf is negated.
    pub positive: bool,
}

/// Normalizes a condition into conjunct leaves: top-level `&&` chains are
/// split, `!`/`~` flip polarity, everything else (disjunctions,
/// comparisons, bare signals) is one leaf.
pub fn cond_leaves(e: &Expr) -> Vec<CondLeaf<'_>> {
    let mut out = Vec::new();
    push_cond_leaves(e, true, &mut out);
    out
}

/// Appends the leaves of `e` (or of `!e` when `positive` is false) to
/// `out`. A negated conjunction stays one opaque leaf: `!(a && b)` proves
/// neither `!a` nor `!b`.
pub fn push_cond_leaves<'a>(e: &'a Expr, positive: bool, out: &mut Vec<CondLeaf<'a>>) {
    match e {
        Expr::Binary(BinaryOp::LogAnd, a, b) if positive => {
            push_cond_leaves(a, true, out);
            push_cond_leaves(b, true, out);
        }
        Expr::Unary(UnaryOp::LogNot | UnaryOp::Not, inner) => {
            push_cond_leaves(inner, !positive, out);
        }
        other => out.push(CondLeaf { expr: other, positive }),
    }
}

/// The full propagation-relation table of a design.
#[derive(Debug, Clone, Default)]
pub struct PropGraph {
    /// All relations, in extraction order.
    pub relations: Vec<Relation>,
    /// Interned signal names, cloned from the design's table.
    table: SignalTable,
    /// Relation indices grouped by destination signal.
    by_dst: Vec<Vec<u32>>,
    /// Relation indices grouped by source signal.
    by_src: Vec<Vec<u32>>,
    stats: BuildStats,
}

impl PropGraph {
    /// Builds the table from a resolved design. Blackbox instances
    /// contribute relations through their IP models (§5 of the paper).
    ///
    /// # Errors
    ///
    /// Fails if a blackbox instance references an IP the library does not
    /// know (cannot happen for designs elaborated with the same library).
    pub fn build(design: &Design, lib: &dyn BlackboxLib) -> Result<PropGraph, DataflowError> {
        let mut b = Builder::new(design);
        b.walk_design(design);
        for bb in &design.blackboxes {
            let spec = lib
                .spec(&bb.module)
                .ok_or_else(|| DataflowError::UnknownModule(bb.module.clone()))?;
            for rel in &spec.relations {
                let Some(src_expr) = bb.in_conns.get(&rel.src) else {
                    continue;
                };
                let Some(dst_lv) = bb.out_conns.get(&rel.dst) else {
                    continue;
                };
                let srcs: Vec<SigId> = src_expr
                    .idents()
                    .into_iter()
                    .filter_map(|s| b.table.id(s))
                    .collect();
                let dsts: Vec<SigId> = dst_lv
                    .target_names()
                    .into_iter()
                    .filter_map(|d| b.table.id(d))
                    .collect();
                if srcs.is_empty() || dsts.is_empty() {
                    continue;
                }
                let cond = rel
                    .cond
                    .as_ref()
                    .and_then(|cp| bb.in_conns.get(cp))
                    .cloned()
                    .unwrap_or_else(|| Expr::sized(1, 1));
                let cond = b.alloc_cond(cond);
                for &src in &srcs {
                    for &dst in &dsts {
                        b.relations.push(Relation {
                            src,
                            dst,
                            cond: Arc::clone(&cond),
                            kind: DepKind::Data,
                            latency: rel.latency,
                            span: Span::synthetic(),
                        });
                    }
                }
            }
        }
        Ok(b.finish(design))
    }

    /// Builds the table from the design's own RTL only, skipping blackbox
    /// model edges. Infallible — useful for consumers (like lint passes)
    /// that have no [`BlackboxLib`] in scope and analyze local logic.
    pub fn build_local(design: &Design) -> PropGraph {
        let mut b = Builder::new(design);
        b.walk_design(design);
        b.finish(design)
    }

    /// The interned signal namespace the relation IDs resolve in.
    pub fn table(&self) -> &SignalTable {
        &self.table
    }

    /// Looks up a signal name's ID (`None` for constants and unknowns).
    #[inline]
    pub fn id(&self, name: &str) -> Option<SigId> {
        self.table.id(name)
    }

    /// The name behind a relation endpoint.
    #[inline]
    pub fn name(&self, id: SigId) -> &str {
        self.table.name(id)
    }

    /// Allocation counters recorded during construction.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Relations whose destination is `dst`, via the per-signal index.
    pub fn incoming_ids(&self, dst: SigId) -> impl Iterator<Item = &Relation> + '_ {
        self.by_dst
            .get(dst.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&i| &self.relations[i as usize])
    }

    /// Relations whose source is `src`, via the per-signal index.
    pub fn outgoing_ids(&self, src: SigId) -> impl Iterator<Item = &Relation> + '_ {
        self.by_src
            .get(src.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&i| &self.relations[i as usize])
    }

    /// Relations whose destination is `dst` (name-based convenience).
    pub fn incoming<'a>(&'a self, dst: &str) -> impl Iterator<Item = &'a Relation> + 'a {
        self.id(dst)
            .into_iter()
            .flat_map(|id| self.incoming_ids(id))
    }

    /// Relations whose source is `src` (name-based convenience).
    pub fn outgoing<'a>(&'a self, src: &str) -> impl Iterator<Item = &'a Relation> + 'a {
        self.id(src)
            .into_iter()
            .flat_map(|id| self.outgoing_ids(id))
    }

    /// Backward slice: all signals that can influence `target` within `k`
    /// cycles, mapped to their minimum cycle distance. Includes `target`
    /// itself at distance 0. `kinds` filters which dependency kinds to
    /// follow.
    pub fn back_slice(
        &self,
        target: &str,
        k: u32,
        kinds: &[DepKind],
    ) -> BTreeMap<String, u32> {
        let mut out = BTreeMap::new();
        out.insert(target.to_owned(), 0);
        let Some(t) = self.id(target) else {
            return out;
        };
        let mut dist: BTreeMap<SigId, u32> = BTreeMap::new();
        dist.insert(t, 0);
        let mut queue: VecDeque<SigId> = VecDeque::new();
        queue.push_back(t);
        while let Some(cur) = queue.pop_front() {
            let d = dist.get(&cur).copied().unwrap_or(0);
            for rel in self.incoming_ids(cur) {
                if !kinds.contains(&rel.kind) {
                    continue;
                }
                let nd = d + rel.latency;
                if nd > k {
                    continue;
                }
                let better = dist.get(&rel.src).is_none_or(|&old| nd < old);
                if better {
                    dist.insert(rel.src, nd);
                    queue.push_back(rel.src);
                }
            }
        }
        for (id, d) in dist {
            out.insert(self.name(id).to_owned(), d);
        }
        out
    }

    /// Signals reachable from `src` along relations the `follow` predicate
    /// admits (unbounded, forward direction), including `src`. This is the
    /// guarded-reachability query the taint passes build on: the predicate
    /// typically inspects `cond` (via [`cond_leaves`]) and `kind`.
    pub fn guarded_reachable(
        &self,
        src: SigId,
        follow: &dyn Fn(&Relation) -> bool,
    ) -> BTreeSet<SigId> {
        let mut seen = BTreeSet::new();
        seen.insert(src);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(cur) = queue.pop_front() {
            for rel in self.outgoing_ids(cur) {
                if follow(rel) && seen.insert(rel.dst) {
                    queue.push_back(rel.dst);
                }
            }
        }
        seen
    }

    /// Everything that can influence `from` along the given dependency
    /// kinds, unbounded — the transitive-fanin cone. Includes `from`.
    pub fn backward_closure(&self, from: SigId, kinds: &[DepKind]) -> BTreeSet<SigId> {
        let mut seen = BTreeSet::new();
        seen.insert(from);
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for rel in self.incoming_ids(cur) {
                if kinds.contains(&rel.kind) && seen.insert(rel.src) {
                    queue.push_back(rel.src);
                }
            }
        }
        seen
    }

    /// Signals reachable forward from `src` along data relations
    /// (unbounded), including `src`.
    pub fn forward_reachable(&self, src: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(src.to_owned());
        if let Some(id) = self.id(src) {
            for r in self.guarded_reachable(id, &|rel| rel.kind == DepKind::Data) {
                out.insert(self.name(r).to_owned());
            }
        }
        out
    }

    /// Signals that lie on some data-propagation path from `source` to
    /// `sink` (inclusive): the intersection of forward reachability from
    /// the source and backward reachability from the sink.
    pub fn propagation_sequence(&self, source: &str, sink: &str) -> BTreeSet<String> {
        let fwd = self.forward_reachable(source);
        let mut back = BTreeSet::new();
        back.insert(sink.to_owned());
        if let Some(id) = self.id(sink) {
            for r in self.backward_closure(id, &[DepKind::Data]) {
                back.insert(self.name(r).to_owned());
            }
        }
        fwd.intersection(&back).cloned().collect()
    }
}

/// Construction state: the cloned table plus allocation counters.
struct Builder {
    table: SignalTable,
    relations: Vec<Relation>,
    conds_allocated: usize,
}

impl Builder {
    fn new(design: &Design) -> Builder {
        Builder {
            table: design.table.clone(),
            relations: Vec::new(),
            conds_allocated: 0,
        }
    }

    fn alloc_cond(&mut self, e: Expr) -> Arc<Expr> {
        self.conds_allocated += 1;
        Arc::new(e)
    }

    fn walk_design(&mut self, design: &Design) {
        let bodies = design.combs.iter().map(|c| (&c.body, 0));
        for (body, latency) in bodies.chain(design.procs.iter().map(|p| (&p.body, 1))) {
            walk(body, &mut |guards, stmt| {
                if let Stmt::Assign { lhs, rhs, span, .. } = stmt {
                    self.emit_assign(lhs, rhs, guards, latency, *span);
                }
            });
        }
    }

    fn finish(self, design: &Design) -> PropGraph {
        // Build-time counter assertion: construction resolves through the
        // design's table and must never widen the namespace.
        debug_assert_eq!(
            self.table.len(),
            design.table.len(),
            "PropGraph construction interned new signals"
        );
        let stats = BuildStats {
            relations: self.relations.len(),
            distinct_conds: self.conds_allocated,
            signals: self.table.len(),
        };
        debug_assert!(stats.distinct_conds <= stats.relations.max(1));
        let mut by_dst = vec![Vec::new(); self.table.len()];
        let mut by_src = vec![Vec::new(); self.table.len()];
        for (i, r) in self.relations.iter().enumerate() {
            by_dst[r.dst.index()].push(i as u32);
            by_src[r.src.index()].push(i as u32);
        }
        PropGraph {
            relations: self.relations,
            table: self.table,
            by_dst,
            by_src,
            stats,
        }
    }

    fn emit_assign(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        guards: &[Guard<'_>],
        latency: u32,
        span: Span,
    ) {
        let dsts: Vec<SigId> = lhs
            .target_names()
            .into_iter()
            .filter_map(|d| self.table.id(d))
            .collect();
        if dsts.is_empty() {
            return;
        }
        let path = path_condition(guards);
        let mut control_ids: BTreeSet<SigId> = BTreeSet::new();
        for n in path.idents() {
            if let Some(id) = self.table.id(n) {
                control_ids.insert(id);
            }
        }
        // Index expressions on the LHS are control: they steer where data
        // lands.
        let mut index_idents = BTreeSet::new();
        collect_lvalue_index_idents(lhs, &mut index_idents);
        for n in &index_idents {
            if let Some(id) = self.table.id(n) {
                control_ids.insert(id);
            }
        }

        for (extra, leaf) in rhs_cases(rhs) {
            let mut case_ctrl = control_ids.clone();
            for e in &extra {
                for n in e.idents() {
                    if let Some(id) = self.table.id(n) {
                        case_ctrl.insert(id);
                    }
                }
            }
            let data_srcs: Vec<SigId> = leaf
                .idents()
                .into_iter()
                .filter_map(|s| self.table.id(s))
                .collect();
            // Only cases that produce edges get a condition allocation, so
            // `distinct_conds <= relations` holds by construction.
            if data_srcs.is_empty() && case_ctrl.is_empty() {
                continue;
            }
            // One shared Arc per guard case, not one clone per edge.
            let cond = if extra.is_empty() {
                path.clone()
            } else {
                path_condition_with(guards, extra)
            };
            let cond = self.alloc_cond(cond);
            for &dst in &dsts {
                for &src in &data_srcs {
                    self.relations.push(Relation {
                        src,
                        dst,
                        cond: Arc::clone(&cond),
                        kind: DepKind::Data,
                        latency,
                        span,
                    });
                }
                for &src in &case_ctrl {
                    self.relations.push(Relation {
                        src,
                        dst,
                        cond: Arc::clone(&cond),
                        kind: DepKind::Control,
                        latency,
                        span,
                    });
                }
            }
        }
    }
}

/// Splits a right-hand side into `(extra conditions, leaf value)` cases by
/// decomposing top-level ternaries, per the paper's running example where
/// `out <= cond_a ? a : b` yields `a ⇝cond_a out` and `b ⇝¬cond_a out`.
fn rhs_cases(rhs: &Expr) -> Vec<(Vec<Expr>, Expr)> {
    match rhs {
        Expr::Ternary(c, t, f) => {
            let mut out = Vec::new();
            for (mut extra, leaf) in rhs_cases(t) {
                extra.insert(0, (**c).clone());
                out.push((extra, leaf));
            }
            for (mut extra, leaf) in rhs_cases(f) {
                extra.insert(0, Expr::log_not((**c).clone()));
                out.push((extra, leaf));
            }
            out
        }
        other => vec![(Vec::new(), other.clone())],
    }
}

fn collect_lvalue_index_idents(lv: &LValue, out: &mut BTreeSet<String>) {
    match lv {
        LValue::Id(_) => {}
        LValue::Index(_, i) => {
            for n in i.idents() {
                out.insert(n.to_owned());
            }
        }
        LValue::Range(_, a, b) => {
            for n in a.idents().into_iter().chain(b.idents()) {
                out.insert(n.to_owned());
            }
        }
        LValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_index_idents(p, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::NoBlackboxes;
    use crate::design::elaborate;
    use hwdbg_rtl::{parse, print_expr};

    fn graph(src: &str, top: &str) -> (Design, PropGraph) {
        let d = elaborate(&parse(src).unwrap(), top, &NoBlackboxes).unwrap();
        let g = PropGraph::build(&d, &NoBlackboxes).unwrap();
        (d, g)
    }

    /// The paper's §4.5.1 running example must produce exactly its table.
    #[test]
    fn paper_running_example_table() {
        let src = "module m(input clk, input cond_a, input cond_b,
                            input [7:0] a, input [7:0] in, input in_valid,
                            output reg [7:0] out);
            reg [7:0] b;
            always @(posedge clk) begin
                if (cond_a) out <= a;
                else if (cond_b) out <= b;
                if (in_valid) b <= in;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let data: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Data)
            .map(|r| {
                (
                    g.name(r.src).to_owned(),
                    g.name(r.dst).to_owned(),
                    print_expr(&r.cond),
                )
            })
            .collect();
        assert!(data.contains(&("a".into(), "out".into(), "cond_a".into())), "{data:?}");
        assert!(
            data.contains(&(
                "b".into(),
                "out".into(),
                "(!cond_a) && cond_b".into()
            )),
            "{data:?}"
        );
        assert!(
            data.contains(&("in".into(), "b".into(), "in_valid".into())),
            "{data:?}"
        );
        // All clocked: latency 1.
        assert!(g.relations.iter().all(|r| r.latency == 1));
    }

    #[test]
    fn ternary_rhs_decomposed() {
        let src = "module m(input s, input a, input b, output y);
            assign y = s ? a : b;
        endmodule";
        let (_, g) = graph(src, "m");
        let conds: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Data)
            .map(|r| (g.name(r.src).to_owned(), print_expr(&r.cond)))
            .collect();
        assert!(conds.contains(&("a".into(), "s".into())));
        assert!(conds.contains(&("b".into(), "!s".into())));
        assert!(g.relations.iter().all(|r| r.latency == 0));
    }

    #[test]
    fn case_conditions_and_control() {
        let src = "module m(input clk, input [1:0] sel, input [3:0] a, output reg [3:0] y);
            always @(posedge clk)
                case (sel)
                    2'd0: y <= a;
                    default: y <= 4'd0;
                endcase
        endmodule";
        let (_, g) = graph(src, "m");
        let ctrl: Vec<_> = g
            .relations
            .iter()
            .filter(|r| r.kind == DepKind::Control)
            .map(|r| (g.name(r.src).to_owned(), g.name(r.dst).to_owned()))
            .collect();
        assert!(ctrl.contains(&("sel".into(), "y".into())), "{ctrl:?}");
    }

    #[test]
    fn back_slice_counts_cycles() {
        let src = "module m(input clk, input [7:0] d, output [7:0] q);
            reg [7:0] s1;
            reg [7:0] s2;
            wire [7:0] w;
            assign w = s1 + 8'd1;
            assign q = s2;
            always @(posedge clk) begin
                s1 <= d;
                s2 <= w;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let slice = g.back_slice("q", 2, &[DepKind::Data]);
        assert_eq!(slice.get("q"), Some(&0));
        assert_eq!(slice.get("s2"), Some(&0)); // comb assign, latency 0
        assert_eq!(slice.get("w"), Some(&1));
        assert_eq!(slice.get("s1"), Some(&1));
        assert_eq!(slice.get("d"), Some(&2));
        let slice1 = g.back_slice("q", 1, &[DepKind::Data]);
        assert!(!slice1.contains_key("d"));
    }

    #[test]
    fn propagation_sequence_between() {
        let src = "module m(input clk, input [7:0] din, input v, output reg [7:0] dout);
            reg [7:0] b;
            reg [7:0] unrelated;
            always @(posedge clk) begin
                if (v) b <= din;
                dout <= b;
                unrelated <= dout;
            end
        endmodule";
        let (_, g) = graph(src, "m");
        let seq = g.propagation_sequence("din", "dout");
        assert!(seq.contains("din"));
        assert!(seq.contains("b"));
        assert!(seq.contains("dout"));
        assert!(!seq.contains("unrelated"));
    }

    #[test]
    fn lhs_index_is_control() {
        let src = "module m(input clk, input [3:0] wa, input [7:0] d);
            reg [7:0] mem [0:15];
            always @(posedge clk) mem[wa] <= d;
        endmodule";
        let (_, g) = graph(src, "m");
        let wa = g.id("wa").unwrap();
        let mem = g.id("mem").unwrap();
        let d = g.id("d").unwrap();
        assert!(g
            .relations
            .iter()
            .any(|r| r.src == wa && r.dst == mem && r.kind == DepKind::Control));
        assert!(g
            .relations
            .iter()
            .any(|r| r.src == d && r.dst == mem && r.kind == DepKind::Data));
        // The per-signal indexes agree with the flat scan.
        assert_eq!(g.incoming_ids(mem).count(), g.incoming("mem").count());
        assert_eq!(g.outgoing_ids(wa).count(), g.outgoing("wa").count());
    }

    #[test]
    fn interning_shares_conds_and_adds_no_signals() {
        let src = "module m(input clk, input en, input [7:0] a, input [7:0] b,
                            output reg [7:0] x, output reg [7:0] y);
            always @(posedge clk) if (en) begin
                x <= a + b;
                y <= a - b;
            end
        endmodule";
        let (d, g) = graph(src, "m");
        let stats = g.stats();
        // `x <= a + b` under `en` is 2 data + 1 control edges on one
        // shared cond; likewise for `y`. 6 relations, 2 allocations.
        assert_eq!(stats.relations, 6);
        assert_eq!(stats.distinct_conds, 2);
        assert_eq!(stats.signals, d.table.len());
        // The shared conds really are the same allocation.
        let first = &g.relations[0];
        assert!(g
            .relations
            .iter()
            .filter(|r| r.dst == first.dst)
            .all(|r| Arc::ptr_eq(&r.cond, &first.cond)));
        // Every RTL relation carries a real source span.
        assert!(g.relations.iter().all(|r| r.span != Span::synthetic()));
    }

    #[test]
    fn build_local_skips_blackboxes_only() {
        let src = "module m(input clk, input [7:0] d, output reg [7:0] q);
            always @(posedge clk) q <= d;
        endmodule";
        let d = elaborate(&parse(src).unwrap(), "m", &NoBlackboxes).unwrap();
        let g = PropGraph::build_local(&d);
        assert_eq!(g.relations.len(), 1);
        assert!(g.back_slice("q", 1, &[DepKind::Data]).contains_key("d"));
    }

    #[test]
    fn cond_leaves_normalize_polarity() {
        let e = hwdbg_rtl::parse_expr("a && !b && (c || d)").unwrap();
        let leaves = cond_leaves(&e);
        assert_eq!(leaves.len(), 3);
        assert!(leaves[0].positive);
        assert!(!leaves[1].positive);
        assert!(leaves[2].positive);
        assert!(matches!(leaves[2].expr, Expr::Binary(BinaryOp::LogOr, ..)));
    }
}
