//! Oracle checks for the shared [`LintCtx`] indexes.
//!
//! `assign-style` decides "read outside this process" from per-signal
//! reader counts, and `fsm-structure` walks only the bodies that read or
//! write a state register. Both must report exactly what the direct
//! whole-design scans report. The reference functions below are those
//! direct scans: an external-reader set rebuilt from every other process
//! for each process (O(P²)), and an FSM scan over every body for each FSM.
//! They run on the 20 testbed bugs, their fixed variants, and a seeded
//! design with a few hundred clocked processes.

use hwdbg_dataflow::Design;
use hwdbg_diag::{ErrorCode, HwdbgError};
use hwdbg_ip::StdIpLib;
use hwdbg_lint::analysis;
use hwdbg_lint::{
    registry, AssignStylePass, FsmLintPass, Level, LintConfig, LintCtx, LintPass, LintSink,
};
use hwdbg_obs::{SimCounters, StageTimer};
use hwdbg_rtl::{walk, Dir, Expr, Guard, LValue, Span, Stmt};
use hwdbg_testbed::{buggy_design, fixed_design, BugId};
use hwdbg_tools::FsmMonitor;
use std::collections::{BTreeMap, BTreeSet};

/// Every code at `Warn`, so the default-`Allow` trap-state code is compared too.
fn config() -> LintConfig {
    let mut cfg = LintConfig::new();
    cfg.set("L0302", Level::Warn);
    cfg
}

fn run_pass(pass: &dyn LintPass, design: &Design, code: fn(ErrorCode) -> bool) -> Vec<HwdbgError> {
    let cfg = config();
    let mut sink = LintSink::new(&cfg);
    pass.run(&LintCtx::new(design), &mut sink);
    sink.findings()
        .iter()
        .filter(|f| code(f.code))
        .cloned()
        .collect()
}

fn run_reference(reference: fn(&Design, &mut LintSink<'_>), design: &Design) -> Vec<HwdbgError> {
    let cfg = config();
    let mut sink = LintSink::new(&cfg);
    reference(design, &mut sink);
    sink.findings().to_vec()
}

fn is_l0102(c: ErrorCode) -> bool {
    c == ErrorCode::LintBlockingInSeq
}

fn is_fsm_code(c: ErrorCode) -> bool {
    matches!(
        c,
        ErrorCode::LintUnreachableState | ErrorCode::LintTrapState | ErrorCode::LintUndeclaredState
    )
}

/// `L0102` by the direct rule: for each process, the union of every other
/// process's reads, every comb read, every blackbox input and every output
/// port.
fn reference_blocking_in_seq(design: &Design, sink: &mut LintSink<'_>) {
    let outputs: BTreeSet<&str> = design
        .flat
        .ports
        .iter()
        .filter(|p| p.dir == Dir::Output)
        .map(|p| p.net.name.as_str())
        .collect();
    for (i, proc) in design.procs.iter().enumerate() {
        let mut external: BTreeSet<&str> = BTreeSet::new();
        for (j, other) in design.procs.iter().enumerate() {
            if j != i {
                external.extend(other.reads.iter().map(String::as_str));
            }
        }
        for comb in &design.combs {
            external.extend(comb.reads.iter().map(String::as_str));
        }
        for bb in &design.blackboxes {
            for conn in bb.in_conns.values() {
                external.extend(conn.idents());
            }
        }
        external.extend(outputs.iter().copied());

        walk(&proc.body, &mut |_, stmt| {
            let Stmt::Assign {
                lhs,
                nonblocking: false,
                span,
                ..
            } = stmt
            else {
                return;
            };
            for target in lhs.target_names() {
                if external.contains(target) {
                    sink.emit(
                        HwdbgError::warning(
                            ErrorCode::LintBlockingInSeq,
                            format!(
                                "blocking assignment to `{target}` in a clocked block, \
                                 but `{target}` is read outside this block; evaluation \
                                 order decides whether readers see the old or new value"
                            ),
                        )
                        .with_span(*span)
                        .with_signal(target),
                    );
                }
            }
        });
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ArmCtx {
    Outside,
    Arm(BTreeSet<u64>),
    Default,
}

struct Site {
    value: u64,
    in_reset: bool,
    arm: ArmCtx,
}

/// `L0301`–`L0303` by the direct rule: every FSM scans every clocked and
/// combinational body for its `case`s and every clocked body for its
/// assignments.
fn reference_fsm(design: &Design, sink: &mut LintSink<'_>) {
    let resets: BTreeSet<String> = design
        .flat
        .ports
        .iter()
        .filter(|p| p.dir == Dir::Input)
        .map(|p| p.net.name.clone())
        .filter(|n| {
            let n = n.to_lowercase();
            n.contains("rst") || n.contains("reset")
        })
        .collect();
    for fsm in FsmMonitor::detect(design) {
        if fsm.width > 64 {
            continue;
        }
        let state = fsm.signal.as_str();
        let mut arm_union: BTreeSet<u64> = BTreeSet::new();
        let mut has_default = false;
        let mut case_span: Option<Span> = None;
        let bodies = design
            .procs
            .iter()
            .map(|p| &p.body)
            .chain(design.combs.iter().map(|c| &c.body));
        for body in bodies {
            scan_cases(
                design,
                body,
                state,
                fsm.width,
                &mut |labels, default, span| {
                    arm_union.extend(labels);
                    has_default |= default;
                    case_span.get_or_insert(span);
                },
            );
        }
        let Some(case_span) = case_span else {
            continue;
        };

        let mut sites: Vec<Site> = Vec::new();
        let mut analyzable = true;
        for proc in &design.procs {
            walk(&proc.body, &mut |guards, stmt| {
                let Stmt::Assign { lhs, rhs, .. } = stmt else {
                    return;
                };
                if !lhs.target_names().contains(&state) {
                    return;
                }
                if !matches!(lhs, LValue::Id(_)) {
                    analyzable = false;
                    return;
                }
                if matches!(rhs, Expr::Ident(n) if n == state) {
                    return;
                }
                match analysis::const_value(rhs, design) {
                    Some(v) if v.width() <= 64 => sites.push(Site {
                        value: v.resize(fsm.width).to_u64(),
                        in_reset: analysis::in_reset(guards, &resets),
                        arm: arm_ctx(guards, state, fsm.width, design),
                    }),
                    _ => analyzable = false,
                }
            });
        }
        if !analyzable {
            continue;
        }
        let assigned: BTreeSet<u64> = sites.iter().map(|s| s.value).collect();

        for &v in &arm_union {
            if !assigned.contains(&v) {
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintUnreachableState,
                        format!(
                            "FSM `{state}`: state {} has a case arm but no \
                             assignment ever enters it; the arm is unreachable",
                            state_name(&fsm.states, v)
                        ),
                    )
                    .with_span(case_span)
                    .with_signal(state),
                );
            }
        }
        for &v in &assigned {
            if !(arm_union.contains(&v) || has_default) {
                continue;
            }
            let has_exit = sites.iter().any(|s| {
                s.value != v
                    && !s.in_reset
                    && match &s.arm {
                        ArmCtx::Outside => true,
                        ArmCtx::Arm(labels) => labels.contains(&v),
                        ArmCtx::Default => !arm_union.contains(&v),
                    }
            });
            if !has_exit {
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintTrapState,
                        format!(
                            "FSM `{state}`: state {} has no outgoing transition; \
                             once entered, only reset leaves it",
                            state_name(&fsm.states, v)
                        ),
                    )
                    .with_span(case_span)
                    .with_signal(state),
                );
            }
        }
        for &v in &assigned {
            if !fsm.states.contains_key(&v) && !arm_union.contains(&v) && !has_default {
                sink.emit(
                    HwdbgError::warning(
                        ErrorCode::LintUndeclaredState,
                        format!(
                            "FSM `{state}` is assigned encoding {v}, which no \
                             localparam names and no case arm handles"
                        ),
                    )
                    .with_span(case_span)
                    .with_signal(state),
                );
            }
        }
    }
}

fn state_name(states: &BTreeMap<u64, String>, v: u64) -> String {
    match states.get(&v) {
        Some(n) => format!("`{n}` ({v})"),
        None => format!("{v}"),
    }
}

fn scan_cases(
    design: &Design,
    stmt: &Stmt,
    state: &str,
    width: u32,
    f: &mut impl FnMut(Vec<u64>, bool, Span),
) {
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                scan_cases(design, s, state, width, f);
            }
        }
        Stmt::If { then, els, .. } => {
            scan_cases(design, then, state, width, f);
            if let Some(e) = els {
                scan_cases(design, e, state, width, f);
            }
        }
        Stmt::For { body, .. } => scan_cases(design, body, state, width, f),
        Stmt::Case {
            expr,
            arms,
            default,
            span,
            ..
        } => {
            if matches!(expr, Expr::Ident(n) if n == state) {
                let mut labels = Vec::new();
                for arm in arms {
                    for l in &arm.labels {
                        if let Some(v) = analysis::const_value(l, design) {
                            if v.width() <= 64 {
                                labels.push(v.resize(width).to_u64());
                            }
                        }
                    }
                }
                f(labels, default.is_some(), *span);
            }
            for arm in arms {
                scan_cases(design, &arm.body, state, width, f);
            }
            if let Some(d) = default {
                scan_cases(design, d, state, width, f);
            }
        }
        _ => {}
    }
}

fn arm_ctx(guards: &[Guard<'_>], state: &str, width: u32, design: &Design) -> ArmCtx {
    for g in guards.iter().rev() {
        match g {
            Guard::Arm {
                selector: Expr::Ident(n),
                labels,
                ..
            } if n == state => {
                return ArmCtx::Arm(
                    labels
                        .iter()
                        .filter_map(|l| analysis::const_value(l, design))
                        .filter(|v| v.width() <= 64)
                        .map(|v| v.resize(width).to_u64())
                        .collect(),
                );
            }
            Guard::Default {
                selector: Expr::Ident(n),
                ..
            } if n == state => return ArmCtx::Default,
            _ => {}
        }
    }
    ArmCtx::Outside
}

/// Asserts both indexed passes agree with their references on `design`;
/// returns the (L0102, FSM) findings for coverage checks.
fn assert_matches_reference(label: &str, design: &Design) -> (Vec<HwdbgError>, Vec<HwdbgError>) {
    let blocking = run_pass(&AssignStylePass, design, is_l0102);
    assert_eq!(
        blocking,
        run_reference(reference_blocking_in_seq, design),
        "{label}: assign-style L0102 differs from the all-process scan"
    );
    let fsm = run_pass(&FsmLintPass, design, is_fsm_code);
    assert_eq!(
        fsm,
        run_reference(reference_fsm, design),
        "{label}: fsm-structure differs from the all-bodies scan"
    );
    (blocking, fsm)
}

#[test]
fn indexed_passes_match_reference_on_testbed() {
    for id in BugId::ALL {
        let buggy = buggy_design(id).expect("buggy design elaborates");
        assert_matches_reference(&format!("{id} buggy"), &buggy);
        let fixed = fixed_design(id).expect("fixed design elaborates");
        assert_matches_reference(&format!("{id} fixed"), &fixed);
    }
}

/// A small deterministic generator (64-bit LCG, high bits out).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// How a generated register is read besides its writer.
const READ_CLASSES: u64 = 6;

/// A flat design with one clocked writer per register. Register `r{k}` is,
/// by class: read only by its writer (0), by one other process (1), by a
/// comb driver (2), by a blackbox input (3), by an output port (4), or by
/// nothing (5). Every eleventh slot adds an FSM whose transitions, arms,
/// extra writer process and comb decoder are drawn from the seed.
fn generated_source(seed: u64, slots: usize) -> String {
    let mut rng = Rng(seed);
    let mut ports = vec![
        "input clk".to_owned(),
        "input rst".to_owned(),
        "input kick".to_owned(),
        "input [7:0] din".to_owned(),
    ];
    let mut body = String::new();
    for k in 0..slots {
        let class = rng.below(READ_CLASSES);
        if class == 4 {
            ports.push(format!("output reg [7:0] r{k}"));
        } else {
            body += &format!("  reg [7:0] r{k};\n");
        }
        let op = if rng.below(4) == 0 { "<=" } else { "=" };
        let rhs = if class == 0 {
            format!("r{k} + din")
        } else {
            format!("din ^ 8'd{}", k % 256)
        };
        let extra = match rng.below(3) {
            0 => format!("    if (kick) r{k}[3:0] {op} din[3:0];\n"),
            1 => format!("    if (din[{}]) r{k} {op} 8'd0;\n", k % 8),
            _ => String::new(),
        };
        body += &format!("  always @(posedge clk) begin\n    r{k} {op} {rhs};\n{extra}  end\n");
        match class {
            1 => {
                body += &format!("  reg [7:0] s{k};\n  always @(posedge clk) s{k} <= r{k};\n");
            }
            2 => {
                body += &format!("  wire [7:0] c{k};\n  assign c{k} = r{k} ^ din;\n");
            }
            3 => {
                body += &format!(
                    "  wire [7:0] q{k};\n  wire e{k};\n  wire f{k};\n  \
                     scfifo #(.WIDTH(8), .DEPTH(4)) fifo{k} (.clock(clk), .data(r{k}), \
                     .wrreq(kick), .rdreq(kick), .q(q{k}), .empty(e{k}), .full(f{k}));\n"
                );
            }
            _ => {}
        }
        if k % 11 == 0 {
            body += &generated_fsm(&mut rng, k);
        }
    }
    format!("module gen({});\n{body}endmodule\n", ports.join(", "))
}

/// One FSM `st{k}` over 2 bits with named states A/B/C; encoding 3 has no
/// name, so transitions into it are undeclared unless an arm handles it.
fn generated_fsm(rng: &mut Rng, k: usize) -> String {
    let st = format!("st{k}");
    let mut s = format!(
        "  localparam F{k}_A = 2'd0;\n  localparam F{k}_B = 2'd1;\n  localparam F{k}_C = 2'd2;\n  \
         reg [1:0] {st};\n"
    );
    let b_next = match rng.below(3) {
        0 => format!("F{k}_C"),
        1 => "2'd3".to_owned(),
        _ => format!("F{k}_A"),
    };
    let c_arm = match rng.below(3) {
        0 => format!("      F{k}_C: {st} <= F{k}_A;\n"),
        1 => format!("      F{k}_C: {st} <= {st};\n"),
        _ => String::new(),
    };
    let default = if rng.below(3) == 0 {
        format!("      default: {st} <= F{k}_A;\n")
    } else {
        String::new()
    };
    s += &format!(
        "  always @(posedge clk) begin\n    if (rst) {st} <= F{k}_A;\n    else case ({st})\n      \
         F{k}_A: if (kick) {st} <= F{k}_B;\n      F{k}_B: {st} <= {b_next};\n{c_arm}{default}    \
         endcase\n  end\n"
    );
    if rng.below(2) == 0 {
        // A second writer: a forced jump from outside the FSM's own block.
        s += &format!(
            "  always @(posedge clk) if (din == 8'd{}) {st} <= F{k}_C;\n",
            k % 256
        );
    }
    if rng.below(2) == 0 {
        // A comb decoder dispatching on the state (its arm is a reader).
        let arm3 = if rng.below(2) == 0 {
            format!("      2'd3: o{k} = 1'b1;\n")
        } else {
            String::new()
        };
        s += &format!(
            "  reg o{k};\n  always @(*) begin\n    o{k} = 1'b0;\n    case ({st})\n      \
             F{k}_A: o{k} = 1'b0;\n{arm3}    endcase\n  end\n"
        );
    }
    s
}

#[test]
fn indexed_passes_match_reference_on_generated_design() {
    for seed in [1, 2, 3] {
        let src = generated_source(seed, 240);
        let file = hwdbg_rtl::parse(&src).expect("generated design parses");
        let design = hwdbg_dataflow::elaborate(&file, "gen", &StdIpLib::new())
            .expect("generated design elaborates");
        assert!(
            design.procs.len() >= 200,
            "only {} clocked processes",
            design.procs.len()
        );
        assert!(!design.blackboxes.is_empty() && !design.combs.is_empty());

        let (blocking, fsm) = assert_matches_reference(&format!("seed {seed}"), &design);
        // The comparison must not be vacuous: each compared code fires.
        assert!(!blocking.is_empty(), "seed {seed}: no L0102");
        for code in [
            ErrorCode::LintUnreachableState,
            ErrorCode::LintTrapState,
            ErrorCode::LintUndeclaredState,
        ] {
            assert!(
                fsm.iter().any(|f| f.code == code),
                "seed {seed}: no {}",
                code.as_str()
            );
        }
        // And it does not fire everywhere: the writer-only and unread
        // classes stay quiet.
        let flagged: BTreeSet<&str> = blocking.iter().map(|f| f.signals[0].as_str()).collect();
        let procs_writing_r = design
            .procs
            .iter()
            .flat_map(|p| &p.writes)
            .filter(|w| w.starts_with('r'))
            .count();
        assert!(
            flagged.len() < procs_writing_r,
            "seed {seed}: every register flagged"
        );
    }
}

/// `run_all` builds the shared context outside any stage: its timer holds
/// exactly one stage per registered pass, named by the pass id, in
/// registry order — the layout per-pass timing consumers zip against
/// [`registry`].
#[test]
fn run_all_records_one_stage_per_pass_in_registry_order() {
    let design = buggy_design(BugId::ALL[0]).expect("buggy design elaborates");
    let mut timer = StageTimer::new();
    let mut counters = SimCounters::default();
    hwdbg_lint::run_all(&design, &LintConfig::new(), &mut timer, &mut counters);
    let stages: Vec<&str> = timer.spans().iter().map(|s| s.name.as_str()).collect();
    let ids: Vec<&str> = registry().iter().map(|p| p.id()).collect();
    assert_eq!(stages, ids);
    assert_eq!(counters.lint_passes, ids.len() as u64);
}
