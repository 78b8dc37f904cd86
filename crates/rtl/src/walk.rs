//! The guard-path walker: the one definition of "the condition under which
//! a statement executes".
//!
//! SignalCat records each `$display` with its path constraint, LossCheck
//! and the Dependency Monitor read the condition σ of each propagation
//! relation `X ⇝σ Y`, and the lint passes reason about the `if`/`case`
//! facts that dominate an assignment. All of them visit statements through
//! [`walk()`] and build conditions with [`path_condition`], so every tool
//! agrees on what a path condition is.

use crate::ast::{BinaryOp, CaseArm, Expr, Stmt};

/// One guard on the path from a process body to a statement.
#[derive(Debug, Clone, Copy)]
pub enum Guard<'a> {
    /// An `if` condition; `positive` is false inside the `else` branch.
    Cond {
        /// The condition expression.
        cond: &'a Expr,
        /// True in the `then` branch, false in the `else` branch.
        positive: bool,
    },
    /// A `case` arm: the selector matched one of `labels` and none of the
    /// earlier arms.
    Arm {
        /// The case selector.
        selector: &'a Expr,
        /// The labels of the matched arm.
        labels: &'a [Expr],
        /// The arms before this one, all of which failed to match.
        prior: &'a [CaseArm],
    },
    /// The `default` arm: the selector matched no explicit arm.
    Default {
        /// The case selector.
        selector: &'a Expr,
        /// Every explicit arm of the case.
        arms: &'a [CaseArm],
    },
    /// A `for` body, entered while `cond` holds.
    Loop {
        /// The loop continuation condition.
        cond: &'a Expr,
    },
}

/// Calls `f` on every statement of `stmt` in pre-order, passing the guard
/// stack active at that point. For an `if`, `case` or `for` node the stack
/// holds the guards *outside* that node; its branches are visited with one
/// more guard pushed.
pub fn walk<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&[Guard<'a>], &'a Stmt)) {
    walk_in(stmt, &mut Vec::new(), f);
}

fn walk_in<'a>(
    stmt: &'a Stmt,
    guards: &mut Vec<Guard<'a>>,
    f: &mut dyn FnMut(&[Guard<'a>], &'a Stmt),
) {
    f(guards, stmt);
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                walk_in(s, guards, f);
            }
        }
        Stmt::If { cond, then, els } => {
            walk_under(
                Guard::Cond {
                    cond,
                    positive: true,
                },
                then,
                guards,
                f,
            );
            if let Some(e) = els {
                walk_under(
                    Guard::Cond {
                        cond,
                        positive: false,
                    },
                    e,
                    guards,
                    f,
                );
            }
        }
        Stmt::Case {
            expr,
            arms,
            default,
            ..
        } => {
            for (i, arm) in arms.iter().enumerate() {
                let guard = Guard::Arm {
                    selector: expr,
                    labels: &arm.labels,
                    prior: &arms[..i],
                };
                walk_under(guard, &arm.body, guards, f);
            }
            if let Some(d) = default {
                walk_under(
                    Guard::Default {
                        selector: expr,
                        arms,
                    },
                    d,
                    guards,
                    f,
                );
            }
        }
        Stmt::For { cond, body, .. } => walk_under(Guard::Loop { cond }, body, guards, f),
        Stmt::Assign { .. } | Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

fn walk_under<'a>(
    guard: Guard<'a>,
    body: &'a Stmt,
    guards: &mut Vec<Guard<'a>>,
    f: &mut dyn FnMut(&[Guard<'a>], &'a Stmt),
) {
    guards.push(guard);
    walk_in(body, guards, f);
    guards.pop();
}

/// Calls `f` on every statement of `stmt` in pre-order, mutably — for
/// rewrites that need no guards (a replaced statement's new children are
/// visited, not its old ones).
pub fn walk_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Stmt)) {
    f(stmt);
    match stmt {
        Stmt::Block(stmts) => {
            for s in stmts {
                walk_mut(s, f);
            }
        }
        Stmt::If { then, els, .. } => {
            walk_mut(then, f);
            if let Some(e) = els {
                walk_mut(e, f);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for arm in arms {
                walk_mut(&mut arm.body, f);
            }
            if let Some(d) = default {
                walk_mut(d, f);
            }
        }
        Stmt::For { body, .. } => walk_mut(body, f),
        Stmt::Assign { .. } | Stmt::Display { .. } | Stmt::Finish | Stmt::Empty => {}
    }
}

/// The condition under which a statement behind `guards` executes: the
/// left-folded `&&` of one term per fact, `1'b1` for the empty path.
///
/// - `if` branches contribute `cond` or `!cond`;
/// - arm *i* of a `case` contributes `!(arm₀)`, …, `!(armᵢ₋₁)`, then
///   `sel == l₁ | sel == l₂ | …` over its own labels;
/// - `default` contributes `!(arm)` for every explicit arm;
/// - `for` guards contribute nothing: elaboration unrolls the loop, so its
///   condition is a compile-time fact about the loop variable, not a
///   runtime guard on the body.
pub fn path_condition(guards: &[Guard<'_>]) -> Expr {
    path_condition_with(guards, [])
}

/// [`path_condition`] with `extra` terms conjoined after the guards' own
/// (the ternary cases of a right-hand side, for example). Folds to exactly
/// the `&&` chain of all terms, so no `1'b1` appears unless there are none.
pub fn path_condition_with(guards: &[Guard<'_>], extra: impl IntoIterator<Item = Expr>) -> Expr {
    let mut terms = Vec::new();
    for g in guards {
        match *g {
            Guard::Cond { cond, positive } => {
                terms.push(if positive {
                    cond.clone()
                } else {
                    Expr::log_not(cond.clone())
                });
            }
            Guard::Arm {
                selector,
                labels,
                prior,
            } => {
                terms.extend(
                    prior
                        .iter()
                        .map(|a| Expr::log_not(arm_match(selector, &a.labels))),
                );
                terms.push(arm_match(selector, labels));
            }
            Guard::Default { selector, arms } => {
                terms.extend(
                    arms.iter()
                        .map(|a| Expr::log_not(arm_match(selector, &a.labels))),
                );
            }
            Guard::Loop { .. } => {}
        }
    }
    terms
        .into_iter()
        .chain(extra)
        .reduce(|acc, t| Expr::Binary(BinaryOp::LogAnd, Box::new(acc), Box::new(t)))
        .unwrap_or_else(|| Expr::sized(1, 1))
}

/// `sel == l₁ | sel == l₂ | …`: the selector matches one of `labels`.
fn arm_match(selector: &Expr, labels: &[Expr]) -> Expr {
    Expr::any(labels.iter().map(|l| Expr::eq(selector.clone(), l.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, print_expr, Item};

    fn body(src: &str) -> Stmt {
        let file = parse(src).unwrap();
        file.modules[0]
            .items
            .iter()
            .find_map(|i| match i {
                Item::Always { body, .. } => Some(body.clone()),
                _ => None,
            })
            .unwrap()
    }

    /// (printed lhs, printed path condition) of every assignment.
    fn conditions(src: &str) -> Vec<(String, String)> {
        let b = body(src);
        let mut out = Vec::new();
        walk(&b, &mut |guards, stmt| {
            if let Stmt::Assign { lhs, .. } = stmt {
                out.push((
                    crate::print_lvalue(lhs),
                    print_expr(&path_condition(guards)),
                ));
            }
        });
        out
    }

    #[test]
    fn if_else_chains_fold_left() {
        let c = conditions(
            "module m(input clk, input a, input b, output reg x);
               always @(posedge clk) begin
                 x <= 1'b0;
                 if (a) x <= 1'b1; else if (b) x <= 1'b0;
               end
             endmodule",
        );
        assert_eq!(
            c,
            vec![
                ("x".into(), "1'h1".into()),
                ("x".into(), "a".into()),
                ("x".into(), "(!a) && b".into()),
            ]
        );
    }

    #[test]
    fn case_arms_exclude_earlier_arms_and_default_excludes_all() {
        let c = conditions(
            "module m(input clk, input [1:0] sel, input [7:0] a, input [7:0] b,
                      output reg [15:0] r);
               always @(posedge clk)
                 case (sel)
                   0: r[7:0] <= a;
                   0, 1: r[15:8] <= b;
                   default: r[7:0] <= b;
                 endcase
             endmodule",
        );
        assert_eq!(c[0].1, "sel == 0");
        assert_eq!(c[1].1, "(!(sel == 0)) && ((sel == 0) | (sel == 1))");
        assert_eq!(c[2].1, "(!(sel == 0)) && (!((sel == 0) | (sel == 1)))");
    }

    #[test]
    fn loop_guards_are_visible_but_not_conditions() {
        let b = body(
            "module m(input clk, input en, output reg [3:0] v);
               integer i;
               always @(posedge clk)
                 if (en) for (i = 0; i < 4; i = i + 1) v[i] <= 1'b1;
             endmodule",
        );
        let mut seen = Vec::new();
        walk(&b, &mut |guards, stmt| {
            if matches!(stmt, Stmt::Assign { .. }) {
                assert!(matches!(guards.last(), Some(Guard::Loop { .. })));
                seen.push(print_expr(&path_condition(guards)));
            }
        });
        assert_eq!(seen, vec!["en".to_owned()]);
    }

    #[test]
    fn visits_every_statement_in_pre_order_with_outside_guards() {
        let b = body(
            "module m(input clk, input a, output reg x);
               always @(posedge clk) begin if (a) x <= 1'b1; end
             endmodule",
        );
        let mut kinds = Vec::new();
        walk(&b, &mut |guards, stmt| {
            let kind = match stmt {
                Stmt::Block(_) => "block",
                Stmt::If { .. } => "if",
                Stmt::Assign { .. } => "assign",
                _ => "other",
            };
            kinds.push((kind, guards.len()));
        });
        assert_eq!(kinds, vec![("block", 0), ("if", 0), ("assign", 1)]);
    }

    #[test]
    fn extra_terms_follow_the_guards() {
        let cond = Expr::ident("c");
        let guards = [Guard::Cond {
            cond: &cond,
            positive: false,
        }];
        let e = path_condition_with(&guards, [Expr::ident("d")]);
        assert_eq!(print_expr(&e), "(!c) && d");
        assert_eq!(
            print_expr(&path_condition_with(&[], [Expr::ident("d")])),
            "d"
        );
    }
}
