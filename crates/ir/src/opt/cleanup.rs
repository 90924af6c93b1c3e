//! Final fold/cleanup pass.
//!
//! The earlier passes leave literals behind — `ImmBool` branch
//! conditions from strength reduction, constant subtrees from inlined
//! dispatch arms. This pass sweeps them up with the device-safe
//! simplifier [`widen_fold`](crate::fold::widen_fold), collapses
//! literal-condition `if`s, and drops declarations nothing reads.
//!
//! It deliberately does **not** reuse `fold`'s statement folding: that
//! runs on DSL-level kernels and collapses `if (true) { ... }`
//! unconditionally, which on device IR would promote a nested barrier
//! (a runtime error) to a legal top-level phase split. The collapse here
//! keeps such an `if` intact.

use crate::fold::widen_fold;
use crate::kernel::DeviceKernelDef;
use crate::stmt::{LValue, Stmt};
use std::collections::HashSet;

/// Run the cleanup pass over `k`. Returns the rewrite count.
pub fn cleanup(k: &mut DeviceKernelDef) -> u32 {
    let mut fires = 0u32;
    let mut body = std::mem::take(&mut k.body);
    Stmt::rewrite_exprs_in_place(&mut body, &mut |e| {
        let (out, rewrote) = widen_fold(e);
        fires += u32::from(rewrote);
        out
    });
    let body = collapse(body, true, &mut fires);
    let body = drop_dead_decls(body, &mut fires);
    k.body = body;
    fires
}

/// Collapse `if (true/false)` statements. A taken arm holding a
/// *top-level* barrier is kept wrapped: inlining it would turn a
/// nested-barrier runtime error into a legal phase boundary.
fn collapse(stmts: Vec<Stmt>, at_top: bool, fires: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::If {
                cond: crate::expr::Expr::ImmBool(t),
                then,
                els,
            } => {
                let taken = if t { then } else { els };
                let hazard = at_top && taken.iter().any(|s| matches!(s, Stmt::Barrier));
                if hazard {
                    out.push(Stmt::If {
                        cond: crate::expr::Expr::ImmBool(t),
                        then: collapse(taken, false, fires),
                        els: Vec::new(),
                    });
                } else {
                    *fires += 1;
                    out.extend(collapse(taken, at_top, fires));
                }
            }
            Stmt::If { cond, then, els } => out.push(Stmt::If {
                cond,
                then: collapse(then, false, fires),
                els: collapse(els, false, fires),
            }),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => out.push(Stmt::For {
                var,
                from,
                to,
                body: collapse(body, false, fires),
            }),
            other => out.push(other),
        }
    }
    out
}

/// Drop declarations of variables that are never read or assigned
/// anywhere in the body. The initializer's evaluation disappears with
/// the declaration, so it must be incapable of observable effects:
/// literals and builtins only (even transparent arithmetic can trap on
/// integer overflow).
fn drop_dead_decls(stmts: Vec<Stmt>, fires: &mut u32) -> Vec<Stmt> {
    use crate::expr::Expr;
    let mut used: HashSet<String> = HashSet::new();
    Stmt::visit_exprs(&stmts, &mut |e| {
        if let Expr::Var(v) = e {
            used.insert(v.clone());
        }
    });
    Stmt::visit_all(&stmts, &mut |s| {
        if let Stmt::Assign {
            target: LValue::Var(v),
            ..
        } = s
        {
            used.insert(v.clone());
        }
    });
    fn trivial_init(init: &Option<Expr>) -> bool {
        match init {
            None => true,
            Some(e) => {
                let mut ok = true;
                e.visit(&mut |n| {
                    if !matches!(
                        n,
                        Expr::ImmInt(_) | Expr::ImmFloat(_) | Expr::ImmBool(_) | Expr::Builtin(_)
                    ) {
                        ok = false;
                    }
                });
                // Non-leaf arithmetic over literals could still trap or
                // overflow only if it failed to fold; keep those.
                ok && matches!(
                    e,
                    Expr::ImmInt(_) | Expr::ImmFloat(_) | Expr::ImmBool(_) | Expr::Builtin(_)
                )
            }
        }
    }
    fn sweep(stmts: Vec<Stmt>, used: &HashSet<String>, fires: &mut u32) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Decl { name, ty, init } if !used.contains(&name) && trivial_init(&init) => {
                    let _ = (ty, init);
                    *fires += 1;
                }
                Stmt::If { cond, then, els } => out.push(Stmt::If {
                    cond,
                    then: sweep(then, used, fires),
                    els: sweep(els, used, fires),
                }),
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => out.push(Stmt::For {
                    var,
                    from,
                    to,
                    body: sweep(body, used, fires),
                }),
                other => out.push(other),
            }
        }
        out
    }
    sweep(stmts, &used, fires)
}
