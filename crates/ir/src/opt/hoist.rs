//! Loop-invariant code motion.
//!
//! Convolution loops in the lowered kernels recompute mask-row bases and
//! staging addresses (`(yf + hy) * mask_w`, `tidY + hy + yf`, …) every
//! iteration. This pass lifts maximal loop-invariant, transparent
//! subexpressions into a fresh declaration in front of the loop. It is
//! purely syntactic — no oracle — so its guards are strict:
//!
//! * the loop must syntactically trip at least once (`ImmInt` bounds
//!   with `from <= to`), otherwise hoisting would introduce an
//!   evaluation the original program never performed;
//! * the candidate must be [`transparent`](super::transparent) (no
//!   memory access, no possible division trap), so moving it is
//!   invisible to `ExecStats` and cannot move a trap;
//! * the candidate must not mention the loop variable, any variable
//!   assigned or declared inside the loop body, or a variable whose
//!   runtime type is unknown;
//! * the candidate's runtime constant kind (`Int`/`Float`/`Bool`) must
//!   be inferable exactly, because a declaration coerces its initializer
//!   to the declared type — the inferred kind makes that coercion the
//!   identity. Variables keep their declared kind only while every
//!   reaching assignment preserves it (assignments do *not* coerce);
//! * candidates are collected — and substituted — only at
//!   *unconditional* positions inside the loop: never under an `If`
//!   (condition included) and never inside a `Select`. The verifier's
//!   bounds pass narrows value ranges through guard conditions by
//!   expression pattern; naming a guarded subexpression before the loop
//!   evaluates it outside the guard's refinement, which turns verified
//!   kernels into unprovable ones (and, for `Select`, would defeat lazy
//!   evaluation of the untaken branch). At unconditional positions the
//!   decl-site and use-site environments are identical, so the verifier
//!   loses nothing.
//!
//! Candidates are substituted largest-first so nested invariants don't
//! shadow their enclosing expression.

use super::transparent;
use crate::expr::{BinOp, Expr, MathFn, TexCoords, UnOp};
use crate::kernel::DeviceKernelDef;
use crate::stmt::{LValue, Stmt};
use crate::ty::ScalarType;
use std::collections::{HashMap, HashSet};

/// Runtime constant kind — what `Const` variant the expression produces.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
}

impl Kind {
    fn ty(self) -> ScalarType {
        match self {
            Kind::Int => ScalarType::I32,
            Kind::Float => ScalarType::F32,
            Kind::Bool => ScalarType::Bool,
        }
    }

    fn of_ty(ty: ScalarType) -> Kind {
        match ty {
            ScalarType::I32 | ScalarType::U32 => Kind::Int,
            ScalarType::F32 => Kind::Float,
            ScalarType::Bool => Kind::Bool,
        }
    }
}

/// Run loop-invariant hoisting over `k`. Returns the number of hoisted
/// declarations.
pub fn hoist_invariants(k: &mut DeviceKernelDef) -> u32 {
    let mut env: HashMap<String, Kind> = k
        .scalars
        .iter()
        .map(|p| (p.name.clone(), Kind::of_ty(p.ty)))
        .collect();
    let mut counter = 0u32;
    let mut fires = 0u32;
    let body = std::mem::take(&mut k.body);
    k.body = hoist_in(body, &mut env, &mut counter, &mut fires);
    fires
}

fn declared_in(stmts: &[Stmt], out: &mut HashSet<String>) {
    Stmt::visit_all(stmts, &mut |s| {
        if let Stmt::Decl { name, .. } = s {
            out.insert(name.clone());
        }
    });
}

fn hoist_in(
    stmts: Vec<Stmt>,
    env: &mut HashMap<String, Kind>,
    counter: &mut u32,
    fires: &mut u32,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Decl { name, ty, init } => {
                // The declaration coerces, so the kind is the type's.
                env.insert(name.clone(), Kind::of_ty(ty));
                out.push(Stmt::Decl { name, ty, init });
            }
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => {
                // Assignments do not coerce: the variable keeps a known
                // kind only when the assigned value provably matches it.
                match infer_kind(&value, env) {
                    Some(k) if env.get(&name) == Some(&k) => {}
                    _ => {
                        env.remove(&name);
                    }
                }
                out.push(Stmt::Assign {
                    target: LValue::Var(name),
                    value,
                });
            }
            Stmt::If { cond, then, els } => {
                let mut et = env.clone();
                let then = hoist_in(then, &mut et, counter, fires);
                let mut ee = env.clone();
                let els = hoist_in(els, &mut ee, counter, fires);
                for a in Stmt::assigned_names(&then).union(&Stmt::assigned_names(&els)) {
                    env.remove(a);
                }
                out.push(Stmt::If { cond, then, els });
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                // Hoist out of the outermost loop first: anything that
                // leaves this loop leaves every inner one too.
                let (decls, body) = hoist_loop(&var, &from, &to, body, env, counter, fires);
                for d in decls {
                    if let Stmt::Decl { name, ty, .. } = &d {
                        env.insert(name.clone(), Kind::of_ty(*ty));
                    }
                    out.push(d);
                }
                let mut eb = env.clone();
                eb.insert(var.clone(), Kind::Int);
                let body = hoist_in(body, &mut eb, counter, fires);
                for a in &Stmt::assigned_names(&body) {
                    env.remove(a);
                }
                out.push(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                });
            }
            other => out.push(other),
        }
    }
    out
}

fn hoist_loop(
    var: &str,
    from: &Expr,
    to: &Expr,
    body: Vec<Stmt>,
    env: &HashMap<String, Kind>,
    counter: &mut u32,
    fires: &mut u32,
) -> (Vec<Stmt>, Vec<Stmt>) {
    // Must trip at least once, or hoisting introduces an evaluation.
    match (from, to) {
        (Expr::ImmInt(f), Expr::ImmInt(t)) if f <= t => {}
        _ => return (Vec::new(), body),
    }
    let mut forbidden = Stmt::assigned_names(&body);
    forbidden.insert(var.to_string());
    declared_in(&body, &mut forbidden);

    let mut candidates: Vec<Expr> = Vec::new();
    visit_unconditional(&body, &mut |e| {
        // Pre-order, so outer subtrees come first; the qualify check
        // below keeps only maximal ones via the size sort plus
        // substitution order.
        if qualifies(e, &forbidden, env) && !candidates.contains(e) {
            candidates.push(e.clone());
        }
    });
    // Largest first: substituting an enclosing candidate consumes its
    // nested ones, which then simply find no occurrences.
    candidates.sort_by_key(|c| std::cmp::Reverse(node_count(c)));

    let mut decls = Vec::new();
    let mut body = body;
    for cand in candidates {
        let mut hits = 0u32;
        let name = format!("_opt_h{counter}");
        body = body
            .into_iter()
            .map(|s| subst_stmt(s, &cand, &name, &mut hits))
            .collect();
        if hits == 0 {
            continue; // swallowed by a larger candidate
        }
        let kind = infer_kind(&cand, env).expect("qualified candidate has a kind");
        decls.push(Stmt::Decl {
            name,
            ty: kind.ty(),
            init: Some(cand),
        });
        *counter += 1;
        *fires += 1;
    }
    (decls, body)
}

/// Visit expressions at unconditional positions only: recurse through
/// loops (their bounds and bodies run whenever the loop is reached) but
/// not into `If` statements, and stop at `Select` nodes. See the module
/// docs for why conditional occurrences must be left alone.
fn visit_unconditional(stmts: &[Stmt], f: &mut impl FnMut(&Expr)) {
    for s in stmts {
        match s {
            Stmt::If { .. } => {}
            Stmt::For { from, to, body, .. } => {
                visit_expr_skip_select(from, f);
                visit_expr_skip_select(to, f);
                visit_unconditional(body, f);
            }
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    visit_expr_skip_select(e, f);
                }
            }
            Stmt::Assign { value, .. } | Stmt::Output(value) => visit_expr_skip_select(value, f),
            Stmt::GlobalStore { idx, value, .. } => {
                visit_expr_skip_select(idx, f);
                visit_expr_skip_select(value, f);
            }
            Stmt::SharedStore { y, x, value, .. } => {
                visit_expr_skip_select(y, f);
                visit_expr_skip_select(x, f);
                visit_expr_skip_select(value, f);
            }
            Stmt::Return | Stmt::Comment(_) | Stmt::Barrier => {}
        }
    }
}

/// Pre-order expression visit that does not descend into `Select`
/// subtrees (the node itself is skipped too — nothing under a lazy
/// conditional is an unconditional occurrence).
fn visit_expr_skip_select(e: &Expr, f: &mut impl FnMut(&Expr)) {
    if matches!(e, Expr::Select(..)) {
        return;
    }
    f(e);
    match e {
        Expr::Unary(_, a) | Expr::Cast(_, a) => visit_expr_skip_select(a, f),
        Expr::Binary(_, a, b) => {
            visit_expr_skip_select(a, f);
            visit_expr_skip_select(b, f);
        }
        Expr::Call(_, args) => {
            for a in args {
                visit_expr_skip_select(a, f);
            }
        }
        Expr::InputAt { dx, dy, .. } | Expr::MaskAt { dx, dy, .. } => {
            visit_expr_skip_select(dx, f);
            visit_expr_skip_select(dy, f);
        }
        Expr::GlobalLoad { idx, .. } | Expr::ConstLoad { idx, .. } => {
            visit_expr_skip_select(idx, f)
        }
        Expr::TexFetch { coords, .. } => match coords {
            TexCoords::Linear(i) => visit_expr_skip_select(i, f),
            TexCoords::Xy(x, y) => {
                visit_expr_skip_select(x, f);
                visit_expr_skip_select(y, f);
            }
        },
        Expr::SharedLoad { y, x, .. } => {
            visit_expr_skip_select(y, f);
            visit_expr_skip_select(x, f);
        }
        _ => {}
    }
}

/// Substitute `cand` → `Var(name)` at unconditional positions of one
/// statement, mirroring [`visit_unconditional`]'s traversal.
fn subst_stmt(s: Stmt, cand: &Expr, name: &str, hits: &mut u32) -> Stmt {
    let mut sub = |e: Expr| subst_expr(e, cand, name, hits);
    match s {
        s @ Stmt::If { .. } => s,
        Stmt::For {
            var,
            from,
            to,
            body,
        } => Stmt::For {
            var,
            from: sub(from),
            to: sub(to),
            body: body
                .into_iter()
                .map(|s| subst_stmt(s, cand, name, hits))
                .collect(),
        },
        Stmt::Decl { name: n, ty, init } => Stmt::Decl {
            name: n,
            ty,
            init: init.map(sub),
        },
        Stmt::Assign { target, value } => Stmt::Assign {
            target,
            value: sub(value),
        },
        Stmt::Output(e) => Stmt::Output(sub(e)),
        Stmt::GlobalStore { buf, idx, value } => {
            let idx = sub(idx);
            Stmt::GlobalStore {
                buf,
                idx,
                value: sub(value),
            }
        }
        Stmt::SharedStore { buf, y, x, value } => {
            let y = sub(y);
            let x = sub(x);
            Stmt::SharedStore {
                buf,
                y,
                x,
                value: sub(value),
            }
        }
        s @ (Stmt::Return | Stmt::Comment(_) | Stmt::Barrier) => s,
    }
}

/// Top-down equality substitution that leaves `Select` subtrees intact.
fn subst_expr(e: Expr, cand: &Expr, name: &str, hits: &mut u32) -> Expr {
    if &e == cand {
        *hits += 1;
        return Expr::var(name);
    }
    match e {
        e @ Expr::Select(..) => e,
        Expr::Unary(op, a) => Expr::Unary(op, Box::new(subst_expr(*a, cand, name, hits))),
        Expr::Cast(ty, a) => Expr::Cast(ty, Box::new(subst_expr(*a, cand, name, hits))),
        Expr::Binary(op, a, b) => Expr::Binary(
            op,
            Box::new(subst_expr(*a, cand, name, hits)),
            Box::new(subst_expr(*b, cand, name, hits)),
        ),
        Expr::Call(f, args) => Expr::Call(
            f,
            args.into_iter()
                .map(|a| subst_expr(a, cand, name, hits))
                .collect(),
        ),
        Expr::InputAt { acc, dx, dy } => Expr::InputAt {
            acc,
            dx: Box::new(subst_expr(*dx, cand, name, hits)),
            dy: Box::new(subst_expr(*dy, cand, name, hits)),
        },
        Expr::MaskAt { mask, dx, dy } => Expr::MaskAt {
            mask,
            dx: Box::new(subst_expr(*dx, cand, name, hits)),
            dy: Box::new(subst_expr(*dy, cand, name, hits)),
        },
        Expr::GlobalLoad { buf, idx } => Expr::GlobalLoad {
            buf,
            idx: Box::new(subst_expr(*idx, cand, name, hits)),
        },
        Expr::ConstLoad { buf, idx } => Expr::ConstLoad {
            buf,
            idx: Box::new(subst_expr(*idx, cand, name, hits)),
        },
        Expr::TexFetch { buf, coords } => Expr::TexFetch {
            buf,
            coords: match coords {
                TexCoords::Linear(i) => {
                    TexCoords::Linear(Box::new(subst_expr(*i, cand, name, hits)))
                }
                TexCoords::Xy(x, y) => TexCoords::Xy(
                    Box::new(subst_expr(*x, cand, name, hits)),
                    Box::new(subst_expr(*y, cand, name, hits)),
                ),
            },
        },
        Expr::SharedLoad { buf, y, x } => {
            let y = Box::new(subst_expr(*y, cand, name, hits));
            let x = Box::new(subst_expr(*x, cand, name, hits));
            Expr::SharedLoad { buf, y, x }
        }
        leaf => leaf,
    }
}

fn qualifies(e: &Expr, forbidden: &HashSet<String>, env: &HashMap<String, Kind>) -> bool {
    if node_count(e) < 2 || !transparent(e) {
        return false;
    }
    let mut clean = true;
    e.visit(&mut |n| {
        if let Expr::Var(v) = n {
            if forbidden.contains(v) {
                clean = false;
            }
        }
    });
    clean && infer_kind(e, env).is_some()
}

fn node_count(e: &Expr) -> usize {
    let mut n = 0;
    e.visit(&mut |_| n += 1);
    n
}

/// Predict the runtime `Const` kind of `e`, or `None` when any operand
/// kind is unknown or the operation's result kind is input-dependent in
/// a way we cannot see. Mirrors `fold`'s evaluators: integer `min`/`max`
/// stay `Int`, `abs` always widens to `Float`, mixed arithmetic widens
/// to `Float`, `%` is only allowed fully integer (the float path errors
/// at runtime).
fn infer_kind(e: &Expr, env: &HashMap<String, Kind>) -> Option<Kind> {
    match e {
        Expr::ImmInt(_) | Expr::Builtin(_) => Some(Kind::Int),
        Expr::ImmFloat(_) => Some(Kind::Float),
        Expr::ImmBool(_) => Some(Kind::Bool),
        Expr::Var(v) => env.get(v).copied(),
        Expr::Unary(UnOp::Neg, a) => match infer_kind(a, env)? {
            Kind::Bool => None, // runtime error: leave it in place
            k => Some(k),
        },
        Expr::Unary(UnOp::Not, a) => {
            infer_kind(a, env)?;
            Some(Kind::Bool)
        }
        Expr::Binary(op, a, b) => {
            let (ka, kb) = (infer_kind(a, env)?, infer_kind(b, env)?);
            if op.is_comparison() {
                return Some(Kind::Bool);
            }
            match (op, ka, kb) {
                (_, Kind::Bool, _) | (_, _, Kind::Bool) => None,
                (_, Kind::Int, Kind::Int) => Some(Kind::Int),
                // Float % anything errors at runtime; don't move it.
                (BinOp::Rem, _, _) => None,
                _ => Some(Kind::Float),
            }
        }
        Expr::Call(f, args) => {
            let kinds: Option<Vec<Kind>> = args.iter().map(|a| infer_kind(a, env)).collect();
            let kinds = kinds?;
            match f {
                MathFn::Min | MathFn::Max => {
                    if kinds.iter().all(|k| *k == Kind::Int) {
                        Some(Kind::Int)
                    } else {
                        Some(Kind::Float)
                    }
                }
                // Everything else — including abs — produces Float.
                _ => Some(Kind::Float),
            }
        }
        Expr::Cast(ty, a) => {
            infer_kind(a, env)?;
            Some(Kind::of_ty(*ty))
        }
        Expr::Select(c, a, b) => {
            infer_kind(c, env)?;
            let (ka, kb) = (infer_kind(a, env)?, infer_kind(b, env)?);
            if ka == kb {
                Some(ka)
            } else {
                None
            }
        }
        // Loads never qualify (not transparent), and the DSL-level nodes
        // are gone after lowering; refuse them all.
        Expr::GlobalLoad { .. }
        | Expr::TexFetch {
            coords: TexCoords::Linear(_) | TexCoords::Xy(_, _),
            ..
        }
        | Expr::ConstLoad { .. }
        | Expr::SharedLoad { .. }
        | Expr::InputAt { .. }
        | Expr::MaskAt { .. }
        | Expr::OutputX
        | Expr::OutputY => None,
    }
}
