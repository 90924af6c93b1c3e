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
use std::sync::Arc;

/// The known runtime kind of each variable in scope. Keys are shared, so
/// the copy a branch arm or loop body walks on copies no names.
type Env = HashMap<Arc<str>, Kind>;

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
    let mut env: Env = k
        .scalars
        .iter()
        .map(|p| (Arc::from(p.name.as_str()), Kind::of_ty(p.ty)))
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

/// Forget the kind of every variable a statement list assigns.
fn forget_assigned(stmts: &[Stmt], env: &mut Env) {
    Stmt::visit_all(stmts, &mut |s| {
        if let Stmt::Assign {
            target: LValue::Var(n),
            ..
        } = s
        {
            env.remove(n.as_str());
        }
    });
}

fn hoist_in(stmts: Vec<Stmt>, env: &mut Env, counter: &mut u32, fires: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Decl { name, ty, init } => {
                // The declaration coerces, so the kind is the type's.
                env.insert(Arc::from(name.as_str()), Kind::of_ty(ty));
                out.push(Stmt::Decl { name, ty, init });
            }
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => {
                // Assignments do not coerce: the variable keeps a known
                // kind only when the assigned value provably matches it.
                match infer_kind(&value, env) {
                    Some(k) if env.get(name.as_str()) == Some(&k) => {}
                    _ => {
                        env.remove(name.as_str());
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
                forget_assigned(&then, env);
                forget_assigned(&els, env);
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
                        env.insert(Arc::from(name.as_str()), Kind::of_ty(*ty));
                    }
                    out.push(d);
                }
                let mut eb = env.clone();
                eb.insert(Arc::from(var.as_str()), Kind::Int);
                let body = hoist_in(body, &mut eb, counter, fires);
                forget_assigned(&body, env);
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
    env: &Env,
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
        subst_stmts(&mut body, &cand, &name, &mut hits);
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

/// Substitute `cand` → `Var(name)` at unconditional positions of a
/// statement list, in place, mirroring [`visit_unconditional`]'s
/// traversal.
fn subst_stmts(stmts: &mut [Stmt], cand: &Expr, name: &str, hits: &mut u32) {
    for s in stmts {
        let mut sub = |e: &mut Expr| subst_expr(e, cand, name, hits);
        match s {
            Stmt::If { .. } | Stmt::Return | Stmt::Comment(_) | Stmt::Barrier => {}
            Stmt::For { from, to, body, .. } => {
                sub(from);
                sub(to);
                subst_stmts(body, cand, name, hits);
            }
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    sub(e);
                }
            }
            Stmt::Assign { value, .. } | Stmt::Output(value) => sub(value),
            Stmt::GlobalStore { idx, value, .. } => {
                sub(idx);
                sub(value);
            }
            Stmt::SharedStore { y, x, value, .. } => {
                sub(y);
                sub(x);
                sub(value);
            }
        }
    }
}

/// Top-down equality substitution, in place, that leaves `Select`
/// subtrees intact.
fn subst_expr(e: &mut Expr, cand: &Expr, name: &str, hits: &mut u32) {
    if *e == *cand {
        *hits += 1;
        *e = Expr::var(name);
        return;
    }
    let mut sub = |e: &mut Expr| subst_expr(e, cand, name, hits);
    match e {
        Expr::Unary(_, a) | Expr::Cast(_, a) => sub(a),
        Expr::Binary(_, a, b) => {
            sub(a);
            sub(b);
        }
        Expr::Call(_, args) => args.iter_mut().for_each(sub),
        Expr::InputAt { dx, dy, .. } | Expr::MaskAt { dx, dy, .. } => {
            sub(dx);
            sub(dy);
        }
        Expr::GlobalLoad { idx, .. } | Expr::ConstLoad { idx, .. } => sub(idx),
        Expr::TexFetch { coords, .. } => match coords {
            TexCoords::Linear(i) => sub(i),
            TexCoords::Xy(x, y) => {
                sub(x);
                sub(y);
            }
        },
        Expr::SharedLoad { y, x, .. } => {
            sub(y);
            sub(x);
        }
        Expr::Select(..)
        | Expr::ImmInt(_)
        | Expr::ImmFloat(_)
        | Expr::ImmBool(_)
        | Expr::Var(_)
        | Expr::OutputX
        | Expr::OutputY
        | Expr::Builtin(_) => {}
    }
}

fn qualifies(e: &Expr, forbidden: &HashSet<String>, env: &Env) -> bool {
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
fn infer_kind(e: &Expr, env: &Env) -> Option<Kind> {
    match e {
        Expr::ImmInt(_) | Expr::Builtin(_) => Some(Kind::Int),
        Expr::ImmFloat(_) => Some(Kind::Float),
        Expr::ImmBool(_) => Some(Kind::Bool),
        Expr::Var(v) => env.get(v.as_str()).copied(),
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
            let mut all_int = true;
            for a in args {
                all_int &= infer_kind(a, env)? == Kind::Int;
            }
            match f {
                MathFn::Min | MathFn::Max if all_int => Some(Kind::Int),
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
