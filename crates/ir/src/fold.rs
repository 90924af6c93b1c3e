//! Constant evaluation, constant propagation and algebraic simplification.
//!
//! Section VIII of the paper lists constant propagation (together with loop
//! unrolling) as the key outlook optimization for local operators: once the
//! filter-mask coefficients and `sigma` parameters are compile-time
//! constants, per-pixel recomputation (`c_d`, `exp` of constants, …)
//! disappears from the generated kernel. This module implements that pass
//! over the IR; [`crate::unroll`] builds on it.

use crate::expr::{BinOp, Expr, MathFn, UnOp};
use crate::kernel::KernelDef;
use crate::stmt::{LValue, Stmt};
use crate::ty::{Const, ScalarType};
use std::collections::{HashMap, HashSet};

/// Evaluate a binary operation on constants with C semantics.
pub fn eval_binop(op: BinOp, a: Const, b: Const) -> Option<Const> {
    use BinOp::*;
    // Comparisons and logic first.
    match op {
        And => return Some(Const::Bool(a.as_bool() && b.as_bool())),
        Or => return Some(Const::Bool(a.as_bool() || b.as_bool())),
        Eq | Ne | Lt | Le | Gt | Ge => {
            let (x, y) = (a.as_f32(), b.as_f32());
            let r = match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            };
            return Some(Const::Bool(r));
        }
        _ => {}
    }
    // Arithmetic: integer if both are ints, else float.
    match (a, b) {
        (Const::Int(x), Const::Int(y)) => {
            let r = match op {
                Add => x.checked_add(y)?,
                Sub => x.checked_sub(y)?,
                Mul => x.checked_mul(y)?,
                Div => {
                    if y == 0 {
                        return None;
                    }
                    x / y
                }
                Rem => {
                    if y == 0 {
                        return None;
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Some(Const::Int(r))
        }
        _ => {
            let (x, y) = (a.as_f32(), b.as_f32());
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => return None, // % on floats is rejected by typecheck
                _ => unreachable!(),
            };
            Some(Const::Float(r))
        }
    }
}

/// Evaluate a unary operation on a constant. Integer negation is checked
/// like every other integer operation: `-i64::MIN` is `None`.
pub fn eval_unop(op: UnOp, a: Const) -> Option<Const> {
    match (op, a) {
        (UnOp::Neg, Const::Int(i)) => i.checked_neg().map(Const::Int),
        (UnOp::Neg, Const::Float(f)) => Some(Const::Float(-f)),
        (UnOp::Not, c) => Some(Const::Bool(!c.as_bool())),
        (UnOp::Neg, Const::Bool(_)) => None,
    }
}

/// Evaluate a math function on constants.
pub fn eval_mathfn(f: MathFn, args: &[Const]) -> Option<Const> {
    let x = args.first()?.as_f32();
    let r = match f {
        MathFn::Exp => x.exp(),
        MathFn::Log => x.ln(),
        MathFn::Sqrt => x.sqrt(),
        MathFn::Rsqrt => 1.0 / x.sqrt(),
        MathFn::Abs => x.abs(),
        MathFn::Sin => x.sin(),
        MathFn::Cos => x.cos(),
        MathFn::Floor => x.floor(),
        MathFn::Round => x.round(),
        MathFn::Pow => x.powf(args.get(1)?.as_f32()),
        MathFn::Min | MathFn::Max => {
            let y = *args.get(1)?;
            // Integer min/max stay integer.
            if let (Const::Int(a), Const::Int(b)) = (args[0], y) {
                return Some(Const::Int(if f == MathFn::Min {
                    a.min(b)
                } else {
                    a.max(b)
                }));
            }
            let y = y.as_f32();
            if f == MathFn::Min {
                x.min(y)
            } else {
                x.max(y)
            }
        }
    };
    Some(Const::Float(r))
}

/// Try to evaluate a *pure* expression to a constant under a variable
/// environment. Memory reads, accessor reads and builtins are opaque.
pub fn eval_const(e: &Expr, env: &HashMap<String, Const>) -> Option<Const> {
    match e {
        Expr::ImmInt(i) => Some(Const::Int(*i)),
        Expr::ImmFloat(f) => Some(Const::Float(*f)),
        Expr::ImmBool(b) => Some(Const::Bool(*b)),
        Expr::Var(n) => env.get(n).copied(),
        Expr::Unary(op, a) => eval_unop(*op, eval_const(a, env)?),
        Expr::Binary(op, a, b) => eval_binop(*op, eval_const(a, env)?, eval_const(b, env)?),
        Expr::Call(f, args) => {
            let vals: Option<Vec<Const>> = args.iter().map(|a| eval_const(a, env)).collect();
            eval_mathfn(*f, &vals?)
        }
        Expr::Cast(ty, a) => {
            let v = eval_const(a, env)?;
            Some(match ty {
                ScalarType::F32 => Const::Float(v.as_f32()),
                ScalarType::I32 | ScalarType::U32 => Const::Int(v.as_i64()),
                ScalarType::Bool => Const::Bool(v.as_bool()),
            })
        }
        Expr::Select(c, a, b) => {
            if eval_const(c, env)?.as_bool() {
                eval_const(a, env)
            } else {
                eval_const(b, env)
            }
        }
        _ => None,
    }
}

fn const_to_expr(c: Const) -> Expr {
    match c {
        Const::Bool(b) => Expr::ImmBool(b),
        Const::Int(i) => Expr::ImmInt(i),
        Const::Float(f) => Expr::ImmFloat(f),
    }
}

fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::ImmInt(0)) || matches!(e, Expr::ImmFloat(f) if *f == 0.0)
}

fn is_one(e: &Expr) -> bool {
    matches!(e, Expr::ImmInt(1)) || matches!(e, Expr::ImmFloat(f) if *f == 1.0)
}

/// Fold an expression bottom-up under an environment: constant subtrees
/// become literals and trivial algebraic identities are removed
/// (`x + 0`, `x * 1`, `x * 0` — all IR expressions are pure, so dropping
/// operands is sound).
pub fn fold_expr(e: Expr, env: &HashMap<String, Const>) -> Expr {
    e.rewrite(&mut |node| {
        if let Some(c) = eval_const(&node, env) {
            // Keep float NaN/inf out of generated source.
            if let Const::Float(f) = c {
                if !f.is_finite() {
                    return node;
                }
            }
            return const_to_expr(c);
        }
        match node {
            Expr::Binary(BinOp::Add, a, b) => {
                if is_zero(&a) {
                    *b
                } else if is_zero(&b) {
                    *a
                } else {
                    Expr::Binary(BinOp::Add, a, b)
                }
            }
            Expr::Binary(BinOp::Sub, a, b) => {
                if is_zero(&b) {
                    *a
                } else {
                    Expr::Binary(BinOp::Sub, a, b)
                }
            }
            Expr::Binary(BinOp::Mul, a, b) => {
                if is_one(&a) {
                    *b
                } else if is_one(&b) || is_zero(&a) {
                    // x*1 = x; 0*y = 0 (the zero literal itself).
                    *a
                } else if is_zero(&b) {
                    *b
                } else {
                    Expr::Binary(BinOp::Mul, a, b)
                }
            }
            Expr::Binary(BinOp::Div, a, b) => {
                if is_one(&b) {
                    *a
                } else {
                    Expr::Binary(BinOp::Div, a, b)
                }
            }
            Expr::Select(c, a, b) => match *c {
                Expr::ImmBool(true) => *a,
                Expr::ImmBool(false) => *b,
                c => Expr::Select(Box::new(c), a, b),
            },
            other => other,
        }
    })
}

/// Widened, *device-safe* single-node simplification used by the
/// optimizer's cleanup pass (`ir::opt`). Unlike [`fold_expr`]'s
/// identities, every rewrite here is observationally invisible on the
/// lowered device IR, where subexpressions may carry counted memory
/// accesses or traps:
///
/// * constant subtrees fold (such a subtree is literal-only, so it can
///   neither access memory nor trap — division by a constant zero
///   refuses to fold);
/// * identities only ever drop a *literal* operand (`x-0`, `x*1`,
///   `1*x`, `x/1` — but not `x+0`, which flips the sign of a float
///   `-0.0` and would break bit-identity) or an operand the engines
///   provably never evaluate
///   (the untaken branch of a literal `Select`, the right side of a
///   short-circuited `false && _` / `true || _`);
/// * boolean widenings: `b && true → b`, `b || false → b`, `!!b → b`,
///   gated on `b` being syntactically boolean so the result's constant
///   kind is unchanged.
///
/// The input is a single node whose children are already simplified (the
/// shape `Expr::rewrite` hands out); callers drive it bottom-up. Returns
/// the simplified node and whether it differs from the input.
pub fn widen_fold(node: Expr) -> (Expr, bool) {
    let literal = matches!(node, Expr::ImmInt(_) | Expr::ImmFloat(_) | Expr::ImmBool(_));
    if !literal {
        if let Some(c) = eval_const(&node, &HashMap::new()) {
            if !matches!(c, Const::Float(f) if !f.is_finite()) {
                return (const_to_expr(c), true);
            }
        }
    }
    fn boolish(e: &Expr) -> bool {
        matches!(e, Expr::ImmBool(_) | Expr::Unary(UnOp::Not, _))
            || matches!(e, Expr::Binary(op, _, _) if op.is_comparison())
    }
    // `x - (-0.0)` is not identity for `x = -0.0`; only drop `+0.0`.
    let is_pos_zero = |e: &Expr| {
        matches!(e, Expr::ImmInt(0))
            || matches!(e, Expr::ImmFloat(f) if *f == 0.0 && !f.is_sign_negative())
    };
    let is_bool = |e: &Expr, v: bool| matches!(e, Expr::ImmBool(b) if *b == v);
    let out = match node {
        Expr::Binary(BinOp::Sub, a, b) if is_pos_zero(&b) => *a,
        Expr::Binary(BinOp::Mul, a, b) if is_one(&a) => *b,
        Expr::Binary(BinOp::Mul, a, b) if is_one(&b) => *a,
        Expr::Binary(BinOp::Div, a, b) if is_one(&b) => *a,
        // false && _ short-circuits: b never runs.
        Expr::Binary(BinOp::And, a, _) if is_bool(&a, false) => Expr::ImmBool(false),
        Expr::Binary(BinOp::And, a, b) if is_bool(&a, true) && boolish(&b) => *b,
        Expr::Binary(BinOp::And, a, b) if is_bool(&b, true) && boolish(&a) => *a,
        // true || _ short-circuits: b never runs.
        Expr::Binary(BinOp::Or, a, _) if is_bool(&a, true) => Expr::ImmBool(true),
        Expr::Binary(BinOp::Or, a, b) if is_bool(&a, false) && boolish(&b) => *b,
        Expr::Binary(BinOp::Or, a, b) if is_bool(&b, false) && boolish(&a) => *a,
        Expr::Unary(UnOp::Not, a) if matches!(&*a, Expr::Unary(UnOp::Not, inner) if boolish(inner)) =>
        {
            let Expr::Unary(_, inner) = *a else {
                unreachable!("matched a double negation")
            };
            *inner
        }
        // Lazy: the untaken branch never evaluated.
        Expr::Select(c, a, b) if matches!(*c, Expr::ImmBool(_)) => {
            if is_bool(&c, true) {
                *a
            } else {
                *b
            }
        }
        other => return (other, false),
    };
    (out, true)
}

/// Names of variables referenced anywhere in expressions.
fn used_vars(stmts: &[Stmt]) -> HashSet<String> {
    let mut set = HashSet::new();
    Stmt::visit_exprs(stmts, &mut |e| {
        if let Expr::Var(n) = e {
            set.insert(n.clone());
        }
    });
    set
}

fn fold_stmts(
    stmts: Vec<Stmt>,
    env: &mut HashMap<String, Const>,
    never_assigned: &HashSet<String>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Decl { name, ty, init } => {
                let init = init.map(|e| fold_expr(e, env));
                // A write-once variable with a constant initializer joins
                // the environment so later uses fold away.
                if never_assigned.contains(&name) {
                    if let Some(e) = &init {
                        if let Some(c) = eval_const(e, env) {
                            env.insert(name.clone(), c);
                        }
                    }
                }
                out.push(Stmt::Decl { name, ty, init });
            }
            Stmt::Assign { target, value } => {
                let LValue::Var(ref n) = target;
                // Conservatively drop any stale binding for reassigned vars.
                env.remove(n);
                out.push(Stmt::Assign {
                    target,
                    value: fold_expr(value, env),
                });
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from = fold_expr(from, env);
                let to = fold_expr(to, env);
                // The loop variable varies: it must not be in the env.
                let saved = env.remove(&var);
                let body = fold_stmts(body, env, never_assigned);
                if let Some(c) = saved {
                    env.insert(var.clone(), c);
                }
                out.push(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                });
            }
            Stmt::If { cond, then, els } => {
                let cond = fold_expr(cond, env);
                match cond {
                    // Statically decided branches collapse entirely.
                    Expr::ImmBool(true) => {
                        out.extend(fold_stmts(then, env, never_assigned));
                    }
                    Expr::ImmBool(false) => {
                        out.extend(fold_stmts(els, env, never_assigned));
                    }
                    cond => {
                        let then = fold_stmts(then, &mut env.clone(), never_assigned);
                        let els = fold_stmts(els, &mut env.clone(), never_assigned);
                        out.push(Stmt::If { cond, then, els });
                    }
                }
            }
            Stmt::Output(e) => out.push(Stmt::Output(fold_expr(e, env))),
            Stmt::GlobalStore { buf, idx, value } => out.push(Stmt::GlobalStore {
                buf,
                idx: fold_expr(idx, env),
                value: fold_expr(value, env),
            }),
            Stmt::SharedStore { buf, y, x, value } => out.push(Stmt::SharedStore {
                buf,
                y: fold_expr(y, env),
                x: fold_expr(x, env),
                value: fold_expr(value, env),
            }),
            other @ (Stmt::Return | Stmt::Comment(_) | Stmt::Barrier) => out.push(other),
        }
    }
    out
}

/// Remove declarations of variables that are never read and never
/// reassigned (their initializers are pure, so dropping them is sound).
fn eliminate_dead_decls(stmts: Vec<Stmt>) -> Vec<Stmt> {
    let used = used_vars(&stmts);
    let assigned = Stmt::assigned_names(&stmts);
    fn walk(stmts: Vec<Stmt>, used: &HashSet<String>, assigned: &HashSet<String>) -> Vec<Stmt> {
        stmts
            .into_iter()
            .filter_map(|s| match s {
                Stmt::Decl { ref name, .. } if !used.contains(name) && !assigned.contains(name) => {
                    None
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => Some(Stmt::For {
                    var,
                    from,
                    to,
                    body: walk(body, used, assigned),
                }),
                Stmt::If { cond, then, els } => Some(Stmt::If {
                    cond,
                    then: walk(then, used, assigned),
                    els: walk(els, used, assigned),
                }),
                other => Some(other),
            })
            .collect()
    }
    walk(stmts, &used, &assigned)
}

/// Specialize a DSL kernel for known scalar-parameter values: substitute
/// the bindings, propagate write-once constant locals, fold constant
/// subtrees, collapse statically-decided branches, and drop dead
/// declarations. Bound parameters remain in the signature (the generated
/// code simply no longer reads them).
pub fn specialize_kernel(kernel: &KernelDef, bindings: &HashMap<String, Const>) -> KernelDef {
    let mut env = bindings.clone();
    // A bound parameter that the kernel reassigns must not be propagated:
    // its runtime value diverges from the binding after the assignment.
    for n in Stmt::assigned_names(&kernel.body) {
        env.remove(&n);
    }
    let never_assigned: HashSet<String> = {
        let assigned = Stmt::assigned_names(&kernel.body);
        let mut all = HashSet::new();
        Stmt::visit_all(&kernel.body, &mut |s| {
            if let Stmt::Decl { name, .. } = s {
                all.insert(name.clone());
            }
        });
        all.difference(&assigned).cloned().collect()
    };
    let body = fold_stmts(kernel.body.clone(), &mut env, &never_assigned);
    let body = eliminate_dead_decls(body);
    KernelDef {
        body,
        ..kernel.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> HashMap<String, Const> {
        HashMap::new()
    }

    #[test]
    fn folds_integer_arithmetic() {
        let e = (Expr::int(2) + Expr::int(3)) * Expr::int(4);
        assert_eq!(fold_expr(e, &env()), Expr::int(20));
    }

    #[test]
    fn folds_through_variables_in_env() {
        let mut env = env();
        env.insert("sigma_d".into(), Const::Int(3));
        let e = Expr::int(-2) * Expr::var("sigma_d");
        assert_eq!(fold_expr(e, &env), Expr::int(-6));
    }

    #[test]
    fn folds_exp_of_constant() {
        let e = Expr::exp(Expr::float(0.0));
        assert_eq!(fold_expr(e, &env()), Expr::float(1.0));
    }

    #[test]
    fn integer_negation_overflow_is_refused_not_wrapped() {
        assert_eq!(eval_unop(UnOp::Neg, Const::Int(i64::MIN)), None);
        assert_eq!(
            eval_unop(UnOp::Neg, Const::Int(i64::MAX)),
            Some(Const::Int(-i64::MAX))
        );
        // Like `i64::MAX + 1`, the expression is left for the engines,
        // which raise the typed error.
        let e = -Expr::int(i64::MIN);
        assert_eq!(eval_const(&e, &env()), None);
        assert_eq!(fold_expr(e.clone(), &env()), e);
    }

    #[test]
    fn keeps_nonconstant_subtrees() {
        let e = Expr::var("x") + (Expr::int(1) + Expr::int(2));
        assert_eq!(fold_expr(e, &env()), Expr::var("x") + Expr::int(3));
    }

    #[test]
    fn algebraic_identities() {
        let x = || Expr::var("x");
        assert_eq!(fold_expr(x() + Expr::float(0.0), &env()), x());
        assert_eq!(fold_expr(x() * Expr::float(1.0), &env()), x());
        assert_eq!(fold_expr(x() * Expr::float(0.0), &env()), Expr::float(0.0));
        assert_eq!(fold_expr(x() - Expr::int(0), &env()), x());
        assert_eq!(fold_expr(x() / Expr::float(1.0), &env()), x());
    }

    #[test]
    fn division_by_zero_not_folded() {
        let e = Expr::int(1) / Expr::int(0);
        // Left intact for the backend to deal with (C UB is not our UB).
        assert_eq!(fold_expr(e.clone(), &env()), e);
        let e = Expr::float(1.0) / Expr::float(0.0);
        assert_eq!(fold_expr(e.clone(), &env()), e); // inf is not emitted
    }

    #[test]
    fn c_truncating_cast() {
        let e = Expr::float(2.9).cast(ScalarType::I32);
        assert_eq!(fold_expr(e, &env()), Expr::int(2));
        let e = Expr::float(-2.9).cast(ScalarType::I32);
        assert_eq!(fold_expr(e, &env()), Expr::int(-2));
    }

    #[test]
    fn rem_euclid_identity_on_constants() {
        // ((i % n) + n) % n for i = -1, n = 4 folds to 3.
        let e = (Expr::int(-1).rem(Expr::int(4)) + Expr::int(4)).rem(Expr::int(4));
        assert_eq!(fold_expr(e, &env()), Expr::int(3));
    }

    #[test]
    fn specialize_removes_param_computation() {
        // Mimic Listing 1: c_r = 1/(2*sigma_r*sigma_r) folds to a constant
        // once sigma_r is bound, and d += c_r * x uses the literal.
        let kernel = KernelDef {
            name: "k".into(),
            pixel: ScalarType::F32,
            params: vec![crate::kernel::ParamDecl {
                name: "sigma_r".into(),
                ty: ScalarType::I32,
            }],
            accessors: vec![crate::kernel::AccessorDecl {
                name: "IN".into(),
                ty: ScalarType::F32,
            }],
            masks: vec![],
            body: vec![
                Stmt::Decl {
                    name: "c_r".into(),
                    ty: ScalarType::F32,
                    init: Some(
                        Expr::float(1.0)
                            / (Expr::float(2.0)
                                * Expr::var("sigma_r").cast(ScalarType::F32)
                                * Expr::var("sigma_r").cast(ScalarType::F32)),
                    ),
                },
                Stmt::Output(Expr::var("c_r") * Expr::input_center("IN")),
            ],
        };
        let mut bindings = HashMap::new();
        bindings.insert("sigma_r".to_string(), Const::Int(5));
        let spec = specialize_kernel(&kernel, &bindings);
        // The c_r declaration is dead and removed; output uses 0.02f.
        assert_eq!(spec.body.len(), 1);
        match &spec.body[0] {
            Stmt::Output(Expr::Binary(BinOp::Mul, a, _)) => {
                assert_eq!(**a, Expr::float(1.0 / 50.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn specialize_collapses_static_branches() {
        let kernel = KernelDef {
            name: "k".into(),
            pixel: ScalarType::F32,
            params: vec![crate::kernel::ParamDecl {
                name: "flag".into(),
                ty: ScalarType::I32,
            }],
            accessors: vec![crate::kernel::AccessorDecl {
                name: "IN".into(),
                ty: ScalarType::F32,
            }],
            masks: vec![],
            body: vec![Stmt::If {
                cond: Expr::var("flag").gt(Expr::int(0)),
                then: vec![Stmt::Output(Expr::float(1.0))],
                els: vec![Stmt::Output(Expr::float(2.0))],
            }],
        };
        let mut b = HashMap::new();
        b.insert("flag".to_string(), Const::Int(1));
        let spec = specialize_kernel(&kernel, &b);
        assert_eq!(spec.body, vec![Stmt::Output(Expr::float(1.0))]);
        let mut b = HashMap::new();
        b.insert("flag".to_string(), Const::Int(0));
        let spec = specialize_kernel(&kernel, &b);
        assert_eq!(spec.body, vec![Stmt::Output(Expr::float(2.0))]);
    }

    #[test]
    fn reassigned_variables_are_not_propagated() {
        let kernel = KernelDef {
            name: "k".into(),
            pixel: ScalarType::F32,
            params: vec![],
            accessors: vec![crate::kernel::AccessorDecl {
                name: "IN".into(),
                ty: ScalarType::F32,
            }],
            masks: vec![],
            body: vec![
                Stmt::Decl {
                    name: "acc".into(),
                    ty: ScalarType::F32,
                    init: Some(Expr::float(0.0)),
                },
                Stmt::Assign {
                    target: LValue::Var("acc".into()),
                    value: Expr::var("acc") + Expr::input_center("IN"),
                },
                Stmt::Output(Expr::var("acc")),
            ],
        };
        let spec = specialize_kernel(&kernel, &HashMap::new());
        // `acc` must survive: it is reassigned.
        assert_eq!(spec.body.len(), 3);
        match &spec.body[1] {
            Stmt::Assign { value, .. } => {
                // acc + IN() must NOT have become 0.0 + IN().
                assert!(matches!(value, Expr::Binary(BinOp::Add, a, _)
                        if **a == Expr::var("acc")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
