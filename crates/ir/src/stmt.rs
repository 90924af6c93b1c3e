//! Statement nodes of the kernel IR.

use crate::expr::Expr;
use crate::ty::ScalarType;
use std::collections::HashSet;

/// Assignment targets. Memory stores are separate statements so that the
/// read/write analysis can see them without alias reasoning.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// A declared local variable.
    Var(String),
}

/// Statement nodes. DSL-level kernels use everything except the device
/// group; the compiler introduces the device group during lowering.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `type name = init;` (or an uninitialized declaration).
    Decl {
        /// Variable name.
        name: String,
        /// Variable type.
        ty: ScalarType,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `target = value;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `for (int var = from; var <= to; ++var) { body }` — the inclusive
    /// bound matches the paper's convolution loops
    /// (`for (yf = -2*sigma_d; yf <= 2*sigma_d; yf++)`).
    For {
        /// Loop variable (implicitly `int`).
        var: String,
        /// Inclusive lower bound.
        from: Expr,
        /// Inclusive upper bound.
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch (possibly empty).
        els: Vec<Stmt>,
    },
    /// Early return from the kernel.
    Return,
    /// A comment propagated into generated code for readability.
    Comment(String),

    // ---- DSL level ----
    /// `output() = value;` — write the output pixel of the iteration space.
    Output(Expr),

    // ---- Device level ----
    /// `buf[idx] = value;` to global memory.
    GlobalStore {
        /// Global buffer name.
        buf: String,
        /// Linear element index.
        idx: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `smem[y][x] = value;` to scratchpad memory.
    SharedStore {
        /// Shared array name.
        buf: String,
        /// Row index.
        y: Expr,
        /// Column index.
        x: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `__syncthreads()` / `barrier(CLK_LOCAL_MEM_FENCE)`.
    Barrier,
}

impl Stmt {
    /// Visit every statement in a statement list, pre-order, recursing into
    /// loop and branch bodies.
    pub fn visit_all(stmts: &[Stmt], f: &mut impl FnMut(&Stmt)) {
        for s in stmts {
            f(s);
            match s {
                Stmt::For { body, .. } => Stmt::visit_all(body, f),
                Stmt::If { then, els, .. } => {
                    Stmt::visit_all(then, f);
                    Stmt::visit_all(els, f);
                }
                _ => {}
            }
        }
    }

    /// Names that are the target of an `Assign` anywhere in a statement
    /// list (loop-carried or branch-assigned variables; declarations and
    /// loop variables are not assignments).
    pub fn assigned_names(stmts: &[Stmt]) -> HashSet<String> {
        let mut set = HashSet::new();
        Stmt::visit_all(stmts, &mut |s| {
            if let Stmt::Assign {
                target: LValue::Var(n),
                ..
            } = s
            {
                set.insert(n.clone());
            }
        });
        set
    }

    /// Visit every expression appearing in a statement list (conditions,
    /// bounds, initializers, indices, stored values).
    pub fn visit_exprs(stmts: &[Stmt], f: &mut impl FnMut(&Expr)) {
        Stmt::visit_all(stmts, &mut |s| match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    e.visit(f);
                }
            }
            Stmt::Assign { value, .. } | Stmt::Output(value) => value.visit(f),
            Stmt::For { from, to, .. } => {
                from.visit(f);
                to.visit(f);
            }
            Stmt::If { cond, .. } => cond.visit(f),
            Stmt::GlobalStore { idx, value, .. } => {
                idx.visit(f);
                value.visit(f);
            }
            Stmt::SharedStore { y, x, value, .. } => {
                y.visit(f);
                x.visit(f);
                value.visit(f);
            }
            Stmt::Return | Stmt::Comment(_) | Stmt::Barrier => {}
        });
    }

    /// Rewrite every expression in a statement list through `f`
    /// (bottom-up within each expression).
    pub fn rewrite_exprs(mut stmts: Vec<Stmt>, f: &mut impl FnMut(Expr) -> Expr) -> Vec<Stmt> {
        Stmt::rewrite_exprs_in_place(&mut stmts, f);
        stmts
    }

    /// [`rewrite_exprs`](Self::rewrite_exprs) over a borrowed list: every
    /// expression is rewritten where it stands, reusing its nodes.
    pub fn rewrite_exprs_in_place(stmts: &mut [Stmt], f: &mut impl FnMut(Expr) -> Expr) {
        for s in stmts {
            match s {
                Stmt::Decl { init, .. } => {
                    if let Some(e) = init {
                        e.rewrite_in_place(f);
                    }
                }
                Stmt::Assign { value, .. } | Stmt::Output(value) => value.rewrite_in_place(f),
                Stmt::For { from, to, body, .. } => {
                    from.rewrite_in_place(f);
                    to.rewrite_in_place(f);
                    Stmt::rewrite_exprs_in_place(body, f);
                }
                Stmt::If { cond, then, els } => {
                    cond.rewrite_in_place(f);
                    Stmt::rewrite_exprs_in_place(then, f);
                    Stmt::rewrite_exprs_in_place(els, f);
                }
                Stmt::GlobalStore { idx, value, .. } => {
                    idx.rewrite_in_place(f);
                    value.rewrite_in_place(f);
                }
                Stmt::SharedStore { y, x, value, .. } => {
                    y.rewrite_in_place(f);
                    x.rewrite_in_place(f);
                    value.rewrite_in_place(f);
                }
                Stmt::Return | Stmt::Comment(_) | Stmt::Barrier => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn sample() -> Vec<Stmt> {
        vec![
            Stmt::Decl {
                name: "d".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            },
            Stmt::For {
                var: "yf".into(),
                from: Expr::int(-1),
                to: Expr::int(1),
                body: vec![Stmt::Assign {
                    target: LValue::Var("d".into()),
                    value: Expr::var("d") + Expr::input_at("IN", Expr::int(0), Expr::var("yf")),
                }],
            },
            Stmt::Output(Expr::var("d")),
        ]
    }

    #[test]
    fn visit_all_recurses_into_loops() {
        let stmts = sample();
        let mut n = 0;
        Stmt::visit_all(&stmts, &mut |_| n += 1);
        assert_eq!(n, 4); // decl, for, assign, output
    }

    #[test]
    fn visit_exprs_sees_loop_bounds_and_bodies() {
        let stmts = sample();
        let mut input_reads = 0;
        let mut imms = 0;
        Stmt::visit_exprs(&stmts, &mut |e| match e {
            Expr::InputAt { .. } => input_reads += 1,
            Expr::ImmInt(_) | Expr::ImmFloat(_) => imms += 1,
            _ => {}
        });
        assert_eq!(input_reads, 1);
        // 0.0 init, -1 and 1 bounds, 0 offset = 4 immediates.
        assert_eq!(imms, 4);
    }

    #[test]
    fn rewrite_exprs_applies_everywhere() {
        let stmts = sample();
        // Replace every ImmInt(1) with ImmInt(2) — hits the loop bound.
        let out = Stmt::rewrite_exprs(stmts, &mut |e| {
            if e == Expr::int(1) {
                Expr::int(2)
            } else {
                e
            }
        });
        match &out[1] {
            Stmt::For { to, .. } => assert_eq!(*to, Expr::int(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rewrite_preserves_statement_structure() {
        let stmts = sample();
        let out = Stmt::rewrite_exprs(stmts.clone(), &mut |e| e);
        assert_eq!(out, stmts);
    }

    #[test]
    fn comparison_binop_helper_compiles() {
        // Regression guard: BinOp is re-exported and usable in pattern form.
        let e = Expr::var("x").lt(Expr::int(0));
        assert!(matches!(e, Expr::Binary(BinOp::Lt, _, _)));
    }
}
