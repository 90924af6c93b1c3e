//! Barrier-divergence checking via a thread-dependence taint lattice.
//!
//! GPU barriers (`__syncthreads` / `barrier(CLK_LOCAL_MEM_FENCE)`) are
//! only well-defined when *every* thread of a block reaches them. The
//! lowering therefore emits the single staging barrier at the top level,
//! before the iteration-space guard. This pass proves that property for
//! arbitrary device kernels, GPUVerify-style:
//!
//! 1. A taint fixpoint over the CFG (via [`crate::dataflow`]) computes
//!    the set of variables whose values are *thread-dependent* — seeded
//!    from the `threadIdx.x/y` builtins and closed over assignments.
//!    (`blockIdx`/`blockDim`/`gridDim` are uniform across a block and do
//!    not taint: the nine-region dispatch branches on `blockIdx` and is
//!    perfectly convergent.)
//! 2. A structural walk rejects every barrier that sits under a branch
//!    or loop whose condition is tainted ([A0101]), and every barrier
//!    reachable after a `return` that only *some* threads may have taken
//!    ([A0102]).
//!
//! The fixpoint of step 1 ([`thread_dependent_vars`]) is also the IR
//! optimizer's uniformity answer: branch flattening fires only on
//! thread-*varying* conditions (uniform branches already execute
//! converged on the SIMD engine), and asks through
//! [`RangeState::with_varying`](crate::range::RangeState::with_varying).
//!
//! [A0101]: crate::diag#diagnostic-code-space
//! [A0102]: crate::diag#diagnostic-code-space

use crate::dataflow::{forward_fixpoint, BitSet};
use crate::diag::Diagnostic;
use hipacc_ir::cfg::{Block, Cfg};
use hipacc_ir::kernel::DeviceKernelDef;
use hipacc_ir::{Builtin, Expr, LValue, Stmt};
use std::collections::BTreeSet;

/// Whether an expression's value can differ between threads of a block,
/// given the set of thread-dependent variables.
pub fn expr_thread_dependent(e: &Expr, tainted: &BTreeSet<String>) -> bool {
    depends(e, &mut |v| tainted.contains(v))
}

/// [`expr_thread_dependent`] over any test for a tainted variable name.
fn depends(e: &Expr, tainted: &mut impl FnMut(&str) -> bool) -> bool {
    let mut dep = false;
    e.visit(&mut |n| match n {
        Expr::Builtin(Builtin::ThreadIdxX | Builtin::ThreadIdxY) => dep = true,
        Expr::Var(v) if !dep && tainted(v) => dep = true,
        // Loads may read data written per-thread; treat shared loads as
        // thread-dependent (their index usually is anyway).
        Expr::SharedLoad { .. } => dep = true,
        _ => {}
    });
    dep
}

/// The taint fixpoint: variables whose values are thread-dependent
/// anywhere in the kernel (may-analysis over all CFG paths).
///
/// Only a name the body assigns (a declaration with an initializer or an
/// assignment target) can become tainted, so the lattice is a bitset over
/// those names, sorted; it becomes a set of names once, at the end.
pub fn thread_dependent_vars(body: &[Stmt]) -> BTreeSet<String> {
    let cfg = Cfg::build(body);
    let mut names: Vec<&str> = cfg
        .blocks
        .iter()
        .flat_map(|b| &b.stmts)
        .filter_map(|s| assigned(s).map(|(name, _)| name.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let index = |v: &str| names.binary_search(&v).ok();
    let transfer = |block: &Block<'_>, inp: &BitSet| {
        let mut out = inp.clone();
        // Iterate locally to a fixpoint so chains like `a = tid; b = a`
        // inside one block resolve in a single transfer application.
        let mut changed = true;
        while changed {
            changed = false;
            for (name, value) in block.stmts.iter().filter_map(|s| assigned(s)) {
                let Some(i) = index(name) else { continue };
                if !out.contains(i)
                    && depends(value, &mut |v| index(v).is_some_and(|j| out.contains(j)))
                {
                    out.insert(i);
                    changed = true;
                }
            }
        }
        out
    };
    let bottom = BitSet::new(names.len());
    let states = forward_fixpoint(&cfg, bottom.clone(), bottom.clone(), transfer);
    // The union over all blocks is the may-tainted set of the kernel.
    let mut all = bottom;
    for (block, s) in cfg.blocks.iter().zip(&states) {
        crate::dataflow::Lattice::join(&mut all, &transfer(block, s));
    }
    all.iter().map(|i| names[i].to_string()).collect()
}

/// The name a statement gives a value to, with that value.
fn assigned(s: &Stmt) -> Option<(&String, &Expr)> {
    match s {
        Stmt::Decl {
            name,
            init: Some(e),
            ..
        } => Some((name, e)),
        Stmt::Assign {
            target: LValue::Var(name),
            value,
        } => Some((name, value)),
        _ => None,
    }
}

/// Check every barrier in the kernel for divergence (A0101/A0102).
pub fn check_barrier_divergence(kernel: &DeviceKernelDef) -> Vec<Diagnostic> {
    let tainted = thread_dependent_vars(&kernel.body);
    let mut diags = Vec::new();
    let mut may_have_returned = false;
    walk(
        &kernel.body,
        false,
        &tainted,
        &mut may_have_returned,
        &kernel.name,
        &mut diags,
    );
    diags
}

fn walk(
    stmts: &[Stmt],
    divergent: bool,
    tainted: &BTreeSet<String>,
    may_have_returned: &mut bool,
    kernel: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for s in stmts {
        match s {
            Stmt::Barrier => {
                if divergent {
                    diags.push(Diagnostic::error(
                        "A0101",
                        kernel,
                        "barrier under thread-dependent control flow: threads of a block \
                         may disagree on reaching it",
                    ));
                } else if *may_have_returned {
                    diags.push(Diagnostic::error(
                        "A0102",
                        kernel,
                        "barrier reachable after a thread-dependent early return: exited \
                         threads never arrive",
                    ));
                }
            }
            Stmt::If { cond, then, els } => {
                let div = divergent || expr_thread_dependent(cond, tainted);
                walk(then, div, tainted, may_have_returned, kernel, diags);
                walk(els, div, tainted, may_have_returned, kernel, diags);
            }
            Stmt::For { from, to, body, .. } => {
                let div = divergent
                    || expr_thread_dependent(from, tainted)
                    || expr_thread_dependent(to, tainted);
                walk(body, div, tainted, may_have_returned, kernel, diags);
            }
            Stmt::Return if divergent => {
                *may_have_returned = true;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_ir::kernel::DeviceKernelDef;
    use hipacc_ir::ScalarType;

    fn kernel(body: Vec<Stmt>) -> DeviceKernelDef {
        DeviceKernelDef {
            name: "k".into(),
            buffers: vec![],
            scalars: vec![],
            const_buffers: vec![],
            shared: vec![],
            body,
        }
    }

    fn tid() -> Expr {
        Expr::Builtin(Builtin::ThreadIdxX)
    }

    #[test]
    fn taint_propagates_through_assignments() {
        let body = vec![
            Stmt::Decl {
                name: "gid".into(),
                ty: ScalarType::I32,
                init: Some(tid() + Expr::int(1)),
            },
            Stmt::Decl {
                name: "twice".into(),
                ty: ScalarType::I32,
                init: Some(Expr::var("gid") * Expr::int(2)),
            },
            Stmt::Decl {
                name: "uniform".into(),
                ty: ScalarType::I32,
                init: Some(Expr::Builtin(Builtin::BlockIdxX)),
            },
        ];
        let t = thread_dependent_vars(&body);
        assert!(t.contains("gid") && t.contains("twice"));
        assert!(!t.contains("uniform"), "blockIdx is uniform per block");
    }

    #[test]
    fn classifies_uniform_and_varying() {
        let body = vec![
            Stmt::Decl {
                name: "tid".into(),
                ty: ScalarType::I32,
                init: Some(tid()),
            },
            Stmt::Decl {
                name: "base".into(),
                ty: ScalarType::I32,
                init: Some(Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)),
            },
            // Loop-carried taint: u starts uniform, becomes varying.
            Stmt::Decl {
                name: "u".into(),
                ty: ScalarType::I32,
                init: Some(Expr::int(0)),
            },
            Stmt::For {
                var: "i".into(),
                from: Expr::int(0),
                to: Expr::int(3),
                body: vec![Stmt::Assign {
                    target: hipacc_ir::LValue::Var("u".into()),
                    value: Expr::var("u") + Expr::var("tid"),
                }],
            },
        ];
        let varying = thread_dependent_vars(&body);
        let is_uniform = |e: &Expr| !expr_thread_dependent(e, &varying);
        assert!(is_uniform(&Expr::var("base")));
        assert!(is_uniform(&(Expr::var("base") + Expr::int(7))));
        assert!(!is_uniform(&Expr::var("tid")));
        assert!(!is_uniform(&Expr::var("u")));
        assert!(!is_uniform(&tid()));
        assert!(is_uniform(&Expr::Builtin(Builtin::BlockIdxX)));
        assert!(varying.contains("tid"));
    }

    #[test]
    fn top_level_barrier_is_clean() {
        let k = kernel(vec![
            Stmt::Barrier,
            Stmt::If {
                cond: tid().ge(Expr::int(8)),
                then: vec![Stmt::Return],
                els: vec![],
            },
        ]);
        assert!(check_barrier_divergence(&k).is_empty());
    }

    #[test]
    fn barrier_in_thread_dependent_branch_is_a0101() {
        let k = kernel(vec![Stmt::If {
            cond: tid().lt(Expr::int(8)),
            then: vec![Stmt::Barrier],
            els: vec![],
        }]);
        let d = check_barrier_divergence(&k);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "A0101");
        assert!(d[0].is_error());
    }

    #[test]
    fn barrier_under_derived_taint_is_a0101() {
        // gid = blockIdx*blockDim + threadIdx; if (gid < 8) barrier;
        let k = kernel(vec![
            Stmt::Decl {
                name: "gid".into(),
                ty: ScalarType::I32,
                init: Some(
                    Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX) + tid(),
                ),
            },
            Stmt::If {
                cond: Expr::var("gid").lt(Expr::int(8)),
                then: vec![Stmt::Barrier],
                els: vec![],
            },
        ]);
        assert_eq!(check_barrier_divergence(&k)[0].code, "A0101");
    }

    #[test]
    fn barrier_after_divergent_return_is_a0102() {
        let k = kernel(vec![
            Stmt::If {
                cond: tid().ge(Expr::int(8)),
                then: vec![Stmt::Return],
                els: vec![],
            },
            Stmt::Barrier,
        ]);
        let d = check_barrier_divergence(&k);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "A0102");
    }

    #[test]
    fn barrier_in_uniform_branch_is_clean() {
        // Region dispatch: branching on blockIdx is convergent.
        let k = kernel(vec![Stmt::If {
            cond: Expr::Builtin(Builtin::BlockIdxX).lt(Expr::int(1)),
            then: vec![Stmt::Barrier],
            els: vec![Stmt::Barrier],
        }]);
        assert!(check_barrier_divergence(&k).is_empty());
    }

    #[test]
    fn barrier_in_thread_dependent_loop_is_a0101() {
        let k = kernel(vec![Stmt::For {
            var: "i".into(),
            from: Expr::int(0),
            to: tid(),
            body: vec![Stmt::Barrier],
        }]);
        assert_eq!(check_barrier_divergence(&k)[0].code, "A0101");
    }
}
