//! Thread-varying branch flattening.
//!
//! A statement-level `if` whose condition differs across the threads of
//! a warp forces the SIMD engine off its converged fast path: the warp
//! splits into masked halves and replays both arms. When each arm is a
//! single assignment to the same variable, the branch is equivalent to
//! one unconditional assignment of a `Select` — straight-line code the
//! warp executes converged (the `Select` stays lazy per lane, so loads
//! and stats are untouched).
//!
//! The pass only fires on conditions the uniformity analysis marks
//! thread-*varying*; uniform branches are already converged and keeping
//! them preserves their (cheaper) branch shape. One-sided branches
//! flatten to `v = cond ? a : v`, which requires `v` to already hold a
//! value — the walker tracks initialized names for exactly this check.

use super::{Initialized, Oracle, WalkConfig};
use crate::expr::Expr;
use crate::kernel::DeviceKernelDef;
use crate::stmt::{LValue, Stmt};

/// Run branch flattening over `k`. Returns the rewrite count.
pub fn flatten_branches<O: Oracle>(k: &mut DeviceKernelDef, o: &mut O) -> u32 {
    let cfg = WalkConfig {
        collapse_ifs: false,
        flatten: true,
    };
    let body = std::mem::take(&mut k.body);
    let (body, fires) = super::run_walker(body, &k.scalars, o, &cfg, &mut |e, _, _| e);
    k.body = body;
    fires
}

/// The pieces of an `if` handed back unchanged when flattening does not
/// apply: `(cond, then, els)`.
pub(super) type Unflattened = (Expr, Vec<Stmt>, Vec<Stmt>);

/// Try to express `if (cond) { then } else { els }` as a single
/// `name = Select(...)` assignment. Returns the pieces unchanged when
/// the shape does not match.
pub(super) fn try_flatten(
    cond: Expr,
    then: Vec<Stmt>,
    els: Vec<Stmt>,
    initialized: &Initialized,
) -> Result<(String, Expr), Unflattened> {
    let single = |arm: &[Stmt]| -> Option<(String, Expr)> {
        match arm {
            [Stmt::Assign {
                target: LValue::Var(v),
                value,
            }] => Some((v.clone(), value.clone())),
            _ => None,
        }
    };
    match (single(&then), single(&els), then.is_empty(), els.is_empty()) {
        (Some((v, a)), Some((w, b)), _, _) if v == w => Ok((v, Expr::select(cond, a, b))),
        (Some((v, a)), None, _, true) if initialized.contains(&v) => {
            let keep = Expr::var(v.clone());
            Ok((v, Expr::select(cond, a, keep)))
        }
        (None, Some((v, b)), true, _) if initialized.contains(&v) => {
            let keep = Expr::var(v.clone());
            Ok((v, Expr::select(cond, keep, b)))
        }
        _ => Err((cond, then, els)),
    }
}
