//! Analysis-driven optimization passes over the *device* IR.
//!
//! The verifier (crate `hipacc-analysis`) proves facts about lowered
//! kernels — value ranges, block-uniformity, race phases — and
//! *diagnoses* with them. This module consumes the same facts, from the
//! same interpreter, to *transform* kernels. The passes are deliberately split from the
//! analyses: everything here is generic over an [`Oracle`] that answers
//! range/truth/uniformity queries, so the IR crate stays free of any
//! dependency on the analysis crate (which depends on this one).
//!
//! Passes (driver order; the names are the keys of the codegen
//! `CompileSpec::disabled_passes` veto):
//!
//! 1. [`elide_clamps`] — bounds-check elision: statically decided
//!    branches (region dispatch, iteration guards) collapse, provably
//!    zero-trip loops drop, and redundant `min`/`max` clamps reduce to
//!    their surviving operand.
//! 2. [`strength_reduce`] — range-based strength reduction: decided
//!    comparisons and boolean operators fold to literals, `Select`s with
//!    decided conditions collapse, and `x % c` / `x / c` reduce when the
//!    dividend range proves the operation trivial.
//! 3. [`flatten_branches`] — thread-*varying* single-assignment branches
//!    rewrite to `Select` form so the SIMD engine sees straight-line code.
//! 4. [`hoist_invariants`] — loop-invariant code motion for transparent
//!    expressions (convolution-row addresses, mask-row bases).
//! 5. [`remove_barriers`] — dead-barrier elimination, fed by the race
//!    analysis' phase footprints (computed by the caller).
//! 6. [`cleanup`](fn@cleanup) — constant folding ([`crate::fold`]) with the widened
//!    boolean identities, safe decided-`If` collapse and dead-decl
//!    removal, run last to sweep up literals the other passes produced.
//!
//! # Soundness contract
//!
//! Every rewrite must preserve *observable equivalence* on the
//! simulator's engines: bit-identical outputs, identical `ExecStats`
//! (every load class is counted, so an expression may only be dropped or
//! moved when it performs no memory access), and identical error
//! behavior (division traps, nested-barrier errors). The predicate
//! encoding that is [`transparent`]; facts stronger than syntax come
//! from the [`Oracle`], whose implementations must only decide queries
//! whose runtime semantics they model exactly (see
//! `hipacc_analysis::range`).

use crate::expr::Expr;
use crate::stmt::{LValue, Stmt};
use crate::ty::ScalarType;

mod barrier;
mod clamps;
mod cleanup;
mod flatten;
mod hoist;
mod strength;

pub use barrier::remove_barriers;
pub use clamps::elide_clamps;
pub use cleanup::cleanup;
pub use flatten::flatten_branches;
pub use hoist::hoist_invariants;
pub use strength::strength_reduce;

/// Veto key of the clamp/bounds-check elision pass.
pub const PASS_ELIDE_CLAMPS: &str = "elide-clamps";
/// Veto key of the strength-reduction pass.
pub const PASS_STRENGTH: &str = "strength-reduce";
/// Veto key of the divergent-branch flattening pass.
pub const PASS_FLATTEN: &str = "flatten";
/// Veto key of the loop-invariant hoisting pass.
pub const PASS_HOIST: &str = "hoist";
/// Veto key of the dead-barrier elimination pass.
pub const PASS_DEAD_BARRIER: &str = "dead-barrier";
/// Veto key of the final fold/cleanup pass.
pub const PASS_FOLD: &str = "fold";

/// All pass names in driver order.
pub const PASSES: &[&str] = &[
    PASS_ELIDE_CLAMPS,
    PASS_STRENGTH,
    PASS_FLATTEN,
    PASS_HOIST,
    PASS_DEAD_BARRIER,
    PASS_FOLD,
];

/// The fact interface the transforming passes query. Implemented by
/// `hipacc_analysis::range::RangeState` (the interval interpreter the
/// bounds verifier also walks; uniformity only when the caller hands it
/// a varying set) and by the trivial [`NoFacts`] oracle for tests.
///
/// Soundness rests on the implementation: `range`/`truth` answers must
/// hold for **every** thread of **every** block of the launch and must
/// model the runtime semantics of the queried expression exactly
/// (integer-valued, no hidden coercions). Returning `None` — or `false`
/// from `is_uniform` — is always sound.
pub trait Oracle: Clone {
    /// Inclusive value range of an integer-valued expression, or `None`
    /// when unknown, non-integer, or unreachable.
    fn range(&self, e: &Expr) -> Option<(i64, i64)>;
    /// Decide a boolean condition when the facts separate it.
    fn truth(&self, e: &Expr) -> Option<bool>;
    /// Whether the expression evaluates identically on every thread of a
    /// block (`false` is the safe default). Only [`flatten_branches`]
    /// asks.
    fn is_uniform(&self, e: &Expr) -> bool;
    /// A declaration executed: bind `name` (coerced to `ty`) to `init`.
    fn decl(&mut self, name: &str, ty: ScalarType, init: Option<&Expr>);
    /// An assignment executed: rebind `name` to `value` (no coercion).
    fn assign(&mut self, name: &str, value: &Expr);
    /// Assume `cond` evaluates to `want` from here on. Returns `false`
    /// when that assumption is infeasible (the path is dead).
    fn refine(&mut self, cond: &Expr, want: bool) -> bool;
    /// Merge facts from the other arm of a branch (lattice join).
    fn join(&mut self, other: &Self);
    /// Forget everything about `name` (loop-carried assignment).
    fn havoc(&mut self, name: &str);
    /// Bind a loop variable to the union of all its iteration values.
    fn bind_loop(&mut self, var: &str, from: &Expr, to: &Expr);
    /// `name` went out of scope: drop it entirely.
    fn drop_var(&mut self, name: &str);
}

/// The oracle that knows nothing: every query returns "unknown". Passes
/// driven by it perform only their syntactically-justified rewrites.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoFacts;

impl Oracle for NoFacts {
    fn range(&self, _e: &Expr) -> Option<(i64, i64)> {
        None
    }
    fn truth(&self, _e: &Expr) -> Option<bool> {
        None
    }
    fn is_uniform(&self, _e: &Expr) -> bool {
        false
    }
    fn decl(&mut self, _name: &str, _ty: ScalarType, _init: Option<&Expr>) {}
    fn assign(&mut self, _name: &str, _value: &Expr) {}
    fn refine(&mut self, _cond: &Expr, _want: bool) -> bool {
        true
    }
    fn join(&mut self, _other: &Self) {}
    fn havoc(&mut self, _name: &str) {}
    fn bind_loop(&mut self, _var: &str, _from: &Expr, _to: &Expr) {}
    fn drop_var(&mut self, _name: &str) {}
}

/// What the optimizer did to one kernel: the active level and the number
/// of rewrites each pass performed (in driver order; disabled passes are
/// absent).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptReport {
    /// The `opt_level` the kernel was compiled at.
    pub level: u8,
    /// `(pass name, rewrite count)` per executed pass.
    pub passes: Vec<(String, u32)>,
}

impl OptReport {
    /// Rewrite count of one pass (0 when it did not run or did nothing).
    pub fn fires(&self, pass: &str) -> u32 {
        self.passes
            .iter()
            .find(|(n, _)| n == pass)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Total rewrites across all passes.
    pub fn total(&self) -> u32 {
        self.passes.iter().map(|(_, c)| c).sum()
    }
}

/// Whether evaluating `e` is invisible to the simulator: no memory
/// access of any class (every load is counted in `ExecStats`), and no
/// possible trap (`/`/`%` only with a provably non-zero literal
/// divisor). Only transparent expressions may be dropped, duplicated or
/// moved by a pass.
pub fn transparent(e: &Expr) -> bool {
    use crate::expr::BinOp;
    let mut ok = true;
    e.visit(&mut |n| match n {
        Expr::GlobalLoad { .. }
        | Expr::TexFetch { .. }
        | Expr::ConstLoad { .. }
        | Expr::SharedLoad { .. }
        | Expr::InputAt { .. }
        | Expr::MaskAt { .. } => ok = false,
        Expr::Binary(BinOp::Div | BinOp::Rem, _, b) => match &**b {
            Expr::ImmInt(v) if *v != 0 => {}
            Expr::ImmFloat(_) => {} // float division never traps
            _ => ok = false,
        },
        _ => {}
    });
    ok
}

/// Shared statement walker for the fact-driven passes: tracks oracle
/// state through declarations, assignments, branches (with per-arm
/// refinement and four-way join) and loops (havoc + loop-variable
/// binding), applying `hook` bottom-up to every expression. Behavior
/// toggles:
pub(crate) struct WalkConfig {
    /// Collapse `If`s whose condition the oracle decides (and drop
    /// provably zero-trip loops).
    pub collapse_ifs: bool,
    /// Rewrite thread-varying single-assignment branches to `Select`.
    pub flatten: bool,
}

/// Run the shared walker over a kernel body. Returns the rewrite count.
pub(crate) fn run_walker<O: Oracle>(
    body: Vec<Stmt>,
    scalars: &[crate::kernel::ParamDecl],
    o: &mut O,
    cfg: &WalkConfig,
    hook: &mut dyn FnMut(Expr, &O, &mut u32) -> Expr,
) -> (Vec<Stmt>, u32) {
    let mut fires = 0;
    let mut declared = Initialized(scalars.iter().map(|p| p.name.clone()).collect());
    let (out, _returns) = walk(body, o, &mut declared, cfg, hook, &mut fires, true);
    (out, fires)
}

/// The names that hold a value at a point of the walk, as a scope stack:
/// a branch arm or loop body walks on top of its parent's names and is
/// truncated back when it ends, so entering a scope copies nothing.
pub(super) struct Initialized(Vec<String>);

impl Initialized {
    /// Whether `name` holds a value here.
    pub(super) fn contains(&self, name: &str) -> bool {
        self.0.iter().any(|n| n == name)
    }

    fn insert(&mut self, name: &str) {
        if !self.contains(name) {
            self.0.push(name.to_string());
        }
    }

    /// Run `f` in a nested scope: names it adds are gone afterwards.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let depth = self.0.len();
        let out = f(self);
        self.0.truncate(depth);
        out
    }
}

fn rewrite_with<O: Oracle>(
    e: Expr,
    o: &O,
    hook: &mut dyn FnMut(Expr, &O, &mut u32) -> Expr,
    fires: &mut u32,
) -> Expr {
    e.rewrite(&mut |n| hook(n, o, fires))
}

fn walk<O: Oracle>(
    stmts: Vec<Stmt>,
    o: &mut O,
    declared: &mut Initialized,
    cfg: &WalkConfig,
    hook: &mut dyn FnMut(Expr, &O, &mut u32) -> Expr,
    fires: &mut u32,
    at_top: bool,
) -> (Vec<Stmt>, bool) {
    use crate::expr::BinOp;
    let mut out = Vec::with_capacity(stmts.len());
    let mut returned = false;
    for s in stmts {
        if returned {
            // Unreachable for every thread that got here; keep verbatim.
            out.push(s);
            continue;
        }
        match s {
            Stmt::Decl { name, ty, init } => {
                let init = init.map(|e| rewrite_with(e, o, hook, fires));
                o.decl(&name, ty, init.as_ref());
                // `declared` really tracks *initialized* names: flatten
                // synthesizes a read of the variable, which is only safe
                // once it holds a value.
                if init.is_some() {
                    declared.insert(&name);
                }
                out.push(Stmt::Decl { name, ty, init });
            }
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => {
                let value = rewrite_with(value, o, hook, fires);
                o.assign(&name, &value);
                declared.insert(&name);
                out.push(Stmt::Assign {
                    target: LValue::Var(name),
                    value,
                });
            }
            Stmt::If { cond, then, els } => {
                let cond = rewrite_with(cond, o, hook, fires);
                // Statically decided branch: inline the taken arm. The
                // dropped arm never executed, so it needs no
                // transparency; the condition is dropped, so it does.
                // A top-level barrier directly inside the taken arm
                // would change from a (nested-barrier) runtime error to
                // a legal phase split when inlined at the top level, so
                // that case is left alone.
                let decided = if cfg.collapse_ifs && transparent(&cond) {
                    o.truth(&cond)
                } else {
                    None
                };
                if let Some(t) = decided {
                    let taken = if t { then } else { els };
                    let hazard = at_top && taken.iter().any(|s| matches!(s, Stmt::Barrier));
                    if !hazard {
                        *fires += 1;
                        o.refine(&cond, t);
                        let (mut inner, ret) = walk(taken, o, declared, cfg, hook, fires, at_top);
                        out.append(&mut inner);
                        returned = ret;
                        continue;
                    }
                    out.push(Stmt::If {
                        cond,
                        then: taken,
                        els: Vec::new(),
                    });
                    continue;
                }
                // Divergent single-assignment branches flatten to Select
                // form (the assigned value stays lazily evaluated).
                if cfg.flatten && !o.is_uniform(&cond) {
                    match flatten::try_flatten(cond, then, els, declared) {
                        Ok((name, value)) => {
                            let value = rewrite_with(value, o, hook, fires);
                            o.assign(&name, &value);
                            *fires += 1;
                            out.push(Stmt::Assign {
                                target: LValue::Var(name),
                                value,
                            });
                            continue;
                        }
                        Err((cond, then, els)) => {
                            out.push(walk_undecided_if(
                                cond,
                                then,
                                els,
                                o,
                                declared,
                                cfg,
                                hook,
                                fires,
                                &mut returned,
                            ));
                            continue;
                        }
                    }
                }
                out.push(walk_undecided_if(
                    cond,
                    then,
                    els,
                    o,
                    declared,
                    cfg,
                    hook,
                    fires,
                    &mut returned,
                ));
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let from = rewrite_with(from, o, hook, fires);
                let to = rewrite_with(to, o, hook, fires);
                // Provably zero-trip loops disappear; `from`/`to` are
                // dropped with the loop, so they must be transparent.
                if cfg.collapse_ifs && transparent(&from) && transparent(&to) {
                    let gone =
                        Expr::Binary(BinOp::Gt, Box::new(from.clone()), Box::new(to.clone()));
                    if o.truth(&gone) == Some(true) {
                        *fires += 1;
                        continue;
                    }
                }
                // Walk the body on a throwaway clone: loop-carried
                // variables are havocked, the loop variable spans every
                // iteration. The surviving state havocs the assigned
                // set, which also covers the zero-trip case.
                let mut ob = o.clone();
                Stmt::visit_all(&body, &mut |s| {
                    if let Stmt::Assign {
                        target: LValue::Var(a),
                        ..
                    } = s
                    {
                        ob.havoc(a);
                        o.havoc(a);
                    }
                });
                ob.bind_loop(&var, &from, &to);
                let (body, _ret) = declared.scoped(|db| {
                    db.insert(&var);
                    walk(body, &mut ob, db, cfg, hook, fires, false)
                });
                out.push(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                });
            }
            Stmt::Return => {
                out.push(Stmt::Return);
                returned = true;
            }
            Stmt::Output(e) => {
                let e = rewrite_with(e, o, hook, fires);
                out.push(Stmt::Output(e));
            }
            Stmt::GlobalStore { buf, idx, value } => {
                let idx = rewrite_with(idx, o, hook, fires);
                let value = rewrite_with(value, o, hook, fires);
                out.push(Stmt::GlobalStore { buf, idx, value });
            }
            Stmt::SharedStore { buf, y, x, value } => {
                let y = rewrite_with(y, o, hook, fires);
                let x = rewrite_with(x, o, hook, fires);
                let value = rewrite_with(value, o, hook, fires);
                out.push(Stmt::SharedStore { buf, y, x, value });
            }
            s @ (Stmt::Barrier | Stmt::Comment(_)) => out.push(s),
        }
    }
    (out, returned)
}

#[allow(clippy::too_many_arguments)]
fn walk_undecided_if<O: Oracle>(
    cond: Expr,
    then: Vec<Stmt>,
    els: Vec<Stmt>,
    o: &mut O,
    declared: &mut Initialized,
    cfg: &WalkConfig,
    hook: &mut dyn FnMut(Expr, &O, &mut u32) -> Expr,
    fires: &mut u32,
    returned: &mut bool,
) -> Stmt {
    let mut ot = o.clone();
    let mut oe = o.clone();
    ot.refine(&cond, true);
    oe.refine(&cond, false);
    let (then, rt) = declared.scoped(|dt| walk(then, &mut ot, dt, cfg, hook, fires, false));
    let (els, re) = declared.scoped(|de| walk(els, &mut oe, de, cfg, hook, fires, false));
    // Branch-local declarations go out of scope at the join (only
    // top-level ones entered these clones; nested scopes walked on
    // their own clones).
    for s in &then {
        if let Stmt::Decl { name, .. } = s {
            ot.drop_var(name);
        }
    }
    for s in &els {
        if let Stmt::Decl { name, .. } = s {
            oe.drop_var(name);
        }
    }
    match (rt, re) {
        (true, true) => *returned = true,
        // Guard-return: only the other arm falls through, keeping its
        // refinement (this is what proves iteration-guarded accesses).
        (true, false) => *o = oe,
        (false, true) => *o = ot,
        (false, false) => {
            *o = ot;
            o.join(&oe);
        }
    }
    Stmt::If { cond, then, els }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Builtin;

    #[test]
    fn transparency_classifies_memory_and_traps() {
        // Pure arithmetic over builtins: transparent.
        let e = Expr::Builtin(Builtin::ThreadIdxX) * Expr::int(4) + Expr::int(1);
        assert!(transparent(&e));
        // Any load class is opaque (it is counted in ExecStats).
        let load = Expr::GlobalLoad {
            buf: "IN".into(),
            idx: Box::new(Expr::int(0)),
        };
        assert!(!transparent(&load));
        assert!(!transparent(&(Expr::int(1) + load)));
        let sh = Expr::SharedLoad {
            buf: "t".into(),
            y: Box::new(Expr::int(0)),
            x: Box::new(Expr::int(0)),
        };
        assert!(!transparent(&sh));
        // Division: literal non-zero divisor is trap-free, anything
        // else may trap.
        assert!(transparent(&(Expr::var("x") / Expr::int(2))));
        assert!(!transparent(&(Expr::var("x") / Expr::int(0))));
        assert!(!transparent(&(Expr::var("x") / Expr::var("y"))));
        assert!(transparent(&(Expr::var("x") / Expr::float(0.5))));
        assert!(!transparent(&Expr::var("x").rem(Expr::var("n"))));
        assert!(transparent(&Expr::var("x").rem(Expr::int(4))));
    }

    #[test]
    fn report_counts_fires() {
        let r = OptReport {
            level: 1,
            passes: vec![("hoist".into(), 3), ("fold".into(), 1)],
        };
        assert_eq!(r.fires("hoist"), 3);
        assert_eq!(r.fires("flatten"), 0);
        assert_eq!(r.total(), 4);
    }
}
