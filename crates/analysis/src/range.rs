//! Value-range analysis: the one interval interpreter of the crate. The
//! bounds verifier ([`crate::bounds`]) *reports* with its facts and the
//! IR optimizer (`hipacc_ir::opt`) *rewrites* with them; both drive the
//! same [`RangeState`] through the same [`Oracle`] operations.
//!
//! [`RangeState`] is an abstract store — variable intervals, the eight
//! launch builtins, and an override list refining arbitrary expressions
//! by structural equality (the unrolled staging guards compare the same
//! `tid + step*bs` expression that later indexes the tile) — over the
//! lattice [`Ival`]. `min`/`max` chains (clamping) and `Select` chains
//! (mirror/repeat, evaluated with per-arm refinement) are interpreted
//! conservatively. A rewrite, and equally a proof that a guarded access
//! is in range, holds only if every answer models the engines' runtime
//! semantics exactly. That obligation is enforced here, not in the
//! clients:
//!
//! * [`range`](RangeState::range)/[`truth`](RangeState::truth) answer
//!   only for provably *integer-valued* expressions. Integer-ness is
//!   tracked dynamically: a declaration coerces its initializer to the
//!   declared type, but an assignment does not, so a variable keeps its
//!   integer kind only while every reaching definition preserves it.
//!   Scalar parameters take the kind of their declared type (the
//!   operator driver binds matching constants).
//! * Comparison decisions additionally require both operand intervals
//!   to lie strictly inside `±2^24`: the engines compare through `f32`,
//!   which is exact only for integers of that magnitude (this also
//!   keeps the lattice's `±2^40` saturation clamp from leaking into a
//!   decision).
//! * `abs` is refused integer-ness even on integer input — the engines'
//!   math-function evaluator widens it to `Float`.
//!
//! [`interval`](RangeState::interval) is the ungated abstract value of
//! an expression, for clients that compare it against a buffer extent
//! rather than decide a runtime comparison with it. Branch refinement,
//! guard-return joins and loop-body havoc are driven by the client's
//! statement walker through the [`Oracle`] trait. Block-uniformity is
//! not computed here: a caller that wants `is_uniform` answered hands
//! in the varying set ([`with_varying`](RangeState::with_varying)).
//!
//! [`Oracle`]: hipacc_ir::opt::Oracle

use crate::interval::{Ival, BOUND};
use crate::RegionSeed;
use hipacc_ir::kernel::DeviceKernelDef;
use hipacc_ir::opt::Oracle;
use hipacc_ir::{BinOp, Builtin, Expr, MathFn, ScalarType, UnOp};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Largest magnitude for which every integer is exactly representable
/// as `f32` — the engines compare through `as_f32`, so interval-based
/// comparison decisions are only trustworthy strictly inside this.
const F32_EXACT: i64 = 1 << 24;

fn bidx(b: Builtin) -> usize {
    match b {
        Builtin::ThreadIdxX => 0,
        Builtin::ThreadIdxY => 1,
        Builtin::BlockIdxX => 2,
        Builtin::BlockIdxY => 3,
        Builtin::BlockDimX => 4,
        Builtin::BlockDimY => 5,
        Builtin::GridDimX => 6,
        Builtin::GridDimY => 7,
    }
}

fn mentions_var(e: &Expr, name: &str) -> bool {
    let mut m = false;
    e.visit(&mut |n| {
        if let Expr::Var(v) = n {
            if v == name {
                m = true;
            }
        }
    });
    m
}

/// Whether both interval endpoints are strictly inside the f32-exact
/// integer range (and therefore also strictly inside the saturation
/// clamp), making a comparison decision on them trustworthy.
fn exact(iv: Ival) -> bool {
    iv.lo > -F32_EXACT && iv.hi < F32_EXACT
}

/// What the store knows about one variable. The two facts come and go
/// independently: a havocked variable keeps an interval but loses its
/// integer kind, and a scalar parameter may have a kind but no value.
#[derive(Copy, Clone, Default)]
struct Fact {
    /// The variable's interval.
    iv: Option<Ival>,
    /// Whether the variable is currently known integer-valued.
    int: Option<bool>,
}

/// The value-range oracle: an abstract store over the interval lattice,
/// threaded through a kernel body by the optimizer's walker. Names and
/// override expressions are shared, so a clone (one per branch arm,
/// `Select` arm and loop body) copies two tables and no IR.
#[derive(Clone)]
pub struct RangeState {
    builtins: [Ival; 8],
    facts: HashMap<Arc<str>, Fact>,
    /// Structural-equality refinements for non-variable expressions.
    ov: Vec<(Arc<Expr>, Ival)>,
    /// Thread-varying variable names, when the caller supplied them.
    varying: Option<Arc<BTreeSet<String>>>,
}

impl RangeState {
    /// Seed the oracle for one kernel launch: thread indices span the
    /// block, block indices span the *full* grid (the optimizer
    /// transforms one body shared by every region), known scalar
    /// bindings become points and scalar parameters take the integer
    /// kind of their declared type. Cheap enough to clone per pass or
    /// per region: nothing here walks the kernel body.
    pub fn new(
        kernel: &DeviceKernelDef,
        block: (u32, u32),
        grid: (u32, u32),
        scalars: &HashMap<String, i64>,
    ) -> RangeState {
        let (bx, by) = (block.0 as i64, block.1 as i64);
        let (gx, gy) = (grid.0 as i64, grid.1 as i64);
        let mut builtins = [Ival::top(); 8];
        builtins[bidx(Builtin::ThreadIdxX)] = Ival::new(0, bx - 1);
        builtins[bidx(Builtin::ThreadIdxY)] = Ival::new(0, by - 1);
        builtins[bidx(Builtin::BlockIdxX)] = Ival::new(0, gx - 1);
        builtins[bidx(Builtin::BlockIdxY)] = Ival::new(0, gy - 1);
        builtins[bidx(Builtin::BlockDimX)] = Ival::point(bx);
        builtins[bidx(Builtin::BlockDimY)] = Ival::point(by);
        builtins[bidx(Builtin::GridDimX)] = Ival::point(gx);
        builtins[bidx(Builtin::GridDimY)] = Ival::point(gy);
        let mut state = RangeState {
            builtins,
            facts: HashMap::new(),
            ov: Vec::new(),
            varying: None,
        };
        for (name, &v) in scalars {
            let fact = Fact {
                iv: Some(Ival::point(v)),
                int: None,
            };
            state.set(name, fact);
        }
        for p in &kernel.scalars {
            let fact = Fact {
                int: Some(p.ty.is_integer()),
                ..state.fact(&p.name)
            };
            state.set(&p.name, fact);
        }
        state
    }

    fn fact(&self, name: &str) -> Fact {
        self.facts.get(name).copied().unwrap_or_default()
    }

    /// Replace what is known about `name`, allocating its key only the
    /// first time the name is seen.
    fn set(&mut self, name: &str, fact: Fact) {
        match self.facts.get_mut(name) {
            Some(slot) => *slot = fact,
            None => {
                self.facts.insert(Arc::from(name), fact);
            }
        }
    }

    /// Restrict `blockIdx` to one boundary-region block rectangle (the
    /// verifier proves each of the nine regions on its own).
    pub fn with_region(mut self, seed: &RegionSeed) -> RangeState {
        self.builtins[bidx(Builtin::BlockIdxX)] = Ival::new(seed.bx.0, seed.bx.1);
        self.builtins[bidx(Builtin::BlockIdxY)] = Ival::new(seed.by.0, seed.by.1);
        self
    }

    /// Supply the thread-varying variable set of the body about to be
    /// walked ([`crate::taint::thread_dependent_vars`]). Without one,
    /// `is_uniform` answers the trait's safe default `false`.
    pub fn with_varying(mut self, varying: BTreeSet<String>) -> RangeState {
        self.varying = Some(Arc::new(varying));
        self
    }

    /// Whether `e` provably produces an integer `Const` at runtime.
    fn is_int(&self, e: &Expr) -> bool {
        match e {
            Expr::ImmInt(_) | Expr::Builtin(_) => true,
            Expr::ImmFloat(_) | Expr::ImmBool(_) => false,
            Expr::Var(v) => self.fact(v).int.unwrap_or(false),
            Expr::Unary(UnOp::Neg, a) => self.is_int(a),
            Expr::Unary(UnOp::Not, _) => false,
            Expr::Binary(op, a, b) => !op.is_comparison() && self.is_int(a) && self.is_int(b),
            // Integer min/max stay integer; every other math call —
            // including abs — evaluates to Float in the engines.
            Expr::Call(MathFn::Min | MathFn::Max, args) => args.iter().all(|a| self.is_int(a)),
            Expr::Call(_, _) => false,
            Expr::Cast(ty, _) => ty.is_integer(),
            Expr::Select(_, a, b) => self.is_int(a) && self.is_int(b),
            _ => false, // loads, DSL nodes
        }
    }

    /// The abstract value of `e`: its raw interval tightened by any
    /// matching override. Unlike [`range`](Self::range) this is not
    /// gated on integer-ness or exactness — top for anything unknown,
    /// empty on an infeasible path.
    pub fn interval(&self, e: &Expr) -> Ival {
        let mut r = self.eval_raw(e);
        for (pat, iv) in &self.ov {
            if **pat == *e {
                r = r.meet(*iv);
            }
        }
        r
    }

    fn eval_raw(&self, e: &Expr) -> Ival {
        use BinOp::*;
        match e {
            Expr::ImmInt(v) => Ival::point(*v),
            Expr::ImmFloat(_) | Expr::ImmBool(_) => Ival::top(),
            Expr::Var(v) => self.fact(v).iv.unwrap_or_else(Ival::top),
            Expr::Builtin(b) => self.builtins[bidx(*b)],
            Expr::Unary(UnOp::Neg, a) => self.interval(a).neg(),
            Expr::Unary(UnOp::Not, _) => Ival::new(0, 1),
            Expr::Binary(op, a, b) => {
                let ia = self.interval(a);
                let ib = self.interval(b);
                match op {
                    Add => ia.add(ib),
                    Sub => ia.sub(ib),
                    Mul => ia.mul(ib),
                    Div => ia.div(ib),
                    Rem => ia.rem(ib),
                    Eq | Ne | Lt | Le | Gt | Ge | And | Or => Ival::new(0, 1),
                }
            }
            Expr::Call(f, args) => {
                let vals: Vec<Ival> = args.iter().map(|a| self.interval(a)).collect();
                match f {
                    MathFn::Min => vals[0].min_(vals[1]),
                    MathFn::Max => vals[0].max_(vals[1]),
                    MathFn::Abs => vals[0].abs(),
                    _ => Ival::top(),
                }
            }
            Expr::Cast(ty, a) => {
                let iv = self.interval(a);
                match ty {
                    ScalarType::I32 | ScalarType::U32 => iv,
                    // f32 rounds integers above 2^24: only narrow
                    // intervals survive the cast exactly.
                    ScalarType::F32 => {
                        if exact(iv) {
                            iv
                        } else {
                            Ival::top()
                        }
                    }
                    ScalarType::Bool => Ival::new(0, 1),
                }
            }
            Expr::Select(c, a, b) => match self.truth(c) {
                Some(true) => self.branch_eval(c, true, a),
                Some(false) => self.branch_eval(c, false, b),
                None => {
                    let ta = self.branch_eval(c, true, a);
                    let tb = self.branch_eval(c, false, b);
                    ta.join(tb)
                }
            },
            // Loads and DSL-level nodes: unknown value.
            _ => Ival::top(),
        }
    }

    fn branch_eval(&self, cond: &Expr, want: bool, value: &Expr) -> Ival {
        let mut s2 = self.clone();
        if s2.refine(cond, want) {
            s2.interval(value)
        } else {
            Ival::empty()
        }
    }

    fn constrain(&mut self, e: &Expr, iv: Ival) -> bool {
        let cur = self.interval(e);
        let new = cur.meet(iv);
        match e {
            Expr::Var(v) => {
                let fact = Fact {
                    iv: Some(new),
                    ..self.fact(v)
                };
                self.set(v, fact);
            }
            Expr::Builtin(b) => self.builtins[bidx(*b)] = new,
            Expr::ImmInt(_) => {}
            _ => self.ov.push((Arc::new(e.clone()), new)),
        }
        !new.is_empty()
    }

    fn kill(&mut self, name: &str) {
        self.ov.retain(|(p, _)| !mentions_var(p, name));
    }
}

/// `a < b` when `strict = 1`, `a <= b` when `strict = 0`.
///
/// The false side negates the comparison, which *flips* the strictness:
/// `a <= b` is false only when `a > b` everywhere (`a.lo >= b.hi + 1`),
/// and `a < b` is false when `a >= b` everywhere (`a.lo >= b.hi`).
fn cmp_truth(a: Ival, b: Ival, strict: i64) -> Option<bool> {
    if a.hi + strict <= b.lo {
        Some(true)
    } else if a.lo >= b.hi + 1 - strict {
        Some(false)
    } else {
        None
    }
}

impl Oracle for RangeState {
    /// Inclusive value range of an integer-valued expression; `None`
    /// when non-integer, unreachable, or touching the saturation clamp
    /// (a clamped endpoint may hide larger true values).
    fn range(&self, e: &Expr) -> Option<(i64, i64)> {
        if !self.is_int(e) {
            return None;
        }
        let iv = self.interval(e);
        if iv.is_empty() || iv.lo <= -BOUND || iv.hi >= BOUND {
            return None;
        }
        Some((iv.lo, iv.hi))
    }

    /// Decide a boolean condition where the facts separate it. Only
    /// integer-valued comparisons strictly inside the f32-exact range
    /// are decided; everything else answers `None`.
    fn truth(&self, cond: &Expr) -> Option<bool> {
        use BinOp::*;
        match cond {
            Expr::ImmBool(b) => Some(*b),
            Expr::Unary(UnOp::Not, a) => self.truth(a).map(|b| !b),
            Expr::Binary(And, a, b) => match (self.truth(a), self.truth(b)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Binary(Or, a, b) => match (self.truth(a), self.truth(b)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expr::Binary(op @ (Eq | Ne | Lt | Le | Gt | Ge), a, b) => {
                if !self.is_int(a) || !self.is_int(b) {
                    return None;
                }
                let ia = self.interval(a);
                let ib = self.interval(b);
                if ia.is_empty() || ib.is_empty() || !exact(ia) || !exact(ib) {
                    return None;
                }
                match op {
                    Lt => cmp_truth(ia, ib, 1),
                    Le => cmp_truth(ia, ib, 0),
                    Gt => cmp_truth(ib, ia, 1),
                    Ge => cmp_truth(ib, ia, 0),
                    Eq => {
                        if ia.lo == ia.hi && ia == ib {
                            Some(true)
                        } else if ia.meet(ib).is_empty() {
                            Some(false)
                        } else {
                            None
                        }
                    }
                    Ne => {
                        if ia.meet(ib).is_empty() {
                            Some(true)
                        } else if ia.lo == ia.hi && ia == ib {
                            Some(false)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn is_uniform(&self, e: &Expr) -> bool {
        self.varying
            .as_ref()
            .is_some_and(|v| !crate::taint::expr_thread_dependent(e, v))
    }

    fn decl(&mut self, name: &str, ty: ScalarType, init: Option<&Expr>) {
        self.kill(name);
        let iv = init.map(|e| self.interval(e)).unwrap_or_else(Ival::top);
        // The declaration coerces: an integer type truncates toward
        // zero, which stays inside any integer interval containing the
        // value; Bool lands in [0, 1].
        let iv = if ty == ScalarType::Bool {
            Ival::new(0, 1)
        } else {
            iv
        };
        let fact = Fact {
            iv: Some(iv),
            int: Some(ty.is_integer()),
        };
        self.set(name, fact);
    }

    fn assign(&mut self, name: &str, value: &Expr) {
        // No coercion on assignment: both interval and integer kind
        // come from the assigned value.
        let iv = self.interval(value);
        let int = self.is_int(value);
        self.kill(name);
        let fact = Fact {
            iv: Some(iv),
            int: Some(int),
        };
        self.set(name, fact);
    }

    fn refine(&mut self, cond: &Expr, want: bool) -> bool {
        use BinOp::*;
        match cond {
            Expr::Unary(UnOp::Not, a) => self.refine(a, !want),
            Expr::Binary(And, a, b) if want => self.refine(a, true) && self.refine(b, true),
            Expr::Binary(Or, a, b) if !want => self.refine(a, false) && self.refine(b, false),
            Expr::Binary(op @ (Lt | Le | Gt | Ge | Eq), a, b) => {
                // Refinement records *facts*; a fact from an f32-fuzzy
                // or non-integer comparison would poison later answers.
                if !self.is_int(a) || !self.is_int(b) {
                    return true;
                }
                let (lhs, rhs, strict): (&Expr, &Expr, i64) = match (op, want) {
                    (Lt, true) => (a, b, 1),
                    (Lt, false) => (b, a, 0),
                    (Le, true) => (a, b, 0),
                    (Le, false) => (b, a, 1),
                    (Gt, true) => (b, a, 1),
                    (Gt, false) => (a, b, 0),
                    (Ge, true) => (b, a, 0),
                    (Ge, false) => (a, b, 1),
                    (Eq, true) => {
                        let ia = self.interval(a);
                        let ib = self.interval(b);
                        if !exact(ia) || !exact(ib) {
                            return true;
                        }
                        return self.constrain(a, ib) && self.constrain(b, ia);
                    }
                    _ => return true, // Eq-false / Ne: no refinement
                };
                let il = self.interval(lhs);
                let ir = self.interval(rhs);
                if il.is_empty() || ir.is_empty() {
                    return false;
                }
                if !exact(il) || !exact(ir) {
                    return true;
                }
                self.constrain(lhs, Ival::new(-BOUND, ir.hi - strict))
                    && self.constrain(rhs, Ival::new(il.lo + strict, BOUND))
            }
            _ => true, // opaque (boolean var, float compare, …)
        }
    }

    fn join(&mut self, other: &Self) {
        // A fact survives where both sides hold it: intervals join,
        // integer kinds must agree.
        self.facts.retain(|k, a| {
            let b = other.fact(k);
            a.iv = a.iv.zip(b.iv).map(|(x, y)| x.join(y));
            a.int = a.int.filter(|_| a.int == b.int);
            a.iv.is_some() || a.int.is_some()
        });
        for i in 0..8 {
            self.builtins[i] = self.builtins[i].join(other.builtins[i]);
        }
        self.ov
            .retain_mut(|(p, ia)| match other.ov.iter().find(|(q, _)| q == p) {
                Some((_, ib)) => {
                    *ia = ia.join(*ib);
                    true
                }
                None => false,
            });
    }

    fn havoc(&mut self, name: &str) {
        self.kill(name);
        let fact = Fact {
            iv: Some(Ival::top()),
            int: None,
        };
        self.set(name, fact);
    }

    fn bind_loop(&mut self, var: &str, from: &Expr, to: &Expr) {
        let f = self.interval(from);
        let t = self.interval(to);
        self.kill(var);
        let iv = if f.is_empty() || t.is_empty() {
            Ival::top()
        } else {
            Ival::new(f.lo, t.hi)
        };
        let fact = Fact {
            iv: Some(iv),
            int: Some(true),
        };
        self.set(var, fact);
    }

    fn drop_var(&mut self, name: &str) {
        self.kill(name);
        self.facts.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_ir::kernel::DeviceKernelDef;
    use hipacc_ir::ParamDecl;

    fn state(scalars: &[(&str, i64)]) -> RangeState {
        let k = DeviceKernelDef {
            name: "t".into(),
            buffers: vec![],
            scalars: scalars
                .iter()
                .map(|(n, _)| ParamDecl {
                    name: (*n).into(),
                    ty: ScalarType::I32,
                })
                .collect(),
            const_buffers: vec![],
            shared: vec![],
            body: vec![],
        };
        let map = scalars
            .iter()
            .map(|(n, v)| ((*n).to_string(), *v))
            .collect();
        RangeState::new(&k, (16, 4), (8, 8), &map)
    }

    #[test]
    fn builtins_and_scalars_seed_ranges() {
        let s = state(&[("width", 128)]);
        let tid = Expr::Builtin(Builtin::ThreadIdxX);
        assert_eq!(s.range(&tid), Some((0, 15)));
        assert_eq!(s.range(&Expr::var("width")), Some((128, 128)));
        let gid = Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
            + Expr::Builtin(Builtin::ThreadIdxX);
        assert_eq!(s.range(&gid), Some((0, 127)));
        assert_eq!(s.truth(&gid.lt(Expr::var("width"))), Some(true));
    }

    #[test]
    fn non_integer_expressions_are_refused() {
        let mut s = state(&[]);
        // Float literal, abs (always Float), unknown variable.
        assert_eq!(s.range(&Expr::float(3.0)), None);
        assert_eq!(
            s.range(&Expr::call1(
                MathFn::Abs,
                Expr::Builtin(Builtin::ThreadIdxX)
            )),
            None
        );
        assert_eq!(s.range(&Expr::var("mystery")), None);
        assert_eq!(s.truth(&Expr::float(1.0).lt(Expr::float(2.0))), None);
        // A declaration coerces to I32 — integer afterwards…
        s.decl("x", ScalarType::I32, Some(&Expr::int(5)));
        assert_eq!(s.range(&Expr::var("x")), Some((5, 5)));
        // …but a float assignment revokes integer-ness (no coercion).
        s.assign("x", &Expr::float(1.5));
        assert_eq!(s.range(&Expr::var("x")), None);
    }

    #[test]
    fn refinement_narrows_and_detects_dead_branches() {
        let mut s = state(&[("n", 100)]);
        s.decl(
            "g",
            ScalarType::I32,
            Some(
                &(Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                    + Expr::Builtin(Builtin::ThreadIdxX)),
            ),
        );
        assert_eq!(s.range(&Expr::var("g")), Some((0, 127)));
        // After `if (g >= n) return;` fall-through: g < 100.
        assert!(s.refine(&Expr::var("g").ge(Expr::var("n")), false));
        assert_eq!(s.range(&Expr::var("g")), Some((0, 99)));
        // Now `g >= 100` is provably false.
        assert_eq!(s.truth(&Expr::var("g").ge(Expr::int(100))), Some(false));
        // And refining it true is infeasible.
        let mut dead = s.clone();
        assert!(!dead.refine(&Expr::var("g").ge(Expr::int(100)), true));
    }

    #[test]
    fn f32_exact_gate_blocks_large_comparisons() {
        let mut s = state(&[]);
        s.decl("big", ScalarType::I32, Some(&Expr::int((1 << 24) + 1)));
        s.decl("near", ScalarType::I32, Some(&Expr::int(1 << 24)));
        // Intervals separate, but the engines compare via f32 where
        // 2^24 + 1 == 2^24 — refuse the decision.
        assert_eq!(s.truth(&Expr::var("big").eq_(Expr::var("near"))), None);
        // Small values still decide.
        s.decl("a", ScalarType::I32, Some(&Expr::int(3)));
        assert_eq!(s.truth(&Expr::var("a").lt(Expr::int(4))), Some(true));
    }

    #[test]
    fn min_max_clamp_ranges() {
        let s = state(&[]);
        let tid = Expr::Builtin(Builtin::ThreadIdxX); // [0, 15]
        let clamped = Expr::min(Expr::max(tid, Expr::int(2)), Expr::int(9));
        assert_eq!(s.range(&clamped), Some((2, 9)));
    }

    #[test]
    fn uniformity_is_wired_through() {
        use hipacc_ir::{LValue, Stmt};
        let k = DeviceKernelDef {
            name: "t".into(),
            buffers: vec![],
            scalars: vec![],
            const_buffers: vec![],
            shared: vec![],
            body: vec![
                Stmt::Decl {
                    name: "tid".into(),
                    ty: ScalarType::I32,
                    init: Some(Expr::Builtin(Builtin::ThreadIdxX)),
                },
                Stmt::Assign {
                    target: LValue::Var("tid".into()),
                    value: Expr::var("tid") + Expr::int(1),
                },
            ],
        };
        let bare = RangeState::new(&k, (16, 1), (1, 1), &HashMap::new());
        // No varying set: the safe default, even for `blockIdx`.
        assert!(!bare.is_uniform(&Expr::Builtin(Builtin::BlockIdxX)));
        let s = bare.with_varying(crate::taint::thread_dependent_vars(&k.body));
        assert!(!s.is_uniform(&Expr::var("tid")));
        assert!(s.is_uniform(&Expr::Builtin(Builtin::BlockIdxX)));
    }

    #[test]
    fn region_seed_restricts_block_indices() {
        let seed = RegionSeed {
            label: Some("R_BH".into()),
            bx: (7, 7),
            by: (1, 6),
        };
        let s = state(&[]).with_region(&seed);
        assert_eq!(s.range(&Expr::Builtin(Builtin::BlockIdxX)), Some(seed.bx));
        assert_eq!(s.range(&Expr::Builtin(Builtin::BlockIdxY)), Some(seed.by));
        // Everything else keeps the launch-wide seed.
        assert_eq!(s.range(&Expr::Builtin(Builtin::GridDimX)), Some((8, 8)));
    }
}
