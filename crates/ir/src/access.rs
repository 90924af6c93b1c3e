//! Read/write analysis and access-window inference.
//!
//! This is the analysis of Section IV-A: traverse the kernel's reachable
//! statements (the structured form of the paper's CFG traversal), record
//! for every `Image`/`Accessor` whether it is read and/or written (deciding
//! texture eligibility and the OpenCL `read_only`/`write_only` attributes),
//! and infer the *extent* of the window each accessor reads — the access
//! metadata that sizes scratchpad tiles and boundary-handling regions.
//!
//! Offsets are analysed with interval arithmetic over loop-variable ranges,
//! so both constant offsets (`Input(-1, 2)`) and convolution-loop offsets
//! (`Input(xf, yf)` with `xf ∈ [-2σ, 2σ]`) resolve statically.

use crate::expr::{BinOp, Expr, UnOp};
use crate::fold::eval_const;
use crate::kernel::KernelDef;
use crate::stmt::Stmt;
use crate::ty::Const;
use std::collections::HashMap;

/// An inclusive integer interval.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value.
    pub lo: i64,
    /// Largest value.
    pub hi: i64,
}

impl Interval {
    /// A single-point interval.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Hull of two intervals.
    pub fn union(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The largest absolute value contained.
    pub fn max_abs(self) -> i64 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// Evaluate the possible range of an integer expression given loop-variable
/// ranges. Returns `None` when the expression involves anything opaque
/// (memory reads, unknown variables).
pub fn eval_range(e: &Expr, env: &HashMap<String, Interval>) -> Option<Interval> {
    match e {
        Expr::ImmInt(i) => Some(Interval::point(*i)),
        Expr::ImmFloat(f) if f.fract() == 0.0 => Some(Interval::point(*f as i64)),
        Expr::Var(n) => env.get(n).copied(),
        Expr::Unary(UnOp::Neg, a) => {
            let r = eval_range(a, env)?;
            Some(Interval {
                lo: -r.hi,
                hi: -r.lo,
            })
        }
        Expr::Binary(op, a, b) => {
            let ra = eval_range(a, env)?;
            let rb = eval_range(b, env)?;
            match op {
                BinOp::Add => Some(Interval {
                    lo: ra.lo + rb.lo,
                    hi: ra.hi + rb.hi,
                }),
                BinOp::Sub => Some(Interval {
                    lo: ra.lo - rb.hi,
                    hi: ra.hi - rb.lo,
                }),
                BinOp::Mul => {
                    let candidates = [ra.lo * rb.lo, ra.lo * rb.hi, ra.hi * rb.lo, ra.hi * rb.hi];
                    Some(Interval {
                        lo: *candidates.iter().min().unwrap(),
                        hi: *candidates.iter().max().unwrap(),
                    })
                }
                _ => None,
            }
        }
        Expr::Cast(ty, a) if ty.is_integer() => eval_range(a, env),
        _ => None,
    }
}

/// Inferred access pattern of one accessor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessPattern {
    /// Number of syntactic read sites.
    pub read_sites: u32,
    /// Largest |dx| over all reads, when statically bounded.
    pub max_dx: Option<i64>,
    /// Largest |dy| over all reads, when statically bounded.
    pub max_dy: Option<i64>,
    /// Whether any read site has a non-statically-bounded offset.
    pub unbounded: bool,
}

impl AccessPattern {
    /// The window `(2·max_dx + 1) × (2·max_dy + 1)` this accessor reads,
    /// if statically bounded.
    pub fn window(&self) -> Option<(u32, u32)> {
        match (self.max_dx, self.max_dy, self.unbounded) {
            (Some(dx), Some(dy), false) => Some(((2 * dx + 1) as u32, (2 * dy + 1) as u32)),
            _ => None,
        }
    }

    /// Whether every read is at offset (0, 0) — a *point operator* access.
    pub fn is_point_access(&self) -> bool {
        self.max_dx == Some(0) && self.max_dy == Some(0) && !self.unbounded
    }
}

/// Result of the read/write analysis over a DSL kernel.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessInfo {
    /// Per-accessor read patterns.
    pub inputs: HashMap<String, AccessPattern>,
    /// Per-mask read-site counts.
    pub mask_reads: HashMap<String, u32>,
    /// Whether `output()` is written (checked elsewhere, but recorded).
    pub writes_output: bool,
}

impl AccessInfo {
    /// Largest window over all accessors, or `(1, 1)` for pure point
    /// operators. This is the window the paper's compiler takes "in case
    /// multiple Accessors are used within one kernel".
    pub fn max_window(&self) -> (u32, u32) {
        let mut w = 1;
        let mut h = 1;
        for p in self.inputs.values() {
            if let Some((pw, ph)) = p.window() {
                w = w.max(pw);
                h = h.max(ph);
            }
        }
        (w, h)
    }

    /// Whether the kernel is a local operator (reads any neighbourhood
    /// beyond the center pixel).
    pub fn is_local_operator(&self) -> bool {
        self.inputs.values().any(|p| !p.is_point_access())
    }
}

/// Collect loop-variable ranges by walking statements *structurally* (the
/// CFG's loop bounds are recorded on preheaders but interval analysis is
/// easiest on the tree).
fn collect_loop_env(
    stmts: &[Stmt],
    env: &mut HashMap<String, Interval>,
    consts: &HashMap<String, Const>,
    info: &mut AccessInfo,
) {
    for s in stmts {
        match s {
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let range = match (eval_const(from, consts), eval_const(to, consts)) {
                    (Some(f), Some(t)) => Some(Interval {
                        lo: f.as_i64(),
                        hi: t.as_i64(),
                    }),
                    _ => {
                        eval_range(from, env).and_then(|f| eval_range(to, env).map(|t| f.union(t)))
                    }
                };
                let saved = env.get(var).copied();
                match range {
                    Some(r) => {
                        env.insert(var.clone(), r);
                    }
                    None => {
                        env.remove(var);
                    }
                }
                collect_loop_env(body, env, consts, info);
                match saved {
                    Some(r) => {
                        env.insert(var.clone(), r);
                    }
                    None => {
                        env.remove(var);
                    }
                }
                record_exprs_in_stmt(s, env, info, /*recurse=*/ false);
            }
            Stmt::If { then, els, .. } => {
                collect_loop_env(then, env, consts, info);
                collect_loop_env(els, env, consts, info);
                record_exprs_in_stmt(s, env, info, false);
            }
            other => record_exprs_in_stmt(other, env, info, true),
        }
    }
}

fn record_exprs_in_stmt(
    s: &Stmt,
    env: &HashMap<String, Interval>,
    info: &mut AccessInfo,
    recurse: bool,
) {
    let mut record = |e: &Expr| {
        e.visit(&mut |n| match n {
            Expr::InputAt { acc, dx, dy } => {
                let p = info.inputs.entry(acc.clone()).or_default();
                p.read_sites += 1;
                match eval_range(dx, env) {
                    Some(r) => {
                        p.max_dx = Some(p.max_dx.unwrap_or(0).max(r.max_abs()));
                    }
                    None => p.unbounded = true,
                }
                match eval_range(dy, env) {
                    Some(r) => {
                        p.max_dy = Some(p.max_dy.unwrap_or(0).max(r.max_abs()));
                    }
                    None => p.unbounded = true,
                }
            }
            Expr::MaskAt { mask, .. } => {
                *info.mask_reads.entry(mask.clone()).or_insert(0) += 1;
            }
            _ => {}
        });
    };
    match s {
        Stmt::Decl { init: Some(e), .. } | Stmt::Assign { value: e, .. } => record(e),
        Stmt::Output(e) => {
            info.writes_output = true;
            record(e);
        }
        Stmt::If { cond, then, els } => {
            record(cond);
            if recurse {
                for t in then {
                    record_exprs_in_stmt(t, env, info, true);
                }
                for t in els {
                    record_exprs_in_stmt(t, env, info, true);
                }
            }
        }
        Stmt::For { from, to, body, .. } => {
            record(from);
            record(to);
            if recurse {
                for t in body {
                    record_exprs_in_stmt(t, env, info, true);
                }
            }
        }
        Stmt::GlobalStore { idx, value, .. } => {
            record(idx);
            record(value);
        }
        Stmt::SharedStore { y, x, value, .. } => {
            record(y);
            record(x);
            record(value);
        }
        Stmt::Decl { init: None, .. } | Stmt::Return | Stmt::Comment(_) | Stmt::Barrier => {}
    }
}

/// Run the read/write analysis on a DSL kernel, optionally with known
/// scalar-parameter values (so loop bounds like `2*sigma_d` resolve).
///
/// Reads in statically dead code (after an unconditional top-level
/// `return`, the only dead shape the DSL can produce) are ignored,
/// matching the paper's CFG-based traversal.
pub fn analyze(kernel: &KernelDef, params: &HashMap<String, Const>) -> AccessInfo {
    let mut info = AccessInfo::default();
    let mut env: HashMap<String, Interval> = params
        .iter()
        .map(|(k, v)| (k.clone(), Interval::point(v.as_i64())))
        .collect();
    collect_loop_env(reachable_body(&kernel.body), &mut env, params, &mut info);
    info
}

/// The statements up to and including the first top-level `return`.
fn reachable_body(stmts: &[Stmt]) -> &[Stmt] {
    match stmts.iter().position(|s| matches!(s, Stmt::Return)) {
        Some(at) => &stmts[..=at],
        None => stmts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ty::ScalarType;

    #[test]
    fn interval_arithmetic() {
        let mut env = HashMap::new();
        env.insert("xf".to_string(), Interval { lo: -6, hi: 6 });
        // xf + 1 ∈ [-5, 7]
        let e = Expr::var("xf") + Expr::int(1);
        assert_eq!(eval_range(&e, &env), Some(Interval { lo: -5, hi: 7 }));
        // -xf ∈ [-6, 6]
        let e = -Expr::var("xf");
        assert_eq!(eval_range(&e, &env), Some(Interval { lo: -6, hi: 6 }));
        // 2 * xf ∈ [-12, 12]
        let e = Expr::int(2) * Expr::var("xf");
        assert_eq!(eval_range(&e, &env), Some(Interval { lo: -12, hi: 12 }));
        // Unknown variable is opaque.
        assert_eq!(eval_range(&Expr::var("ghost"), &env), None);
    }

    fn blur3x3() -> KernelDef {
        let mut b = KernelBuilder::new("blur", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(&acc, b.read_at(&input, xf.get(), yf.get()));
            });
        });
        b.output(acc.get() / Expr::float(9.0));
        b.finish()
    }

    #[test]
    fn infers_3x3_window_from_loops() {
        let info = analyze(&blur3x3(), &HashMap::new());
        let p = &info.inputs["IN"];
        assert_eq!(p.max_dx, Some(1));
        assert_eq!(p.max_dy, Some(1));
        assert_eq!(p.window(), Some((3, 3)));
        assert!(info.writes_output);
        assert!(info.is_local_operator());
        assert_eq!(info.max_window(), (3, 3));
    }

    #[test]
    fn infers_window_from_parameterized_bounds() {
        // Loop bounds -2σ..=2σ resolve once sigma_d is bound.
        let mut b = KernelBuilder::new("bil", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let sigma = b.param("sigma_d", ScalarType::I32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        let i2 = input.clone();
        b.for_inclusive(
            "xf",
            Expr::int(-2) * sigma.get(),
            Expr::int(2) * sigma.get(),
            |b, xf| {
                b.add_assign(&acc, b.read_at(&i2, xf.get(), Expr::int(0)));
            },
        );
        b.output(acc.get());
        let kernel = b.finish();

        // Without bindings: unbounded.
        let info = analyze(&kernel, &HashMap::new());
        assert!(info.inputs["IN"].unbounded);
        assert_eq!(info.inputs["IN"].window(), None);

        // With sigma_d = 3: 13-wide window.
        let mut params = HashMap::new();
        params.insert("sigma_d".to_string(), Const::Int(3));
        let info = analyze(&kernel, &params);
        let p = &info.inputs["IN"];
        assert!(!p.unbounded);
        assert_eq!(p.window(), Some((13, 1)));
    }

    #[test]
    fn point_operator_detected() {
        let mut b = KernelBuilder::new("scale", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        b.output(b.read_center(&input) * Expr::float(2.0));
        let info = analyze(&b.finish(), &HashMap::new());
        assert!(info.inputs["IN"].is_point_access());
        assert!(!info.is_local_operator());
        assert_eq!(info.max_window(), (1, 1));
    }

    #[test]
    fn multiple_accessors_take_max_window() {
        let mut b = KernelBuilder::new("two", ScalarType::F32);
        let a = b.accessor("A", ScalarType::F32);
        let c = b.accessor("C", ScalarType::F32);
        b.output(b.read(&a, -2, 0) + b.read(&c, 0, 3));
        let info = analyze(&b.finish(), &HashMap::new());
        assert_eq!(info.inputs["A"].window(), Some((5, 1)));
        assert_eq!(info.inputs["C"].window(), Some((1, 7)));
        assert_eq!(info.max_window(), (5, 7));
    }

    #[test]
    fn mask_reads_counted() {
        let mut b = KernelBuilder::new("conv", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_const("M", 3, 3, vec![1.0 / 9.0; 9]);
        b.output(b.mask_at(&m, Expr::int(0), Expr::int(0)) * b.read_center(&input));
        let info = analyze(&b.finish(), &HashMap::new());
        assert_eq!(info.mask_reads["M"], 1);
    }

    #[test]
    fn reads_after_return_ignored() {
        use crate::kernel::{AccessorDecl, KernelDef};
        let kernel = KernelDef {
            name: "k".into(),
            pixel: ScalarType::F32,
            params: vec![],
            accessors: vec![AccessorDecl {
                name: "IN".into(),
                ty: ScalarType::F32,
            }],
            masks: vec![],
            body: vec![
                Stmt::Output(Expr::input_center("IN")),
                Stmt::Return,
                Stmt::Output(Expr::input_at("IN", Expr::int(-99), Expr::int(0))),
            ],
        };
        let info = analyze(&kernel, &HashMap::new());
        assert_eq!(info.inputs["IN"].max_dx, Some(0));
    }
}
