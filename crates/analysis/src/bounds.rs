//! Bounds analysis: proves every memory access of a device kernel in
//! range, region by region.
//!
//! For each boundary-region seed (a rectangle of block indices — the nine
//! specialized regions of the paper's boundary handling, Section IV-B),
//! the pass walks the kernel body with the crate's one interval
//! interpreter, [`RangeState`] — the same state, driven through the same
//! [`Oracle`] operations, as the IR optimizer's walker:
//!
//! * `threadIdx.x/y` range over `[0, blockDim-1]`, `blockIdx.x/y` over the
//!   seed rectangle ([`RangeState::with_region`]), and the geometry
//!   scalars (`width`, `is_offset_x`, …) are points supplied by the
//!   compiler.
//! * Branch conditions are *refined* into the taken branch: after
//!   `if (gid_x >= is_offset_x + is_width) return;` the fall-through path
//!   knows `gid_x < is_offset_x + is_width`. A guard decides or refines
//!   only when both sides are provably integer and strictly inside
//!   `±2^24`: the engines compare through `f32`
//!   (`hipacc_ir::fold::eval_binop`), so a guard at the linear-index range
//!   of a 4096² image does not do at runtime what its integers say, and
//!   proves nothing here either.
//! * Loops are walked once: the loop variable spans `[from.lo, to.hi]`
//!   and variables assigned in the body are havocked.
//! * A `Select` arm is checked under its refined condition, so the
//!   Constant-mode pattern `in_bounds ? IN[idx] : k` only obliges `idx`
//!   where the guard holds.
//!
//! Every `GlobalLoad`/`GlobalStore`/`TexFetch` index not provably inside
//! the buffer raises [A0301] (a warning when the access sits on a buffer
//! whose boundary mode is `Undefined` — the paper's intentional "crash"
//! cells — and an error otherwise), shared-memory accesses outside the
//! declared tile raise [A0302], and constant-memory accesses outside the
//! mask raise [A0303].
//!
//! [A0301]: crate::diag#diagnostic-code-space
//! [A0302]: crate::diag#diagnostic-code-space
//! [A0303]: crate::diag#diagnostic-code-space

use crate::diag::Diagnostic;
use crate::range::RangeState;
use crate::VerifyInput;
use hipacc_ir::opt::Oracle;
use hipacc_ir::{Expr, LValue, Stmt, TexCoords};
use std::collections::HashSet;

pub use crate::interval::Ival;

struct Ctx<'a> {
    input: &'a VerifyInput<'a>,
    label: Option<&'a str>,
    diags: Vec<Diagnostic>,
    reported: HashSet<(&'static str, String)>,
}

impl Ctx<'_> {
    fn report(&mut self, code: &'static str, buf: &str, error: bool, message: String) {
        if !self.reported.insert((code, buf.to_string())) {
            return;
        }
        let mut d = if error {
            Diagnostic::error(code, &self.input.kernel.name, message)
        } else {
            Diagnostic::warning(code, &self.input.kernel.name, message)
        };
        if let Some(l) = self.label {
            d = d.with_region(l);
        }
        self.diags.push(d);
    }

    fn check_linear(&mut self, buf: &str, idx: Ival, write: bool) {
        let Some(&len) = self.input.buffer_len.get(buf) else {
            return; // size unknown: nothing to prove against
        };
        if idx.within(0, len - 1) {
            return;
        }
        let error = !self.input.oob_allowed.contains(buf);
        let what = if write { "store to" } else { "load from" };
        self.report(
            "A0301",
            buf,
            error,
            format!(
                "{what} `{buf}` not provably in bounds: index range [{}, {}] vs {len} elements{}",
                idx.lo,
                idx.hi,
                if error {
                    ""
                } else {
                    " (Undefined boundary mode)"
                }
            ),
        );
    }

    fn check_tex_xy(&mut self, buf: &str, x: Ival, y: Ival) {
        if self.input.hw_bounded.contains(buf) {
            return; // the texture unit's address mode handles any coordinate
        }
        let Some(&(w, h)) = self.input.buffer_dims.get(buf) else {
            return;
        };
        // An empty coordinate means the access sits on an infeasible path.
        if x.is_empty() || y.is_empty() || (x.within(0, w - 1) && y.within(0, h - 1)) {
            return;
        }
        let error = !self.input.oob_allowed.contains(buf);
        self.report(
            "A0301",
            buf,
            error,
            format!(
                "texture fetch from `{buf}` not provably in bounds: x in [{}, {}], y in [{}, {}] vs {w}x{h}",
                x.lo, x.hi, y.lo, y.hi
            ),
        );
    }

    fn check_shared(&mut self, buf: &str, y: Ival, x: Ival, write: bool) {
        let Some(decl) = self.input.kernel.shared.iter().find(|s| s.name == buf) else {
            return;
        };
        let (rows, cols) = (decl.rows as i64, decl.cols as i64);
        if y.is_empty() || x.is_empty() || (y.within(0, rows - 1) && x.within(0, cols - 1)) {
            return;
        }
        let what = if write { "store to" } else { "load from" };
        self.report(
            "A0302",
            buf,
            true,
            format!(
                "shared-memory {what} `{buf}` not provably in bounds: row [{}, {}], col [{}, {}] vs {rows}x{cols} tile",
                y.lo, y.hi, x.lo, x.hi
            ),
        );
    }

    fn check_const(&mut self, buf: &str, idx: Ival) {
        let Some(decl) = self
            .input
            .kernel
            .const_buffers
            .iter()
            .find(|c| c.name == buf)
        else {
            return;
        };
        let len = decl.width as i64 * decl.height as i64;
        if idx.within(0, len - 1) {
            return;
        }
        self.report(
            "A0303",
            buf,
            true,
            format!(
                "constant-memory load from `{buf}` not provably in bounds: index [{}, {}] vs {len} coefficients",
                idx.lo, idx.hi
            ),
        );
    }
}

/// Whether `e` performs a memory access anywhere inside.
fn has_access(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        found |= matches!(
            n,
            Expr::GlobalLoad { .. }
                | Expr::TexFetch { .. }
                | Expr::ConstLoad { .. }
                | Expr::SharedLoad { .. }
        )
    });
    found
}

/// Check every load inside `e` against the facts in `st`. Returns at
/// once on a load-free subtree, so the state is never cloned for the
/// `Select` arms of a pure index expression (mirror/repeat chains).
fn check_expr(e: &Expr, st: &RangeState, ctx: &mut Ctx<'_>) {
    if has_access(e) {
        check_loads(e, st, ctx);
    }
}

fn check_loads(e: &Expr, st: &RangeState, ctx: &mut Ctx<'_>) {
    match e {
        Expr::Unary(_, a) | Expr::Cast(_, a) => check_loads(a, st, ctx),
        Expr::Binary(_, a, b) => {
            check_loads(a, st, ctx);
            check_loads(b, st, ctx);
        }
        Expr::Call(_, args) => args.iter().for_each(|a| check_loads(a, st, ctx)),
        Expr::Select(c, a, b) => {
            check_loads(c, st, ctx);
            // `Select` is lazy: an arm the condition rules out never
            // runs, and the other one runs only where the condition
            // holds.
            let decided = st.truth(c);
            for (want, arm) in [(true, a), (false, b)] {
                if decided == Some(!want) || !has_access(arm) {
                    continue;
                }
                let mut refined = st.clone();
                if refined.refine(c, want) {
                    check_loads(arm, &refined, ctx);
                }
            }
        }
        Expr::GlobalLoad { buf, idx }
        | Expr::TexFetch {
            buf,
            coords: TexCoords::Linear(idx),
        } => {
            check_loads(idx, st, ctx);
            ctx.check_linear(buf, st.interval(idx), false);
        }
        Expr::TexFetch {
            buf,
            coords: TexCoords::Xy(x, y),
        } => {
            check_loads(x, st, ctx);
            check_loads(y, st, ctx);
            ctx.check_tex_xy(buf, st.interval(x), st.interval(y));
        }
        Expr::ConstLoad { buf, idx } => {
            check_loads(idx, st, ctx);
            ctx.check_const(buf, st.interval(idx));
        }
        Expr::SharedLoad { buf, y, x } => {
            check_loads(y, st, ctx);
            check_loads(x, st, ctx);
            ctx.check_shared(buf, st.interval(y), st.interval(x), false);
        }
        // Leaves, and the DSL-level nodes that never reach the verifier
        // (it runs on lowered device kernels).
        _ => {}
    }
}

/// Walk one branch arm on its own state; its top-level declarations go
/// out of scope where it ends. Returns whether it definitely terminates.
fn walk_arm(stmts: &[Stmt], st: &mut RangeState, ctx: &mut Ctx<'_>) -> bool {
    let terminated = walk(stmts, st, ctx);
    for s in stmts {
        if let Stmt::Decl { name, .. } = s {
            st.drop_var(name);
        }
    }
    terminated
}

/// Walk a statement list; returns whether execution definitely terminates
/// (reaches `Return` on every live path).
fn walk(stmts: &[Stmt], st: &mut RangeState, ctx: &mut Ctx<'_>) -> bool {
    for s in stmts {
        match s {
            Stmt::Decl { name, ty, init } => {
                if let Some(e) = init {
                    check_expr(e, st, ctx);
                }
                st.decl(name, *ty, init.as_ref());
            }
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => {
                check_expr(value, st, ctx);
                st.assign(name, value);
            }
            Stmt::If { cond, then, els } => {
                check_expr(cond, st, ctx);
                if let Some(t) = st.truth(cond) {
                    let taken = if t { then } else { els };
                    if st.refine(cond, t) && walk_arm(taken, st, ctx) {
                        return true;
                    }
                    continue;
                }
                // An infeasible branch counts as terminated: nothing
                // flows out of it.
                let mut st_t = st.clone();
                let t_term = !st_t.refine(cond, true) || walk_arm(then, &mut st_t, ctx);
                let mut st_e = st.clone();
                let e_term = !st_e.refine(cond, false) || walk_arm(els, &mut st_e, ctx);
                match (t_term, e_term) {
                    (true, true) => return true,
                    // Guard-return: only the other branch falls through,
                    // carrying its refinement forward.
                    (true, false) => *st = st_e,
                    (false, true) => *st = st_t,
                    (false, false) => {
                        *st = st_t;
                        st.join(&st_e);
                    }
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                check_expr(from, st, ctx);
                check_expr(to, st, ctx);
                // The engines run `from..=to` over integers, so the raw
                // intervals (not an f32 comparison) decide a zero-trip loop.
                let (f, t) = (st.interval(from), st.interval(to));
                if f.is_empty() || t.is_empty() || f.lo > t.hi {
                    continue;
                }
                // Single sound pass on a throwaway clone: loop-carried
                // variables are havocked, the loop variable spans every
                // iteration at once. The surviving state havocs the
                // assigned set too.
                let mut st_b = st.clone();
                Stmt::visit_all(body, &mut |s| {
                    if let Stmt::Assign {
                        target: LValue::Var(a),
                        ..
                    } = s
                    {
                        st_b.havoc(a);
                        st.havoc(a);
                    }
                });
                st_b.bind_loop(var, from, to);
                walk(body, &mut st_b, ctx);
            }
            Stmt::Return => return true,
            Stmt::GlobalStore { buf, idx, value } => {
                check_expr(idx, st, ctx);
                check_expr(value, st, ctx);
                ctx.check_linear(buf, st.interval(idx), true);
            }
            Stmt::SharedStore { buf, y, x, value } => {
                check_expr(y, st, ctx);
                check_expr(x, st, ctx);
                check_expr(value, st, ctx);
                ctx.check_shared(buf, st.interval(y), st.interval(x), true);
            }
            Stmt::Output(e) => check_expr(e, st, ctx),
            Stmt::Barrier | Stmt::Comment(_) => {}
        }
    }
    false
}

/// Run the bounds pass over every region seed of the input (one
/// full-grid walk when it names none).
pub fn check_bounds(input: &VerifyInput<'_>) -> Vec<Diagnostic> {
    let launch = RangeState::new(input.kernel, input.block, input.grid, &input.scalars);
    let walk_region = |label: Option<&str>, mut st: RangeState| {
        let mut ctx = Ctx {
            input,
            label,
            diags: Vec::new(),
            reported: HashSet::new(),
        };
        walk(&input.kernel.body, &mut st, &mut ctx);
        ctx.diags
    };
    if input.regions.is_empty() {
        return walk_region(None, launch);
    }
    input
        .regions
        .iter()
        .flat_map(|seed| walk_region(seed.label.as_deref(), launch.clone().with_region(seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionSeed, VerifyInput};
    use hipacc_hwmodel::device as devices;
    use hipacc_ir::kernel::{
        AddressMode, BufferAccess, BufferParam, DeviceKernelDef, MemorySpace, SharedDecl,
    };
    use hipacc_ir::{Builtin, ScalarType};

    fn gid() -> Expr {
        // blockIdx.x * blockDim.x + threadIdx.x
        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
            + Expr::Builtin(Builtin::ThreadIdxX)
    }

    fn buf(name: &str, access: BufferAccess) -> BufferParam {
        BufferParam {
            name: name.into(),
            ty: ScalarType::F32,
            access,
            space: MemorySpace::Global,
            address_mode: AddressMode::None,
        }
    }

    fn kernel(body: Vec<Stmt>, shared: Vec<SharedDecl>) -> DeviceKernelDef {
        DeviceKernelDef {
            name: "k".into(),
            buffers: vec![
                buf("IN", BufferAccess::ReadOnly),
                buf("OUT", BufferAccess::WriteOnly),
            ],
            scalars: vec![],
            const_buffers: vec![],
            shared,
            body,
        }
    }

    /// 64 elements, 4 blocks of 16x1 threads.
    fn input<'a>(k: &'a DeviceKernelDef, dev: &'a hipacc_hwmodel::DeviceModel) -> VerifyInput<'a> {
        let mut v = VerifyInput::new(k, dev, (16, 1), (4, 1));
        v.buffer_len.insert("IN".into(), 64);
        v.buffer_len.insert("OUT".into(), 64);
        v
    }

    #[test]
    fn clamped_load_is_in_bounds() {
        // OUT[gid] = IN[min(max(gid + 1, 0), 63)] with an iteration-space
        // guard: the clamp proves the load, the guard proves the store.
        let dev = devices::tesla_c2050();
        let load = Expr::GlobalLoad {
            buf: "IN".into(),
            idx: Box::new(Expr::min(
                Expr::max(Expr::var("g") + Expr::int(1), Expr::int(0)),
                Expr::int(63),
            )),
        };
        let k = kernel(
            vec![
                Stmt::Decl {
                    name: "g".into(),
                    ty: ScalarType::I32,
                    init: Some(gid()),
                },
                Stmt::If {
                    cond: Expr::var("g").ge(Expr::int(64)),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("g"),
                    value: load,
                },
            ],
            vec![],
        );
        let d = check_bounds(&input(&k, &dev));
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn unclamped_load_is_flagged() {
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::int(0),
                value: Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(gid() + Expr::int(1)),
                },
            }],
            vec![],
        );
        let d = check_bounds(&input(&k, &dev));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "A0301");
        assert!(d[0].is_error());
    }

    #[test]
    fn undefined_mode_downgrades_to_warning() {
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::int(0),
                value: Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(gid() + Expr::int(1)),
                },
            }],
            vec![],
        );
        let mut inp = input(&k, &dev);
        inp.oob_allowed.insert("IN".into());
        let d = check_bounds(&inp);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "A0301");
        assert!(!d[0].is_error());
    }

    #[test]
    fn guard_return_refines_fall_through() {
        // Without the guard, OUT[gid] for gid in [0, 63] on a 60-element
        // buffer would be flagged; the guard proves it.
        let dev = devices::tesla_c2050();
        let store = Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: gid(),
            value: Expr::float(0.0),
        };
        let guarded = |limit: i64| {
            kernel(
                vec![
                    Stmt::If {
                        cond: gid().ge(Expr::int(limit)),
                        then: vec![Stmt::Return],
                        els: vec![],
                    },
                    store.clone(),
                ],
                vec![],
            )
        };
        let k = guarded(60);
        let mut inp = input(&k, &dev);
        inp.buffer_len.insert("OUT".into(), 60);
        assert!(check_bounds(&inp).is_empty());
        let unguarded = kernel(vec![store.clone()], vec![]);
        let mut inp = input(&unguarded, &dev);
        inp.buffer_len.insert("OUT".into(), 60);
        assert_eq!(check_bounds(&inp)[0].code, "A0301");
        // The largest launch whose indices f32 still tells apart: gid in
        // [0, 2^24 - 1], and the guard proves a buffer four short of it.
        let limit = (1 << 24) - 4;
        let k = guarded(limit);
        let mut inp = VerifyInput::new(&k, &dev, (16, 1), (1 << 20, 1));
        inp.buffer_len.insert("OUT".into(), limit);
        assert!(check_bounds(&inp).is_empty());
    }

    #[test]
    fn guard_beyond_f32_exactness_proves_nothing() {
        // gid reaches 2^24 + 15. The engines compare through f32, where
        // 16777217 > 16777216 is false, so thread 16777217 passes the
        // guard and stores one past the end of a 16777217-element buffer.
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![
                Stmt::If {
                    cond: gid().gt(Expr::int(1 << 24)),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: gid(),
                    value: Expr::float(0.0),
                },
            ],
            vec![],
        );
        let mut inp = VerifyInput::new(&k, &dev, (16, 1), ((1 << 20) + 1, 1));
        inp.buffer_len.insert("OUT".into(), (1 << 24) + 1);
        let d = check_bounds(&inp);
        assert_eq!(d.len(), 1, "the guard must not refine: {d:?}");
        assert_eq!(d[0].code, "A0301");
    }

    #[test]
    fn shared_tile_overrun_is_a0302() {
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![Stmt::SharedStore {
                buf: "tile".into(),
                y: Expr::int(0),
                x: Expr::Builtin(Builtin::ThreadIdxX) * Expr::int(2),
                value: Expr::float(0.0),
            }],
            vec![SharedDecl {
                name: "tile".into(),
                ty: ScalarType::F32,
                rows: 1,
                cols: 17,
            }],
        );
        let d = check_bounds(&input(&k, &dev));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "A0302");
    }

    #[test]
    fn select_guard_proves_conditional_load() {
        // Constant boundary mode: (0 <= g && g < 64) ? IN[g] : 0.0
        let dev = devices::tesla_c2050();
        let g = gid() - Expr::int(8); // may be negative
        let cond = Expr::int(0).le(g.clone()).and(g.clone().lt(Expr::int(64)));
        let k = kernel(
            vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::int(0),
                value: Expr::select(
                    cond,
                    Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(g),
                    },
                    Expr::float(0.0),
                ),
            }],
            vec![],
        );
        let d = check_bounds(&input(&k, &dev));
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn loop_bounds_feed_the_index_interval() {
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![Stmt::For {
                var: "i".into(),
                from: Expr::int(0),
                to: Expr::int(2),
                body: vec![Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("i"),
                    value: Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(Expr::var("i")),
                    },
                }],
            }],
            vec![],
        );
        let mut inp = input(&k, &dev);
        inp.buffer_len.insert("IN".into(), 3);
        inp.buffer_len.insert("OUT".into(), 3);
        assert!(check_bounds(&inp).is_empty());
        let mut inp = input(&k, &dev);
        inp.buffer_len.insert("IN".into(), 2);
        inp.buffer_len.insert("OUT".into(), 2);
        let d = check_bounds(&inp);
        assert_eq!(d.len(), 2, "both the load and the store overrun: {d:?}");
    }

    #[test]
    fn region_seeds_carry_their_label() {
        let dev = devices::tesla_c2050();
        let k = kernel(
            vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: gid(),
                value: Expr::float(0.0),
            }],
            vec![],
        );
        let mut inp = input(&k, &dev);
        inp.buffer_len.insert("OUT".into(), 16);
        inp.regions = vec![
            RegionSeed {
                label: Some("L_BH".into()),
                bx: (0, 0),
                by: (0, 0),
            },
            RegionSeed {
                label: Some("R_BH".into()),
                bx: (3, 3),
                by: (0, 0),
            },
        ];
        let d = check_bounds(&inp);
        // Only the right-hand region overruns the 16-element buffer.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].region.as_deref(), Some("R_BH"));
    }
}
