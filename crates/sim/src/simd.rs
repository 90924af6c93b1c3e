//! The warp-vectorized execution engine: one instruction, sixteen lanes.
//!
//! [`crate::bytecode`] already pays the specialization cost once per
//! launch, but its hot loop still steps one *thread* at a time and
//! matches a `Const` tag on every operand. This module runs the typed
//! **warp program** that `crate::warp` lowers from the same tape: all
//! threads of a block run the same tape, so each instruction executes for
//! a whole 16-wide warp before the program counter advances, and
//! everything the tape compiler could decide ahead of time is not decided
//! again here.
//!
//! * **Two register files, no tags** — a warp's registers live in an
//!   untagged 16-lane *vector file* (`f32` and `i64` slabs, one lane
//!   group per register; bools are 0/1 in the `i64` slab) and a per-warp
//!   *scalar file* for values that are the same in every lane:
//!   immediates, block-uniform registers, loop counters and bounds,
//!   constant-bank loads at a uniform index, branch conditions built from
//!   them. Which slab and which file an operand lives in is a bit of the
//!   lowered `Slot`; which conversion a read needs (`as_f32`, `as_i64`,
//!   `as_bool`) follows from the op. A vector op over a full mask is a
//!   dense `for l in 0..WARP` loop over plain arrays; a scalar-file op
//!   runs once per warp step and is splatted where a vector op reads it.
//! * **`mask == live` guard** — a scalar-file write is only meaningful
//!   when every live lane executes it together. The lowering only places
//!   a definition there when it is not control-dependent on a varying
//!   branch, and min-pc scheduling reconverges structured code at the
//!   join, so the guard holds; the executor checks it on every such write
//!   anyway and abandons the block when it does not. Misclassification
//!   can cost time, never bits.
//! * **Divergence mask** — a warp starts *converged* (single shared `pc`,
//!   no per-lane bookkeeping). A conditional jump whose outcome differs
//!   across lanes materializes per-lane program counters; from then on the
//!   scheduler picks the minimum pc among live lanes, executes the lanes
//!   parked there, and re-converges as soon as all live lanes agree again.
//!   Min-pc scheduling preserves each lane's dynamic instruction trace
//!   exactly as the serial engine would have produced it, which is what
//!   makes stat-exactness possible at all.
//! * **Exact statistics and telemetry** — `ExecStats` counters are *per
//!   access*: every memory op adds `popcount(mask)`, a scalar-file
//!   constant load adds `popcount(live)`, out-of-bounds side counts are
//!   per active lane. Warp telemetry is counted in *source-tape*
//!   instructions: the warp program's steps are 1:1 with the tape's.
//! * **Journaled stores** — the fault injector addresses global stores by
//!   their position in the block's journal ("flip the nth store"), and
//!   journal order on the scalar engine is thread-major. Lanes therefore
//!   buffer their global (and shared) stores privately and the warp drains
//!   them lane-major at the end of each phase, reproducing the serial
//!   order bit for bit. Shared-memory deferral is only correct when no
//!   phase both reads and writes the same tile, which the lowering checks
//!   up front.
//! * **Scalar fallback, counted** — a tape the lowering cannot type (a
//!   register read where its tag is not fixed) or whose tile accesses
//!   cannot be deferred runs every block on the scalar engine; a block
//!   that hits an evaluation error (division by zero, checked-integer
//!   overflow, an always-erroring op) rolls its journal back and re-runs
//!   scalar, which owns both the result and the error message. Every such
//!   block is counted by cause in [`SimdTelemetry`].
//!
//! The engine is differentially tested against the specification
//! ([`crate::interp`]) for bit-identical outputs, per-block store order,
//! `ExecStats` and error identity, and against the scalar bytecode engine
//! for fault-injection behaviour.

use crate::bytecode::{exec_prologue, BlockScratch, BufView, CompiledKernel, StoreRec};
use crate::interp::{ExecStats, SimError};
use crate::sched::SimdTelemetry;
use crate::warp::{BinFn, Op, Slot, Step, Tag, UnFn, WarpProgram};
use hipacc_image::boundary::{clamp_index, repeat_index};
use hipacc_ir::kernel::AddressMode;
use hipacc_ir::ty::Const;
use std::ops::Range;

/// Lanes per warp. 16 keeps every slab group inside one or two cache
/// lines (16×4 B floats, 16×8 B ints) and matches the half-warp
/// granularity of the paper's target devices.
pub const WARP: usize = 16;

/// Mask with all `WARP` lanes active.
const FULL: u32 = (1u32 << WARP) - 1;

/// A deferred shared-memory write: `(tile, element index, value)`.
type SharedWrite = (u16, usize, f32);

/// Reusable register files for the simd engine, owned by the worker's
/// [`BlockScratch`] and created lazily on the first vectorized block.
///
/// A multi-phase kernel gets one vector and one scalar file per warp
/// (registers must survive barriers), a single-phase kernel reuses one of
/// each for every warp. Like the scalar engine's register file,
/// single-phase files are *not* cleared between blocks: the compiler only
/// emits reads dominated by writes, so stale values are never observed.
#[derive(Default)]
pub(crate) struct SimdScratch {
    /// Vector file: `WARP` lanes per register, one slab per machine type.
    vf: Vec<f32>,
    vi: Vec<i64>,
    /// Scalar file: registers, then the read-only block-uniform,
    /// block-index and immediate slots.
    sf: Vec<f32>,
    si: Vec<i64>,
    /// Per-lane program counters, materialized only while diverged.
    pcs: [u32; WARP],
    /// Per-lane global-store journals, drained lane-major per phase.
    lane_stores: Vec<Vec<StoreRec>>,
    /// Per-lane shared-store journals, drained lane-major per phase.
    lane_shared: Vec<Vec<SharedWrite>>,
    /// Threads that hit `Halt` in an earlier phase of this block.
    halted: Vec<bool>,
}

impl SimdScratch {
    fn ensure(&mut self, vector: usize, scalar: usize, nthreads: usize) {
        if self.vf.len() != vector {
            self.vf.clear();
            self.vf.resize(vector, 0.0);
            self.vi.clear();
            self.vi.resize(vector, 0);
        }
        if self.sf.len() != scalar {
            self.sf.clear();
            self.sf.resize(scalar, 0.0);
            self.si.clear();
            self.si.resize(scalar, 0);
        }
        if self.lane_stores.len() != WARP {
            self.lane_stores.resize_with(WARP, Vec::new);
            self.lane_shared.resize_with(WARP, Vec::new);
        }
        self.halted.clear();
        self.halted.resize(nthreads, false);
    }
}

/// Execute one block on the vector engine.
///
/// On success the block's stores occupy `journal[start..]` in exactly the
/// order the scalar engine would have produced and the returned stats are
/// bit-identical; telemetry is merged into `tel` only then. On *any*
/// error the journal is rolled back to `start` and the caller must re-run
/// the block on the scalar engine (which reproduces the exact error).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block_simd(
    prog: &CompiledKernel,
    wp: &WarpProgram,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    tel: &mut SimdTelemetry,
) -> Result<(Range<usize>, ExecStats), SimError> {
    let start = journal.len();
    match run_block_inner(prog, wp, bufs, bx, by, scratch, journal) {
        Ok((stats, warp_tel)) => {
            tel.merge(&warp_tel);
            Ok((start..journal.len(), stats))
        }
        Err(e) => {
            journal.truncate(start);
            if let Some(simd) = scratch.simd.as_mut() {
                for v in &mut simd.lane_stores {
                    v.clear();
                }
                for v in &mut simd.lane_shared {
                    v.clear();
                }
            }
            Err(e)
        }
    }
}

fn run_block_inner(
    prog: &CompiledKernel,
    wp: &WarpProgram,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
) -> Result<(ExecStats, SimdTelemetry), SimError> {
    scratch.reset_tiles(prog);
    exec_prologue(prog, bufs, bx, by, scratch)?;

    let (tbx, tby) = prog.block;
    let nthreads = tbx as usize * tby as usize;
    let n_phases = wp.phases.len();
    let n_warps = nthreads.div_ceil(WARP);
    let vspan = prog.n_regs.max(1) * WARP;
    let sspan = wp.scalar_len;
    let files = if n_phases > 1 { n_warps } else { 1 };

    let simd = scratch.simd.get_or_insert_with(SimdScratch::default);
    simd.ensure(files * vspan, files * sspan, nthreads);
    if n_phases > 1 {
        // Registers must survive barriers per thread, so multi-phase
        // files start from the scalar engine's `Const::Int(0)` fill: the
        // lowering types an unwritten register as a vector-file int.
        simd.vi.fill(0);
    }
    // The read-only tail of every scalar file: this block's uniform
    // registers (in the slab their inferred tag names), its index, and
    // the tape's immediates.
    for file in 0..files {
        let sf = &mut simd.sf[file * sspan..(file + 1) * sspan];
        let si = &mut simd.si[file * sspan..(file + 1) * sspan];
        for (u, (tag, v)) in wp.utags.iter().zip(&scratch.uregs).enumerate() {
            match (tag, v) {
                (Tag::Float, Const::Float(f)) => sf[wp.ureg_base + u] = *f,
                (Tag::Int, Const::Int(i)) => si[wp.ureg_base + u] = *i,
                (Tag::Bool, Const::Bool(b)) => si[wp.ureg_base + u] = *b as i64,
                // Never read: the lowering refuses a `LoadU` of these.
                (Tag::Bot | Tag::Top, _) => {}
                _ => return Err(Bail.into()),
            }
        }
        si[wp.bid_base] = bx as i64;
        si[wp.bid_base + 1] = by as i64;
        for (k, c) in wp.consts.iter().enumerate() {
            match c {
                Const::Float(f) => sf[wp.const_base + k] = *f,
                Const::Int(i) => si[wp.const_base + k] = *i,
                Const::Bool(b) => si[wp.const_base + k] = *b as i64,
            }
        }
    }

    let fast = prog.block_is_interior(bx, by);
    let mut stats = ExecStats::default();
    let mut tel = SimdTelemetry {
        warp_width: WARP as u32,
        ..SimdTelemetry::default()
    };

    let SimdScratch {
        vf,
        vi,
        sf,
        si,
        pcs,
        lane_stores,
        lane_shared,
        halted,
    } = simd;

    for (pi, steps) in wp.phases.iter().enumerate() {
        for w in 0..n_warps {
            let base = w * WARP;
            let mut live: u32 = 0;
            for l in 0..WARP {
                let t = base + l;
                if t < nthreads && !halted[t] {
                    live |= 1 << l;
                }
            }
            if live == 0 {
                continue;
            }
            let file = if n_phases > 1 { w } else { 0 };
            let mut ex = WarpExec {
                prog,
                bufs,
                shared: &mut scratch.shared,
                vf: &mut vf[file * vspan..(file + 1) * vspan],
                vi: &mut vi[file * vspan..(file + 1) * vspan],
                sf: &mut sf[file * sspan..(file + 1) * sspan],
                si: &mut si[file * sspan..(file + 1) * sspan],
                lane_stores,
                lane_shared,
                base: base as i64,
                tbx: tbx as i64,
                fast,
                stats: &mut stats,
                tel: &mut tel,
            };
            let halted_mask = ex.run_phase(steps, live, pcs)?;

            // Drain this warp's lane journals in lane order: lane order
            // is thread order, so the block journal and the tile end up
            // exactly as the serial engine leaves them.
            for l in 0..WARP {
                for &(sbi, i, v) in lane_shared[l].iter() {
                    scratch.shared[sbi as usize][i] = v;
                }
                lane_shared[l].clear();
                journal.append(&mut lane_stores[l]);
            }
            let mut m = halted_mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                halted[base + l] = true;
                m &= m - 1;
            }
        }
        if pi + 1 < n_phases {
            // One barrier per thread still running, like the scalar
            // engine's per-phase count of non-returned threads.
            stats.barriers += halted.iter().filter(|h| !**h).count() as u64;
        }
    }
    Ok((stats, tel))
}

/// Any condition the vector path cannot reproduce exactly abandons the
/// block; the scalar re-run owns the user-visible error.
struct Bail;

impl From<Bail> for SimError {
    #[cold]
    fn from(_: Bail) -> SimError {
        SimError::EvalError("simd lane bailout (block re-runs on the scalar engine)".into())
    }
}

/// A `checked_*` result as `map_ii` wants it: a value, and whether the
/// scalar engine got `None`.
#[inline(always)]
fn checked(r: Option<i64>) -> (i64, bool) {
    (r.unwrap_or(0), r.is_none())
}

/// One lane group of a vector-file slab, by value.
#[inline(always)]
fn group<T: Copy>(slab: &[T], idx: usize) -> [T; WARP] {
    slab[idx * WARP..(idx + 1) * WARP]
        .try_into()
        .expect("a lane group is WARP wide")
}

/// Write `r` to the lanes of `mask` in lane group `idx`.
#[inline(always)]
fn put<T: Copy>(slab: &mut [T], idx: usize, r: &[T; WARP], mask: u32) {
    let d = &mut slab[idx * WARP..(idx + 1) * WARP];
    if mask == FULL {
        d.copy_from_slice(r);
    } else {
        for l in 0..WARP {
            if mask >> l & 1 != 0 {
                d[l] = r[l];
            }
        }
    }
}

/// Run `$body` with `$l` bound to every lane of `$mask`: a dense loop
/// over a full mask, a bit walk otherwise.
macro_rules! lanes {
    ($mask:expr, $l:ident => $body:block) => {
        if $mask == FULL {
            for $l in 0..WARP $body
        } else {
            let mut m = $mask;
            while m != 0 {
                let $l = m.trailing_zeros() as usize;
                $body
                m &= m - 1;
            }
        }
    };
}

/// One warp's execution state for one phase.
struct WarpExec<'a, 'm> {
    prog: &'a CompiledKernel,
    bufs: &'a [BufView<'m>],
    shared: &'a mut Vec<Vec<f32>>,
    vf: &'a mut [f32],
    vi: &'a mut [i64],
    sf: &'a mut [f32],
    si: &'a mut [i64],
    lane_stores: &'a mut [Vec<StoreRec>],
    lane_shared: &'a mut [Vec<SharedWrite>],
    /// Linear thread id of lane 0.
    base: i64,
    tbx: i64,
    fast: bool,
    stats: &'a mut ExecStats,
    tel: &'a mut SimdTelemetry,
}

/// Point the masked lanes' program counters at `to`.
fn retarget(pcs: &mut [u32; WARP], mask: u32, to: u32) {
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        pcs[l] = to;
        m &= m - 1;
    }
}

/// If every live lane agrees on its next pc, collapse back to the
/// converged fast path.
fn try_reconverge(converged: &mut bool, pc: &mut u32, live: u32, pcs: &[u32; WARP]) {
    if live == 0 {
        return;
    }
    let first = pcs[live.trailing_zeros() as usize];
    let mut m = live;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        if pcs[l] != first {
            return;
        }
        m &= m - 1;
    }
    *converged = true;
    *pc = first;
}

impl WarpExec<'_, '_> {
    /// Run one phase for the warp. `live` marks the lanes that are
    /// in-extent and not halted by an earlier phase. Returns the mask of
    /// lanes that hit `Halt` during this phase.
    fn run_phase(
        &mut self,
        steps: &[Step],
        mut live: u32,
        pcs: &mut [u32; WARP],
    ) -> Result<u32, Bail> {
        let len = steps.len() as u32;
        let mut halted = 0u32;
        let mut converged = true;
        let mut pc = 0u32;
        let mut live_lanes = u64::from(live.count_ones());
        // Telemetry (steps are 1:1 with source-tape instructions), flushed
        // once per phase.
        let (mut n_steps, mut n_lanes, mut n_uniform) = (0u64, 0u64, 0u64);
        while live != 0 {
            let (cur, mask, active) = if converged {
                if pc >= len {
                    break;
                }
                (pc, live, live_lanes)
            } else {
                // Divergent: execute the lanes parked at the minimum pc.
                let mut cur = u32::MAX;
                let mut m = live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    cur = cur.min(pcs[l]);
                    m &= m - 1;
                }
                if cur >= len {
                    break;
                }
                let mut mask = 0u32;
                let mut m = live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    if pcs[l] == cur {
                        mask |= 1 << l;
                    }
                    m &= m - 1;
                }
                (cur, mask, u64::from(mask.count_ones()))
            };
            let step = &steps[cur as usize];
            n_steps += 1;
            n_lanes += active;
            n_uniform += u64::from(step.uniform);
            match step.op {
                Op::Jmp { to } => {
                    if converged {
                        pc = to;
                    } else {
                        retarget(pcs, mask, to);
                    }
                }
                Op::Br { cond, when, to } => {
                    let jump = self.jump_mask(cond, when, mask);
                    Self::branch(&mut converged, &mut pc, pcs, mask, jump, to, cur);
                }
                Op::Halt => {
                    halted |= mask;
                    live &= !mask;
                    live_lanes = u64::from(live.count_ones());
                    if converged {
                        // All live lanes returned together.
                        break;
                    }
                    retarget(pcs, mask, len);
                }
                ref op => {
                    if step.guard {
                        // One write for the whole warp is only right
                        // when the whole warp is here.
                        if mask != live {
                            return Err(Bail);
                        }
                        self.exec_scalar(op, active)?;
                    } else {
                        self.exec_vector(op, mask, active)?;
                    }
                    if converged {
                        pc = cur + 1;
                    } else {
                        retarget(pcs, mask, cur + 1);
                    }
                }
            }
            if !converged {
                try_reconverge(&mut converged, &mut pc, live, pcs);
            }
        }
        self.tel.warp_steps += n_steps;
        self.tel.active_lane_sum += n_lanes;
        self.tel.uniform_steps += n_uniform;
        Ok(halted)
    }

    /// Lanes of `mask` whose condition equals `when`; all or none of
    /// them when the condition lives in the scalar file.
    #[inline(always)]
    fn jump_mask(&self, cond: Slot, when: bool, mask: u32) -> u32 {
        if cond.is_scalar() {
            return if self.s_t(cond) == when { mask } else { 0 };
        }
        let t = self.ld_t(cond);
        let mut jump = 0u32;
        for (l, t) in t.iter().enumerate() {
            jump |= u32::from((*t != 0) == when) << l;
        }
        jump & mask
    }

    /// Resolve a conditional jump: uniform outcomes keep the warp
    /// converged (no mask bookkeeping at all); mixed outcomes materialize
    /// per-lane pcs.
    fn branch(
        converged: &mut bool,
        pc: &mut u32,
        pcs: &mut [u32; WARP],
        mask: u32,
        jump: u32,
        to: u32,
        cur: u32,
    ) {
        if *converged {
            if jump == mask {
                *pc = to;
                return;
            }
            if jump == 0 {
                *pc = cur + 1;
                return;
            }
            *converged = false;
        }
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            pcs[l] = if jump & (1 << l) != 0 { to } else { cur + 1 };
            m &= m - 1;
        }
    }

    // --- operand reads: the slot says where, the op says as what ---

    /// Scalar-file read as `as_f32`.
    #[inline(always)]
    fn s_f(&self, a: Slot) -> f32 {
        debug_assert!(a.is_scalar());
        if a.is_float() {
            self.sf[a.idx()]
        } else {
            self.si[a.idx()] as f32
        }
    }

    /// Scalar-file read as `as_i64` (a float saturates, like `as`).
    #[inline(always)]
    fn s_i(&self, a: Slot) -> i64 {
        debug_assert!(a.is_scalar());
        if a.is_float() {
            self.sf[a.idx()] as i64
        } else {
            self.si[a.idx()]
        }
    }

    /// Scalar-file read as `as_bool`.
    #[inline(always)]
    fn s_t(&self, a: Slot) -> bool {
        debug_assert!(a.is_scalar());
        if a.is_float() {
            self.sf[a.idx()] != 0.0
        } else {
            self.si[a.idx()] != 0
        }
    }

    /// All lanes of `a` as `as_f32`; a scalar-file value is splatted.
    #[inline(always)]
    fn ld_f(&self, a: Slot) -> [f32; WARP] {
        match (a.is_scalar(), a.is_float()) {
            (true, _) => [self.s_f(a); WARP],
            (false, true) => group(self.vf, a.idx()),
            (false, false) => group(self.vi, a.idx()).map(|i| i as f32),
        }
    }

    /// All lanes of `a` as `as_i64`.
    #[inline(always)]
    fn ld_i(&self, a: Slot) -> [i64; WARP] {
        match (a.is_scalar(), a.is_float()) {
            (true, _) => [self.s_i(a); WARP],
            (false, false) => group(self.vi, a.idx()),
            (false, true) => group(self.vf, a.idx()).map(|f| f as i64),
        }
    }

    /// All lanes of `a` as `as_bool`, 0/1.
    #[inline(always)]
    fn ld_t(&self, a: Slot) -> [i64; WARP] {
        match (a.is_scalar(), a.is_float()) {
            (true, _) => [self.s_t(a) as i64; WARP],
            (false, false) => group(self.vi, a.idx()).map(|i| (i != 0) as i64),
            (false, true) => group(self.vf, a.idx()).map(|f| (f != 0.0) as i64),
        }
    }

    // --- typed maps: `S` picks the file of `dst` at compile time, so one
    // table of closures serves the scalar file (one value, all operands
    // scalar) and the vector file (sixteen lanes) ---

    /// `dst = f(a)` over `f32`.
    #[inline(always)]
    fn map_f<const S: bool>(&mut self, dst: Slot, a: Slot, mask: u32, f: impl Fn(f32) -> f32) {
        if S {
            self.sf[dst.idx()] = f(self.s_f(a));
            return;
        }
        let x = self.ld_f(a);
        let mut r = [0.0f32; WARP];
        lanes!(mask, l => { r[l] = f(x[l]); });
        put(self.vf, dst.idx(), &r, mask);
    }

    /// `dst = f(a, b)` over `f32`.
    #[inline(always)]
    fn map_ff<const S: bool>(
        &mut self,
        dst: Slot,
        a: Slot,
        b: Slot,
        mask: u32,
        f: impl Fn(f32, f32) -> f32,
    ) {
        if S {
            self.sf[dst.idx()] = f(self.s_f(a), self.s_f(b));
            return;
        }
        let (x, y) = (self.ld_f(a), self.ld_f(b));
        let mut r = [0.0f32; WARP];
        lanes!(mask, l => { r[l] = f(x[l], y[l]); });
        put(self.vf, dst.idx(), &r, mask);
    }

    /// `dst = f(a, b)`: a comparison through `f32`, like `eval_binop`.
    #[inline(always)]
    fn cmp_ff<const S: bool>(
        &mut self,
        dst: Slot,
        a: Slot,
        b: Slot,
        mask: u32,
        f: impl Fn(f32, f32) -> bool,
    ) {
        if S {
            self.si[dst.idx()] = f(self.s_f(a), self.s_f(b)) as i64;
            return;
        }
        let (x, y) = (self.ld_f(a), self.ld_f(b));
        let mut r = [0i64; WARP];
        lanes!(mask, l => { r[l] = f(x[l], y[l]) as i64; });
        put(self.vi, dst.idx(), &r, mask);
    }

    /// `dst = f(a, b)` over `i64`; `f` also says whether the scalar
    /// engine would have raised an error (overflow, division by zero).
    /// The flag is OR-reduced over the active lanes so the loop stays
    /// branch-free.
    #[inline(always)]
    fn map_ii<const S: bool>(
        &mut self,
        dst: Slot,
        a: Slot,
        b: Slot,
        mask: u32,
        f: impl Fn(i64, i64) -> (i64, bool),
    ) -> Result<(), Bail> {
        let mut bad = false;
        if S {
            (self.si[dst.idx()], bad) = f(self.s_i(a), self.s_i(b));
        } else {
            let (x, y) = (self.ld_i(a), self.ld_i(b));
            let mut r = [0i64; WARP];
            lanes!(mask, l => {
                let (v, o) = f(x[l], y[l]);
                r[l] = v;
                bad |= o;
            });
            put(self.vi, dst.idx(), &r, mask);
        }
        if bad {
            return Err(Bail);
        }
        Ok(())
    }

    /// `Cvt`: copy or convert `a` into `dst`'s slab, or its truth value.
    #[inline(always)]
    fn cvt<const S: bool>(&mut self, dst: Slot, a: Slot, truth: bool, mask: u32) {
        let d = dst.idx();
        match (truth, dst.is_float()) {
            (true, _) if S => self.si[d] = self.s_t(a) as i64,
            (false, true) if S => self.sf[d] = self.s_f(a),
            (false, false) if S => self.si[d] = self.s_i(a),
            (true, _) => {
                let r = self.ld_t(a);
                put(self.vi, d, &r, mask);
            }
            (false, true) => {
                let r = self.ld_f(a);
                put(self.vf, d, &r, mask);
            }
            (false, false) => {
                let r = self.ld_i(a);
                put(self.vi, d, &r, mask);
            }
        }
    }

    /// The unary table. Every arm mirrors `eval_unop` / `eval_mathfn`.
    #[inline(always)]
    fn un<const S: bool>(&mut self, f: UnFn, dst: Slot, a: Slot, mask: u32) -> Result<(), Bail> {
        match f {
            UnFn::NegI => return self.map_ii::<S>(dst, a, a, mask, |x, _| x.overflowing_neg()),
            UnFn::Not if S => self.si[dst.idx()] = !self.s_t(a) as i64,
            UnFn::Not => {
                let r = self.ld_t(a).map(|t| 1 - t);
                put(self.vi, dst.idx(), &r, mask);
            }
            UnFn::NegF => self.map_f::<S>(dst, a, mask, |x| -x),
            UnFn::Exp => self.map_f::<S>(dst, a, mask, f32::exp),
            UnFn::Log => self.map_f::<S>(dst, a, mask, f32::ln),
            UnFn::Sqrt => self.map_f::<S>(dst, a, mask, f32::sqrt),
            UnFn::Rsqrt => self.map_f::<S>(dst, a, mask, |x| 1.0 / x.sqrt()),
            UnFn::Abs => self.map_f::<S>(dst, a, mask, f32::abs),
            UnFn::Sin => self.map_f::<S>(dst, a, mask, f32::sin),
            UnFn::Cos => self.map_f::<S>(dst, a, mask, f32::cos),
            UnFn::Floor => self.map_f::<S>(dst, a, mask, f32::floor),
            UnFn::Round => self.map_f::<S>(dst, a, mask, f32::round),
        }
        Ok(())
    }

    /// The binary table. Integer arithmetic is checked on the scalar
    /// engine; a `None` there is the flag here.
    #[inline(always)]
    fn bin<const S: bool>(
        &mut self,
        f: BinFn,
        dst: Slot,
        a: Slot,
        b: Slot,
        mask: u32,
    ) -> Result<(), Bail> {
        match f {
            BinFn::AddI => return self.map_ii::<S>(dst, a, b, mask, i64::overflowing_add),
            BinFn::SubI => return self.map_ii::<S>(dst, a, b, mask, i64::overflowing_sub),
            BinFn::MulI => return self.map_ii::<S>(dst, a, b, mask, i64::overflowing_mul),
            BinFn::DivI => {
                return self.map_ii::<S>(dst, a, b, mask, |x, y| checked(x.checked_div(y)))
            }
            BinFn::RemI => {
                return self.map_ii::<S>(dst, a, b, mask, |x, y| checked(x.checked_rem(y)))
            }
            BinFn::MinI => return self.map_ii::<S>(dst, a, b, mask, |x, y| (x.min(y), false)),
            BinFn::MaxI => return self.map_ii::<S>(dst, a, b, mask, |x, y| (x.max(y), false)),
            BinFn::LeI => {
                return self.map_ii::<S>(dst, a, b, mask, |x, y| ((x <= y) as i64, false))
            }
            BinFn::AddF => self.map_ff::<S>(dst, a, b, mask, |x, y| x + y),
            BinFn::SubF => self.map_ff::<S>(dst, a, b, mask, |x, y| x - y),
            BinFn::MulF => self.map_ff::<S>(dst, a, b, mask, |x, y| x * y),
            BinFn::DivF => self.map_ff::<S>(dst, a, b, mask, |x, y| x / y),
            BinFn::MinF => self.map_ff::<S>(dst, a, b, mask, f32::min),
            BinFn::MaxF => self.map_ff::<S>(dst, a, b, mask, f32::max),
            BinFn::PowF => self.map_ff::<S>(dst, a, b, mask, f32::powf),
            BinFn::Eq => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x == y),
            BinFn::Ne => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x != y),
            BinFn::Lt => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x < y),
            BinFn::Le => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x <= y),
            BinFn::Gt => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x > y),
            BinFn::Ge => self.cmp_ff::<S>(dst, a, b, mask, |x, y| x >= y),
        }
        Ok(())
    }

    /// Execute one op that writes the scalar file: once, on behalf of the
    /// `active` lanes that are all here (the caller checked).
    #[inline(always)]
    fn exec_scalar(&mut self, op: &Op, active: u64) -> Result<(), Bail> {
        match *op {
            Op::Cvt { dst, a, truth } => self.cvt::<true>(dst, a, truth, FULL),
            Op::Un { f, dst, a } => return self.un::<true>(f, dst, a, FULL),
            Op::Bin { f, dst, a, b } => return self.bin::<true>(f, dst, a, b, FULL),
            Op::CLoad { dst, cb, idx } => {
                // One load serves the warp; one count per thread served.
                self.stats.const_loads += active;
                let data = &self.prog.consts[cb as usize].data;
                let i = self.s_i(idx).clamp(0, data.len() as i64 - 1);
                self.sf[dst.idx()] = data[i as usize];
            }
            // The lowering puts no other definition in the scalar file.
            _ => return Err(Bail),
        }
        Ok(())
    }

    /// Execute one non-control op for every lane in `mask` (`active` of
    /// them). Every arm mirrors the corresponding scalar `exec_tape` arm
    /// exactly, including the order and conditions of stat counting.
    fn exec_vector(&mut self, op: &Op, mask: u32, active: u64) -> Result<(), Bail> {
        match *op {
            Op::Bail => return Err(Bail),
            Op::Cvt { dst, a, truth } => self.cvt::<false>(dst, a, truth, mask),
            Op::Un { f, dst, a } => return self.un::<false>(f, dst, a, mask),
            Op::Bin { f, dst, a, b } => return self.bin::<false>(f, dst, a, b, mask),
            Op::Tid { dst, axis } => {
                let mut r = [0i64; WARP];
                for (l, r) in r.iter_mut().enumerate() {
                    let t = self.base + l as i64;
                    *r = if axis == 0 {
                        t % self.tbx
                    } else {
                        t / self.tbx
                    };
                }
                put(self.vi, dst.idx(), &r, mask);
            }
            Op::Load { dst, buf, idx, tex } => {
                let b = &self.bufs[buf as usize];
                if tex {
                    self.stats.tex_fetches += active;
                } else {
                    self.stats.global_loads += active;
                }
                let i = self.ld_i(idx);
                let mut r = [0.0f32; WARP];
                let mut oob = 0u64;
                lanes!(mask, l => {
                    // Negative indices wrap to huge usize values, so one
                    // `get` covers both OOB directions.
                    r[l] = match b.data.get(i[l] as usize) {
                        Some(v) => *v,
                        None => {
                            oob += 1;
                            b.data[i[l].clamp(0, b.data.len() as i64 - 1) as usize]
                        }
                    };
                });
                self.stats.oob_reads += oob;
                put(self.vf, dst.idx(), &r, mask);
            }
            Op::Store { buf, idx, val } => {
                self.stats.global_stores += active;
                let len = self.bufs[buf as usize].data.len();
                let (i, v) = (self.ld_i(idx), self.ld_f(val));
                lanes!(mask, l => {
                    if i[l] < 0 || i[l] as usize >= len {
                        self.stats.oob_stores += 1;
                    } else {
                        self.lane_stores[l].push(StoreRec {
                            buf,
                            idx: i[l] as u32,
                            value: v[l],
                        });
                    }
                });
            }
            Op::TexXy { dst, buf, x, y } => {
                self.stats.tex_fetches += active;
                let b = &self.bufs[buf as usize];
                let stride = b.stride as usize;
                let (x, y) = (self.ld_i(x), self.ld_i(y));
                let mut r = [0.0f32; WARP];
                lanes!(mask, l => {
                    let (xi, yi) = (x[l] as i32, y[l] as i32);
                    r[l] = if self.fast && (xi as u32) < b.w && (yi as u32) < b.h {
                        b.data[yi as usize * stride + xi as usize]
                    } else {
                        let oob = xi < 0 || yi < 0 || xi >= b.w as i32 || yi >= b.h as i32;
                        match b.mode {
                            // Exactly like the scalar arm: the border
                            // constant is returned without any oob count.
                            AddressMode::BorderConstant(c) if oob => c,
                            mode => {
                                let (ax, ay) = match mode {
                                    AddressMode::Clamp => {
                                        (clamp_index(xi, b.w), clamp_index(yi, b.h))
                                    }
                                    AddressMode::Repeat => {
                                        (repeat_index(xi, b.w), repeat_index(yi, b.h))
                                    }
                                    AddressMode::BorderConstant(_) => (xi, yi),
                                    AddressMode::None => {
                                        if oob {
                                            self.stats.oob_reads += 1;
                                            (clamp_index(xi, b.w), clamp_index(yi, b.h))
                                        } else {
                                            (xi, yi)
                                        }
                                    }
                                };
                                b.data[ay as usize * stride + ax as usize]
                            }
                        }
                    };
                });
                put(self.vf, dst.idx(), &r, mask);
            }
            Op::CLoad { dst, cb, idx } => {
                self.stats.const_loads += active;
                let data = &self.prog.consts[cb as usize].data;
                let last = data.len() as i64 - 1;
                let r = self.ld_i(idx).map(|i| data[i.clamp(0, last) as usize]);
                put(self.vf, dst.idx(), &r, mask);
            }
            Op::SLoad { dst, sb, y, x } => {
                self.stats.shared_loads += active;
                let tile = &self.shared[sb as usize];
                let cols = self.prog.shared[sb as usize].cols as i64;
                let last = tile.len() as i64 - 1;
                let (y, x) = (self.ld_i(y), self.ld_i(x));
                let mut r = [0.0f32; WARP];
                lanes!(mask, l => {
                    r[l] = tile[(y[l] * cols + x[l]).clamp(0, last) as usize];
                });
                put(self.vf, dst.idx(), &r, mask);
            }
            Op::SStore { sb, y, x, val } => {
                self.stats.shared_stores += active;
                let last = self.shared[sb as usize].len() as i64 - 1;
                let cols = self.prog.shared[sb as usize].cols as i64;
                let (y, x, v) = (self.ld_i(y), self.ld_i(x), self.ld_f(val));
                lanes!(mask, l => {
                    let i = (y[l] * cols + x[l]).clamp(0, last) as usize;
                    self.lane_shared[l].push((sb, i, v[l]));
                });
            }
            // Control flow is handled by `run_phase`.
            Op::Jmp { .. } | Op::Br { .. } | Op::Halt => {
                unreachable!("control flow reached WarpExec::exec_vector")
            }
        }
        Ok(())
    }
}
