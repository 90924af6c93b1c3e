//! The warp-vectorized execution engine: one instruction, a whole block
//! of lanes while the block agrees, the block's lanes at the lowest
//! program counter while it does not.
//!
//! [`crate::bytecode`] already pays the specialization cost once per
//! launch, but its hot loop still steps one *thread* at a time and
//! matches a `Const` tag on every operand. This module runs the typed
//! **warp program** that `crate::warp` lowers from the same tape: all
//! threads of a block run the same tape, so each instruction executes for
//! every thread that is at it before the program counter advances, and
//! everything the tape compiler could decide ahead of time is not decided
//! again here.
//!
//! * **Two register files, no tags** — a block's registers live in an
//!   untagged *vector file* (`f32` and `i64` slabs, one row of `lanes` =
//!   `nthreads` rounded up to [`WARP`] per register; bools are 0/1 in the
//!   `i64` slab) and a *scalar file* for values that are the same in
//!   every lane: immediates, block-uniform registers, loop counters and
//!   bounds, constant-bank loads at a uniform index, branch conditions
//!   built from them. Which slab and which file an operand lives in is a
//!   bit of the lowered `Slot`; which conversion a read needs (`as_f32`,
//!   `as_i64`, `as_bool`) follows from the op. A vector op is written
//!   once over a span of a row plus, optionally, one lane mask per warp
//!   of the span: a dense loop over plain rows without masks, a walk over
//!   each warp's set bits with them. A scalar-file op runs once per step
//!   and is read as a splat where a vector op uses it.
//! * **Lockstep blocks** — every scalar-file value is block-uniform by
//!   construction: its only sources are immediates, `LoadU`, `Bid` and
//!   `CLoad` at a scalar index (`exec_scalar` accepts nothing else; `Tid`
//!   always writes the vector file). Warps at the same pc therefore hold
//!   the same scalar file, whichever of their threads are still running,
//!   and a block has *one* program counter and *one* scalar file: each
//!   vector op is one dense loop over all `nthreads` lanes while every
//!   thread is live. A returned thread is a cleared lane of the block's
//!   *live mask* (one per warp), and the block never leaves lockstep for
//!   it: ops run dense over the live threads while they are one run (the
//!   threads past an image edge that ends the block returned), and walk
//!   the live masks' set bits otherwise.
//! * **Block-wide regions** — a branch whose outcome differs between
//!   live lanes starts the *varying region* it controls: the lowering
//!   carries the region's end as the branch's `join`, and a lane leaves
//!   the region only there or by returning. The block runs the region
//!   once: its live lanes are grouped by program counter, each group
//!   holding one 16-bit mask per warp; the group at the lowest pc runs
//!   next, after every other group parked at that pc has joined it, and
//!   each of its steps is one op over the block's rows under those masks.
//!   A branch parts a group, a lane that returns leaves it and the live
//!   mask. The lowering puts no scalar-file definition inside a varying
//!   region (a `guard` step there abandons the block as a lowering bug),
//!   so every step reads the block's one scalar file and there is nothing
//!   to copy or compare at the join. When the lowest pc reaches the join,
//!   every lane still live is there and the block **re-merges**: lockstep
//!   again, from the join. Restricted to one warp this is the warp's own
//!   min-pc schedule (its lanes at the block's lowest pc are exactly its
//!   lanes at its own), which preserves each lane's dynamic instruction
//!   trace as the serial engine produces it: what makes stat-exactness
//!   possible at all. Misclassification can cost time, never bits.
//! * **Exact statistics and telemetry** — `ExecStats` counters are *per
//!   access*: every memory op adds the number of lanes it ran for, a
//!   scalar-file constant load the number of threads it served,
//!   out-of-bounds side counts are per active lane. Warp telemetry is
//!   counted in *source-tape* instructions per 16-lane warp, whoever ran
//!   them: the warp program's steps are 1:1 with the tape's, a lockstep
//!   step counts as one step of every warp with a live lane (its live
//!   popcount in active lanes), and a region's group step as one step of
//!   every warp with a lane in the group (its popcount in active lanes),
//!   the diverging branch included: exactly what per-warp execution of
//!   the whole block counts. `region_steps` counts the group steps
//!   themselves.
//! * **Journaled stores** — the fault injector addresses global stores by
//!   their position in the block's journal ("flip the nth store"), and
//!   journal order on the scalar engine is thread-major. Global (and
//!   shared) stores are therefore recorded with their thread in the order
//!   the steps run and drained thread-major at the end of each phase,
//!   reproducing the serial order bit for bit; a store made in lockstep
//!   stays ahead of the same thread's later ones in a region. Shared-memory
//!   deferral is only correct when no phase both reads and writes the
//!   same tile, which the lowering checks up front.
//! * **Scalar fallback, counted** — a tape the lowering cannot type (a
//!   register read where its tag is not fixed) or whose tile accesses
//!   cannot be deferred runs every block on the scalar engine; a block
//!   that hits an evaluation error (division by zero, checked-integer
//!   overflow, an always-erroring op) — wherever it runs —
//!   rolls its journal back and re-runs scalar, which owns both the
//!   result and the error message. Every such block is counted by cause
//!   in [`SimdTelemetry`], beside the blocks that ran in lockstep and the
//!   re-merges.
//!
//! The engine is differentially tested against the specification
//! ([`crate::interp`]) for bit-identical outputs, per-block store order,
//! `ExecStats` and error identity, against the scalar bytecode engine
//! for fault-injection behaviour, and block-wide against per-warp
//! execution of the same blocks (the same scheduler over one warp's lanes
//! at a time) for journal order, statistics and telemetry.

use crate::bytecode::{exec_prologue, texel, BlockScratch, BufView, CompiledKernel, StoreRec};
use crate::interp::{ExecStats, SimError};
use crate::sched::SimdTelemetry;
use crate::warp::{BinFn, Op, Slot, Step, Tag, UnFn, WarpProgram};
use hipacc_ir::ty::Const;
use std::cell::Cell;
use std::ops::Range;

/// Lanes per warp: the unit of divergence masks and of `warp_steps` /
/// `active_lane_sum` accounting.
/// 16 matches the half-warp granularity of the paper's target devices.
/// It is *not* the width of a vector op: a block in lockstep runs each op
/// over all of its lanes at once, and a varying region over all of a lane
/// group's, one mask per warp.
pub const WARP: usize = 16;

/// Mask with all `WARP` lanes active.
const FULL: u32 = (1u32 << WARP) - 1;

/// A deferred shared-memory write: `(tile, element index, value)`.
type SharedWrite = (u16, usize, f32);

/// Register files for the simd engine, owned by the worker's
/// [`BlockScratch`] while it runs its blocks and parked in between in a
/// small pool of their own that does not ask for a shape: the files only
/// ever grow, so any parked set serves any kernel.
///
/// Like the scalar engine's register file, a single-phase kernel's files
/// are *not* cleared between blocks: the compiler only emits reads
/// dominated by writes, so stale values are never observed.
#[derive(Default)]
pub(crate) struct SimdScratch {
    /// Vector file: one row of `lanes` per register, one slab per
    /// machine type.
    vf: Vec<f32>,
    vi: Vec<i64>,
    /// Scalar file: registers, then the read-only block-uniform,
    /// block-index and immediate slots.
    sf: Vec<f32>,
    si: Vec<i64>,
    /// The lane groups of a region run block-wide.
    groups: Groups,
    /// The phase's global stores with their threads, in the order the
    /// steps ran; drained thread-major per phase.
    stores: Vec<(u32, StoreRec)>,
    /// The phase's shared stores, likewise.
    shared_writes: Vec<(u32, SharedWrite)>,
    /// One mask per warp of the threads that have not hit `Halt`.
    live: Vec<u32>,
}

impl SimdScratch {
    /// Grow the files to at least these sizes (files parked by a launch
    /// of a larger kernel stay as they are) and clear the per-block
    /// state.
    fn ensure(&mut self, vector: usize, scalar: usize, nthreads: usize) {
        if self.vf.len() < vector {
            self.vf.resize(vector, 0.0);
            self.vi.resize(vector, 0);
        }
        if self.sf.len() < scalar {
            self.sf.resize(scalar, 0.0);
            self.si.resize(scalar, 0);
        }
        self.live.clear();
        self.live
            .extend((0..nthreads.div_ceil(WARP)).map(|w| lane_mask(nthreads - w * WARP)));
    }
}

/// The first `n` lanes of a warp, all of them when `n >= WARP`.
fn lane_mask(n: usize) -> u32 {
    if n < WARP {
        (1 << n) - 1
    } else {
        FULL
    }
}

/// The lanes of a block inside a varying region, grouped by program
/// counter: one pc per group and, `n_warps` apart, one lane mask per
/// warp for each. Grow-only like the files, so a warm region allocates
/// nothing.
#[derive(Default)]
struct Groups {
    pcs: Vec<u32>,
    masks: Vec<u32>,
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
    run_block_rolled_back(prog, wp, bufs, (bx, by), scratch, journal, tel, false)
}

/// [`run_block_simd`] one warp at a time: in each phase, every warp runs
/// the same scheduler over its own lanes only, on its own copy of the
/// scalar file. Restricted to one warp, lockstep is the warp converged
/// and a region is the warp's own min-pc schedule, so this is what the
/// block-wide schedule must be indistinguishable from.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block_per_warp(
    prog: &CompiledKernel,
    wp: &WarpProgram,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    tel: &mut SimdTelemetry,
) -> Result<(Range<usize>, ExecStats), SimError> {
    run_block_rolled_back(prog, wp, bufs, (bx, by), scratch, journal, tel, true)
}

#[allow(clippy::too_many_arguments)]
fn run_block_rolled_back(
    prog: &CompiledKernel,
    wp: &WarpProgram,
    bufs: &[BufView<'_>],
    block: (u32, u32),
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    tel: &mut SimdTelemetry,
    per_warp: bool,
) -> Result<(Range<usize>, ExecStats), SimError> {
    let start = journal.len();
    match run_block_inner(prog, wp, bufs, block, scratch, journal, per_warp) {
        Ok((stats, block_tel)) => {
            tel.merge(&block_tel);
            Ok((start..journal.len(), stats))
        }
        Err(e) => {
            journal.truncate(start);
            if let Some(simd) = scratch.simd.as_mut() {
                simd.stores.clear();
                simd.shared_writes.clear();
            }
            Err(e)
        }
    }
}

fn run_block_inner(
    prog: &CompiledKernel,
    wp: &WarpProgram,
    bufs: &[BufView<'_>],
    (bx, by): (u32, u32),
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    per_warp: bool,
) -> Result<(ExecStats, SimdTelemetry), SimError> {
    scratch.reset_tiles(prog);
    exec_prologue(prog, bufs, bx, by, scratch)?;

    let (tbx, tby) = prog.block;
    let nthreads = tbx as usize * tby as usize;
    let n_phases = wp.phases.len();
    let n_warps = nthreads.div_ceil(WARP);
    let lanes = n_warps * WARP;
    let sspan = wp.scalar_len;

    let simd = scratch.simd.get_or_insert_with(SimdScratch::default);
    let vector = prog.n_regs.max(1) * lanes;
    simd.ensure(vector, sspan, nthreads);
    if n_phases > 1 {
        // Registers must survive barriers per thread, so multi-phase
        // files start from the scalar engine's `Const::Int(0)` fill: the
        // lowering types an unwritten register as a vector-file int.
        simd.vi[..vector].fill(0);
    }
    // The read-only tail of the block's scalar file: its uniform
    // registers (in the slab their inferred tag names), its index, and
    // the tape's immediates.
    let (sf, si) = (&mut simd.sf[..sspan], &mut simd.si[..sspan]);
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

    let SimdScratch {
        vf,
        vi,
        sf,
        si,
        groups,
        stores,
        shared_writes,
        live,
    } = simd;
    let mut ex = BlockExec {
        prog,
        bufs,
        shared: &mut scratch.shared,
        vf: Cell::from_mut(&mut vf[..vector]).as_slice_of_cells(),
        vi: Cell::from_mut(&mut vi[..vector]).as_slice_of_cells(),
        lanes,
        sf: &mut sf[..sspan],
        si: &mut si[..sspan],
        stores,
        shared_writes,
        tbx: tbx as usize,
        stats: ExecStats::default(),
        tel: SimdTelemetry {
            warp_width: WARP as u32,
            ..SimdTelemetry::default()
        },
    };

    // The per-warp oracle's warps each keep their own scalar file.
    #[cfg(test)]
    let mut files = vec![(ex.sf.to_vec(), ex.si.to_vec()); if per_warp { n_warps } else { 0 }];
    for (pi, steps) in wp.phases.iter().enumerate() {
        if !per_warp {
            ex.run_phase(steps, 0..n_warps, groups, live)?;
        }
        #[cfg(test)]
        for (w, (f, i)) in files.iter_mut().enumerate() {
            ex.sf.swap_with_slice(f);
            ex.si.swap_with_slice(i);
            ex.run_phase(steps, w..w + 1, groups, live)?;
            ex.sf.swap_with_slice(f);
            ex.si.swap_with_slice(i);
        }
        ex.drain_stores(journal);
        if pi + 1 < n_phases {
            // One barrier per thread still running, like the scalar
            // engine's per-phase count of non-returned threads.
            let running: u64 = live.iter().map(|m| u64::from(m.count_ones())).sum();
            ex.stats.barriers += running;
            if running == 0 {
                break;
            }
        }
    }
    ex.tel.lockstep_blocks = 1;
    Ok((ex.stats, ex.tel))
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

/// The lanes one step runs for: a span of the block's threads, either
/// all of it (dense) or the lanes of one mask per warp of the span, bits
/// counted from each warp's first lane.
#[derive(Clone, Copy)]
struct Lanes<'m> {
    lo: usize,
    hi: usize,
    masks: Option<&'m [u32]>,
}

impl<'m> Lanes<'m> {
    /// Every thread from `lo` up to `hi`.
    #[inline(always)]
    fn dense(lo: usize, hi: usize) -> Lanes<'m> {
        Lanes {
            lo,
            hi,
            masks: None,
        }
    }

    /// The lanes of `masks`, one per warp from the warp whose lane 0 is
    /// thread `lo`.
    #[inline(always)]
    fn masked(lo: usize, masks: &'m [u32]) -> Lanes<'m> {
        Lanes {
            lo,
            hi: lo + masks.len() * WARP,
            masks: Some(masks),
        }
    }

    /// The `count` lanes of `masks`, one per warp from the warp whose
    /// lane 0 is thread `lo`, the first and the last mask not empty:
    /// dense when the lanes are one run of threads, as they are while
    /// every thread is live or when the threads that returned are the
    /// ones past an edge of the image that ends a block.
    #[inline(always)]
    fn of(lo: usize, masks: &'m [u32], count: u64) -> Lanes<'m> {
        let (head, tail) = (masks[0], masks[masks.len() - 1]);
        let start = lo + head.trailing_zeros() as usize;
        let end = lo + (masks.len() - 1) * WARP + (u32::BITS - tail.leading_zeros()) as usize;
        if count == (end - start) as u64 {
            Lanes::dense(start, end)
        } else {
            Lanes::masked(lo, masks)
        }
    }

    /// Whether lane `k`, counted from the span's first, is active.
    #[inline(always)]
    fn has(self, k: usize) -> bool {
        match self.masks {
            None => true,
            Some(m) => m[k / WARP] >> (k % WARP) & 1 != 0,
        }
    }

    /// How many lanes are active.
    #[inline(always)]
    fn count(self) -> u64 {
        match self.masks {
            None => (self.hi - self.lo) as u64,
            Some(m) => m.iter().map(|m| u64::from(m.count_ones())).sum(),
        }
    }
}

/// Run `$body` with `$k` bound to every active lane of `$on`, counted
/// from the span's first: a dense loop over a dense span, a walk over the
/// set bits of each warp's mask over a masked one, so an empty warp costs
/// one test. (A dense loop per run of set bits is a little faster on the
/// region-heavy bilateral, but it unrolls into every op's monomorphic
/// copies and grows the engine's code and a process's peak RSS with it.)
macro_rules! lanes {
    ($on:expr, $k:ident => $body:block) => {
        match $on.masks {
            None => {
                // The body indexes several rows of the span's length.
                #[allow(clippy::needless_range_loop)]
                for $k in 0..$on.hi - $on.lo $body
            }
            Some(masks) => {
                for (w, &m) in masks.iter().enumerate() {
                    let mut m = m;
                    while m != 0 {
                        let $k = w * WARP + m.trailing_zeros() as usize;
                        $body
                        m &= m - 1;
                    }
                }
            }
        }
    };
}

/// Run `$body` with `$x` bound to a reader (`Fn(usize) -> T`, lanes
/// counted like [`lanes!`] counts them) of operand `$a` over the span
/// `$on`: the scalar file's value for every lane, or the register's row
/// through `$f` / `$i`. The body is expanded once per place the operand
/// can live, so each expansion's loop is monomorphic.
macro_rules! operand {
    ($s:ident.$scalar:ident($a:expr), $on:expr, $f:expr, $i:expr, |$x:ident| $body:expr) => {
        match ($a.is_scalar(), $a.is_float()) {
            (true, _) => {
                let v = $s.$scalar($a);
                let $x = move |_: usize| v;
                $body
            }
            (false, true) => {
                let row = $s.frow($a, $on);
                let $x = move |k: usize| ($f)(row[k].get());
                $body
            }
            (false, false) => {
                let row = $s.irow($a, $on);
                let $x = move |k: usize| ($i)(row[k].get());
                $body
            }
        }
    };
}

/// [`operand!`] read as `as_f32`.
macro_rules! with_f {
    ($s:ident, $a:expr, $on:expr, |$x:ident| $body:expr) => {
        operand!($s.s_f($a), $on, |f: f32| f, |i: i64| i as f32, |$x| $body)
    };
}

/// [`operand!`] read as `as_i64` (a float saturates, like `as`).
macro_rules! with_i {
    ($s:ident, $a:expr, $on:expr, |$x:ident| $body:expr) => {
        operand!($s.s_i($a), $on, |f: f32| f as i64, |i: i64| i, |$x| $body)
    };
}

/// [`operand!`] read as `as_bool`.
macro_rules! with_t {
    ($s:ident, $a:expr, $on:expr, |$x:ident| $body:expr) => {
        operand!($s.s_t($a), $on, |f: f32| f != 0.0, |i: i64| i != 0, |$x| {
            $body
        })
    };
}

/// One block's execution state.
struct BlockExec<'a, 'm> {
    prog: &'a CompiledKernel,
    bufs: &'a [BufView<'m>],
    shared: &'a mut [Vec<f32>],
    /// Vector file, `lanes` per register row. Cells, because an op's
    /// destination row may be one of its operand rows.
    vf: &'a [Cell<f32>],
    vi: &'a [Cell<i64>],
    lanes: usize,
    /// The block's scalar file.
    sf: &'a mut [f32],
    si: &'a mut [i64],
    stores: &'a mut Vec<(u32, StoreRec)>,
    shared_writes: &'a mut Vec<(u32, SharedWrite)>,
    tbx: usize,
    stats: ExecStats,
    tel: SimdTelemetry,
}

/// How a lockstep phase ended.
enum Lockstep {
    /// Every thread ran off the end of the phase.
    Done,
    /// Every thread returned.
    Halted,
    /// The lanes disagree on the branch at `at`, which has not run; they
    /// meet again at `join`.
    Split { at: u32, join: u32 },
}

/// How many of `masks` hold a lane, how many lanes they hold, and the
/// masks from the first that holds one to the last.
fn occupancy(masks: &[u32]) -> (u64, u64, Range<usize>) {
    let (mut warps, mut lanes, mut first, mut last) = (0u64, 0u64, masks.len(), 0);
    for (w, &m) in masks.iter().enumerate() {
        if m != 0 {
            warps += 1;
            lanes += u64::from(m.count_ones());
            first = first.min(w);
            last = w;
        }
    }
    (warps, lanes, first..last + 1)
}

/// Drop group `g` of `n` warps' masks each; the last group takes its
/// place.
fn remove_group(pcs: &mut Vec<u32>, masks: &mut Vec<u32>, n: usize, g: usize) {
    pcs.swap_remove(g);
    masks.copy_within(pcs.len() * n.., g * n);
    masks.truncate(pcs.len() * n);
}

/// Move `recs` out in thread order, each thread's in the order it made
/// them. Converged code records them that way already; only stores made
/// while lanes or warps were apart need the (stable) sort.
fn drain_thread_major<T>(recs: &mut Vec<(u32, T)>) -> impl Iterator<Item = T> + '_ {
    if recs.windows(2).any(|w| w[0].0 > w[1].0) {
        recs.sort_by_key(|r| r.0);
    }
    recs.drain(..).map(|(_, rec)| rec)
}

impl<'a> BlockExec<'a, '_> {
    /// Run a phase from its start to its end for the live threads of
    /// `warps`: in lockstep until a branch divides them, then that
    /// branch's region block-wide, and lockstep again from its join over
    /// the threads that did not return in it.
    fn run_phase(
        &mut self,
        steps: &[Step],
        warps: Range<usize>,
        groups: &mut Groups,
        live: &mut [u32],
    ) -> Result<(), Bail> {
        let mut pc = 0;
        while live[warps.clone()].iter().any(|&m| m != 0) {
            match self.run_lockstep(steps, pc, warps.clone(), live)? {
                Lockstep::Done => break,
                Lockstep::Halted => live[warps.clone()].fill(0),
                Lockstep::Split { at, join } => {
                    pc = join;
                    let returned = self.run_region(steps, at, join, warps.clone(), groups, live)?;
                    self.tel.remerges += u64::from(!returned);
                }
            }
        }
        Ok(())
    }

    /// Run a phase from `pc` for the live threads of `warps` on one
    /// program counter and the one scalar file, until the phase ends or
    /// a branch is not unanimous.
    fn run_lockstep(
        &mut self,
        steps: &[Step],
        mut pc: u32,
        warps: Range<usize>,
        live: &[u32],
    ) -> Result<Lockstep, Bail> {
        let live = &live[warps.clone()];
        let (n_warps, n_lanes, span) = occupancy(live);
        let on = Lanes::of((warps.start + span.start) * WARP, &live[span], n_lanes);
        let (mut n_steps, mut n_uniform) = (0u64, 0u64);
        let end = loop {
            let Some(step) = steps.get(pc as usize) else {
                break Lockstep::Done;
            };
            match step.op {
                Op::Jmp { to } => pc = to,
                Op::Br {
                    cond,
                    when,
                    to,
                    join,
                } => match self.unanimous(cond, when, on) {
                    Some(true) => pc = to,
                    Some(false) => pc += 1,
                    // The region counts this branch when it starts here.
                    None => break Lockstep::Split { at: pc, join },
                },
                Op::Halt => {
                    n_steps += 1;
                    break Lockstep::Halted;
                }
                ref op => {
                    if step.guard {
                        self.exec_scalar(op, n_lanes)?;
                    } else {
                        self.exec_vector(op, on)?;
                    }
                    pc += 1;
                }
            }
            n_steps += 1;
            n_uniform += u64::from(step.uniform);
        };
        // One step here is one step of every warp with a live lane.
        self.tel.warp_steps += n_steps * n_warps;
        self.tel.active_lane_sum += n_steps * n_lanes;
        self.tel.uniform_steps += n_uniform * n_warps;
        Ok(end)
    }

    /// Whether every lane of `on` takes the branch, none does
    /// (`Some(false)`), or they differ (`None`).
    fn unanimous(&self, cond: Slot, when: bool, on: Lanes<'_>) -> Option<bool> {
        if cond.is_scalar() {
            // One value, one answer for the block.
            return Some(self.s_t(cond) == when);
        }
        let (mut any, mut all) = (false, true);
        with_t!(self, cond, on, |t| lanes!(on, k => {
            let jump = t(k) == when;
            any |= jump;
            all &= jump;
        }));
        (any == all).then_some(all)
    }

    /// Commit the phase's shared stores to the tiles and move its global
    /// stores to the block journal, both in thread order: thread order is
    /// the serial engine's order, so the journal and the tiles end up
    /// exactly as it leaves them.
    fn drain_stores(&mut self, journal: &mut Vec<StoreRec>) {
        for (sb, i, v) in drain_thread_major(self.shared_writes) {
            self.shared[sb as usize][i] = v;
        }
        journal.extend(drain_thread_major(self.stores));
    }

    /// Run the varying region the branch at `at` controls, up to its
    /// `join`, once for the live lanes of `warps`. Lanes are grouped by
    /// program counter, each group with one mask per warp, and the group
    /// at the lowest pc runs next: one step for all of its warps, after
    /// every other group parked at that pc has joined it. Restricted to
    /// one warp this is the warp's own min-pc schedule (its lanes at the
    /// block's lowest pc are its lanes at its own), so every step is
    /// counted as per-warp execution counts it. The steps read the one
    /// scalar file, which nothing in the region writes. Lanes that hit
    /// `Halt` leave `live`; returns whether any did.
    fn run_region(
        &mut self,
        steps: &[Step],
        at: u32,
        join: u32,
        warps: Range<usize>,
        groups: &mut Groups,
        live: &mut [u32],
    ) -> Result<bool, Bail> {
        let (n, base) = (warps.len(), warps.start * WARP);
        let Groups { pcs, masks } = groups;
        pcs.clear();
        pcs.push(at);
        masks.clear();
        masks.extend_from_slice(&live[warps.clone()]);
        let mut returned = false;
        // The region ends when its lowest lane is at the join, so all are:
        // a lane leaves the region only there or by `Halt`.
        while let Some((g, pc)) = pcs
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, pc)| pc)
            .filter(|&(_, pc)| pc < join)
        {
            let mut i = g + 1;
            while i < pcs.len() {
                if pcs[i] != pc {
                    i += 1;
                    continue;
                }
                for w in 0..n {
                    masks[g * n + w] |= masks[i * n + w];
                }
                remove_group(pcs, masks, n, i);
            }
            // One step of every warp with a lane here; the warps `ws`
            // span them.
            let step = &steps[pc as usize];
            let (warps_here, lanes, ws) = occupancy(&masks[g * n..(g + 1) * n]);
            self.tel.warp_steps += warps_here;
            self.tel.active_lane_sum += lanes;
            self.tel.uniform_steps += warps_here * u64::from(step.uniform);
            self.tel.region_steps += 1;
            let span = g * n + ws.start..g * n + ws.end;
            let lo = base + ws.start * WARP;
            match step.op {
                Op::Jmp { to } => pcs[g] = to,
                Op::Br { cond, when, to, .. } => {
                    // The lanes that jump, as a group of their own at the
                    // end; it stays only if the group really parts.
                    let new = masks.len();
                    masks.resize(new + n, 0);
                    let (group, jumps) = masks.split_at_mut(new);
                    let (group, jumps) = (&mut group[span], &mut jumps[ws]);
                    self.jump_masks(cond, when, lo, group, jumps);
                    let any = jumps.iter().any(|&j| j != 0);
                    if any && group.iter().zip(&*jumps).any(|(m, j)| m != j) {
                        for (m, j) in group.iter_mut().zip(jumps) {
                            *m &= !*j;
                        }
                        pcs[g] = pc + 1;
                        pcs.push(to);
                    } else {
                        masks.truncate(new);
                        pcs[g] = if any { to } else { pc + 1 };
                    }
                }
                Op::Halt => {
                    for (w, i) in (warps.start + ws.start..).zip(span) {
                        live[w] &= !masks[i];
                    }
                    returned = true;
                    remove_group(pcs, masks, n, g);
                }
                // No scalar-file write belongs in a region: a lowering bug.
                _ if step.guard => return Err(Bail),
                ref op => {
                    self.exec_vector(op, Lanes::of(lo, &masks[span], lanes))?;
                    pcs[g] = pc + 1;
                }
            }
        }
        Ok(returned)
    }

    /// The lanes of each of `masks`, one per warp from the warp whose
    /// lane 0 is thread `lo`, whose condition equals `when`, into `jumps`:
    /// all or none of a mask's lanes when the condition lives in the
    /// scalar file.
    #[inline(always)]
    fn jump_masks(&self, cond: Slot, when: bool, lo: usize, masks: &[u32], jumps: &mut [u32]) {
        if cond.is_scalar() {
            let all = self.s_t(cond) == when;
            for (j, &m) in jumps.iter_mut().zip(masks) {
                *j = if all { m } else { 0 };
            }
            return;
        }
        with_t!(self, cond, Lanes::masked(lo, masks), |t| {
            for (w, (j, &m)) in jumps.iter_mut().zip(masks).enumerate() {
                let mut jump = 0u32;
                for k in 0..WARP {
                    jump |= u32::from(t(w * WARP + k) == when) << k;
                }
                *j = jump & m;
            }
        });
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

    /// The lanes `on` spans of the `f32` row of vector-file slot `a`.
    #[inline(always)]
    fn frow(&self, a: Slot, on: Lanes<'_>) -> &'a [Cell<f32>] {
        let row = a.idx() * self.lanes;
        &self.vf[row + on.lo..row + on.hi]
    }

    /// The lanes `on` spans of the `i64` row of vector-file slot `a`.
    #[inline(always)]
    fn irow(&self, a: Slot, on: Lanes<'_>) -> &'a [Cell<i64>] {
        let row = a.idx() * self.lanes;
        &self.vi[row + on.lo..row + on.hi]
    }

    // --- typed maps: `S` picks the file of `dst` at compile time, so one
    // table of closures serves the scalar file (one value, all operands
    // scalar) and the vector file (the lanes of `on`) ---

    /// `dst = f(a)` over `f32`.
    #[inline(always)]
    fn map_f<const S: bool>(&mut self, dst: Slot, a: Slot, on: Lanes<'_>, f: impl Fn(f32) -> f32) {
        if S {
            self.sf[dst.idx()] = f(self.s_f(a));
            return;
        }
        let d = self.frow(dst, on);
        with_f!(self, a, on, |x| lanes!(on, k => { d[k].set(f(x(k))); }));
    }

    /// `dst = f(a, b)` over `f32`.
    #[inline(always)]
    fn map_ff<const S: bool>(
        &mut self,
        dst: Slot,
        a: Slot,
        b: Slot,
        on: Lanes<'_>,
        f: impl Fn(f32, f32) -> f32,
    ) {
        if S {
            self.sf[dst.idx()] = f(self.s_f(a), self.s_f(b));
            return;
        }
        let d = self.frow(dst, on);
        with_f!(self, a, on, |x| with_f!(self, b, on, |y| lanes!(on, k => {
            d[k].set(f(x(k), y(k)));
        })));
    }

    /// `dst = f(a, b)`: a comparison through `f32`, like `eval_binop`.
    #[inline(always)]
    fn cmp_ff<const S: bool>(
        &mut self,
        dst: Slot,
        a: Slot,
        b: Slot,
        on: Lanes<'_>,
        f: impl Fn(f32, f32) -> bool,
    ) {
        if S {
            self.si[dst.idx()] = f(self.s_f(a), self.s_f(b)) as i64;
            return;
        }
        let d = self.irow(dst, on);
        with_f!(self, a, on, |x| with_f!(self, b, on, |y| lanes!(on, k => {
            d[k].set(f(x(k), y(k)) as i64);
        })));
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
        on: Lanes<'_>,
        f: impl Fn(i64, i64) -> (i64, bool),
    ) -> Result<(), Bail> {
        let mut bad = false;
        if S {
            (self.si[dst.idx()], bad) = f(self.s_i(a), self.s_i(b));
        } else {
            let d = self.irow(dst, on);
            with_i!(self, a, on, |x| with_i!(self, b, on, |y| lanes!(on, k => {
                let (v, o) = f(x(k), y(k));
                d[k].set(v);
                bad |= o;
            })));
        }
        if bad {
            return Err(Bail);
        }
        Ok(())
    }

    /// `Cvt`: copy or convert `a` into `dst`'s slab, or its truth value.
    #[inline(always)]
    fn cvt<const S: bool>(&mut self, dst: Slot, a: Slot, truth: bool, on: Lanes<'_>) {
        let s = dst.idx();
        match (truth, dst.is_float()) {
            (true, _) if S => self.si[s] = self.s_t(a) as i64,
            (false, true) if S => self.sf[s] = self.s_f(a),
            (false, false) if S => self.si[s] = self.s_i(a),
            (true, _) => {
                let d = self.irow(dst, on);
                with_t!(self, a, on, |t| lanes!(on, k => { d[k].set(t(k) as i64); }));
            }
            (false, true) => {
                let d = self.frow(dst, on);
                with_f!(self, a, on, |x| lanes!(on, k => { d[k].set(x(k)); }));
            }
            (false, false) => {
                let d = self.irow(dst, on);
                with_i!(self, a, on, |x| lanes!(on, k => { d[k].set(x(k)); }));
            }
        }
    }

    /// The unary table. Every arm mirrors `eval_unop` / `eval_mathfn`.
    #[inline(always)]
    fn un<const S: bool>(
        &mut self,
        f: UnFn,
        dst: Slot,
        a: Slot,
        on: Lanes<'_>,
    ) -> Result<(), Bail> {
        match f {
            UnFn::NegI => return self.map_ii::<S>(dst, a, a, on, |x, _| x.overflowing_neg()),
            UnFn::Not if S => self.si[dst.idx()] = !self.s_t(a) as i64,
            UnFn::Not => {
                let d = self.irow(dst, on);
                with_t!(
                    self,
                    a,
                    on,
                    |t| lanes!(on, k => { d[k].set(!t(k) as i64); })
                );
            }
            UnFn::NegF => self.map_f::<S>(dst, a, on, |x| -x),
            UnFn::Exp => self.map_f::<S>(dst, a, on, f32::exp),
            UnFn::Log => self.map_f::<S>(dst, a, on, f32::ln),
            UnFn::Sqrt => self.map_f::<S>(dst, a, on, f32::sqrt),
            UnFn::Rsqrt => self.map_f::<S>(dst, a, on, |x| 1.0 / x.sqrt()),
            UnFn::Abs => self.map_f::<S>(dst, a, on, f32::abs),
            UnFn::Sin => self.map_f::<S>(dst, a, on, f32::sin),
            UnFn::Cos => self.map_f::<S>(dst, a, on, f32::cos),
            UnFn::Floor => self.map_f::<S>(dst, a, on, f32::floor),
            UnFn::Round => self.map_f::<S>(dst, a, on, f32::round),
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
        on: Lanes<'_>,
    ) -> Result<(), Bail> {
        match f {
            BinFn::AddI => return self.map_ii::<S>(dst, a, b, on, i64::overflowing_add),
            BinFn::SubI => return self.map_ii::<S>(dst, a, b, on, i64::overflowing_sub),
            BinFn::MulI => return self.map_ii::<S>(dst, a, b, on, i64::overflowing_mul),
            BinFn::DivI => {
                return self.map_ii::<S>(dst, a, b, on, |x, y| checked(x.checked_div(y)))
            }
            BinFn::RemI => {
                return self.map_ii::<S>(dst, a, b, on, |x, y| checked(x.checked_rem(y)))
            }
            BinFn::MinI => return self.map_ii::<S>(dst, a, b, on, |x, y| (x.min(y), false)),
            BinFn::MaxI => return self.map_ii::<S>(dst, a, b, on, |x, y| (x.max(y), false)),
            BinFn::LeI => return self.map_ii::<S>(dst, a, b, on, |x, y| ((x <= y) as i64, false)),
            BinFn::AddF => self.map_ff::<S>(dst, a, b, on, |x, y| x + y),
            BinFn::SubF => self.map_ff::<S>(dst, a, b, on, |x, y| x - y),
            BinFn::MulF => self.map_ff::<S>(dst, a, b, on, |x, y| x * y),
            BinFn::DivF => self.map_ff::<S>(dst, a, b, on, |x, y| x / y),
            BinFn::MinF => self.map_ff::<S>(dst, a, b, on, f32::min),
            BinFn::MaxF => self.map_ff::<S>(dst, a, b, on, f32::max),
            BinFn::PowF => self.map_ff::<S>(dst, a, b, on, f32::powf),
            BinFn::Eq => self.cmp_ff::<S>(dst, a, b, on, |x, y| x == y),
            BinFn::Ne => self.cmp_ff::<S>(dst, a, b, on, |x, y| x != y),
            BinFn::Lt => self.cmp_ff::<S>(dst, a, b, on, |x, y| x < y),
            BinFn::Le => self.cmp_ff::<S>(dst, a, b, on, |x, y| x <= y),
            BinFn::Gt => self.cmp_ff::<S>(dst, a, b, on, |x, y| x > y),
            BinFn::Ge => self.cmp_ff::<S>(dst, a, b, on, |x, y| x >= y),
        }
        Ok(())
    }

    /// Execute one op that writes the scalar file: once, on behalf of the
    /// `active` threads that are all here (the caller checked).
    #[inline(always)]
    fn exec_scalar(&mut self, op: &Op, active: u64) -> Result<(), Bail> {
        // No lanes: a scalar-file op reads and writes the scalar file only.
        let on = Lanes::dense(0, 0);
        match *op {
            Op::Cvt { dst, a, truth } => self.cvt::<true>(dst, a, truth, on),
            Op::Un { f, dst, a } => return self.un::<true>(f, dst, a, on),
            Op::Bin { f, dst, a, b } => return self.bin::<true>(f, dst, a, b, on),
            Op::CLoad { dst, cb, idx } => {
                // One load serves them all; one count per thread served.
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

    /// Execute one non-control op for the lanes `on`. Every arm mirrors
    /// the corresponding scalar `exec_tape` arm exactly, including the
    /// order and conditions of stat counting.
    fn exec_vector(&mut self, op: &Op, on: Lanes<'_>) -> Result<(), Bail> {
        match *op {
            Op::Bail => return Err(Bail),
            Op::Cvt { dst, a, truth } => self.cvt::<false>(dst, a, truth, on),
            Op::Un { f, dst, a } => return self.un::<false>(f, dst, a, on),
            Op::Bin { f, dst, a, b } => return self.bin::<false>(f, dst, a, b, on),
            Op::Tid { dst, axis } => {
                // Walk (x, y) along the span: one division, not one per
                // lane.
                let d = self.irow(dst, on);
                let (mut x, mut y) = (on.lo % self.tbx, on.lo / self.tbx);
                for (k, d) in d.iter().enumerate() {
                    if on.has(k) {
                        d.set(if axis == 0 { x } else { y } as i64);
                    }
                    x += 1;
                    if x == self.tbx {
                        (x, y) = (0, y + 1);
                    }
                }
            }
            Op::Load { dst, buf, idx, tex } => {
                let data = self.bufs[buf as usize].data;
                if tex {
                    self.stats.tex_fetches += on.count();
                } else {
                    self.stats.global_loads += on.count();
                }
                let d = self.frow(dst, on);
                let mut oob = 0u64;
                with_i!(self, idx, on, |i| lanes!(on, k => {
                    // Negative indices wrap to huge usize values, so one
                    // `get` covers both OOB directions.
                    d[k].set(match data.get(i(k) as usize) {
                        Some(v) => *v,
                        None => {
                            oob += 1;
                            data[i(k).clamp(0, data.len() as i64 - 1) as usize]
                        }
                    });
                }));
                self.stats.oob_reads += oob;
            }
            Op::Store { buf, idx, val } => {
                self.stats.global_stores += on.count();
                let len = self.bufs[buf as usize].data.len();
                with_i!(self, idx, on, |i| with_f!(
                    self,
                    val,
                    on,
                    |v| lanes!(on, k => {
                        let i = i(k);
                        if i < 0 || i as usize >= len {
                            self.stats.oob_stores += 1;
                        } else {
                            let rec = StoreRec {
                                buf,
                                idx: i as u32,
                                value: v(k),
                            };
                            self.stores.push(((on.lo + k) as u32, rec));
                        }
                    })
                ));
            }
            Op::TexXy { dst, buf, x, y } => {
                self.stats.tex_fetches += on.count();
                let b = &self.bufs[buf as usize];
                let d = self.frow(dst, on);
                let mut oob = 0u64;
                with_i!(self, x, on, |x| with_i!(self, y, on, |y| lanes!(on, k => {
                    d[k].set(texel(b, x(k) as i32, y(k) as i32, &mut oob));
                })));
                self.stats.oob_reads += oob;
            }
            Op::CLoad { dst, cb, idx } => {
                self.stats.const_loads += on.count();
                let data = &self.prog.consts[cb as usize].data;
                let last = data.len() as i64 - 1;
                let d = self.frow(dst, on);
                with_i!(self, idx, on, |i| lanes!(on, k => {
                    d[k].set(data[i(k).clamp(0, last) as usize]);
                }));
            }
            Op::SLoad { dst, sb, y, x } => {
                self.stats.shared_loads += on.count();
                let tile = &self.shared[sb as usize];
                let cols = self.prog.shared[sb as usize].cols as i64;
                let last = tile.len() as i64 - 1;
                let d = self.frow(dst, on);
                with_i!(self, y, on, |y| with_i!(self, x, on, |x| lanes!(on, k => {
                    d[k].set(tile[(y(k) * cols + x(k)).clamp(0, last) as usize]);
                })));
            }
            Op::SStore { sb, y, x, val } => {
                self.stats.shared_stores += on.count();
                let last = self.shared[sb as usize].len() as i64 - 1;
                let cols = self.prog.shared[sb as usize].cols as i64;
                with_i!(self, y, on, |y| with_i!(self, x, on, |x| with_f!(
                    self,
                    val,
                    on,
                    |v| lanes!(on, k => {
                        let i = (y(k) * cols + x(k)).clamp(0, last) as usize;
                        self.shared_writes.push(((on.lo + k) as u32, (sb, i, v(k))));
                    })
                )));
            }
            // Control flow is handled by `run_lockstep` and `run_region`.
            Op::Jmp { .. } | Op::Br { .. } | Op::Halt => {
                unreachable!("control flow reached BlockExec::exec_vector")
            }
        }
        Ok(())
    }
}
