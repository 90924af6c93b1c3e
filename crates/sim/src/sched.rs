//! Worker scheduling for the parallel block loop of
//! [`CompiledKernel::run_instrumented`](crate::bytecode::CompiledKernel::run_instrumented),
//! which both tape engines run under.
//!
//! Blocks are assigned to host-thread workers **strided** (worker `w` of
//! `n` runs blocks `w, w+n, w+2n, …` in linear block order). The earlier
//! contiguous `chunks()` split put all top-border blocks — the
//! conditional-heavy ones under boundary specialization — on worker 0,
//! so join time was gated by one thread; striding interleaves border and
//! interior blocks across all workers, keeping per-worker block counts
//! within one of each other for any grid.
//!
//! The strided split is the *accounting* assignment everywhere (profiles,
//! the fault injector's per-worker virtual clock). The block loop also
//! *executes* by it whenever a fault hook is armed; otherwise its
//! workers take blocks from [`BlockClaims`], so a launch is not gated by
//! the worker whose host thread the OS treated worst.
//!
//! The worker count defaults to the host's available parallelism but can
//! be pinned per launch for reproducible profiles and benches
//! ([`LaunchParams::sim_threads`]).
//!
//! Per-block execution profiles ([`ExecProfile`]) record each block's
//! strided worker along with the block's [`ExecStats`], so the launch
//! report can attribute dynamic counters to boundary regions.
//!
//! [`LaunchParams::sim_threads`]: crate::memory::LaunchParams::sim_threads

use crate::interp::ExecStats;
use crate::pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve the effective worker count for a launch of `n_blocks` blocks.
///
/// Precedence: the explicit `requested` count (a [`LaunchParams`]
/// field), then the shared [`WorkerPool`]'s thread count, then
/// [`std::thread::available_parallelism`]. A launch running on a pool
/// should default to exactly the pool's width — more would oversubscribe
/// the queue, fewer would idle paid-for threads. The result is clamped to
/// `1..=n_blocks` (at least one worker, never more workers than blocks).
///
/// [`LaunchParams`]: crate::memory::LaunchParams
pub fn effective_workers_pooled(
    requested: Option<usize>,
    n_blocks: usize,
    pool: Option<&WorkerPool>,
) -> usize {
    let n = requested.unwrap_or_else(|| match pool {
        Some(p) => p.workers(),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    });
    n.clamp(1, n_blocks.max(1))
}

/// Run `n_workers` copies of the per-worker closure and collect their
/// results in worker order: the seam the block loop goes through.
///
/// With a pool, jobs are queued on its persistent threads
/// ([`WorkerPool::run_scoped`]); without one, fresh scoped threads are
/// spawned per launch — `n_workers == 1` runs inline either way. The
/// closure receives the worker index and takes its blocks from
/// [`worker_indices`] or a shared [`BlockClaims`]; results are keyed by
/// block index and stores applied by the caller in linear block order,
/// so outputs are identical on both paths.
pub fn run_workers<T, F>(pool: Option<&WorkerPool>, n_workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_workers <= 1 {
        return (0..n_workers).map(f).collect();
    }
    match pool {
        Some(p) => p.run_scoped(n_workers, f),
        None => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n_workers).map(|w| scope.spawn(move || f(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulator worker panicked"))
                .collect()
        }),
    }
}

/// The linear block indices worker `worker` of `n_workers` runs, strided.
pub fn worker_indices(
    n_blocks: usize,
    n_workers: usize,
    worker: usize,
) -> impl Iterator<Item = usize> {
    (worker..n_blocks).step_by(n_workers.max(1))
}

/// How many blocks [`worker_indices`] yields for one worker.
pub fn worker_share(n_blocks: usize, n_workers: usize, worker: usize) -> usize {
    if worker >= n_blocks {
        return 0;
    }
    (n_blocks - worker).div_ceil(n_workers.max(1))
}

/// First-come-first-served hand-out of one launch's blocks in small
/// contiguous chunks — the dynamic alternative to [`worker_indices`].
///
/// A strided split fixes every worker's share before the launch starts,
/// so the launch ends when its *slowest* worker does: a worker whose host
/// thread starts late, shares its core with another stage's thread or is
/// slowed by a neighbour holds the others idle at the join. With claims
/// the work flows to whichever worker is running, and the join waits for
/// at most one chunk. Which worker *executes* a block is then a matter of
/// timing, so nothing observable may depend on it: results stay keyed by
/// the linear block index, and profiles attribute a block to its strided
/// worker (`index % n_workers`) on both paths.
pub struct BlockClaims {
    next: AtomicUsize,
    n_blocks: usize,
    chunk: usize,
}

impl BlockClaims {
    /// Claims over `n_blocks` blocks for `n_workers` workers: about 16
    /// chunks per worker, so the tail a fast worker waits for is a few
    /// percent of its share.
    pub fn new(n_blocks: usize, n_workers: usize) -> Self {
        BlockClaims {
            next: AtomicUsize::new(0),
            n_blocks,
            chunk: n_blocks.div_ceil(n_workers.max(1) * 16).max(1),
        }
    }

    /// The next unclaimed run of linear block indices, or `None` when
    /// every block has been handed out.
    pub fn claim(&self) -> Option<std::ops::Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (lo < self.n_blocks).then(|| lo..(lo + self.chunk).min(self.n_blocks))
    }
}

/// A bounded pool of reusable per-worker scratch allocations, shared
/// across launches.
///
/// Workers check an item out at launch start and publish it back after
/// the block loop, so steady-state launches reuse the register files,
/// shared-memory tiles and store journals of earlier launches instead of
/// reallocating them per launch (and, since the refactor that introduced
/// this pool, never per *block*). Items are keyed by a caller-computed
/// geometry hash: a checkout only returns an item published under the
/// same key, so a kernel with a different register-file or tile shape
/// can never observe a mismatched allocation.
///
/// The pool is deliberately tiny and lock-per-op: checkouts happen once
/// per worker per launch, not in the hot loop.
pub struct ScratchPool<T> {
    slots: Mutex<Vec<(u64, T)>>,
    capacity: usize,
}

impl<T> ScratchPool<T> {
    /// An empty pool holding at most `capacity` parked items.
    pub const fn new(capacity: usize) -> Self {
        ScratchPool {
            slots: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Take one item published under `key`, if any.
    pub fn checkout(&self, key: u64) -> Option<T> {
        let mut slots = self.slots.lock().ok()?;
        let pos = slots.iter().position(|(k, _)| *k == key)?;
        Some(slots.swap_remove(pos).1)
    }

    /// Park an item for later checkouts under `key`. Dropped silently
    /// when the pool is full — pooling is an optimization, never a
    /// correctness dependency.
    pub fn publish(&self, key: u64, item: T) {
        if let Ok(mut slots) = self.slots.lock() {
            if slots.len() < self.capacity {
                slots.push((key, item));
            }
        }
    }

    /// Number of currently parked items (for tests).
    pub fn parked(&self) -> usize {
        self.slots.lock().map(|s| s.len()).unwrap_or(0)
    }
}

/// Why a block of a simd launch ran on the scalar engine instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackCause {
    /// The tape reads a register whose dynamic tag is not fixed at that
    /// point (a `Select` with an int and a float arm): the warp program
    /// cannot be typed, every block of the launch runs scalar.
    PolymorphicRegister,
    /// One phase loads and stores the same shared tile, so deferred lane
    /// stores would be visible: every block of the launch runs scalar.
    SharedTileHazard,
    /// This block's vector run hit an evaluation error and was re-run
    /// scalar, which owns the error.
    BlockBail,
}

impl FallbackCause {
    /// Every cause, in the order of [`SimdTelemetry::fallback_causes`].
    pub const ALL: [FallbackCause; 3] = [
        FallbackCause::PolymorphicRegister,
        FallbackCause::SharedTileHazard,
        FallbackCause::BlockBail,
    ];

    /// The phrase profiles print.
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::PolymorphicRegister => "polymorphic register",
            FallbackCause::SharedTileHazard => "shared tile loaded and stored in one phase",
            FallbackCause::BlockBail => "per-block bail",
        }
    }
}

/// Warp-level occupancy telemetry of the simd engine: how full the
/// active-lane mask was, averaged over every executed instruction group.
///
/// One "step" is one tape instruction executed for one set of lanes of
/// one warp; fully converged warps contribute one step per instruction
/// with all live lanes active, while divergent warps take extra steps
/// with partial masks — so `mean_active_fraction` is exactly the classic
/// SIMT "warp execution efficiency" metric. A block runs an instruction
/// once for all its warps with a live lane and counts it once per such
/// warp, so the numbers are what running the block warp by warp counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimdTelemetry {
    /// Lanes per warp (the engine's compile-time warp width).
    pub warp_width: u32,
    /// Instruction groups executed across all warps and blocks.
    pub warp_steps: u64,
    /// Sum over steps of the number of active lanes.
    pub active_lane_sum: u64,
    /// Steps served by the scalar file (uniform values, branches on
    /// them, unconditional jumps): one operation instead of one per lane.
    pub uniform_steps: u64,
    /// Blocks that ran on the vector path: every phase on one program
    /// counter and one scalar file for the block's live threads, leaving
    /// it only to run a branch their lanes disagreed on block-wide, lanes
    /// grouped by program counter, up to its join. A thread that returns
    /// only leaves the live set.
    pub lockstep_blocks: u64,
    /// Times a block ran a varying branch's region and every lane of it
    /// went back to one program counter at its join. A region in which a
    /// thread returned is not counted; the block goes on in lockstep
    /// without that thread all the same.
    pub remerges: u64,
    /// Steps of those regions: one per lane group run, for all of the
    /// block's warps with a lane in it (each of which also counts the
    /// step in `warp_steps`).
    pub region_steps: u64,
    /// Blocks that ran on the scalar engine although the launch asked
    /// for simd, by cause, in [`FallbackCause::ALL`] order.
    pub fallback_causes: [u64; 3],
}

impl SimdTelemetry {
    /// Accumulate another block's telemetry.
    pub fn merge(&mut self, other: &SimdTelemetry) {
        self.warp_width = self.warp_width.max(other.warp_width);
        self.warp_steps += other.warp_steps;
        self.active_lane_sum += other.active_lane_sum;
        self.uniform_steps += other.uniform_steps;
        self.lockstep_blocks += other.lockstep_blocks;
        self.remerges += other.remerges;
        self.region_steps += other.region_steps;
        for (a, b) in self.fallback_causes.iter_mut().zip(other.fallback_causes) {
            *a += b;
        }
    }

    /// Count one block that ran scalar because of `cause`.
    pub fn note_fallback(&mut self, cause: FallbackCause) {
        self.fallback_causes[cause as usize] += 1;
    }

    /// Blocks that ran on the scalar engine although the launch asked
    /// for simd, whatever the cause.
    pub fn scalar_fallback_blocks(&self) -> u64 {
        self.fallback_causes.iter().sum()
    }

    /// The causes that occurred, with their block counts.
    pub fn fallbacks(&self) -> impl Iterator<Item = (FallbackCause, u64)> + '_ {
        FallbackCause::ALL
            .into_iter()
            .zip(self.fallback_causes)
            .filter(|(_, n)| *n > 0)
    }

    /// Mean fraction of the warp active per executed instruction group,
    /// in `[0, 1]`. `None` when no warp instructions ran (e.g. every
    /// block fell back to the scalar path).
    pub fn mean_active_fraction(&self) -> Option<f64> {
        let denom = self.warp_steps as f64 * self.warp_width as f64;
        (denom > 0.0).then(|| self.active_lane_sum as f64 / denom)
    }

    /// Fraction of warp steps served by the scalar file. `None` when no
    /// warp instructions ran.
    pub fn uniform_fraction(&self) -> Option<f64> {
        (self.warp_steps > 0).then(|| self.uniform_steps as f64 / self.warp_steps as f64)
    }

    /// Fraction of the launch's blocks that ran in lockstep, re-merges
    /// included; the others fell back to the scalar engine. `None` when
    /// no block ran.
    pub fn lockstep_fraction(&self) -> Option<f64> {
        let blocks = self.lockstep_blocks + self.scalar_fallback_blocks();
        (blocks > 0).then(|| self.lockstep_blocks as f64 / blocks as f64)
    }
}

/// One block's contribution to an execution profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockProfile {
    /// Block index along x.
    pub bx: u32,
    /// Block index along y.
    pub by: u32,
    /// The block's worker under the strided assignment
    /// (`index % n_workers`): the one that ran it when the launch executed
    /// strided, the one it is accounted to when workers claimed blocks.
    pub worker: usize,
    /// The block's dynamic statistics.
    pub stats: ExecStats,
}

/// Per-block execution profile of one launch, in linear block order
/// (`by * grid_x + bx`).
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    /// Effective number of worker threads used for the launch.
    pub n_workers: usize,
    /// Per-block records, ordered by linear block index.
    pub blocks: Vec<BlockProfile>,
    /// Warp-occupancy telemetry when the launch ran on the simd engine.
    pub simd: Option<SimdTelemetry>,
}

/// What one whole-grid run of either engine produced: the launch totals
/// always, the rest only when asked for.
#[derive(Clone, Debug, Default)]
pub struct GridRun {
    /// Launch-total dynamic statistics.
    pub stats: ExecStats,
    /// Per-block profile, when the caller asked to collect one.
    pub exec: Option<ExecProfile>,
    /// Checksum ledger and virtual launch time, when an enabled
    /// [`FaultHook`](crate::inject::FaultHook) was attached.
    pub faults: Option<crate::inject::FaultedRun>,
}

impl ExecProfile {
    /// Sum of all per-block statistics; equals the launch totals by
    /// construction (the launch totals are merged from the same records).
    pub fn total(&self) -> ExecStats {
        let mut t = ExecStats::default();
        for b in &self.blocks {
            t.merge(&b.stats);
        }
        t
    }

    /// Blocks run by each worker, indexed by worker id.
    pub fn blocks_per_worker(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_workers];
        for b in &self.blocks {
            if b.worker < counts.len() {
                counts[b.worker] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_override_wins_and_is_clamped() {
        let workers = |requested, n_blocks| effective_workers_pooled(requested, n_blocks, None);
        assert_eq!(workers(Some(3), 100), 3);
        assert_eq!(workers(Some(0), 100), 1, "explicit zero clamps to one");
        assert_eq!(workers(Some(64), 10), 10, "capped at blocks");
        assert_eq!(workers(Some(4), 0), 1, "empty grid still valid");
    }

    #[test]
    fn strided_assignment_is_balanced() {
        for n_blocks in [1usize, 2, 7, 64, 65, 127, 4096] {
            for n_workers in [1usize, 2, 3, 4, 7, 16] {
                let n_workers = n_workers.min(n_blocks);
                let counts: Vec<usize> = (0..n_workers)
                    .map(|w| worker_indices(n_blocks, n_workers, w).count())
                    .collect();
                let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
                assert!(
                    max - min <= 1,
                    "{n_blocks} blocks / {n_workers} workers: counts {counts:?}"
                );
                assert_eq!(counts.iter().sum::<usize>(), n_blocks);
                for (w, &c) in counts.iter().enumerate() {
                    assert_eq!(c, worker_share(n_blocks, n_workers, w));
                }
            }
        }
    }

    #[test]
    fn strided_assignment_partitions_all_blocks() {
        let n_blocks = 37;
        let n_workers = 5;
        let mut seen = vec![false; n_blocks];
        for w in 0..n_workers {
            for i in worker_indices(n_blocks, n_workers, w) {
                assert!(!seen[i], "block {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn claims_hand_out_every_block_exactly_once() {
        for (n_blocks, n_workers) in [
            (0usize, 2usize),
            (1, 2),
            (16, 2),
            (37, 3),
            (512, 2),
            (4096, 7),
        ] {
            let claims = BlockClaims::new(n_blocks, n_workers);
            let seen: Vec<AtomicUsize> = (0..n_blocks).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for _ in 0..n_workers {
                    scope.spawn(|| {
                        while let Some(chunk) = claims.claim() {
                            assert!(chunk.len() <= n_blocks.div_ceil(n_workers * 16).max(1));
                            for i in chunk {
                                seen[i].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
            assert_eq!(claims.claim(), None, "exhausted claims stay exhausted");
        }
    }

    #[test]
    fn profile_totals_and_worker_counts() {
        let mut p = ExecProfile {
            n_workers: 2,
            blocks: Vec::new(),
            simd: None,
        };
        for i in 0..5u32 {
            p.blocks.push(BlockProfile {
                bx: i,
                by: 0,
                worker: (i % 2) as usize,
                stats: ExecStats {
                    global_loads: 10,
                    ..Default::default()
                },
            });
        }
        assert_eq!(p.total().global_loads, 50);
        assert_eq!(p.blocks_per_worker(), vec![3, 2]);
    }

    #[test]
    fn scratch_pool_respects_keys_and_capacity() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new(2);
        assert_eq!(pool.checkout(1), None, "empty pool");
        pool.publish(1, vec![1]);
        pool.publish(2, vec![2]);
        pool.publish(3, vec![3]); // over capacity: dropped
        assert_eq!(pool.parked(), 2);
        assert_eq!(pool.checkout(3), None, "dropped item never surfaces");
        assert_eq!(pool.checkout(2), Some(vec![2]), "keyed checkout");
        assert_eq!(pool.checkout(2), None, "checkout removes the item");
        assert_eq!(pool.checkout(1), Some(vec![1]));
    }

    #[test]
    fn simd_telemetry_mean_active_fraction() {
        let mut t = SimdTelemetry::default();
        assert_eq!(t.mean_active_fraction(), None, "no steps, no fraction");
        assert_eq!(t.lockstep_fraction(), None, "no blocks, no fraction");
        let mut block = SimdTelemetry {
            warp_width: 16,
            warp_steps: 10,
            active_lane_sum: 120,
            uniform_steps: 4,
            lockstep_blocks: 5,
            remerges: 7,
            region_steps: 3,
            ..SimdTelemetry::default()
        };
        block.note_fallback(FallbackCause::BlockBail);
        block.note_fallback(FallbackCause::PolymorphicRegister);
        t.merge(&block);
        t.merge(&block);
        assert_eq!(t.mean_active_fraction(), Some(0.75));
        assert_eq!(t.uniform_fraction(), Some(0.4));
        assert_eq!(t.scalar_fallback_blocks(), 4);
        assert_eq!((t.lockstep_blocks, t.remerges), (10, 14));
        assert_eq!(t.region_steps, 6);
        assert_eq!(t.lockstep_fraction(), Some(10.0 / 14.0), "10 of 14 blocks");
        let causes: Vec<_> = t.fallbacks().collect();
        assert_eq!(
            causes,
            [
                (FallbackCause::PolymorphicRegister, 2),
                (FallbackCause::BlockBail, 2)
            ]
        );
    }
}
