//! Worker scheduling for the parallel block loop, shared by both engines.
//!
//! Blocks are assigned to host-thread workers **strided** (worker `w` of
//! `n` runs blocks `w, w+n, w+2n, …` in linear block order). The earlier
//! contiguous `chunks()` split put all top-border blocks — the
//! conditional-heavy ones under boundary specialization — on worker 0,
//! so join time was gated by one thread; striding interleaves border and
//! interior blocks across all workers, keeping per-worker block counts
//! within one of each other for any grid.
//!
//! The worker count defaults to the host's available parallelism but can
//! be pinned for reproducible profiles and benches, either per launch
//! ([`LaunchParams::sim_threads`]) or process-wide with the
//! `HIPACC_SIM_THREADS` environment variable (the explicit field wins).
//!
//! Per-block execution profiles ([`ExecProfile`]) record which worker ran
//! each block along with the block's [`ExecStats`], so the launch report
//! can attribute dynamic counters to boundary regions.
//!
//! [`LaunchParams::sim_threads`]: crate::memory::LaunchParams::sim_threads

use crate::interp::{ExecStats, SimError};
use crate::pool::WorkerPool;
use std::sync::Mutex;

/// Environment variable overriding the worker count (lowest precedence).
pub const THREADS_ENV: &str = "HIPACC_SIM_THREADS";

/// Parse a `HIPACC_SIM_THREADS` value: a positive decimal integer.
///
/// Non-numeric input and zero are rejected with a description — a typo'd
/// override must fail the launch, not silently fall back to the machine's
/// parallelism (which can hide a 10× reproducibility bug in benchmarks).
pub fn parse_thread_env(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV} must be a positive worker count, got `0`"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer, got `{trimmed}`"
        )),
    }
}

/// Resolve the effective worker count for a launch of `n_blocks` blocks.
///
/// Precedence: the explicit `requested` override (a [`LaunchParams`]
/// field), then the `HIPACC_SIM_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. The result is clamped to
/// `1..=n_blocks` (at least one worker, never more workers than blocks).
///
/// An invalid `HIPACC_SIM_THREADS` value (non-numeric or zero) is a
/// launch error ([`SimError::InvalidThreadCount`]), not a silent
/// fallback.
///
/// [`LaunchParams`]: crate::memory::LaunchParams
pub fn effective_workers(requested: Option<usize>, n_blocks: usize) -> Result<usize, SimError> {
    effective_workers_pooled(requested, n_blocks, None)
}

/// [`effective_workers`] with an optional shared [`WorkerPool`] in the
/// default chain: explicit `requested` > `HIPACC_SIM_THREADS` > the
/// pool's thread count > [`std::thread::available_parallelism`]. A
/// launch running on a pool should default to exactly the pool's width —
/// more would oversubscribe the queue, fewer would idle paid-for
/// threads.
pub fn effective_workers_pooled(
    requested: Option<usize>,
    n_blocks: usize,
    pool: Option<&WorkerPool>,
) -> Result<usize, SimError> {
    let n = match requested {
        Some(n) => n,
        None => match std::env::var(THREADS_ENV) {
            Ok(raw) => parse_thread_env(&raw).map_err(SimError::InvalidThreadCount)?,
            Err(_) => match pool {
                Some(p) => p.workers(),
                None => std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            },
        },
    };
    Ok(n.clamp(1, n_blocks.max(1)))
}

/// Run `n_workers` copies of the per-worker closure and collect their
/// results in worker order: the one seam both engines' block loops go
/// through.
///
/// With a pool, jobs are queued on its persistent threads
/// ([`WorkerPool::run_scoped`]); without one, fresh scoped threads are
/// spawned per launch — `n_workers == 1` runs inline either way. The
/// closure receives the worker index and must use
/// [`worker_indices`] for block assignment, so results (and therefore
/// store order, applied by the caller in linear block order) are
/// identical on both paths.
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

/// Warp-level occupancy telemetry of the simd engine: how full the
/// active-lane mask was, averaged over every executed instruction group.
///
/// One "step" is one instruction executed for one set of lanes; fully
/// converged warps contribute one step per instruction with all live
/// lanes active, while divergent warps take extra steps with partial
/// masks — so `mean_active_fraction` is exactly the classic SIMT
/// "warp execution efficiency" metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimdTelemetry {
    /// Lanes per warp (the engine's compile-time warp width).
    pub warp_width: u32,
    /// Instruction groups executed across all warps and blocks.
    pub warp_steps: u64,
    /// Sum over steps of the number of active lanes.
    pub active_lane_sum: u64,
    /// Blocks that ran on the scalar engine although the launch asked
    /// for simd: every block of a launch whose tape fails
    /// `simd::plan_supported`, plus each block whose vector run errored
    /// and was re-run scalar.
    pub scalar_fallback_blocks: u64,
}

impl SimdTelemetry {
    /// Accumulate another block's telemetry.
    pub fn merge(&mut self, other: &SimdTelemetry) {
        self.warp_width = self.warp_width.max(other.warp_width);
        self.warp_steps += other.warp_steps;
        self.active_lane_sum += other.active_lane_sum;
        self.scalar_fallback_blocks += other.scalar_fallback_blocks;
    }

    /// Mean fraction of the warp active per executed instruction group,
    /// in `[0, 1]`. `None` when no warp instructions ran (e.g. every
    /// block fell back to the scalar path).
    pub fn mean_active_fraction(&self) -> Option<f64> {
        let denom = self.warp_steps as f64 * self.warp_width as f64;
        (denom > 0.0).then(|| self.active_lane_sum as f64 / denom)
    }
}

/// One block's contribution to an execution profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockProfile {
    /// Block index along x.
    pub bx: u32,
    /// Block index along y.
    pub by: u32,
    /// Which worker thread ran the block.
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
        assert_eq!(effective_workers(Some(3), 100).unwrap(), 3);
        assert_eq!(
            effective_workers(Some(0), 100).unwrap(),
            1,
            "explicit zero clamps to one"
        );
        assert_eq!(
            effective_workers(Some(64), 10).unwrap(),
            10,
            "capped at blocks"
        );
        assert_eq!(
            effective_workers(Some(4), 0).unwrap(),
            1,
            "empty grid still valid"
        );
    }

    #[test]
    fn thread_env_values_parse_strictly() {
        assert_eq!(parse_thread_env("4"), Ok(4));
        assert_eq!(parse_thread_env("  16 "), Ok(16), "whitespace trimmed");
        for bad in ["0", "", "four", "3.5", "-2", "0x10"] {
            let err = parse_thread_env(bad).unwrap_err();
            assert!(err.contains(THREADS_ENV), "{bad:?}: {err}");
        }
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
        t.merge(&SimdTelemetry {
            warp_width: 16,
            warp_steps: 10,
            active_lane_sum: 120,
            scalar_fallback_blocks: 2,
        });
        assert_eq!(t.mean_active_fraction(), Some(0.75));
        assert_eq!(t.scalar_fallback_blocks, 2);
    }
}
