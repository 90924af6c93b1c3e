//! Cross-launch compiled-kernel cache.
//!
//! Compiling a kernel — specialization, access analysis, lowering,
//! configuration selection, emission, verification — is pure: its output
//! depends only on the kernel definition and the [`CompileSpec`]. In a
//! steady-state pipeline (video frames, iterative solvers) the same
//! operator is launched over and over with identical geometry, so every
//! launch after the first repeats work whose result is already known.
//!
//! [`KernelCache`] memoizes the compiler artifact across launches. The key
//! is a *fingerprint*: a canonical rendering of the kernel definition plus
//! every compile-relevant field of the spec (device, backend, image
//! geometry, boundary handling, bound parameters, memory-path variant,
//! unrolling, forced configuration, ROI, vectorization). Anything that can
//! change the emitted code changes the key, so a cache hit is reuse of a
//! bit-identical artifact by construction — there is no invalidation
//! protocol to get wrong, only a bounded LRU that drops the
//! least-recently-used entry when full.
//!
//! The cache is **opt-in**: install one with
//! [`PipelineOptions::cache`](crate::PipelineOptions) (an `Arc`, so one
//! cache can back many operators). The default path compiles fresh every
//! launch, which keeps compile-phase traces intact for profiling tests.
//! Fault-recovery rungs that degrade the launch configuration compile with
//! a different `force_config`, hence a different fingerprint — a degraded
//! artifact can never be served for a healthy launch or vice versa. The
//! supervisor additionally bypasses the cache entirely on degraded rungs
//! (recorded as a bypass, not a miss) so recovery timing is never skewed
//! by warm-cache effects.
//!
//! An entry is a `Prepared` kernel behind an `Arc`: the artifact plus
//! what every launch of it would otherwise rebuild — the simulator tape
//! with its warp program, and the modelled time. A hit is one fingerprint
//! and one `Arc` clone under the lock; the launch then binds the frame's
//! pixels, runs the kept tape and downloads. The tape is reused only by a
//! launch whose launch-constant state matches the one it was built from
//! ([`hipacc_sim::TapeMemo`]), so two operators sharing a fingerprint but
//! uploading different masks or running on different pools never share a
//! tape. Every tape built and reused is counted ([`KernelCache::tapes_built`],
//! [`KernelCache::tapes_reused`], [`KernelCache::warps_lowered`]).

use hipacc_codegen::{CompileSpec, CompiledKernel};
use hipacc_ir::kernel::KernelDef;
use hipacc_sim::timing::TimeBreakdown;
use hipacc_sim::{TapeCounters, TapeMemo, TapeReport};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Default number of compiled kernels retained (LRU beyond this).
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// What the cache did for one launch, embedded in
/// [`LaunchProfile`](crate::LaunchProfile).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheReport {
    /// `"hit"`, `"miss"`, or `"bypass: <reason>"`.
    pub outcome: String,
    /// Cumulative hits on the cache at the time of this launch.
    pub hits: u64,
    /// Cumulative misses on the cache at the time of this launch.
    pub misses: u64,
    /// Times the cache adopted its state out of a poisoned lock (a
    /// launch thread panicked while holding it). Non-zero is worth a
    /// look but never fatal — see [`KernelCache::poison_diagnostic`].
    pub poison_recoveries: u64,
    /// How this launch came by its simulator tape (`None` in a report
    /// made outside a launch).
    pub tape: Option<TapeReport>,
    /// Cumulative tapes built by launches through the cache, rebuilds
    /// included.
    pub tapes_built: u64,
    /// Cumulative launches that ran a kept tape.
    pub tapes_reused: u64,
    /// Cumulative warp programs lowered by launches through the cache.
    pub warps_lowered: u64,
}

impl CacheReport {
    /// True when this launch was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.outcome == "hit"
    }
}

/// A compiled kernel prepared for repeated launches — the unit the cache
/// stores. It owns the codegen artifact, the simulator tape (built by the
/// first launch that needs one, see [`TapeMemo`]) and the modelled time.
/// A launch outside any cache uses a fresh one, so the cold path is the
/// same code with nothing kept yet.
pub(crate) struct Prepared {
    compiled: Arc<CompiledKernel>,
    tape: TapeMemo,
    /// The modelled time and the `(launches, naive_codegen)` it was
    /// estimated for. Neither is part of the fingerprint.
    time: OnceLock<((u32, bool), TimeBreakdown)>,
}

impl Prepared {
    /// Nothing kept yet; its launches count their tapes into `cache`.
    pub(crate) fn new(compiled: CompiledKernel, cache: Option<&KernelCache>) -> Self {
        Self {
            compiled: Arc::new(compiled),
            tape: cache.map_or_else(TapeMemo::default, |c| {
                TapeMemo::counted(Arc::clone(&c.tapes))
            }),
            time: OnceLock::new(),
        }
    }

    pub(crate) fn compiled(&self) -> &Arc<CompiledKernel> {
        &self.compiled
    }

    pub(crate) fn tape(&self) -> &TapeMemo {
        &self.tape
    }

    /// The modelled time for `key = (launches, naive_codegen)`: kept for
    /// the first key asked for, estimated afresh for any other.
    pub(crate) fn time(
        &self,
        key: (u32, bool),
        estimate: impl FnOnce() -> TimeBreakdown,
    ) -> TimeBreakdown {
        if let Some((kept, time)) = self.time.get() {
            if *kept == key {
                return *time;
            }
        }
        let time = estimate();
        let _ = self.time.set((key, time));
        time
    }
}

/// One client's share of a shared cache's hits and misses: a stream
/// passes its own tally to every launch of a run, so concurrent streams
/// on one cache each count only their own lookups. A lookup is counted
/// when it happens, before the launch, so a launch that fails or panics
/// afterwards is still counted.
#[derive(Debug, Default)]
pub struct CacheTally {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheTally {
    pub(crate) fn note(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Lookups counted here that the cache served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups counted here that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

struct Inner {
    map: HashMap<String, (u64, Arc<Prepared>)>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache of compiler artifacts keyed by kernel
/// fingerprint. See the module docs for keying and invalidation semantics.
pub struct KernelCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    poison_recoveries: AtomicU64,
    /// Shared by the tape memos of every entry (and of every bypassing
    /// launch), so evicted entries stay counted.
    tapes: Arc<TapeCounters>,
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("bypasses", &self.bypasses())
            .field("tapes_built", &self.tapes_built())
            .field("tapes_reused", &self.tapes_reused())
            .finish()
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl KernelCache {
    /// A cache retaining at most `capacity` compiled kernels (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            tapes: Arc::default(),
        }
    }

    /// Lock the cache state, recovering from mutex poisoning.
    ///
    /// A panic in one launch thread (a worker assertion, a test
    /// `should_panic`, an injected fault) poisons the mutex for every
    /// *unrelated* subsequent launch; propagating that panic turns one
    /// failure into a process-wide cascade. The inner state is safe to
    /// adopt as-is: every critical section either completes its
    /// `HashMap` operation or panics before mutating (`tick += 1` and
    /// map ops are individually atomic with respect to unwinding), and a
    /// worst-case stale LRU stamp or missing entry only costs a
    /// recompile. The recovery is counted and surfaced as a typed
    /// diagnostic ([`Self::poison_diagnostic`]) instead of a panic.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Canonical cache key for compiling `def` under `spec`.
    ///
    /// The spec's boundary and parameter maps are sorted by name before
    /// rendering: `HashMap`'s iteration (and hence `Debug`) order is
    /// unspecified and varies between separately built maps, which would
    /// otherwise turn identical launches into spurious misses.
    pub fn fingerprint(def: &KernelDef, spec: &CompileSpec) -> String {
        let mut bounds: Vec<_> = spec.boundaries.iter().collect();
        bounds.sort_by(|a, b| a.0.cmp(b.0));
        let mut params: Vec<_> = spec.param_bindings.iter().collect();
        params.sort_by(|a, b| a.0.cmp(b.0));
        let mut key = String::new();
        let _ = write!(
            key,
            "dev={:?}/{:?} geom={}x{}s{} bounds={bounds:?} params={params:?} \
             variant={:?} cmask={} cprop={} unroll={} force={:?} roi={:?} \
             vec={} generic={} opt={} disable={:?} def={def:?}",
            spec.device,
            spec.backend,
            spec.width,
            spec.height,
            spec.stride,
            spec.variant,
            spec.use_const_masks,
            spec.constant_propagation,
            spec.unroll_limit,
            spec.force_config,
            spec.roi,
            spec.vectorize,
            spec.generic_boundary,
            spec.opt_level,
            spec.disabled_passes,
        );
        key
    }

    /// A deep copy of the artifact for `key`, refreshing its LRU stamp.
    /// Counts a hit or a miss, like every lookup. Launches take the
    /// shared entry instead; this copy exists for `benchmark/src/trace.rs`,
    /// which times a lookup from outside, and goes when a `[benchmark]`
    /// PR stops calling it.
    pub fn lookup(&self, key: &str) -> Option<CompiledKernel> {
        self.lookup_prepared(key)
            .map(|prepared| CompiledKernel::clone(prepared.compiled()))
    }

    /// The entry for `key`, refreshing its LRU stamp. Counts a hit or a
    /// miss.
    pub(crate) fn lookup_prepared(&self, key: &str) -> Option<Arc<Prepared>> {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.0 = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.1))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store an artifact under `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&self, key: String, compiled: CompiledKernel) {
        self.insert_prepared(key, Arc::new(Prepared::new(compiled, Some(self))));
    }

    /// Store an entry under `key`, evicting the least-recently-used entry
    /// when the cache is full.
    pub(crate) fn insert_prepared(&self, key: String, prepared: Arc<Prepared>) {
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key, (tick, prepared));
    }

    /// Record a deliberate bypass (e.g. a degraded supervisor rung).
    pub fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative tapes built by launches through the cache, rebuilds
    /// included.
    pub fn tapes_built(&self) -> u64 {
        self.tapes.built()
    }

    /// Cumulative launches through the cache that ran a kept tape.
    pub fn tapes_reused(&self) -> u64 {
        self.tapes.reused()
    }

    /// Cumulative warp programs lowered by launches through the cache.
    pub fn warps_lowered(&self) -> u64 {
        self.tapes.warps_lowered()
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative bypass count.
    pub fn bypasses(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    /// Number of artifacts currently retained.
    pub fn len(&self) -> usize {
        self.lock_inner().map.len()
    }

    /// True when no artifact is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the cache recovered from a poisoned lock (see
    /// [`Self::poison_diagnostic`]).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// The typed diagnostic for poisoned-lock recoveries: `Some` once
    /// any launch thread has panicked while holding the cache lock
    /// (diagnostic code `R0501`), `None` while the cache has only ever
    /// seen clean unlocks. The cache keeps serving either way; this is
    /// the record that a panic happened nearby, not an error.
    pub fn poison_diagnostic(&self) -> Option<hipacc_analysis::Diagnostic> {
        let n = self.poison_recoveries();
        (n > 0).then(|| {
            hipacc_analysis::Diagnostic::warning(
                "R0501",
                "<kernel-cache>",
                format!(
                    "kernel cache recovered from a poisoned lock {n} time(s): \
                     a launch thread panicked while holding it; cached state \
                     was adopted and service continued"
                ),
            )
        })
    }

    /// Run `f` while holding the cache lock. Test seam for poisoning the
    /// mutex (panic inside `f` under `catch_unwind`); not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn with_lock_for_test(&self, f: impl FnOnce()) {
        let _guard = self.lock_inner();
        f();
    }

    /// A report describing `outcome` with the current counters attached.
    pub fn report(&self, outcome: impl Into<String>) -> CacheReport {
        CacheReport {
            outcome: outcome.into(),
            hits: self.hits(),
            misses: self.misses(),
            poison_recoveries: self.poison_recoveries(),
            tape: None,
            tapes_built: self.tapes_built(),
            tapes_reused: self.tapes_reused(),
            warps_lowered: self.warps_lowered(),
        }
    }

    /// [`Self::report`] for a launch that came by its tape as `tape`.
    pub(crate) fn launch_report(&self, outcome: String, tape: TapeReport) -> CacheReport {
        CacheReport {
            tape: Some(tape),
            ..self.report(outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_codegen::{BoundarySpec, Compiler};
    use hipacc_hwmodel::device::tesla_c2050;
    use hipacc_hwmodel::Backend;
    use hipacc_image::BoundaryMode;
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn kernel() -> KernelDef {
        let mut b = KernelBuilder::new("k", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        b.output(b.read(&input, 0, 0) * Expr::float(2.0));
        b.finish()
    }

    fn spec() -> CompileSpec {
        CompileSpec::new(tesla_c2050(), Backend::Cuda, 64, 64)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 3))
    }

    #[test]
    fn fingerprint_is_stable_across_recomputation() {
        let (def, sp) = (kernel(), spec());
        // Build the spec twice: HashMap internals may differ; the key
        // must not.
        assert_eq!(
            KernelCache::fingerprint(&def, &sp),
            KernelCache::fingerprint(&kernel(), &spec())
        );
    }

    #[test]
    fn fingerprint_separates_configs() {
        let def = kernel();
        let a = KernelCache::fingerprint(&def, &spec());
        let mut forced = spec();
        forced.force_config = Some((32, 4));
        let b = KernelCache::fingerprint(&def, &forced);
        assert_ne!(a, b, "force_config must change the key");
    }

    #[test]
    fn hit_returns_identical_artifact() {
        let cache = KernelCache::default();
        let (def, sp) = (kernel(), spec());
        let key = KernelCache::fingerprint(&def, &sp);
        assert!(cache.lookup(&key).is_none());
        let compiled = Compiler::new().compile(&def, &sp).unwrap();
        cache.insert(key.clone(), compiled.clone());
        let cached = cache.lookup(&key).expect("inserted entry");
        assert_eq!(format!("{compiled:?}"), format!("{cached:?}"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = KernelCache::new(2);
        let (def, sp) = (kernel(), spec());
        let compiled = Compiler::new().compile(&def, &sp).unwrap();
        cache.insert("a".into(), compiled.clone());
        cache.insert("b".into(), compiled.clone());
        assert!(cache.lookup("a").is_some()); // refresh a; b is now oldest
        cache.insert("c".into(), compiled);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("b").is_none(), "b was least recently used");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
    }
}
