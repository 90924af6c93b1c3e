//! The streaming executor: an ordered operator chain over bounded frame
//! queues, one thread per stage, all block-level work multiplexed over
//! one shared [`WorkerPool`] — wrapped in a stream-level **resilience
//! governor**.
//!
//! A [`Stream`] is a pipeline `producer -> stage 0 -> … -> stage N-1 ->
//! collector` where every arrow is a bounded [`FrameQueue`]. The
//! producer pushes frames with backpressure (a full queue blocks it —
//! or, past [`StreamConfig::shed_after_us`], **sheds** the oldest
//! undispatched frame as a typed `R0604` event), so at most
//! `queue capacity × (stages + 1)` frames are ever in flight. Each
//! stage thread pops a frame, runs its operator under the launch
//! supervisor *inside a panic shield* (`R0601`), and pushes the result
//! downstream; a frame the supervisor cannot recover is recorded as
//! failed and *passed through* — it never stalls the frames behind it.
//! Every frame is accounted for: `frames_in == frames_out + failed +
//! shed`, always.
//!
//! On top of the per-frame supervisor sit three stream-level organs:
//!
//! * the **circuit breaker** ([`crate::governor`]) — a stage that keeps
//!   succeeding only via the degradation ladder is *pinned* to its
//!   proven rung (`R0606`), compiled once, then probed back to health;
//! * the **watchdog** — a per-frame virtual budget
//!   ([`StreamConfig::frame_deadline_us`], `R0602`) and a whole-stream
//!   virtual budget ([`StreamConfig::stream_budget_us`], `R0603`), both
//!   on the supervisor's deterministic virtual clock;
//! * the **replay recorder** ([`mod@crate::replay`]) — every failed frame
//!   leaves a [`ReplayBundle`] from which `reproduce --replay`
//!   re-executes the failing launch standalone and asserts the same
//!   diagnostic code.
//!
//! Steady-state launches are served from the shared [`KernelCache`], so
//! only the first frame of a stage pays the compile + verify cost.
//! Determinism: for a fixed worker count, a fixed engine and a seeded
//! fault plan, the per-frame outputs **and** the governor's decisions
//! are bit-identical to [`Stream::run_sequential`] on every engine —
//! each stage sees its frames in FIFO `seq` order in both modes, the
//! simulator commits stores in linear block order regardless of
//! scheduling, and supervision is a deterministic function of the plan.
//! (Load shedding is the one wall-clock-driven mechanism: the
//! sequential reference never sheds.)

use crate::governor::{variant_label, FrameOutcome, Governor, PinnedRung};
use crate::metrics::{
    percentile_us, ActionTotals, FrameFailure, FrameShed, FusionDecision, StreamReport,
};
use crate::queue::FrameQueue;
use crate::replay::{PinSpec, ReplayBundle, TrailEntry};
use hipacc_core::fusion::{check_chain, fuse_operators};
use hipacc_core::operator::OperatorError;
use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{CacheTally, Engine, FaultPlan, KernelCache, Operator, Target};
use hipacc_image::Image;
use hipacc_profile::{now_us, Span};
use hipacc_sim::WorkerPool;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default worker count when [`StreamConfig::workers`] is `None`.
pub const DEFAULT_WORKERS: usize = 2;

/// Default queue bound when [`StreamConfig::queue_capacity`] is `None`.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4;

/// Default breaker strike threshold (consecutive degraded-success
/// frames before a stage is pinned).
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// Default pinned frames before a half-open probe.
pub const DEFAULT_PROBE_AFTER: u32 = 4;

/// Default consecutive clean probes before the breaker closes.
pub const DEFAULT_CLOSE_AFTER: u32 = 2;

/// A stream run that could not start (diagnostic `R0605`). Per-frame
/// failures never surface here — they are typed events in the
/// [`StreamReport`].
#[derive(Debug)]
pub enum StreamError {
    /// The stream configuration is invalid (`R0605`): a zero worker
    /// count, queue capacity, deadline, budget or breaker knob, or an
    /// empty stage chain.
    InvalidConfig {
        /// What exactly was rejected.
        what: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidConfig { what } => {
                write!(f, "R0605: invalid stream configuration: {what}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

fn invalid(what: impl Into<String>) -> StreamError {
    StreamError::InvalidConfig { what: what.into() }
}

/// Strict check of one `>= 1` knob: an explicit zero (reported as
/// `zero`) is `R0605`; `None` stays `None`.
fn resolve_knob<T: PartialOrd + From<u8>>(
    explicit: Option<T>,
    zero: &str,
) -> Result<Option<T>, StreamError> {
    match explicit {
        Some(n) if n < T::from(1) => Err(invalid(zero)),
        n => Ok(n),
    }
}

/// One input frame, or one fully processed output frame.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Position in the input sequence (0-based). Outputs are returned
    /// sorted by `seq`, failed frames omitted.
    pub seq: u64,
    /// The pixel payload.
    pub image: Image<f32>,
}

/// One stage of the chain: an operator plus the buffer name the
/// incoming frame binds to.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Stage name, used in spans and failure records.
    pub name: String,
    /// Input buffer the frame is bound to (usually `"Input"`).
    pub input: String,
    /// The operator to run.
    pub op: Operator,
}

/// Knobs of one stream run. An unset sizing knob takes its default; the
/// strict `resolve_*` methods reject explicit zeros with `R0605`
/// ([`StreamError::InvalidConfig`]) at construction time, before any
/// thread is spawned.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Worker threads of the shared pool (`None` =
    /// [`DEFAULT_WORKERS`]). Outputs are bit-identical for any value;
    /// fix it for reproducible *timing*.
    pub workers: Option<usize>,
    /// Bound of every inter-stage queue (`None` =
    /// [`DEFAULT_QUEUE_CAPACITY`]).
    pub queue_capacity: Option<usize>,
    /// Engine for every launch (`None` = the default simd engine).
    pub engine: Option<Engine>,
    /// Serve steady-state launches from the stream's kernel cache.
    /// `false` compiles fresh on every frame (the per-frame baseline).
    pub share_cache: bool,
    /// Trace lane (`tid`) for every span this stream records; give
    /// concurrent streams distinct lanes to get one track per stream.
    pub lane: u32,
    /// Retry / repair / degrade policy for every frame launch.
    pub supervisor: SupervisorConfig,
    /// Seeded per-frame fault plans, keyed by frame `seq`. Frames
    /// without an entry run fault-free. Part of the deterministic
    /// replay: the same map drives [`Stream::run_sequential`].
    pub faults: HashMap<u64, FaultPlan>,
    /// Per-frame virtual budget in µs across all stages (`None` =
    /// unbounded). A frame that exhausts it is
    /// failed with `R0602`; the remaining budget also caps every
    /// launch's fault-plan deadline, so a hung stage is cancelled on
    /// the virtual clock instead of wedging its thread.
    pub frame_deadline_us: Option<u64>,
    /// Whole-stream virtual budget in µs (`None` = unbounded). Once the
    /// scheduling-invariant projection exceeds it, further frames fail
    /// with `R0603` instead of launching.
    pub stream_budget_us: Option<u64>,
    /// Circuit-breaker strike threshold (`None` =
    /// [`DEFAULT_BREAKER_THRESHOLD`]): consecutive
    /// degraded-success frames before a stage is pinned (`R0606`).
    pub breaker_threshold: Option<u32>,
    /// Pinned frames before the breaker half-opens and probes the
    /// healthy configuration again.
    pub probe_after: u32,
    /// Consecutive clean probes before the breaker closes.
    pub close_after: u32,
    /// Load shedding: how long (wall µs) the producer may block on a
    /// full queue before shedding the oldest undispatched frame
    /// (`R0604`). `None` = never shed, block forever (the default, and
    /// the only mode [`Stream::run_sequential`] has).
    pub shed_after_us: Option<u64>,
    /// Greedily fuse maximal runs of adjacent stages into single
    /// producer–consumer kernels before the run starts (default
    /// `false`): a stage followed by point consumers becomes one kernel
    /// that hands each value on in a register. Outputs are
    /// bit-identical either way; a stencil consumer starts a new group
    /// (`F0102`), other illegal handoffs (`F0101`, `F0103`, `F0104`)
    /// split the same way, and a group whose fused kernel overflows
    /// device resources (`F0105`) falls back per-stage, with each
    /// decision recorded in [`StreamReport::fusion`]. Applies to
    /// [`Stream::run`] and [`Stream::run_sequential`] alike, so the
    /// sequential reference stays bit-identical under the same config.
    pub fuse: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: None,
            queue_capacity: None,
            engine: None,
            share_cache: true,
            lane: 1,
            supervisor: SupervisorConfig::default(),
            faults: HashMap::new(),
            frame_deadline_us: None,
            stream_budget_us: None,
            breaker_threshold: None,
            probe_after: DEFAULT_PROBE_AFTER,
            close_after: DEFAULT_CLOSE_AFTER,
            shed_after_us: None,
            fuse: false,
        }
    }
}

impl StreamConfig {
    /// Strict worker count: an explicit `Some(0)` is rejected with
    /// `R0605`.
    pub fn resolve_workers(&self) -> Result<usize, StreamError> {
        let n = resolve_knob(self.workers, "workers must be >= 1")?;
        Ok(n.unwrap_or(DEFAULT_WORKERS))
    }

    /// Strict queue bound: an explicit zero is `R0605`.
    pub fn resolve_queue_capacity(&self) -> Result<usize, StreamError> {
        let n = resolve_knob(self.queue_capacity, "queue capacity must be >= 1")?;
        Ok(n.unwrap_or(DEFAULT_QUEUE_CAPACITY))
    }

    /// Strict per-frame deadline budget: `None` means unbounded, but an
    /// explicit zero is `R0605`.
    pub fn resolve_frame_deadline(&self) -> Result<Option<u64>, StreamError> {
        resolve_knob(
            self.frame_deadline_us,
            "frame deadline must be >= 1 virtual us",
        )
    }

    /// Strict breaker threshold: an explicit zero is `R0605`.
    pub fn resolve_breaker_threshold(&self) -> Result<u32, StreamError> {
        let n = resolve_knob(self.breaker_threshold, "breaker threshold must be >= 1")?;
        Ok(n.unwrap_or(DEFAULT_BREAKER_THRESHOLD))
    }

    /// Validate every knob at construction time; the first offending
    /// one is reported as `R0605`. [`Stream::run`] and
    /// [`Stream::run_sequential`] call this before spawning anything.
    pub fn validate(&self) -> Result<(), StreamError> {
        self.resolve_workers()?;
        self.resolve_queue_capacity()?;
        self.resolve_frame_deadline()?;
        self.resolve_breaker_threshold()?;
        if self.stream_budget_us == Some(0) {
            return Err(invalid("stream budget must be >= 1 virtual us"));
        }
        if self.probe_after == 0 {
            return Err(invalid("probe_after must be >= 1"));
        }
        if self.close_after == 0 {
            return Err(invalid("close_after must be >= 1"));
        }
        Ok(())
    }
}

/// Watchdog budgets and pool sizing resolved once per run.
#[derive(Copy, Clone)]
struct Budgets {
    /// Per-frame virtual budget (`R0602`).
    frame_us: Option<u64>,
    /// Whole-stream virtual budget (`R0603`).
    stream_us: Option<u64>,
    /// Worker-pool size, recorded into replay bundles (the virtual
    /// clock depends on it).
    workers: usize,
}

/// What [`Stream::run`] and [`Stream::run_sequential`] resolve before the
/// first frame and every stage launch of the run then shares.
struct RunCtx {
    engine: Engine,
    /// The planned chain (fused groups replaced by one stage each), each
    /// operator already set to the run's engine, cache and pool.
    stages: Vec<Stage>,
    fusion: Vec<FusionDecision>,
    /// The configured worker count; the pool may be a shared one of
    /// another width.
    workers: usize,
    gov: Governor,
    budgets: Budgets,
    frames_in: usize,
    /// This run's own cache hits and misses, counted by its launches.
    cache_tally: CacheTally,
}

/// A frame travelling through the pipeline.
struct InFlight {
    seq: u64,
    image: Image<f32>,
    /// Input dimensions at the producer, recorded for replay bundles.
    width: u32,
    height: u32,
    enqueued_us: u64,
    done_us: u64,
    failed: Option<FrameFailure>,
    recovered: bool,
    /// Virtual µs this frame has spent across its stages so far.
    spent_us: u64,
    /// Scheduling-invariant whole-stream clock: after stage `s` this is
    /// the rectangle sum Σ_{s'≤s} Σ_{f'≤seq} virtual_us(f', s') — the
    /// same in pipelined and sequential execution, because each stage
    /// processes frames in `seq` order in both.
    carried_us: u64,
    /// Supervisor action totals accumulated across this frame's stages.
    actions: ActionTotals,
    /// Stages completed so far, with the pins and deadlines they ran
    /// under — the replay trail.
    trail: Vec<TrailEntry>,
    /// The replay bundle, recorded at the moment of failure.
    replay: Option<ReplayBundle>,
    spans: Vec<Span>,
}

impl InFlight {
    fn new(seq: u64, image: Image<f32>) -> Self {
        let (width, height) = (image.width(), image.height());
        Self {
            seq,
            image,
            width,
            height,
            enqueued_us: now_us(),
            done_us: 0,
            failed: None,
            recovered: false,
            spent_us: 0,
            carried_us: 0,
            actions: ActionTotals::default(),
            trail: Vec::new(),
            replay: None,
            spans: Vec::new(),
        }
    }
}

/// The outputs and telemetry of one stream run.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// Completed frames, sorted by `seq`; failed frames are absent (and
    /// listed in `report.failed`).
    pub outputs: Vec<Frame>,
    /// Throughput, latency, queue, cache and resilience telemetry.
    pub report: StreamReport,
}

/// An operator chain executing frames in a streaming pipeline.
pub struct Stream {
    /// Stream name (labels the report and the trace lane).
    pub name: String,
    /// Run knobs.
    pub config: StreamConfig,
    target: Target,
    stages: Vec<Stage>,
    cache: Arc<KernelCache>,
    /// The pool shared through [`Self::with_shared`].
    pool: Option<Arc<WorkerPool>>,
    /// The stream's own pool when none is shared (see `Stream::own_pool`).
    own_pool: Mutex<Option<Arc<WorkerPool>>>,
}

impl Stream {
    /// An empty stream; add stages with [`Self::stage`].
    pub fn new(name: impl Into<String>, target: Target) -> Self {
        Self {
            name: name.into(),
            config: StreamConfig::default(),
            target,
            stages: Vec::new(),
            cache: Arc::new(KernelCache::default()),
            pool: None,
            own_pool: Mutex::new(None),
        }
    }

    /// Append a stage whose frame binds to the conventional `"Input"`
    /// buffer.
    pub fn stage(self, name: impl Into<String>, op: Operator) -> Self {
        self.stage_bound(name, "Input", op)
    }

    /// Append a stage with an explicit input-buffer binding.
    pub fn stage_bound(
        mut self,
        name: impl Into<String>,
        input: impl Into<String>,
        op: Operator,
    ) -> Self {
        self.stages.push(Stage {
            name: name.into(),
            input: input.into(),
            op,
        });
        self
    }

    /// Replace the run configuration.
    pub fn with_config(mut self, config: StreamConfig) -> Self {
        self.config = config;
        self
    }

    /// Share a kernel cache and worker pool with other streams.
    /// Concurrent streams then multiplex their block work over one set
    /// of persistent threads and reuse each other's compiled kernels.
    pub fn with_shared(mut self, cache: Arc<KernelCache>, pool: Arc<WorkerPool>) -> Self {
        self.cache = cache;
        self.pool = Some(pool);
        self
    }

    /// The stream's kernel cache (shared or private).
    pub fn cache(&self) -> &Arc<KernelCache> {
        &self.cache
    }

    /// The stage chain (for [`crate::replay::replay`] round trips).
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Stage names in chain order.
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.name.clone()).collect()
    }

    /// The fusion planner: greedily grow maximal runs of adjacent
    /// fusable stages and replace each run with one fused stage (named
    /// `a+b+...`). A run ends wherever [`check_chain`] objects — at the
    /// latest before the next stencil consumer (`F0102`). A candidate
    /// fused kernel is pre-flight compiled at `probe` geometry; if it
    /// overflows device resources the group falls back per-stage with
    /// an `F0105` decision. With `fuse` off (the default) the chain is
    /// returned untouched.
    fn plan_stages(&self, probe: Option<(u32, u32)>) -> (Vec<Stage>, Vec<FusionDecision>) {
        if !self.config.fuse || self.stages.len() < 2 {
            return (self.stages.clone(), Vec::new());
        }
        let mut planned = Vec::new();
        let mut decisions = Vec::new();
        let mut i = 0;
        while i < self.stages.len() {
            // Grow [i, j): the longest legal group starting at stage i.
            let mut j = i + 1;
            while j < self.stages.len() {
                let next = &self.stages[j];
                // The handoff must be the consumed buffer: a stage
                // whose frame binds to anything but its single
                // accessor cannot take the producer's output in-kernel.
                let binding_ok =
                    next.op.def.accessors.len() == 1 && next.input == next.op.def.accessors[0].name;
                if !binding_ok {
                    decisions.push(FusionDecision {
                        stages: vec![self.stages[j - 1].name.clone(), next.name.clone()],
                        fused: false,
                        code: Some("F0103".into()),
                        detail: format!(
                            "stage `{}` binds `{}`, not its single accessor",
                            next.name, next.input
                        ),
                    });
                    break;
                }
                let ops: Vec<&Operator> = self.stages[i..=j].iter().map(|s| &s.op).collect();
                let diags = check_chain(&ops);
                if !diags.is_empty() {
                    decisions.push(FusionDecision {
                        stages: vec![self.stages[j - 1].name.clone(), next.name.clone()],
                        fused: false,
                        code: diags.first().map(|d| d.code.to_string()),
                        detail: diags
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join("; "),
                    });
                    break;
                }
                j += 1;
            }
            if j - i >= 2 {
                let group = &self.stages[i..j];
                let names: Vec<String> = group.iter().map(|s| s.name.clone()).collect();
                let ops: Vec<&Operator> = group.iter().map(|s| &s.op).collect();
                // check_chain passed for the whole run, so this is
                // structural bookkeeping, not a legality question.
                let mut fused_op = fuse_operators(&ops).expect("checked chain must compose");
                // Pre-flight resource probe at the run's frame
                // geometry: a fused kernel whose merged stages overflow
                // this device's resources falls back per-stage. It
                // compiles through the stream's cache, so the entry is
                // warm for the first launch and a later run recompiles
                // nothing.
                fused_op.options.cache = self.config.share_cache.then(|| Arc::clone(&self.cache));
                let overflow =
                    probe.and_then(|(w, h)| match fused_op.compile_cached(&self.target, w, h) {
                        Err(OperatorError::Compile(e)) if e.is_resource_limit() => {
                            Some(e.to_string())
                        }
                        _ => None,
                    });
                match overflow {
                    Some(why) => {
                        decisions.push(FusionDecision {
                            stages: names,
                            fused: false,
                            code: Some("F0105".into()),
                            detail: format!(
                                "fused compile exceeded device resources, running per-stage: {why}"
                            ),
                        });
                        planned.extend(group.iter().cloned());
                    }
                    None => {
                        decisions.push(FusionDecision {
                            stages: names.clone(),
                            fused: true,
                            code: None,
                            detail: format!("{} stage(s) fused", names.len()),
                        });
                        planned.push(Stage {
                            name: names.join("+"),
                            input: group[0].input.clone(),
                            op: fused_op,
                        });
                    }
                }
            } else {
                planned.push(self.stages[i].clone());
            }
            i = j;
        }
        (planned, decisions)
    }

    /// Run one stage's operator on one frame under the supervisor,
    /// governed by the breaker and the watchdog, inside a panic shield.
    #[allow(clippy::result_large_err)] // the supervised closure's Err carries the full report
    fn process_stage(&self, ctx: &RunCtx, idx: usize, col_us: &mut u64, frame: &mut InFlight) {
        let (stage, engine, gov, budgets) = (&ctx.stages[idx], ctx.engine, &ctx.gov, &ctx.budgets);
        let start = now_us();
        let seq = frame.seq;
        let spent_before = frame.spent_us;
        let stage_plan = gov.plan(idx);
        let pinned_spec = stage_plan.pinned.as_ref().map(|p| PinSpec {
            rung: p.rung.clone(),
            variant: variant_label(p.variant).to_string(),
            force_config: p.force_config,
        });
        let base_plan = self
            .config
            .faults
            .get(&seq)
            .cloned()
            .unwrap_or_else(FaultPlan::none);
        let span = |outcome: &str, detail: String| {
            Span::new(
                format!("{}:{seq}", stage.name),
                "stream",
                start,
                now_us().saturating_sub(start).max(1),
            )
            .lane(self.config.lane)
            .arg("stream", self.name.clone())
            .arg("seq", seq.to_string())
            .arg(outcome, detail)
        };
        // Mark the frame failed with a typed diagnostic, tell the breaker
        // and record the replay bundle. The frame keeps flowing so later
        // frames are never stalled.
        let fail = |frame: &mut InFlight,
                    code: &str,
                    error: String,
                    rung: String,
                    attempt: u32,
                    deadline_us: Option<u64>,
                    stream_check: Option<(u64, u64)>| {
            frame.spans.push(span("failed", error.clone()));
            gov.record(idx, &stage.name, seq, FrameOutcome::Failed);
            frame.failed = Some(FrameFailure {
                seq,
                stage: stage.name.clone(),
                code: code.to_string(),
                error,
            });
            frame.replay = Some(ReplayBundle {
                stream: self.name.clone(),
                seq,
                stage: stage.name.clone(),
                stage_index: idx,
                engine: engine.label().to_string(),
                opt_level: stage.op.options.opt_level,
                rung,
                attempt,
                pinned: pinned_spec.clone(),
                deadline_us,
                frame_budget_us: budgets.frame_us,
                spent_before_us: spent_before,
                stream_check,
                fault: base_plan.clone(),
                max_attempts: self.config.supervisor.max_attempts,
                backoff_base_us: self.config.supervisor.backoff_base_us,
                fallback: self.config.supervisor.fallback,
                workers: budgets.workers,
                width: frame.width,
                height: frame.height,
                trail: frame.trail.clone(),
                expected_code: code.to_string(),
            });
        };
        let final_rung = |report: &hipacc_core::RecoveryReport| {
            report
                .final_rung()
                .map_or_else(|| "initial".to_string(), |r| r.rung.clone())
        };

        // Watchdog, frame budget: a frame that arrives with nothing
        // left is failed without launching.
        let remaining = match budgets.frame_us {
            Some(budget) if frame.spent_us >= budget => {
                let error = format!(
                    "R0602: frame budget {budget}us exhausted before stage `{}` (spent {}us)",
                    stage.name, frame.spent_us
                );
                fail(frame, "R0602", error, "initial".into(), 0, None, None);
                return;
            }
            Some(budget) => Some(budget - frame.spent_us),
            None => None,
        };

        // Watchdog, whole-stream budget: the scheduling-invariant
        // projection (carried rectangle sum, see [`InFlight`]) must
        // stay inside the budget *before* the launch is paid for.
        if let Some(budget) = budgets.stream_us {
            let projected = frame.carried_us + *col_us;
            if projected > budget {
                let error = format!(
                    "R0603: stream budget {budget}us would be exceeded at stage `{}` \
                     (projected {projected}us)",
                    stage.name
                );
                let check = Some((projected, budget));
                fail(frame, "R0603", error, "initial".into(), 0, None, check);
                return;
            }
        }

        // The effective launch deadline: the plan's own, capped by what
        // is left of the frame budget — a hung stage is cancelled on
        // the virtual clock, never left to wedge its thread.
        let mut plan = base_plan.clone();
        plan.deadline_us = match (plan.deadline_us, remaining) {
            (Some(d), Some(r)) => Some(d.min(r)),
            (Some(d), None) => Some(d),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        };
        let effective_deadline = plan.deadline_us;

        let mut sup_cfg = self.config.supervisor.clone();
        let pinned_op;
        let op = match &stage_plan.pinned {
            None => &stage.op,
            Some(pin) => {
                // Breaker open: run the proven rung as the *initial* (and
                // only) configuration. The retry/degradation ladder is
                // bypassed, and the pinned rung is now cache-served — it
                // recompiles exactly once.
                let mut op = stage.op.clone();
                op.options.variant = pin.variant;
                op.options.force_config = pin.force_config;
                sup_cfg.max_attempts = 1;
                sup_cfg.fallback = false;
                pinned_op = op;
                &pinned_op
            }
        };

        // Panic isolation: an injected (or real) worker panic unwinds
        // through the launch into this shield; the frame becomes a
        // typed R0601 failure and the stage thread keeps draining.
        let result = catch_unwind(AssertUnwindSafe(|| {
            op.execute_supervised_tallied(
                &[(stage.input.as_str(), &frame.image)],
                &self.target,
                engine,
                &plan,
                &sup_cfg,
                &ctx.cache_tally,
            )
        }));

        match result {
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                let error = format!(
                    "R0601: stage worker panic contained at `{}`: {what}",
                    stage.name
                );
                let rung = "initial".into();
                fail(frame, "R0601", error, rung, 1, effective_deadline, None);
            }
            Ok(Err(e)) => {
                frame.actions.absorb(&e.report);
                frame.spent_us = frame.spent_us.saturating_add(e.report.virtual_us);
                let (code, rung) = (e.error.diagnostic().code, final_rung(&e.report));
                let attempts = e.report.attempts;
                fail(
                    frame,
                    code,
                    e.to_string(),
                    rung,
                    attempts,
                    effective_deadline,
                    None,
                );
            }
            Ok(Ok(sup)) => {
                frame.actions.absorb(&sup.recovery);
                frame.spent_us = frame.spent_us.saturating_add(sup.recovery.virtual_us);
                // Watchdog, frame budget, post-launch: the launch ran
                // but cost more virtual time than the frame had left.
                if let Some(budget) = budgets.frame_us {
                    if frame.spent_us > budget {
                        let error = format!(
                            "R0602: frame budget {budget}us exceeded at stage `{}` \
                             (spent {}us)",
                            stage.name, frame.spent_us
                        );
                        let (rung, attempts) = (final_rung(&sup.recovery), sup.recovery.attempts);
                        fail(
                            frame,
                            "R0602",
                            error,
                            rung,
                            attempts,
                            effective_deadline,
                            None,
                        );
                        return;
                    }
                }
                // Success: advance the stream clock and the breaker.
                *col_us = col_us.saturating_add(sup.recovery.virtual_us);
                frame.carried_us = frame.carried_us.saturating_add(*col_us);
                let outcome = if sup.recovery.degraded_success() {
                    let r = sup
                        .recovery
                        .final_rung()
                        .expect("degraded success has a rung");
                    FrameOutcome::DegradedSuccess(PinnedRung {
                        rung: r.rung.clone(),
                        variant: r.variant,
                        force_config: r.force_config,
                    })
                } else {
                    FrameOutcome::Clean
                };
                gov.record(idx, &stage.name, seq, outcome);
                if sup.recovery.recovered() {
                    frame.recovered = true;
                }
                let cache_outcome = sup.cache.map_or_else(|| "uncached".into(), |c| c.outcome);
                frame.spans.push(span("cache", cache_outcome));
                frame.trail.push(TrailEntry {
                    stage: stage.name.clone(),
                    pinned: pinned_spec,
                    deadline_us: effective_deadline,
                });
                frame.image = sup.execution.output;
            }
        }
    }

    /// Validate the configuration, plan the chain and build what every
    /// launch of one run shares. Fails only on an invalid configuration
    /// (`R0605`).
    fn begin(&self, frames: &[Image<f32>]) -> Result<RunCtx, StreamError> {
        self.config.validate()?;
        let engine = self.config.engine.unwrap_or_default();
        if self.stages.is_empty() {
            return Err(invalid("stream has no stages"));
        }
        let (mut stages, fusion) =
            self.plan_stages(frames.first().map(|f| (f.width(), f.height())));
        let workers = self.config.resolve_workers()?;
        let pool = match &self.pool {
            Some(shared) => Arc::clone(shared),
            None => self.own_pool(workers),
        };
        let cache = self.config.share_cache.then(|| Arc::clone(&self.cache));
        for stage in &mut stages {
            let options = &mut stage.op.options;
            options.engine = Some(engine);
            options.cache = cache.clone();
            options.pool = Some(Arc::clone(&pool));
        }
        Ok(RunCtx {
            budgets: Budgets {
                frame_us: self.config.resolve_frame_deadline()?,
                stream_us: self.config.stream_budget_us,
                // A shared pool's real size wins over the config: the
                // virtual clock follows the threads that actually run
                // the blocks.
                workers: pool.workers(),
            },
            gov: Governor::new(
                stages.len(),
                self.config.resolve_breaker_threshold()?,
                self.config.probe_after,
                self.config.close_after,
            ),
            frames_in: frames.len(),
            cache_tally: CacheTally::default(),
            engine,
            stages,
            fusion,
            workers,
        })
    }

    /// The stream's own pool of `workers` threads, kept across runs: a
    /// cached tape runs on the pool it was built for, so a pool per run
    /// would make every run rebuild every tape. Replaced when the worker
    /// count changes.
    fn own_pool(&self, workers: usize) -> Arc<WorkerPool> {
        // Every update below leaves the slot holding a valid pool or
        // nothing, so a poisoned lock is adopted as-is.
        let mut own = self.own_pool.lock().unwrap_or_else(PoisonError::into_inner);
        match own.as_ref() {
            Some(pool) if pool.workers() == workers => Arc::clone(pool),
            _ => Arc::clone(own.insert(Arc::new(WorkerPool::new(workers)))),
        }
    }

    /// Run the chain over `frames` as a streaming pipeline: one thread
    /// per stage, bounded queues between them, block work multiplexed
    /// over the shared pool, all under the resilience governor. Fails
    /// only on an invalid configuration (`R0605`); per-frame failures,
    /// sheds and breaker transitions are typed events in the report
    /// instead.
    pub fn run(&self, frames: Vec<Image<f32>>) -> Result<StreamRun, StreamError> {
        let ctx = self.begin(&frames)?;
        let n_stages = ctx.stages.len();
        let cap = self.config.resolve_queue_capacity()?;
        let shed_after = self.config.shed_after_us;

        let queues: Vec<FrameQueue<InFlight>> =
            (0..=n_stages).map(|_| FrameQueue::new(cap)).collect();
        let mut collected: Vec<InFlight> = Vec::with_capacity(ctx.frames_in);
        let mut shed_seqs: Vec<u64> = Vec::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let (queues, ctx) = (&queues, &ctx);
            let producer = scope.spawn(move || {
                let mut shed: Vec<u64> = Vec::new();
                for (seq, image) in frames.into_iter().enumerate() {
                    let frame = InFlight::new(seq as u64, image);
                    match shed_after {
                        None => {
                            if queues[0].push(frame).is_err() {
                                break;
                            }
                        }
                        Some(budget_us) => {
                            match queues[0].push_shedding(frame, Duration::from_micros(budget_us)) {
                                Ok(dropped) => shed.extend(dropped.into_iter().map(|f| f.seq)),
                                Err(_) => break,
                            }
                        }
                    }
                }
                queues[0].close();
                shed
            });
            for idx in 0..n_stages {
                scope.spawn(move || {
                    // The stage's column of the stream-clock rectangle
                    // sum; owned by this thread, advanced in seq order.
                    let mut col_us: u64 = 0;
                    while let Some(mut frame) = queues[idx].pop() {
                        if frame.failed.is_none() {
                            self.process_stage(ctx, idx, &mut col_us, &mut frame);
                        }
                        if queues[idx + 1].push(frame).is_err() {
                            break;
                        }
                    }
                    queues[idx + 1].close();
                });
            }
            // The collector runs on the calling thread.
            while let Some(mut frame) = queues[n_stages].pop() {
                frame.done_us = now_us();
                collected.push(frame);
            }
            shed_seqs = producer.join().expect("producer thread");
        });
        let wall_us = (t0.elapsed().as_micros() as u64).max(1);
        let queue_max_depths = queues.iter().map(|q| q.max_depth()).collect();
        let workers = ctx.workers;
        Ok(self.assemble(
            ctx,
            (workers, cap),
            wall_us,
            queue_max_depths,
            shed_seqs,
            collected,
        ))
    }

    /// The sequential reference: the same per-frame supervised launches
    /// in `seq` order on the calling thread, no queues, no shedding.
    /// With the same config (engine, fault plans, budgets, breaker
    /// knobs) its per-frame outputs **and** governor decisions are
    /// bit-identical to [`Self::run`]: block work runs over a pool of
    /// the *same* worker count, so the virtual clock — and therefore
    /// every watchdog and breaker decision — agrees exactly.
    pub fn run_sequential(&self, frames: Vec<Image<f32>>) -> Result<StreamRun, StreamError> {
        let ctx = self.begin(&frames)?;
        let t0 = Instant::now();
        let mut cols = vec![0u64; ctx.stages.len()];
        let mut collected: Vec<InFlight> = Vec::with_capacity(ctx.frames_in);
        for (seq, image) in frames.into_iter().enumerate() {
            let mut frame = InFlight::new(seq as u64, image);
            for (idx, col_us) in cols.iter_mut().enumerate() {
                if frame.failed.is_some() {
                    break;
                }
                self.process_stage(&ctx, idx, col_us, &mut frame);
            }
            frame.done_us = now_us();
            collected.push(frame);
        }
        let wall_us = (t0.elapsed().as_micros() as u64).max(1);
        Ok(self.assemble(ctx, (1, 0), wall_us, Vec::new(), Vec::new(), collected))
    }

    /// Fold the collected frames into outputs plus a [`StreamReport`];
    /// `sizing` is the reported `(workers, queue capacity)`.
    fn assemble(
        &self,
        ctx: RunCtx,
        (workers, queue_capacity): (usize, usize),
        wall_us: u64,
        queue_max_depths: Vec<usize>,
        mut shed_seqs: Vec<u64>,
        mut collected: Vec<InFlight>,
    ) -> StreamRun {
        collected.sort_by_key(|f| f.seq);
        shed_seqs.sort_unstable();
        let shed: Vec<FrameShed> = shed_seqs
            .into_iter()
            .map(|seq| FrameShed {
                seq,
                code: "R0604".into(),
            })
            .collect();
        let mut latencies: Vec<u64> = collected
            .iter()
            .filter(|f| f.failed.is_none())
            .map(|f| f.done_us.saturating_sub(f.enqueued_us))
            .collect();
        latencies.sort_unstable();
        let failed: Vec<FrameFailure> = collected.iter().filter_map(|f| f.failed.clone()).collect();
        // A frame that was recovered at one stage but failed at a later
        // one is counted once, in `failed` — never double-counted here.
        let recovered_frames = collected
            .iter()
            .filter(|f| f.recovered && f.failed.is_none())
            .count();
        let mut actions = ActionTotals::default();
        for f in &collected {
            let a = f.actions;
            actions.completed += a.completed;
            actions.repaired += a.repaired;
            actions.retried += a.retried;
            actions.degraded += a.degraded;
            actions.surfaced += a.surfaced;
        }
        let replay: Vec<ReplayBundle> = collected.iter().filter_map(|f| f.replay.clone()).collect();
        let spans: Vec<Span> = collected
            .iter()
            .flat_map(|f| f.spans.iter().cloned())
            .collect();
        let outputs: Vec<Frame> = collected
            .into_iter()
            .filter(|f| f.failed.is_none())
            .map(|f| Frame {
                seq: f.seq,
                image: f.image,
            })
            .collect();
        let (hits, misses) = (ctx.cache_tally.hits(), ctx.cache_tally.misses());
        let traffic = hits + misses;
        let report = StreamReport {
            stream: self.name.clone(),
            stages: ctx.stages.into_iter().map(|s| s.name).collect(),
            fusion: ctx.fusion,
            engine: ctx.engine.label().to_string(),
            workers,
            queue_capacity,
            frames_in: ctx.frames_in,
            frames_out: outputs.len(),
            failed,
            shed,
            recovered_frames,
            actions,
            breaker_transitions: ctx.gov.transitions(),
            replay,
            wall_us,
            frames_per_sec: outputs.len() as f64 / (wall_us as f64 / 1e6),
            latency_p50_us: percentile_us(&latencies, 0.50),
            latency_p99_us: percentile_us(&latencies, 0.99),
            queue_max_depths,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if traffic > 0 {
                hits as f64 / traffic as f64
            } else {
                0.0
            },
            lane: self.config.lane,
            spans,
        };
        StreamRun { outputs, report }
    }
}
