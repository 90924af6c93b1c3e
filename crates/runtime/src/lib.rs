//! # hipacc-runtime — batched multi-frame streaming
//!
//! Medical-imaging pipelines are rarely single-shot: an angiography
//! sequence is hundreds of frames through the *same* operator chain.
//! This crate adds the streaming tier above the per-launch machinery of
//! `hipacc-core`:
//!
//! * [`Stream`] — an ordered [`Operator`](hipacc_core::Operator) chain
//!   executed as a pipeline: one thread per stage, frames flowing
//!   through bounded [`FrameQueue`]s, producers throttled by
//!   backpressure so the in-flight window (and peak memory) stays
//!   bounded;
//! * a **shared** [`WorkerPool`](hipacc_sim::WorkerPool) — the block
//!   work of all concurrent stage launches is multiplexed over one set
//!   of persistent threads instead of per-launch scoped spawns;
//! * a shared [`KernelCache`](hipacc_core::KernelCache) consulted per
//!   stage, so steady-state frames pay zero compile time;
//! * the launch **supervisor** around every frame×stage launch: a fault
//!   on frame *N* is retried / repaired / degraded (or surfaced and the
//!   frame skipped) without ever stalling frame *N+1*;
//! * the stream-level **resilience governor**: per-stage circuit
//!   breakers that pin chronically degraded stages to their proven rung
//!   (`R0606`, [`governor`]), a watchdog enforcing per-frame and
//!   whole-stream virtual budgets (`R0602` / `R0603`), panic-isolated
//!   stage execution (`R0601`), typed load shedding under backpressure
//!   (`R0604`), and a deterministic [`ReplayBundle`] recorded for every
//!   failed frame so `reproduce --replay` can re-execute the failing
//!   launch standalone ([`replay()`]);
//! * per-stream telemetry ([`StreamReport`]): frames/s, p50/p99 frame
//!   latency, queue high-water marks, cache hit rate, recovery-action
//!   totals, breaker transitions, and trace spans on a per-stream lane
//!   (`tid`) for Chrome-trace export — with the accounting invariant
//!   `frames_in == frames_out + failed + shed` always holding
//!   ([`StreamReport::accounted`]).
//!
//! Determinism: with a fixed engine and seeded fault plans the
//! per-frame outputs **and** governor decisions of [`Stream::run`] are
//! bit-identical to [`Stream::run_sequential`] for **any** worker
//! count, on both engines — the simulator's store commit order is
//! scheduling-invariant, supervision is a deterministic function of the
//! plan, and each stage sees its frames in `seq` order in both modes.
//!
//! Streaming knobs are the fields of [`StreamConfig`]; an unset one takes
//! its default ([`DEFAULT_WORKERS`], [`DEFAULT_QUEUE_CAPACITY`],
//! [`DEFAULT_BREAKER_THRESHOLD`], no deadline). Explicit zeros are
//! rejected up front with `R0605` ([`StreamError::InvalidConfig`]).

pub mod governor;
pub mod metrics;
pub mod queue;
pub mod replay;
pub mod stream;

pub use governor::{BreakerState, BreakerTransition, FrameOutcome, Governor, PinnedRung};
pub use metrics::{
    percentile_us, ActionTotals, FrameFailure, FrameShed, FusionDecision, StreamReport,
};
pub use queue::{Closed, FrameQueue};
pub use replay::{drifting_frame, replay, ReplayBundle, TrailEntry};
pub use stream::{
    Frame, Stage, Stream, StreamConfig, StreamError, StreamRun, DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CLOSE_AFTER, DEFAULT_PROBE_AFTER, DEFAULT_QUEUE_CAPACITY, DEFAULT_WORKERS,
};
