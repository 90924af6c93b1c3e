//! The stream resilience governor: per-stage circuit breakers.
//!
//! The launch supervisor (`hipacc_core::supervisor`) recovers one frame
//! at a time: retry, repair, degrade — and pays that cost again on the
//! next frame. Under streaming, a *persistently* failing configuration
//! (a device that can no longer sustain the scratchpad tile, say) makes
//! every frame re-walk the same ladder to the same verdict. The governor
//! remembers the verdict: a per-stage **circuit breaker** counts frames
//! that succeeded only via degradation and, once the count crosses the
//! configured threshold, **opens** — pinning the stage to the proven
//! degraded rung. Pinned frames compile that rung once (it becomes the
//! cache-served `initial` rung) and run with the retry/degradation
//! ladder bypassed. After `probe_after` pinned frames the breaker goes
//! **half-open** and probes with the healthy configuration; `close_after`
//! consecutive clean probes close it again (both counts are arguments of
//! [`Governor::new`]), while a dirty probe re-opens it on the same pinned
//! rung.
//!
//! ```text
//!             strikes >= threshold                probe_after frames
//!  Closed ───────────────────────────▶ Open ─────────────────────────▶ HalfOpen
//!    ▲                                  ▲                                 │
//!    │      close_after clean probes    │        dirty probe              │
//!    └──────────────────────────────────┼─────────────────────────────────┘
//!                                       └──────────────(re-pin)
//! ```
//!
//! Every state change is recorded as a [`BreakerTransition`] (diagnostic
//! `R0606` when the breaker opens) into the [`crate::StreamReport`].
//!
//! **Determinism.** Each stage's breaker sees its frames in `seq` order
//! — the pipelined run has exactly one thread per stage and FIFO queues,
//! the sequential reference trivially so — and every input to a
//! transition (degraded-or-not, the final rung) is itself a
//! deterministic function of the fault plan. Breaker behaviour is
//! therefore bit-identical between [`crate::Stream::run`] and
//! [`crate::Stream::run_sequential`].

use hipacc_codegen::MemVariant;
use std::sync::Mutex;

/// The three positions of a stage's circuit breaker.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: frames run the requested configuration under the full
    /// supervisor ladder.
    Closed,
    /// Tripped: frames run the pinned degraded rung, ladder bypassed.
    Open,
    /// Probing: frames run the healthy configuration again; clean
    /// probes close the breaker, a dirty one re-opens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// The degraded configuration rung a breaker pins a stage to — the
/// supervisor's proven [`final_rung`](hipacc_core::RecoveryReport::final_rung)
/// re-applied as the stage's requested options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinnedRung {
    /// Ladder label of the rung (`scratchpad->global`, `tile 64x1`, …).
    pub rung: String,
    /// Memory variant of the rung.
    pub variant: MemVariant,
    /// Forced launch configuration of the rung.
    pub force_config: Option<(u32, u32)>,
}

/// One recorded breaker state change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Index of the stage in the chain.
    pub stage_index: usize,
    /// Name of the stage.
    pub stage: String,
    /// Frame whose outcome triggered the transition.
    pub seq: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Why (mentions `R0606` when the breaker opens).
    pub detail: String,
}

impl std::fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "breaker `{}` {} -> {} at frame {}: {}",
            self.stage, self.from, self.to, self.seq, self.detail
        )
    }
}

/// What a stage should do with the next frame, per its breaker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePlan {
    /// Run with these pinned options and the ladder bypassed
    /// (`None` = the stage's own requested configuration).
    pub pinned: Option<PinnedRung>,
    /// Whether this frame is a half-open probe.
    pub probe: bool,
}

/// How one frame×stage execution ended, as the breaker sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Succeeded on the requested (or pinned) configuration directly.
    Clean,
    /// Succeeded, but only after the ladder degraded to `rung`.
    DegradedSuccess(PinnedRung),
    /// The frame failed at this stage.
    Failed,
}

struct StageBreaker {
    state: BreakerState,
    /// Consecutive degraded-success frames while closed.
    strikes: u32,
    pinned: Option<PinnedRung>,
    /// Frames executed while open (towards `probe_after`).
    open_frames: u32,
    /// Consecutive clean half-open probes (towards `close_after`).
    clean_probes: u32,
}

impl StageBreaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            strikes: 0,
            pinned: None,
            open_frames: 0,
            clean_probes: 0,
        }
    }
}

/// Per-stage circuit breakers plus the transition log of one stream run.
/// See the [module docs](self) for the state machine.
pub struct Governor {
    threshold: u32,
    probe_after: u32,
    close_after: u32,
    stages: Vec<Mutex<StageBreaker>>,
    transitions: Mutex<Vec<BreakerTransition>>,
}

impl Governor {
    /// A governor for `n_stages` breakers, all closed.
    ///
    /// `threshold` consecutive degraded-success frames open a breaker;
    /// after `probe_after` pinned frames it half-opens; `close_after`
    /// consecutive clean probes close it. All three must be ≥ 1
    /// (validated by [`crate::StreamConfig::validate`]).
    pub fn new(n_stages: usize, threshold: u32, probe_after: u32, close_after: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            probe_after: probe_after.max(1),
            close_after: close_after.max(1),
            stages: (0..n_stages)
                .map(|_| Mutex::new(StageBreaker::new()))
                .collect(),
            transitions: Mutex::new(Vec::new()),
        }
    }

    fn lock_stage(&self, idx: usize) -> std::sync::MutexGuard<'_, StageBreaker> {
        self.stages[idx]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The plan for the next frame of stage `idx`.
    pub fn plan(&self, idx: usize) -> StagePlan {
        let b = self.lock_stage(idx);
        match b.state {
            BreakerState::Closed => StagePlan {
                pinned: None,
                probe: false,
            },
            BreakerState::Open => StagePlan {
                pinned: b.pinned.clone(),
                probe: false,
            },
            BreakerState::HalfOpen => StagePlan {
                pinned: None,
                probe: true,
            },
        }
    }

    /// Record how the frame the last [`Self::plan`] planned for actually
    /// ended, advancing the breaker's state machine.
    pub fn record(&self, idx: usize, stage: &str, seq: u64, outcome: FrameOutcome) {
        let mut b = self.lock_stage(idx);
        let from = b.state;
        match b.state {
            BreakerState::Closed => match outcome {
                FrameOutcome::Clean => b.strikes = 0,
                FrameOutcome::DegradedSuccess(rung) => {
                    b.strikes += 1;
                    if b.strikes >= self.threshold {
                        b.state = BreakerState::Open;
                        b.open_frames = 0;
                        b.clean_probes = 0;
                        let detail = format!(
                            "R0606: pinned rung `{}` after {} degraded frame(s)",
                            rung.rung, b.strikes
                        );
                        b.pinned = Some(rung);
                        drop(b);
                        self.note(idx, stage, seq, from, BreakerState::Open, detail);
                    } else {
                        b.pinned = Some(rung);
                    }
                }
                // A failed frame proves no rung; it neither strikes nor
                // absolves the configuration.
                FrameOutcome::Failed => {}
            },
            BreakerState::Open => {
                b.open_frames += 1;
                if b.open_frames >= self.probe_after {
                    b.state = BreakerState::HalfOpen;
                    b.clean_probes = 0;
                    let detail = format!(
                        "probing healthy config after {} pinned frame(s)",
                        b.open_frames
                    );
                    drop(b);
                    self.note(idx, stage, seq, from, BreakerState::HalfOpen, detail);
                }
            }
            BreakerState::HalfOpen => match outcome {
                FrameOutcome::Clean => {
                    b.clean_probes += 1;
                    if b.clean_probes >= self.close_after {
                        b.state = BreakerState::Closed;
                        b.strikes = 0;
                        b.pinned = None;
                        let detail = format!(
                            "healthy config restored after {} clean probe(s)",
                            b.clean_probes
                        );
                        drop(b);
                        self.note(idx, stage, seq, from, BreakerState::Closed, detail);
                    }
                }
                FrameOutcome::DegradedSuccess(rung) => {
                    b.state = BreakerState::Open;
                    b.open_frames = 0;
                    let detail = format!("dirty probe -> re-pinned rung `{}`", rung.rung);
                    b.pinned = Some(rung);
                    drop(b);
                    self.note(idx, stage, seq, from, BreakerState::Open, detail);
                }
                FrameOutcome::Failed => {
                    b.state = BreakerState::Open;
                    b.open_frames = 0;
                    let detail = match &b.pinned {
                        Some(p) => format!("failed probe -> re-pinned rung `{}`", p.rung),
                        None => "failed probe -> re-opened".to_string(),
                    };
                    drop(b);
                    self.note(idx, stage, seq, from, BreakerState::Open, detail);
                }
            },
        }
    }

    fn note(
        &self,
        stage_index: usize,
        stage: &str,
        seq: u64,
        from: BreakerState,
        to: BreakerState,
        detail: String,
    ) {
        self.transitions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(BreakerTransition {
                stage_index,
                stage: stage.to_string(),
                seq,
                from,
                to,
                detail,
            });
    }

    /// Every transition so far, sorted by `(stage_index, seq)` so the
    /// log is deterministic regardless of stage-thread interleaving.
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        let mut out = self
            .transitions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        out.sort_by_key(|t| (t.stage_index, t.seq));
        out
    }

    /// Current state of stage `idx`'s breaker.
    pub fn state(&self, idx: usize) -> BreakerState {
        self.lock_stage(idx).state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung() -> PinnedRung {
        PinnedRung {
            rung: "scratchpad->global".into(),
            variant: MemVariant::Global,
            force_config: None,
        }
    }

    #[test]
    fn breaker_walks_open_half_open_closed() {
        let g = Governor::new(1, 2, 3, 2);
        assert_eq!(
            g.plan(0),
            StagePlan {
                pinned: None,
                probe: false
            }
        );

        // Two degraded successes open the breaker.
        g.record(0, "s", 0, FrameOutcome::DegradedSuccess(rung()));
        assert_eq!(g.state(0), BreakerState::Closed);
        g.record(0, "s", 1, FrameOutcome::DegradedSuccess(rung()));
        assert_eq!(g.state(0), BreakerState::Open);
        assert_eq!(g.plan(0).pinned, Some(rung()));

        // Three pinned frames, then a probe.
        for seq in 2..5 {
            g.record(0, "s", seq, FrameOutcome::Clean);
        }
        assert_eq!(g.state(0), BreakerState::HalfOpen);
        assert!(g.plan(0).probe);

        // Two clean probes close it.
        g.record(0, "s", 5, FrameOutcome::Clean);
        g.record(0, "s", 6, FrameOutcome::Clean);
        assert_eq!(g.state(0), BreakerState::Closed);
        assert_eq!(g.plan(0).pinned, None);

        let kinds: Vec<(BreakerState, BreakerState)> =
            g.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        assert!(g.transitions()[0].detail.contains("R0606"));
    }

    #[test]
    fn clean_frames_reset_strikes_and_dirty_probe_reopens() {
        let g = Governor::new(1, 2, 1, 1);
        g.record(0, "s", 0, FrameOutcome::DegradedSuccess(rung()));
        g.record(0, "s", 1, FrameOutcome::Clean); // resets strikes
        g.record(0, "s", 2, FrameOutcome::DegradedSuccess(rung()));
        assert_eq!(g.state(0), BreakerState::Closed);
        g.record(0, "s", 3, FrameOutcome::DegradedSuccess(rung()));
        assert_eq!(g.state(0), BreakerState::Open);
        g.record(0, "s", 4, FrameOutcome::Clean); // open_frames hits probe_after
        assert_eq!(g.state(0), BreakerState::HalfOpen);
        g.record(0, "s", 5, FrameOutcome::DegradedSuccess(rung()));
        assert_eq!(g.state(0), BreakerState::Open, "dirty probe re-opens");
    }

    #[test]
    fn failures_do_not_strike_toward_pinning() {
        let g = Governor::new(1, 1, 1, 1);
        g.record(0, "s", 0, FrameOutcome::Failed);
        g.record(0, "s", 1, FrameOutcome::Failed);
        assert_eq!(g.state(0), BreakerState::Closed, "no rung was proven");
        assert!(g.transitions().is_empty());
    }
}
