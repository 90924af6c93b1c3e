//! Per-stream metrics: throughput, latency percentiles, queue pressure,
//! cache effectiveness and resilience telemetry (failures, sheds,
//! breaker transitions, recovery-action totals, replay bundles), with
//! deterministic text and JSON renderings in the style of the launch
//! profile.
//!
//! Accounting invariant of every stream run, enforced by the chaos
//! battery: `frames_in == frames_out + failed.len() + shed.len()` —
//! every frame ends in exactly one typed bucket, never a silent drop.

use crate::governor::BreakerTransition;
use crate::replay::ReplayBundle;
use hipacc_profile::{json, Span};
use std::fmt::Write as _;

/// One frame the stream could not recover, with its typed diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameFailure {
    /// Frame sequence number.
    pub seq: u64,
    /// Stage that surfaced the failure.
    pub stage: String,
    /// Stable diagnostic code (`R0601` panic, `R0602` frame budget,
    /// `R0603` stream budget, or the surfaced launch code).
    pub code: String,
    /// Rendered error message.
    pub error: String,
}

/// One frame shed by the producer under load (diagnostic `R0604`):
/// the queue stayed at high water past [`crate::StreamConfig::shed_after_us`]
/// and the oldest undispatched frame was dropped, as a typed event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameShed {
    /// Sequence number of the dropped frame.
    pub seq: u64,
    /// Always `R0604`.
    pub code: String,
}

/// One fusion decision the stream planner took before the run: either a
/// group of adjacent stages now running as one fused launch, or a pair
/// that stayed separate with the typed `F01xx` reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionDecision {
    /// The stage names involved, in chain order.
    pub stages: Vec<String>,
    /// Whether the group runs as one fused kernel.
    pub fused: bool,
    /// The `F01xx` diagnostic when not fused (`F0105` when the fused
    /// compile overflowed device resources and fell back per-stage).
    pub code: Option<String>,
    /// Human-readable reason.
    pub detail: String,
}

/// Totals of every supervisor [`RecoveryAction`] across all frame×stage
/// launches of a run, summed from the per-rung outcome counters
/// ([`hipacc_core::RungOutcome`]) so the stream report and the
/// supervisor's own log share one source of truth.
///
/// [`RecoveryAction`]: hipacc_core::RecoveryAction
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActionTotals {
    /// Attempts that validated clean.
    pub completed: u64,
    /// Attempts recovered by selective block re-execution.
    pub repaired: u64,
    /// Attempts discarded and relaunched.
    pub retried: u64,
    /// Configuration rungs abandoned for the next one.
    pub degraded: u64,
    /// Failures surfaced to the stream.
    pub surfaced: u64,
}

impl ActionTotals {
    /// Fold another report's totals in.
    pub fn absorb(&mut self, report: &hipacc_core::RecoveryReport) {
        use hipacc_core::RecoveryAction as A;
        self.completed += report.action_total(A::Completed) as u64;
        self.repaired += report.action_total(A::Repaired) as u64;
        self.retried += report.action_total(A::Retried) as u64;
        self.degraded += report.action_total(A::Degraded) as u64;
        self.surfaced += report.action_total(A::Surfaced) as u64;
    }
}

/// The full telemetry of one [`crate::Stream`] run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Stream name (also the trace lane's label).
    pub stream: String,
    /// Stage names, in chain order (fused groups appear as one
    /// `a+b`-style entry).
    pub stages: Vec<String>,
    /// Fusion planning decisions (empty when fusion is off).
    pub fusion: Vec<FusionDecision>,
    /// The engine every launch ran on.
    pub engine: String,
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Bound of every inter-stage queue.
    pub queue_capacity: usize,
    /// Frames pushed by the producer.
    pub frames_in: usize,
    /// Frames that completed every stage.
    pub frames_out: usize,
    /// Frames the supervisor could not recover (skipped, never stalled).
    pub failed: Vec<FrameFailure>,
    /// Frames shed by the producer under load (`R0604`).
    pub shed: Vec<FrameShed>,
    /// Frames that needed at least one recovery action **and still
    /// completed** (failed frames are counted in `failed`, not here).
    pub recovered_frames: usize,
    /// Supervisor action totals across all launches of the run.
    pub actions: ActionTotals,
    /// Circuit-breaker state changes, sorted by `(stage_index, seq)`.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// One replay bundle per failed frame (see [`mod@crate::replay`]).
    pub replay: Vec<ReplayBundle>,
    /// Wall-clock time from first push to last completion.
    pub wall_us: u64,
    /// Completed frames per wall-clock second.
    pub frames_per_sec: f64,
    /// Median end-to-end frame latency (enqueue to last stage).
    pub latency_p50_us: u64,
    /// 99th-percentile end-to-end frame latency.
    pub latency_p99_us: u64,
    /// High-water mark of each queue (producer side first).
    pub queue_max_depths: Vec<usize>,
    /// Kernel-cache hits across this stream's own stage launches (not
    /// those of other streams sharing the cache).
    pub cache_hits: u64,
    /// Kernel-cache misses across this stream's own stage launches.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when the cache saw no traffic.
    pub cache_hit_rate: f64,
    /// Trace lane (`tid`) every span of this stream carries.
    pub lane: u32,
    /// One span per frame×stage launch plus per-frame summary spans,
    /// all on this stream's lane.
    pub spans: Vec<Span>,
}

/// Nearest-rank percentile of an **ascending-sorted** slice of
/// latencies; 0 for an empty slice.
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl StreamReport {
    /// The accounting identity every run must satisfy: each input frame
    /// ends in exactly one typed bucket.
    pub fn accounted(&self) -> bool {
        self.frames_in == self.frames_out + self.failed.len() + self.shed.len()
    }

    /// Deterministic human-readable rendering, one fact per line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "stream `{}`: {} -> {} frame(s), {} failed, {} shed, chain [{}], engine {}\n",
            self.stream,
            self.frames_in,
            self.frames_out,
            self.failed.len(),
            self.shed.len(),
            self.stages.join(" -> "),
            self.engine,
        );
        let _ = writeln!(
            out,
            "  {} worker(s), queue capacity {}, wall {:.3} ms, {:.1} frames/s",
            self.workers,
            self.queue_capacity,
            self.wall_us as f64 / 1000.0,
            self.frames_per_sec,
        );
        let _ = writeln!(
            out,
            "  latency p50 {:.3} ms, p99 {:.3} ms",
            self.latency_p50_us as f64 / 1000.0,
            self.latency_p99_us as f64 / 1000.0,
        );
        let depths: Vec<String> = self
            .queue_max_depths
            .iter()
            .map(|d| d.to_string())
            .collect();
        let _ = writeln!(out, "  queue high-water marks: [{}]", depths.join(", "));
        let _ = writeln!(
            out,
            "  kernel cache: {} hit(s), {} miss(es), hit rate {:.2}",
            self.cache_hits, self.cache_misses, self.cache_hit_rate,
        );
        let a = &self.actions;
        let _ = writeln!(
            out,
            "  recovery actions: completed={} repaired={} retried={} degraded={} surfaced={}",
            a.completed, a.repaired, a.retried, a.degraded, a.surfaced
        );
        if self.recovered_frames > 0 {
            let _ = writeln!(out, "  recovered frames: {}", self.recovered_frames);
        }
        for d in &self.fusion {
            if d.fused {
                let _ = writeln!(out, "  fused [{}]", d.stages.join(" + "));
            } else {
                let _ = writeln!(
                    out,
                    "  not fused [{}] [{}]: {}",
                    d.stages.join(" | "),
                    d.code.as_deref().unwrap_or("-"),
                    d.detail
                );
            }
        }
        for t in &self.breaker_transitions {
            let _ = writeln!(out, "  {t}");
        }
        for f in &self.failed {
            let _ = writeln!(
                out,
                "  failed frame {} at `{}` [{}]: {}",
                f.seq, f.stage, f.code, f.error
            );
        }
        for s in &self.shed {
            let _ = writeln!(out, "  shed frame {} [{}]", s.seq, s.code);
        }
        for b in &self.replay {
            let _ = writeln!(
                out,
                "  replay bundle: frame {} at `{}` expecting {}",
                b.seq, b.stage, b.expected_code
            );
        }
        out
    }

    /// Machine-readable report (hand-rolled; all strings escaped). Replay bundles
    /// are embedded whole, so one report file is enough to feed
    /// `reproduce --replay`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"stream\":\"{}\"", json::escape(&self.stream));
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect();
        let _ = write!(out, ",\"stages\":[{}]", stages.join(","));
        let _ = write!(out, ",\"engine\":\"{}\"", json::escape(&self.engine));
        let _ = write!(out, ",\"workers\":{}", self.workers);
        let _ = write!(out, ",\"queue_capacity\":{}", self.queue_capacity);
        let _ = write!(out, ",\"frames_in\":{}", self.frames_in);
        let _ = write!(out, ",\"frames_out\":{}", self.frames_out);
        let failed: Vec<String> = self
            .failed
            .iter()
            .map(|f| {
                format!(
                    "{{\"seq\":{},\"stage\":\"{}\",\"code\":\"{}\",\"error\":\"{}\"}}",
                    f.seq,
                    json::escape(&f.stage),
                    json::escape(&f.code),
                    json::escape(&f.error)
                )
            })
            .collect();
        let _ = write!(out, ",\"failed\":[{}]", failed.join(","));
        let shed: Vec<String> = self
            .shed
            .iter()
            .map(|s| {
                format!(
                    "{{\"seq\":{},\"code\":\"{}\"}}",
                    s.seq,
                    json::escape(&s.code)
                )
            })
            .collect();
        let _ = write!(out, ",\"shed\":[{}]", shed.join(","));
        let _ = write!(out, ",\"recovered_frames\":{}", self.recovered_frames);
        let fusion: Vec<String> = self
            .fusion
            .iter()
            .map(|d| {
                let stages: Vec<String> = d
                    .stages
                    .iter()
                    .map(|s| format!("\"{}\"", json::escape(s)))
                    .collect();
                format!(
                    "{{\"stages\":[{}],\"fused\":{},\"code\":{},\"detail\":\"{}\"}}",
                    stages.join(","),
                    d.fused,
                    d.code
                        .as_deref()
                        .map(|c| format!("\"{}\"", json::escape(c)))
                        .unwrap_or_else(|| "null".into()),
                    json::escape(&d.detail)
                )
            })
            .collect();
        let _ = write!(out, ",\"fusion\":[{}]", fusion.join(","));
        let a = &self.actions;
        let _ = write!(
            out,
            ",\"actions\":{{\"completed\":{},\"repaired\":{},\"retried\":{},\"degraded\":{},\"surfaced\":{}}}",
            a.completed, a.repaired, a.retried, a.degraded, a.surfaced
        );
        let transitions: Vec<String> = self
            .breaker_transitions
            .iter()
            .map(|t| {
                format!(
                    "{{\"stage_index\":{},\"stage\":\"{}\",\"seq\":{},\"from\":\"{}\",\"to\":\"{}\",\"detail\":\"{}\"}}",
                    t.stage_index,
                    json::escape(&t.stage),
                    t.seq,
                    t.from,
                    t.to,
                    json::escape(&t.detail)
                )
            })
            .collect();
        let _ = write!(out, ",\"breaker_transitions\":[{}]", transitions.join(","));
        let replay: Vec<String> = self.replay.iter().map(|b| b.to_json()).collect();
        let _ = write!(out, ",\"replay\":[{}]", replay.join(","));
        let _ = write!(out, ",\"wall_us\":{}", self.wall_us);
        let _ = write!(out, ",\"frames_per_sec\":{:.3}", self.frames_per_sec);
        let _ = write!(out, ",\"latency_p50_us\":{}", self.latency_p50_us);
        let _ = write!(out, ",\"latency_p99_us\":{}", self.latency_p99_us);
        let depths: Vec<String> = self
            .queue_max_depths
            .iter()
            .map(|d| d.to_string())
            .collect();
        let _ = write!(out, ",\"queue_max_depths\":[{}]", depths.join(","));
        let _ = write!(out, ",\"cache_hits\":{}", self.cache_hits);
        let _ = write!(out, ",\"cache_misses\":{}", self.cache_misses);
        let _ = write!(out, ",\"cache_hit_rate\":{:.3}", self.cache_hit_rate);
        let _ = write!(out, ",\"lane\":{}", self.lane);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BreakerState;

    fn report() -> StreamReport {
        StreamReport {
            stream: "angio".into(),
            stages: vec!["gauss".into(), "sobel".into()],
            fusion: vec![
                FusionDecision {
                    stages: vec!["gauss".into(), "sobel".into()],
                    fused: true,
                    code: None,
                    detail: "2 stage(s) fused".into(),
                },
                FusionDecision {
                    stages: vec!["sobel".into(), "median".into()],
                    fused: false,
                    code: Some("F0102".into()),
                    detail: "F0102: repeat handoff".into(),
                },
            ],
            engine: "bytecode".into(),
            workers: 4,
            queue_capacity: 4,
            frames_in: 10,
            frames_out: 8,
            failed: vec![FrameFailure {
                seq: 3,
                stage: "gauss".into(),
                code: "R0105".into(),
                error: "R0105: hung \"worker\"".into(),
            }],
            shed: vec![FrameShed {
                seq: 0,
                code: "R0604".into(),
            }],
            recovered_frames: 2,
            actions: ActionTotals {
                completed: 17,
                repaired: 1,
                retried: 3,
                degraded: 1,
                surfaced: 1,
            },
            breaker_transitions: vec![BreakerTransition {
                stage_index: 0,
                stage: "gauss".into(),
                seq: 5,
                from: BreakerState::Closed,
                to: BreakerState::Open,
                detail: "R0606: pinned rung `scratchpad->global` after 3 degraded frame(s)".into(),
            }],
            replay: Vec::new(),
            wall_us: 5_000,
            frames_per_sec: 1800.0,
            latency_p50_us: 400,
            latency_p99_us: 900,
            queue_max_depths: vec![4, 2, 1],
            cache_hits: 18,
            cache_misses: 2,
            cache_hit_rate: 0.9,
            lane: 2,
            spans: Vec::new(),
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&lat, 0.5), 51);
        assert_eq!(percentile_us(&lat, 0.99), 99);
        assert_eq!(percentile_us(&lat, 0.0), 1);
        assert_eq!(percentile_us(&lat, 1.0), 100);
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.99), 7);
    }

    #[test]
    fn accounting_identity_counts_every_bucket() {
        let r = report();
        assert!(r.accounted(), "10 in = 8 out + 1 failed + 1 shed");
        let mut broken = r;
        broken.frames_out = 9;
        assert!(!broken.accounted());
    }

    #[test]
    fn json_round_trips_through_the_bundled_parser() {
        let doc = json::parse(&report().to_json()).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["frames_in"].as_number(), Some(10.0));
        assert_eq!(obj["frames_out"].as_number(), Some(8.0));
        assert_eq!(obj["cache_hit_rate"].as_number(), Some(0.9));
        assert_eq!(obj["lane"].as_number(), Some(2.0));
        let failed = obj["failed"].as_array().unwrap();
        assert_eq!(failed.len(), 1);
        let f = failed[0].as_object().unwrap();
        assert_eq!(f["seq"].as_number(), Some(3.0));
        assert_eq!(f["code"].as_str(), Some("R0105"));
        assert!(f["error"].as_str().unwrap().contains("hung \"worker\""));
        let shed = obj["shed"].as_array().unwrap();
        assert_eq!(shed[0].as_object().unwrap()["code"].as_str(), Some("R0604"));
        let acts = obj["actions"].as_object().unwrap();
        assert_eq!(acts["retried"].as_number(), Some(3.0));
        let trans = obj["breaker_transitions"].as_array().unwrap();
        let t = trans[0].as_object().unwrap();
        assert_eq!(t["from"].as_str(), Some("closed"));
        assert_eq!(t["to"].as_str(), Some("open"));
        assert!(t["detail"].as_str().unwrap().contains("R0606"));
        assert!(obj["replay"].as_array().unwrap().is_empty());
        let fusion = obj["fusion"].as_array().unwrap();
        assert_eq!(fusion.len(), 2);
        let d0 = fusion[0].as_object().unwrap();
        assert_eq!(d0["fused"], json::Value::Bool(true));
        assert_eq!(d0["code"], json::Value::Null);
        let d1 = fusion[1].as_object().unwrap();
        assert_eq!(d1["fused"], json::Value::Bool(false));
        assert_eq!(d1["code"].as_str(), Some("F0102"));
    }

    #[test]
    fn text_report_names_every_fact() {
        let text = report().render_text();
        for needle in [
            "10 -> 8 frame(s)",
            "1 failed",
            "1 shed",
            "gauss -> sobel",
            "4 worker(s)",
            "p50",
            "p99",
            "hit rate 0.90",
            "recovery actions: completed=17",
            "breaker `gauss` closed -> open at frame 5",
            "R0606",
            "failed frame 3 at `gauss` [R0105]",
            "shed frame 0 [R0604]",
            "recovered frames: 2",
            "fused [gauss + sobel]",
            "not fused [sobel | median] [F0102]",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
