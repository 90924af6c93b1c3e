//! Chaos battery for the stream-level resilience governor.
//!
//! A 3-stage chain (Gaussian smooth → Sobel gradient → Laplacian
//! sharpen) is driven through three adversarial scenarios, each
//! self-validating:
//!
//! 1. **fault storm** — a 12-frame sequence where one frame hangs
//!    permanently (surfaced `R0301`), one frame's worker panics
//!    (contained as `R0601`), and one frame stalls its way through the
//!    per-frame watchdog budget. Every failed frame leaves a
//!    [`ReplayBundle`]; each bundle is replayed in-process and must
//!    reproduce exactly the diagnostic code it recorded. The streamed
//!    run must stay bit-identical to the sequential reference, and
//!    `frames_in == frames_out + failed + shed` must hold.
//! 2. **circuit breaker** — the first three frames only succeed via the
//!    degradation ladder; the breaker opens (`R0606`), pins the proven
//!    rung, half-opens after four pinned frames, and closes after two
//!    clean probes — identically in the pipelined and sequential runs.
//! 3. **load shedding** — a slow stage behind a capacity-1 queue with a
//!    zero shed budget: stale frames are dropped as typed `R0604`
//!    events, never silently.
//!
//! ```text
//! cargo run --release --example chaos_stream [REPORT_PATH] [TRACE_PATH]
//! ```
//!
//! Defaults: `target/chaos_report.json`, `target/chaos_trace.json`.
//! The report carries the replay bundles; `reproduce --replay
//! target/chaos_report.json` re-executes them from the file.

use std::collections::HashMap;

use hipacc_core::{Engine, FaultPlan, SupervisorConfig, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_image::{BoundaryMode, Image};
use hipacc_runtime::{drifting_frame, replay, Stream, StreamConfig, StreamRun};

const FRAMES: usize = 12;
const SIZE: u32 = 48;

/// The canonical drifting input sequence — the same generator replay
/// bundles reconstruct frames from, so every recorded failure is
/// bit-faithfully reproducible.
fn frame_sequence(n: usize) -> Vec<Image<f32>> {
    (0..n)
        .map(|i| drifting_frame(SIZE, SIZE, i as u64))
        .collect()
}

/// The demo chain: smooth → edge → sharpen (identical to the canonical
/// chain `reproduce --replay` rebuilds).
fn chain(name: &str, config: StreamConfig) -> Stream {
    let m = BoundaryMode::Clamp;
    Stream::new(name, Target::cuda(hipacc_hwmodel::device::tesla_c2050()))
        .stage("gauss5", gaussian_operator(5, 1.1, m))
        .stage("sobel", sobel_operator(true, m))
        .stage("laplace", laplacian_operator(m))
        .with_config(config)
}

fn assert_bit_identical(streamed: &StreamRun, reference: &StreamRun, what: &str) {
    assert_eq!(streamed.outputs.len(), reference.outputs.len(), "{what}");
    for (s, r) in streamed.outputs.iter().zip(&reference.outputs) {
        assert_eq!(
            s.image.max_abs_diff(&r.image),
            0.0,
            "{what}: frame {} diverged from the sequential reference",
            s.seq
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let report_path = args
        .next()
        .unwrap_or_else(|| "target/chaos_report.json".to_string());
    let trace_path = args
        .next()
        .unwrap_or_else(|| "target/chaos_trace.json".to_string());

    // ------------------------------------------------------------------
    // 1. The fault storm: hang, panic, and stall against the watchdog.
    // ------------------------------------------------------------------
    let storm_faults = HashMap::from([
        // Frame 3: a permanent hang — every attempt on every rung blows
        // the launch deadline; the supervisor surfaces R0301.
        (
            3,
            FaultPlan {
                seed: 31,
                hang_rate: 1.0,
                deadline_us: Some(1_500),
                faulty_attempts: u32::MAX,
                ..FaultPlan::default()
            },
        ),
        // Frame 6: the worker executing block (0,1) panics; the stream's
        // panic shield contains it as R0601 and the pool survives.
        (6, FaultPlan::panic_block(61, (0, 1))),
        // Frame 9: every block stalls 20ms of virtual time on every
        // attempt — the watchdog folds the remaining frame budget into
        // the launch deadline and cancels the hung launch.
        (
            9,
            FaultPlan {
                seed: 91,
                stall_rate: 1.0,
                stall_us: 20_000,
                faulty_attempts: u32::MAX,
                ..FaultPlan::default()
            },
        ),
    ]);
    let storm_config = StreamConfig {
        workers: Some(3),
        queue_capacity: Some(4),
        engine: Some(Engine::Simd),
        faults: storm_faults,
        frame_deadline_us: Some(100_000),
        ..StreamConfig::default()
    };
    let streamed = chain("chaos-storm", storm_config.clone())
        .run(frame_sequence(FRAMES))
        .expect("storm streamed run");
    let sequential = chain("chaos-storm-seq", storm_config.clone())
        .run_sequential(frame_sequence(FRAMES))
        .expect("storm sequential run");
    print!("{}", streamed.report.render_text());

    assert!(streamed.report.accounted(), "storm accounting identity");
    assert!(
        sequential.report.accounted(),
        "sequential accounting identity"
    );
    println!("ok: chaos storm accounted for every frame (in = out + failed + shed)");

    assert_bit_identical(&streamed, &sequential, "chaos storm");
    let streamed_failed: Vec<(u64, &str)> = streamed
        .report
        .failed
        .iter()
        .map(|f| (f.seq, f.code.as_str()))
        .collect();
    let sequential_failed: Vec<(u64, &str)> = sequential
        .report
        .failed
        .iter()
        .map(|f| (f.seq, f.code.as_str()))
        .collect();
    assert_eq!(
        streamed_failed, sequential_failed,
        "failure sets must agree"
    );
    assert_eq!(
        streamed_failed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![3, 6, 9],
        "exactly the three storm frames fail"
    );
    assert_eq!(
        streamed_failed[0].1, "R0301",
        "permanent hang surfaces R0301"
    );
    assert_eq!(
        streamed_failed[1].1, "R0601",
        "worker panic is contained as R0601"
    );
    assert_eq!(
        streamed_failed[2].1, "R0301",
        "the stall storm is cancelled against the watchdog-capped deadline"
    );
    println!("ok: storm outputs bit-identical to the sequential reference");

    // Replay every bundle in-process: same chain, same code, bit for bit.
    let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
    let replay_chain = chain("replay", StreamConfig::default());
    assert_eq!(streamed.report.replay.len(), streamed.report.failed.len());
    for bundle in &streamed.report.replay {
        let round_trip = hipacc_runtime::ReplayBundle::from_json(&bundle.to_json())
            .expect("bundle JSON round trip");
        assert_eq!(&round_trip, bundle, "bundle must survive serialization");
        let code = replay(&round_trip, replay_chain.stages(), &target)
            .unwrap_or_else(|e| panic!("replay of frame {}: {e}", bundle.seq));
        assert_eq!(
            code, bundle.expected_code,
            "frame {} at `{}` must reproduce its code",
            bundle.seq, bundle.stage
        );
        println!(
            "replayed frame {} at `{}`: reproduced {code}",
            bundle.seq, bundle.stage
        );
    }
    println!(
        "ok: {} replay bundles reproduced their diagnostic codes in-process",
        streamed.report.replay.len()
    );
    println!();

    // ------------------------------------------------------------------
    // 2. The circuit breaker: open -> half-open -> closed.
    // ------------------------------------------------------------------
    // Frames 0..2 hang on exactly the supervisor's three attempts, so
    // each one only succeeds on the degradation ladder's next rung —
    // three degraded successes in a row trip the breaker.
    let breaker_faults: HashMap<u64, FaultPlan> = (0..3)
        .map(|seq| {
            (
                seq,
                FaultPlan {
                    seed: 100 + seq,
                    hang_rate: 1.0,
                    deadline_us: Some(2_000),
                    faulty_attempts: 3,
                    ..FaultPlan::default()
                },
            )
        })
        .collect();
    let breaker_config = StreamConfig {
        workers: Some(3),
        queue_capacity: Some(4),
        engine: Some(Engine::Simd),
        supervisor: SupervisorConfig {
            max_attempts: 3,
            ..SupervisorConfig::default()
        },
        faults: breaker_faults,
        breaker_threshold: Some(3),
        probe_after: 4,
        close_after: 2,
        ..StreamConfig::default()
    };
    let governed = chain("chaos-breaker", breaker_config.clone())
        .run(frame_sequence(FRAMES))
        .expect("breaker streamed run");
    let governed_seq = chain("chaos-breaker-seq", breaker_config)
        .run_sequential(frame_sequence(FRAMES))
        .expect("breaker sequential run");
    print!("{}", governed.report.render_text());

    assert!(governed.report.failed.is_empty(), "every frame recovers");
    assert_eq!(governed.report.frames_out, FRAMES);
    assert_bit_identical(&governed, &governed_seq, "breaker run");
    assert_eq!(
        governed.report.breaker_transitions, governed_seq.report.breaker_transitions,
        "governor decisions must be identical in both modes"
    );
    // Every stage walks the full cycle: open at frame 2 (three strikes),
    // half-open at frame 6 (four pinned frames), closed at frame 8 (two
    // clean probes).
    for (idx, stage) in ["gauss5", "sobel", "laplace"].iter().enumerate() {
        let walk: Vec<(u64, String)> = governed
            .report
            .breaker_transitions
            .iter()
            .filter(|t| t.stage_index == idx)
            .map(|t| (t.seq, format!("{} -> {}", t.from, t.to)))
            .collect();
        assert_eq!(
            walk,
            vec![
                (2, "closed -> open".to_string()),
                (6, "open -> half-open".to_string()),
                (8, "half-open -> closed".to_string()),
            ],
            "stage `{stage}` breaker walk"
        );
    }
    assert!(
        governed.report.actions.degraded >= 9,
        "three frames degrade at three stages each"
    );
    println!("ok: breaker walked closed -> open -> half-open -> closed identically in both modes");
    println!();

    // ------------------------------------------------------------------
    // 3. Load shedding: a slow stage behind a tiny queue.
    // ------------------------------------------------------------------
    // Every frame hangs block (0,1) for 5ms of wall time before its
    // retry succeeds, so the producer outruns the pipeline immediately.
    let shed_faults: HashMap<u64, FaultPlan> = (0..FRAMES as u64)
        .map(|seq| (seq, FaultPlan::hang_block(7 + seq, (0, 1), 5_000)))
        .collect();
    let shed_run = chain(
        "chaos-shed",
        StreamConfig {
            workers: Some(3),
            queue_capacity: Some(1),
            engine: Some(Engine::Simd),
            faults: shed_faults,
            shed_after_us: Some(0),
            ..StreamConfig::default()
        },
    )
    .run(frame_sequence(FRAMES))
    .expect("shedding run");
    print!("{}", shed_run.report.render_text());
    assert!(shed_run.report.accounted(), "shed accounting identity");
    assert!(
        !shed_run.report.shed.is_empty(),
        "a capacity-1 queue with a zero budget must shed"
    );
    assert!(
        shed_run.report.shed.iter().all(|s| s.code == "R0604"),
        "every shed is a typed R0604 event"
    );
    println!(
        "ok: load shedding dropped {} stale frames as typed events",
        shed_run.report.shed.len()
    );
    println!();

    // The storm report (with its replay bundles) is the CI artifact:
    // `reproduce --replay` re-executes the bundles from this file.
    std::fs::write(&report_path, streamed.report.to_json()).expect("write report");
    println!("wrote chaos report (with replay bundles) to {report_path}");
    let mut spans = streamed.report.spans.clone();
    spans.extend(governed.report.spans.iter().cloned());
    spans.sort_by_key(|s| s.start_us);
    let trace = hipacc_profile::chrome::trace_json(&spans);
    let n_events = hipacc_profile::chrome::validate(&trace).expect("trace must validate");
    std::fs::write(&trace_path, &trace).expect("write trace");
    println!("wrote {n_events} trace events to {trace_path}");
    println!("ok: chaos stream demo finished");
}
