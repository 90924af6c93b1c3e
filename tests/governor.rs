//! Acceptance tests for the stream-level resilience governor
//! (`hipacc-runtime`): circuit breakers, watchdog budgets, panic
//! isolation, load shedding, and deterministic failure replay.
//!
//! The contract under test:
//!
//! * **Accounting** — `frames_in == frames_out + failed + shed` holds
//!   under every fault class, with typed events for every loss;
//! * **Determinism** — failure sets, diagnostic codes, and breaker
//!   transitions are identical between the pipelined [`Stream::run`]
//!   and [`Stream::run_sequential`] on both engines;
//! * **Breaker walk** — after the configured number of degraded frames
//!   a stage is pinned to its proven rung (`R0606`), half-opens after
//!   the probe interval, and closes again after clean probes;
//! * **Watchdog** — per-frame (`R0602`) and whole-stream (`R0603`)
//!   virtual-clock budgets cancel runaway frames with typed failures;
//! * **Panic isolation** — an injected worker panic is contained as
//!   `R0601`; the shared pool survives and later frames complete;
//! * **Replay** — every failed frame leaves a [`ReplayBundle`] that
//!   survives JSON round-tripping and reproduces the exact diagnostic
//!   code standalone.

use hipacc_core::{Engine, FaultPlan, KernelCache, SupervisorConfig, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_hwmodel::device;
use hipacc_image::{BoundaryMode, Image};
use hipacc_runtime::{drifting_frame, replay, ReplayBundle, Stream, StreamConfig, StreamRun};
use hipacc_sim::WorkerPool;
use std::collections::HashMap;
use std::sync::Arc;

const SIZE: u32 = 32;

/// The canonical drifting sequence — the same generator replay bundles
/// reconstruct inputs from, so recorded failures replay bit-faithfully.
fn frames(n: usize) -> Vec<Image<f32>> {
    (0..n)
        .map(|i| drifting_frame(SIZE, SIZE, i as u64))
        .collect()
}

fn chain(name: &str) -> Stream {
    let m = BoundaryMode::Clamp;
    Stream::new(name, Target::cuda(device::tesla_c2050()))
        .stage("gauss5", gaussian_operator(5, 1.1, m))
        .stage("sobel", sobel_operator(true, m))
        .stage("laplace", laplacian_operator(m))
}

fn failures(run: &StreamRun) -> Vec<(u64, String, String)> {
    run.report
        .failed
        .iter()
        .map(|f| (f.seq, f.stage.clone(), f.code.clone()))
        .collect()
}

fn assert_bit_identical(streamed: &StreamRun, reference: &StreamRun, what: &str) {
    assert_eq!(streamed.outputs.len(), reference.outputs.len(), "{what}");
    for (s, r) in streamed.outputs.iter().zip(&reference.outputs) {
        assert_eq!(s.seq, r.seq, "{what}: frame order");
        assert_eq!(
            s.image.max_abs_diff(&r.image),
            0.0,
            "{what}: frame {} diverged",
            s.seq
        );
    }
}

/// Replay every bundle a run recorded: JSON round trip, then standalone
/// re-execution reproducing the recorded diagnostic code.
fn assert_bundles_reproduce(run: &StreamRun) {
    let target = Target::cuda(device::tesla_c2050());
    let stages_owner = chain("replay");
    assert_eq!(
        run.report.replay.len(),
        run.report.failed.len(),
        "every failed frame must leave a replay bundle"
    );
    for bundle in &run.report.replay {
        let round_trip =
            ReplayBundle::from_json(&bundle.to_json()).expect("bundle JSON round trip");
        assert_eq!(&round_trip, bundle, "bundle must survive serialization");
        let code = replay(&round_trip, stages_owner.stages(), &target)
            .unwrap_or_else(|e| panic!("replay of frame {}: {e}", bundle.seq));
        assert_eq!(
            code, bundle.expected_code,
            "frame {} at `{}` must reproduce its recorded code",
            bundle.seq, bundle.stage
        );
    }
}

/// A permanent hang and a worker panic in one sequence: both frames are
/// surfaced with typed codes, everything else survives bit-identically
/// to the sequential reference — on both engines.
#[test]
fn fault_storm_accounts_and_matches_sequential_on_all_engines() {
    for engine in [Engine::Bytecode, Engine::Simd] {
        let faults = HashMap::from([
            (
                1u64,
                FaultPlan {
                    seed: 11,
                    hang_rate: 1.0,
                    deadline_us: Some(1_000),
                    faulty_attempts: u32::MAX,
                    ..FaultPlan::default()
                },
            ),
            (3u64, FaultPlan::panic_block(31, (0, 1))),
        ]);
        let config = StreamConfig {
            workers: Some(3),
            engine: Some(engine),
            faults,
            ..StreamConfig::default()
        };
        let streamed = chain("storm")
            .with_config(config.clone())
            .run(frames(6))
            .unwrap();
        let sequential = chain("storm-seq")
            .with_config(config)
            .run_sequential(frames(6))
            .unwrap();

        assert!(
            streamed.report.accounted(),
            "{}: accounting",
            engine.label()
        );
        assert!(sequential.report.accounted());
        let failed = failures(&streamed);
        assert_eq!(failed, failures(&sequential), "{}", engine.label());
        assert_eq!(
            failed.len(),
            2,
            "{}: exactly the two storm frames fail",
            engine.label()
        );
        assert_eq!(failed[0], (1, "gauss5".into(), "R0301".into()));
        assert_eq!(failed[1], (3, "gauss5".into(), "R0601".into()));
        assert_eq!(
            streamed.report.frames_out,
            4,
            "{}: surviving frames drain",
            engine.label()
        );
        assert_bit_identical(&streamed, &sequential, engine.label());
        assert_bundles_reproduce(&streamed);
    }
}

/// Three frames that only succeed through the degradation ladder trip
/// the breaker: it opens (pinning the proven rung), half-opens after
/// four pinned frames, and closes after two clean probes — with the
/// identical transition log in pipelined and sequential execution.
#[test]
fn breaker_walks_open_half_open_closed_and_pins_the_proven_rung() {
    let faults: HashMap<u64, FaultPlan> = (0..3)
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
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        supervisor: SupervisorConfig {
            max_attempts: 3,
            ..SupervisorConfig::default()
        },
        faults,
        breaker_threshold: Some(3),
        probe_after: 4,
        close_after: 2,
        ..StreamConfig::default()
    };
    let streamed = chain("governed")
        .with_config(config.clone())
        .run(frames(10))
        .unwrap();
    let sequential = chain("governed-seq")
        .with_config(config)
        .run_sequential(frames(10))
        .unwrap();

    assert!(streamed.report.failed.is_empty(), "every frame recovers");
    assert_eq!(streamed.report.frames_out, 10);
    assert_bit_identical(&streamed, &sequential, "breaker");
    assert_eq!(
        streamed.report.breaker_transitions, sequential.report.breaker_transitions,
        "governor decisions must not depend on pipelining"
    );
    for idx in 0..3 {
        let walk: Vec<(u64, String)> = streamed
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
            "stage {idx} breaker walk"
        );
    }
    let open = &streamed.report.breaker_transitions[0];
    assert!(
        open.detail.contains("R0606") && open.detail.contains("auto->global"),
        "the open transition names the pinned rung: {}",
        open.detail
    );
    // Three faulted frames degrade once at each of the three stages; the
    // seven pinned/clean frames never touch the ladder.
    assert_eq!(streamed.report.actions.degraded, 9);
    assert_eq!(streamed.report.recovered_frames, 3);
}

/// A frame whose recovery grinds past the per-frame virtual-clock
/// budget is cancelled with `R0602` — the launch succeeded, but the
/// watchdog refuses the frame. The bundle replays to the same code.
#[test]
fn frame_budget_watchdog_cancels_expensive_recoveries_with_r0602() {
    // Two hung attempts charge ~5000 µs each against the 8000 µs frame
    // budget before the third attempt succeeds: the frame completes its
    // launch but has already overspent its budget.
    let faults = HashMap::from([(
        2u64,
        FaultPlan {
            seed: 7,
            hang_rate: 1.0,
            deadline_us: Some(5_000),
            faulty_attempts: 2,
            ..FaultPlan::default()
        },
    )]);
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        supervisor: SupervisorConfig {
            max_attempts: 3,
            ..SupervisorConfig::default()
        },
        faults,
        frame_deadline_us: Some(8_000),
        ..StreamConfig::default()
    };
    let streamed = chain("watchdog")
        .with_config(config.clone())
        .run(frames(4))
        .unwrap();
    let sequential = chain("watchdog-seq")
        .with_config(config)
        .run_sequential(frames(4))
        .unwrap();

    assert!(streamed.report.accounted());
    let failed = failures(&streamed);
    assert_eq!(failed, failures(&sequential));
    assert_eq!(failed, vec![(2, "gauss5".into(), "R0602".into())]);
    assert_eq!(
        streamed.report.frames_out, 3,
        "only the overspent frame is lost"
    );
    assert_bit_identical(&streamed, &sequential, "frame budget");
    assert_bundles_reproduce(&streamed);
}

/// The whole-stream budget caps the *cumulative* recovery spend: every
/// frame carries a recoverable hang that charges ~2 ms of virtual
/// recovery time per stage, and once the carried rectangle-sum projects
/// past the budget, later launches are refused with `R0603` before any
/// more time is paid — identically in both execution modes, with the
/// projected-vs-budget arithmetic in the failure record.
#[test]
fn stream_budget_watchdog_cancels_with_r0603_before_launching() {
    let faults: HashMap<u64, FaultPlan> = (0..4u64)
        .map(|seq| (seq, FaultPlan::hang_block(40 + seq, (0, 0), 2_000)))
        .collect();
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        faults,
        stream_budget_us: Some(5_000),
        ..StreamConfig::default()
    };
    let streamed = chain("budgeted")
        .with_config(config.clone())
        .run(frames(4))
        .unwrap();
    let sequential = chain("budgeted-seq")
        .with_config(config)
        .run_sequential(frames(4))
        .unwrap();

    assert!(streamed.report.accounted());
    let failed = failures(&streamed);
    assert_eq!(
        failed,
        failures(&sequential),
        "budget projections must not depend on pipelining"
    );
    assert!(
        !failed.is_empty() && failed.len() < 4,
        "the budget admits early frames and refuses later ones: {failed:?}"
    );
    assert!(
        failed.iter().all(|(_, _, code)| code == "R0603"),
        "every refusal is typed: {failed:?}"
    );
    assert!(
        streamed.report.failed[0].error.contains("stream budget"),
        "the failure carries the arithmetic: {}",
        streamed.report.failed[0].error
    );
    assert_bit_identical(&streamed, &sequential, "stream budget");
    assert_bundles_reproduce(&streamed);
}

/// An injected worker panic is contained as a typed `R0601` frame
/// failure; the shared worker pool records and survives it, and every
/// later frame completes normally through the same pool.
#[test]
fn worker_panic_is_contained_and_the_shared_pool_survives() {
    let cache = Arc::new(KernelCache::default());
    let pool = Arc::new(WorkerPool::new(2));
    let faults = HashMap::from([(1u64, FaultPlan::panic_block(17, (0, 1)))]);
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        faults,
        ..StreamConfig::default()
    };
    let run = chain("shielded")
        .with_shared(Arc::clone(&cache), Arc::clone(&pool))
        .with_config(config.clone())
        .run(frames(5))
        .unwrap();

    assert!(run.report.accounted());
    assert_eq!(failures(&run), vec![(1, "gauss5".into(), "R0601".into())]);
    assert!(
        run.report.failed[0].error.contains("injected worker panic"),
        "the panic payload is preserved: {}",
        run.report.failed[0].error
    );
    assert!(pool.panics() >= 1, "the pool counted the contained panic");
    let seqs: Vec<u64> = run.outputs.iter().map(|f| f.seq).collect();
    assert_eq!(
        seqs,
        vec![0, 2, 3, 4],
        "frames behind the panic drain in order"
    );

    // The surviving frames are bit-identical to an unshared reference.
    let reference = chain("shielded-ref")
        .with_config(config)
        .run_sequential(frames(5))
        .unwrap();
    assert_bit_identical(&run, &reference, "panic shield");
    assert_bundles_reproduce(&run);
}

/// A capacity-1 queue with a zero shed budget behind a slow first stage
/// drops stale frames as typed `R0604` events — never silently: the
/// accounting identity still covers every frame that entered.
#[test]
fn load_shedding_is_typed_and_accounted_never_silent() {
    let faults: HashMap<u64, FaultPlan> = (0..8u64)
        .map(|seq| (seq, FaultPlan::hang_block(7 + seq, (0, 1), 5_000)))
        .collect();
    let run = chain("shedding")
        .with_config(StreamConfig {
            workers: Some(2),
            queue_capacity: Some(1),
            engine: Some(Engine::Bytecode),
            faults,
            shed_after_us: Some(0),
            ..StreamConfig::default()
        })
        .run(frames(8))
        .unwrap();

    assert!(run.report.accounted(), "in = out + failed + shed must hold");
    assert!(!run.report.shed.is_empty(), "the producer must have shed");
    assert!(run.report.shed.iter().all(|s| s.code == "R0604"));
    assert_eq!(
        run.report.frames_in,
        run.report.frames_out + run.report.failed.len() + run.report.shed.len(),
        "explicit identity"
    );
    let text = run.report.render_text();
    assert!(text.contains("R0604"), "shed events render: {text}");
}

/// The run-sequential path never sheds: same slow stage, same tiny
/// queue configuration, but the reference mode processes every frame.
#[test]
fn sequential_reference_never_sheds() {
    let run = chain("no-shed")
        .with_config(StreamConfig {
            workers: Some(2),
            queue_capacity: Some(1),
            engine: Some(Engine::Bytecode),
            shed_after_us: Some(0),
            ..StreamConfig::default()
        })
        .run_sequential(frames(4))
        .unwrap();
    assert!(run.report.shed.is_empty());
    assert_eq!(run.report.frames_out, 4);
}
