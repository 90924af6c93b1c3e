//! Acceptance tests for the batched multi-frame streaming runtime
//! (`hipacc-runtime`).
//!
//! The contract under test:
//!
//! * **Determinism** — for a fixed engine and seeded fault plans, the
//!   per-frame outputs of the pipelined [`Stream::run`] are
//!   bit-identical to [`Stream::run_sequential`] on both engines, for
//!   any worker count;
//! * **Fault isolation** — a fault on frame *N* is recovered (or the
//!   frame is surfaced as failed and skipped) without ever stalling
//!   frame *N+1*;
//! * **Backpressure** — the bounded inter-stage queues hold their
//!   high-water mark at the configured capacity;
//! * **Cache amortization** — steady-state frames are served from the
//!   shared kernel cache: one miss per stage, everything else hits;
//! * **Trace lanes** — concurrent streams land on distinct `tid` lanes
//!   of one valid Chrome trace.

use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{Engine, FaultPlan, KernelCache, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_hwmodel::device;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_runtime::{Stream, StreamConfig};
use hipacc_sim::WorkerPool;
use std::collections::HashMap;
use std::sync::Arc;

/// A short sequence of distinct frames (a drifting vessel phantom).
fn frame_sequence(n: usize) -> Vec<Image<f32>> {
    (0..n)
        .map(|i| {
            let mut img = phantom::vessel_tree(48, 40, &phantom::VesselParams::default());
            for (j, px) in img.raw_mut().iter_mut().enumerate() {
                *px += ((i * 7 + j) % 13) as f32 * 1e-3;
            }
            img
        })
        .collect()
}

/// The representative 3-stage chain: smooth, edge, sharpen.
fn three_stage_stream(name: &str) -> Stream {
    let m = BoundaryMode::Clamp;
    Stream::new(name, Target::cuda(device::tesla_c2050()))
        .stage("gauss5", gaussian_operator(5, 1.1, m))
        .stage("sobel", sobel_operator(true, m))
        .stage("laplace", laplacian_operator(m))
}

/// Streaming and sequential execution produce bit-identical per-frame
/// outputs on every engine, with every frame accounted for in order.
#[test]
fn streaming_matches_sequential_bit_for_bit_on_all_engines() {
    for engine in [Engine::Bytecode, Engine::Simd] {
        let frames = frame_sequence(4);
        let config = StreamConfig {
            workers: Some(3),
            engine: Some(engine),
            ..StreamConfig::default()
        };
        let streamed = three_stage_stream("pipe")
            .with_config(config.clone())
            .run(frames.clone())
            .unwrap();
        let sequential = three_stage_stream("seq")
            .with_config(config)
            .run_sequential(frames)
            .unwrap();

        assert_eq!(streamed.report.frames_in, 4);
        assert_eq!(streamed.report.frames_out, 4);
        assert_eq!(streamed.outputs.len(), sequential.outputs.len());
        for (s, r) in streamed.outputs.iter().zip(&sequential.outputs) {
            assert_eq!(
                s.seq,
                r.seq,
                "{}: outputs must come back in order",
                engine.label()
            );
            assert_eq!(
                s.image.max_abs_diff(&r.image),
                0.0,
                "{}: frame {} diverged from the sequential reference",
                engine.label(),
                s.seq
            );
        }
    }
}

/// A recoverable fault on one frame (a hung worker, cured by a deadline
/// retry) never stalls the frames behind it: every frame completes and
/// the outputs still match the sequential reference running the same
/// seeded plan.
#[test]
fn recovered_fault_on_one_frame_stalls_nothing() {
    let mut faults = HashMap::new();
    faults.insert(2u64, FaultPlan::hang_block(44, (0, 1), 10_000));
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        faults,
        ..StreamConfig::default()
    };
    let frames = frame_sequence(5);
    let streamed = three_stage_stream("faulty")
        .with_config(config.clone())
        .run(frames.clone())
        .unwrap();
    let sequential = three_stage_stream("faulty-seq")
        .with_config(config)
        .run_sequential(frames)
        .unwrap();

    assert_eq!(streamed.report.frames_out, 5, "no frame may be lost");
    assert!(streamed.report.failed.is_empty());
    assert!(
        streamed.report.recovered_frames >= 1,
        "the hang must have needed recovery"
    );
    for (s, r) in streamed.outputs.iter().zip(&sequential.outputs) {
        assert_eq!(s.image.max_abs_diff(&r.image), 0.0, "frame {}", s.seq);
    }
}

/// An unrecoverable fault (permanent hang, one attempt, no fallback)
/// fails exactly its own frame: the frame is skipped with a typed
/// failure record while every other frame completes bit-identically.
#[test]
fn unrecoverable_frame_is_skipped_never_stalled() {
    let mut faults = HashMap::new();
    faults.insert(
        1u64,
        FaultPlan {
            faulty_attempts: u32::MAX,
            ..FaultPlan::hang_block(7, (0, 0), 5_000)
        },
    );
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        supervisor: SupervisorConfig {
            max_attempts: 1,
            fallback: false,
            ..SupervisorConfig::default()
        },
        faults,
        ..StreamConfig::default()
    };
    let frames = frame_sequence(4);
    let streamed = three_stage_stream("lossy")
        .with_config(config.clone())
        .run(frames.clone())
        .unwrap();
    let sequential = three_stage_stream("lossy-seq")
        .with_config(config)
        .run_sequential(frames)
        .unwrap();

    assert_eq!(streamed.report.frames_in, 4);
    assert_eq!(
        streamed.report.frames_out, 3,
        "only the faulted frame may fail"
    );
    assert_eq!(streamed.report.failed.len(), 1);
    assert_eq!(streamed.report.failed[0].seq, 1);
    assert_eq!(streamed.report.failed[0].stage, "gauss5");
    let seqs: Vec<u64> = streamed.outputs.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, vec![0, 2, 3], "surviving frames stay ordered");
    assert_eq!(sequential.report.failed, streamed.report.failed);
    for (s, r) in streamed.outputs.iter().zip(&sequential.outputs) {
        assert_eq!(s.image.max_abs_diff(&r.image), 0.0, "frame {}", s.seq);
    }
    let text = streamed.report.render_text();
    assert!(text.contains("failed frame 1"), "{text}");
}

/// The bounded queues hold their high-water mark at the configured
/// capacity — backpressure, not unbounded buffering.
#[test]
fn queue_high_water_marks_respect_the_bound() {
    let config = StreamConfig {
        workers: Some(2),
        queue_capacity: Some(2),
        engine: Some(Engine::Bytecode),
        ..StreamConfig::default()
    };
    let run = three_stage_stream("bounded")
        .with_config(config)
        .run(frame_sequence(8))
        .unwrap();
    assert_eq!(run.report.queue_capacity, 2);
    assert_eq!(run.report.queue_max_depths.len(), 4, "stages + 1 queues");
    for (i, depth) in run.report.queue_max_depths.iter().enumerate() {
        assert!(
            *depth <= 2,
            "queue {i} exceeded its bound: {depth} > 2\n{}",
            run.report.render_text()
        );
    }
    assert_eq!(run.report.frames_out, 8);
}

/// Steady state pays zero compile: one cache miss per stage kernel,
/// every later frame a hit, and the report says so.
#[test]
fn steady_state_frames_are_served_from_the_shared_cache() {
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        ..StreamConfig::default()
    };
    let n = 6;
    let run = three_stage_stream("warm")
        .with_config(config)
        .run(frame_sequence(n))
        .unwrap();
    assert_eq!(run.report.cache_misses, 3, "one compile per stage kernel");
    assert_eq!(
        run.report.cache_hits,
        (3 * (n - 1)) as u64,
        "every steady-state launch must hit"
    );
    assert!(run.report.cache_hit_rate > 0.8);
}

/// A warm frame is bind, run, download: over a 32-frame run the chain
/// builds one tape and lowers one warp program per stage, every later
/// launch runs the kept tape, and a second run of the same stream builds
/// nothing at all.
#[test]
fn warm_frames_reuse_one_prepared_kernel_per_stage() {
    let n = 32;
    let stream = three_stage_stream("prepared").with_config(StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Simd),
        ..StreamConfig::default()
    });
    let cache = stream.cache();
    let counts = || {
        (
            cache.tapes_built(),
            cache.warps_lowered(),
            cache.tapes_reused(),
        )
    };
    let first = stream.run(frame_sequence(n)).unwrap();
    assert_eq!(first.report.frames_out, n);
    assert_eq!(counts(), (3, 3, 3 * (n as u64 - 1)));
    let second = stream.run(frame_sequence(n)).unwrap();
    assert_eq!(counts(), (3, 3, 3 * (2 * n as u64 - 1)));
    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        assert_eq!(a.image.max_abs_diff(&b.image), 0.0, "frame {}", a.seq);
    }
}

/// Two streams with distinct lanes merge into one valid Chrome trace
/// with one `tid` track per stream.
#[test]
fn concurrent_streams_get_their_own_trace_lanes() {
    let cache = Arc::new(KernelCache::default());
    let pool = Arc::new(WorkerPool::new(2));
    let mk = |name: &str, lane: u32| {
        three_stage_stream(name)
            .with_shared(Arc::clone(&cache), Arc::clone(&pool))
            .with_config(StreamConfig {
                workers: Some(2),
                engine: Some(Engine::Bytecode),
                lane,
                ..StreamConfig::default()
            })
    };
    let a = mk("lane-a", 2);
    let b = mk("lane-b", 3);
    let (run_a, run_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| a.run(frame_sequence(3)).unwrap());
        let hb = scope.spawn(|| b.run(frame_sequence(3)).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(run_a.report.frames_out, 3);
    assert_eq!(run_b.report.frames_out, 3);
    assert!(run_a.report.spans.iter().all(|s| s.lane == 2));
    assert!(run_b.report.spans.iter().all(|s| s.lane == 3));

    let mut spans = run_a.report.spans.clone();
    spans.extend(run_b.report.spans.iter().cloned());
    let trace = hipacc_profile::chrome::trace_json(&spans);
    hipacc_profile::chrome::validate(&trace).expect("merged trace must validate");
    assert!(trace.contains("\"tid\":2") && trace.contains("\"tid\":3"));

    // The two streams shared one cache over 18 launches of 3 distinct
    // kernels. Concurrent first-frame lookups of the same key may both
    // miss before either inserts, so the miss count is bounded, not
    // exact — but the key set is, and every lookup is accounted for.
    assert_eq!(cache.len(), 3);
    assert!(
        (3..=6).contains(&cache.misses()),
        "misses: {}",
        cache.misses()
    );
    assert_eq!(cache.hits() + cache.misses(), 18);
    // Each stream counts its own 9 launches, not the other's.
    for run in [&run_a, &run_b] {
        assert_eq!(run.report.cache_hits + run.report.cache_misses, 9);
    }
    assert_eq!(
        run_a.report.cache_misses + run_b.report.cache_misses,
        cache.misses()
    );
}

// ---------------------------------------------------------------------
// Stream configuration validation (R0605): a nonsensical knob is
// rejected at construction, before any frame is enqueued.
// ---------------------------------------------------------------------

fn validated_stream(config: StreamConfig) -> Stream {
    Stream::new("validated", Target::cuda(device::tesla_c2050()))
        .stage("sobel", sobel_operator(true, BoundaryMode::Clamp))
        .with_config(config)
}

fn reject(config: StreamConfig, what: &str) {
    let err = validated_stream(config.clone())
        .run(frame_sequence(1))
        .expect_err(&format!("{what} must be rejected by run()"));
    assert!(
        err.to_string().contains("R0605"),
        "{what}: the rejection must carry the typed code, got: {err}"
    );
    let err = validated_stream(config)
        .run_sequential(frame_sequence(1))
        .expect_err(&format!("{what} must be rejected by run_sequential()"));
    assert!(err.to_string().contains("R0605"), "{what}: {err}");
}

#[test]
fn zero_valued_stream_knobs_are_rejected_with_r0605() {
    let defaults = StreamConfig::default();
    assert!(defaults.validate().is_ok(), "defaults validate clean");
    assert_eq!(
        defaults.resolve_workers().unwrap(),
        hipacc_runtime::DEFAULT_WORKERS
    );
    assert_eq!(
        defaults.resolve_queue_capacity().unwrap(),
        hipacc_runtime::DEFAULT_QUEUE_CAPACITY
    );
    let info = hipacc_core::explain("R0605").expect("R0605 must be registered");
    assert!(!info.summary.is_empty());

    reject(
        StreamConfig {
            workers: Some(0),
            ..StreamConfig::default()
        },
        "zero workers",
    );
    reject(
        StreamConfig {
            queue_capacity: Some(0),
            ..StreamConfig::default()
        },
        "zero queue capacity",
    );
    reject(
        StreamConfig {
            frame_deadline_us: Some(0),
            ..StreamConfig::default()
        },
        "zero frame deadline",
    );
    reject(
        StreamConfig {
            stream_budget_us: Some(0),
            ..StreamConfig::default()
        },
        "zero stream budget",
    );
    reject(
        StreamConfig {
            breaker_threshold: Some(0),
            ..StreamConfig::default()
        },
        "zero breaker threshold",
    );
    reject(
        StreamConfig {
            probe_after: 0,
            ..StreamConfig::default()
        },
        "zero probe interval",
    );
    reject(
        StreamConfig {
            close_after: 0,
            ..StreamConfig::default()
        },
        "zero close interval",
    );
}

/// A stream without stages is an unusable configuration like any other:
/// typed R0605 from both run modes, not an assertion failure.
#[test]
fn an_empty_stage_chain_is_rejected_with_r0605() {
    let empty = Stream::new("empty", Target::cuda(device::tesla_c2050()));
    for result in [
        empty.run(frame_sequence(1)),
        empty.run_sequential(frame_sequence(1)),
    ] {
        let msg = result.expect_err("no stages, no run").to_string();
        assert!(
            msg.contains("R0605") && msg.contains("no stages"),
            "got: {msg}"
        );
    }
}
