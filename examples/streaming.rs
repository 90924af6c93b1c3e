//! Streaming runtime demo: two concurrent frame streams sharing one
//! kernel cache and one worker pool.
//!
//! A 3-stage operator chain (Gaussian smooth → Sobel gradient →
//! Laplacian sharpen) processes a 12-frame sequence three ways:
//!
//! 1. **sequential baseline** — frames one at a time, fresh compile on
//!    every launch (the pre-streaming cost model);
//! 2. **streamed** — the pipelined runtime with a bounded in-flight
//!    window, where steady-state frames are served from the shared
//!    kernel cache;
//! 3. **streamed with a fault** — a transient hang injected into one
//!    frame, recovered by the launch supervisor without stalling any
//!    other frame.
//!
//! Then two streams run *concurrently* on a shared cache + pool, each
//! on its own trace lane. The example self-validates: every streamed
//! frame must be bit-identical to its sequential twin, frame counts
//! must balance, the steady-state cache hit rate must be high, every warm
//! frame must run its stage's kept tape, and the merged Chrome trace must
//! validate with one `tid` per stream.
//!
//! ```text
//! cargo run --release --example streaming [TRACE_PATH] [REPORT_PATH]
//! ```
//!
//! Defaults: `target/streaming_trace.json`, `target/streaming_report.json`.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use hipacc_core::{Engine, FaultPlan, KernelCache, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_runtime::{Stream, StreamConfig, StreamRun};
use hipacc_sim::pool::WorkerPool;

const FRAMES: usize = 12;
const SIZE: u32 = 48;

/// The drifting input sequence: one vessel phantom per frame with a
/// small deterministic per-frame perturbation.
fn frame_sequence() -> Vec<Image<f32>> {
    (0..FRAMES)
        .map(|i| {
            let mut img = phantom::vessel_tree(SIZE, SIZE, &phantom::VesselParams::default());
            for (j, px) in img.raw_mut().iter_mut().enumerate() {
                *px += ((i * 7 + j) % 13) as f32 * 1e-3;
            }
            img
        })
        .collect()
}

/// The demo chain: smooth → edge → sharpen.
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
            "{what}: frame {} diverged from the sequential baseline",
            s.seq
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let trace_path = args
        .next()
        .unwrap_or_else(|| "target/streaming_trace.json".to_string());
    let report_path = args
        .next()
        .unwrap_or_else(|| "target/streaming_report.json".to_string());

    let frames = frame_sequence();
    let config = StreamConfig {
        workers: Some(3),
        queue_capacity: Some(4),
        engine: Some(Engine::Simd),
        ..StreamConfig::default()
    };

    // 1. Sequential baseline: fresh compile on every launch.
    let sequential = chain(
        "baseline",
        StreamConfig {
            share_cache: false,
            ..config.clone()
        },
    )
    .run_sequential(frames.clone())
    .expect("sequential baseline");
    assert_eq!(sequential.report.frames_out, FRAMES);

    // 2. Streamed: pipelined, steady state served from the cache.
    let video = chain("video", config.clone());
    let streamed = video.run(frames.clone()).expect("streaming run");
    assert_eq!(streamed.report.frames_in, FRAMES);
    assert_eq!(streamed.report.frames_out, FRAMES);
    assert_bit_identical(&streamed, &sequential, "streamed run");
    assert!(
        streamed.report.cache_hit_rate > 0.8,
        "steady-state frames must be served from the shared cache, got {}",
        streamed.report.cache_hit_rate
    );
    print!("{}", streamed.report.render_text());
    println!("ok: streamed outputs bit-identical to the sequential baseline");
    // A warm frame binds its pixels and runs the stage's kept tape: one
    // tape built and one warp program lowered per stage, all in frame 0.
    let cache = video.cache();
    let stages = 3;
    println!(
        "  tapes: {} built, {} reused, {} warp programs lowered",
        cache.tapes_built(),
        cache.tapes_reused(),
        cache.warps_lowered()
    );
    assert_eq!(cache.tapes_built(), stages);
    assert_eq!(cache.warps_lowered(), stages);
    assert_eq!(cache.tapes_reused(), stages * (FRAMES as u64 - 1));
    println!("ok: warm frames reused one prepared kernel per stage");
    println!();

    // 3. Streamed with a transient hang on frame 4: the supervisor
    // retries that frame; its neighbours never notice.
    let faulty = chain(
        "video-faulty",
        StreamConfig {
            faults: HashMap::from([(4, FaultPlan::hang_block(44, (0, 1), 10_000))]),
            ..config.clone()
        },
    )
    .run(frames.clone())
    .expect("faulty streaming run");
    assert_eq!(faulty.report.frames_out, FRAMES);
    assert!(
        faulty.report.failed.is_empty(),
        "the hang must be recovered"
    );
    assert!(faulty.report.recovered_frames >= 1);
    assert_bit_identical(&faulty, &sequential, "recovered run");
    print!("{}", faulty.report.render_text());
    println!("ok: transient fault on frame 4 recovered; no frame stalled or diverged");
    println!();

    // 4. Two concurrent streams on one shared cache + worker pool, each
    // on its own trace lane.
    let cache = Arc::new(KernelCache::new(16));
    let pool = Arc::new(WorkerPool::new(3));
    let (left, right) = thread::scope(|scope| {
        let l = scope.spawn(|| {
            chain(
                "cine-a",
                StreamConfig {
                    lane: 2,
                    ..config.clone()
                },
            )
            .with_shared(Arc::clone(&cache), Arc::clone(&pool))
            .run(frame_sequence())
            .expect("stream cine-a")
        });
        let r = scope.spawn(|| {
            chain(
                "cine-b",
                StreamConfig {
                    lane: 3,
                    ..config.clone()
                },
            )
            .with_shared(Arc::clone(&cache), Arc::clone(&pool))
            .run(frame_sequence())
            .expect("stream cine-b")
        });
        (l.join().expect("cine-a"), r.join().expect("cine-b"))
    });
    assert_bit_identical(&left, &sequential, "concurrent stream cine-a");
    assert_bit_identical(&right, &sequential, "concurrent stream cine-b");
    assert_eq!(cache.len(), 3, "both streams share one entry per stage");
    print!("{}", left.report.render_text());
    print!("{}", right.report.render_text());
    println!("ok: concurrent streams share the cache and stay bit-identical");
    // Each stream counts its own lookups: one per frame and stage.
    let launches = FRAMES as u64 * stages;
    for run in [&left, &right] {
        let counted = run.report.cache_hits + run.report.cache_misses;
        assert_eq!(
            counted, launches,
            "{} counted another stream's lookups",
            run.report.stream
        );
    }
    println!("ok: each concurrent stream reports its own {launches} cache lookups");
    println!();

    // Merge all spans into one trace: one lane (`tid`) per stream.
    let mut spans = streamed.report.spans.clone();
    spans.extend(faulty.report.spans.iter().cloned());
    spans.extend(left.report.spans.iter().cloned());
    spans.extend(right.report.spans.iter().cloned());
    spans.sort_by_key(|s| s.start_us);
    let trace = hipacc_profile::chrome::trace_json(&spans);
    let n_events = hipacc_profile::chrome::validate(&trace).expect("emitted trace must validate");
    assert!(trace.contains("\"tid\":2") && trace.contains("\"tid\":3"));
    std::fs::write(&trace_path, &trace).expect("write trace file");
    println!("wrote {n_events} trace events to {trace_path}");

    // Machine-readable report for the CI gate: the plain streamed run.
    std::fs::write(&report_path, streamed.report.to_json()).expect("write report file");
    println!("wrote stream report to {report_path}");
    println!("ok: streaming demo finished");
}
