//! Acceptance tests for producer–consumer kernel fusion.
//!
//! The contract under test:
//!
//! * **Bit-identity** — a fused operator chain (a producer followed by
//!   point consumers, folded into one kernel) produces outputs
//!   bit-identical to the unfused chain, on both engines, for every
//!   boundary mode, including frames small enough that every pixel is
//!   border territory, and under fault injection and breaker pinning;
//! * **Typed fallback** — chains that are illegal to fuse
//!   (`F0101`–`F0104`; a stencil consumer is `F0102`) split there, and a
//!   fused kernel that overflows device resources (`F0105`) runs
//!   per-stage, with the decision recorded in the stream report;
//! * **Cache amortization** — the fused kernel is fingerprinted into
//!   the shared cache like any other: one miss, then steady-state hits.

use hipacc_core::fusion::fuse_operators;
use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{Engine, FaultPlan, Operator, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_hwmodel::device;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_runtime::{Stream, StreamConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// A short sequence of distinct frames (a drifting vessel phantom).
fn frame_sequence(n: usize, w: u32, h: u32) -> Vec<Image<f32>> {
    (0..n)
        .map(|i| {
            let mut img = phantom::vessel_tree(w, h, &phantom::VesselParams::default());
            for (j, px) in img.raw_mut().iter_mut().enumerate() {
                *px += ((i * 7 + j) % 13) as f32 * 1e-3;
            }
            img
        })
        .collect()
}

/// The representative 3-stage chain: smooth, attenuate detail, then
/// window/level for display.
fn three_stage_stream(name: &str, fuse: bool, config: StreamConfig) -> Stream {
    Stream::new(name, Target::cuda(device::tesla_c2050()))
        .stage("gauss5", gaussian_operator(5, 1.1, BoundaryMode::Clamp))
        .stage("attenuate", attenuate_operator())
        .stage("window", window_operator())
        .with_config(StreamConfig { fuse, ..config })
}

fn assert_outputs_identical(
    a: &hipacc_runtime::stream::StreamRun,
    b: &hipacc_runtime::stream::StreamRun,
    what: &str,
) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{what}: output counts");
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.seq, y.seq, "{what}: sequence order");
        assert_eq!(
            x.image.max_abs_diff(&y.image),
            0.0,
            "{what}: frame {} diverged",
            x.seq
        );
    }
}

/// The fused stream is bit-identical to the unfused stream on every
/// engine, and the planner records one fused group covering the chain.
#[test]
fn fused_stream_matches_unfused_bit_for_bit_on_all_engines() {
    for engine in [Engine::Bytecode, Engine::Simd] {
        let config = StreamConfig {
            workers: Some(3),
            engine: Some(engine),
            ..StreamConfig::default()
        };
        let frames = frame_sequence(5, 16, 16);
        let fused = three_stage_stream("fused", true, config.clone())
            .run(frames.clone())
            .unwrap();
        let plain = three_stage_stream("plain", false, config)
            .run(frames)
            .unwrap();

        assert_eq!(fused.report.frames_out, 5, "{}", engine.label());
        assert_eq!(fused.report.stages, vec!["gauss5+attenuate+window"]);
        assert_eq!(fused.report.fusion.len(), 1);
        assert!(fused.report.fusion[0].fused);
        assert_eq!(
            fused.report.fusion[0].stages,
            vec!["gauss5", "attenuate", "window"]
        );
        assert!(plain.report.fusion.is_empty(), "fusion off records nothing");
        assert_outputs_identical(&fused, &plain, engine.label());
    }
}

/// A stencil consumer reads its producer off its own pixel, so it
/// starts a new group: gauss5 → attenuate → sobel → window plans two
/// fused stages, records one typed `F0102` decision at the stencil, and
/// still matches the unfused chain exactly. `fuse_operators` refuses
/// stencil consumers outright.
#[test]
fn illegal_handoff_splits_the_chain_with_a_typed_decision() {
    let build = |name: &str, fuse: bool, engine: Engine| {
        let m = BoundaryMode::Clamp;
        Stream::new(name, Target::cuda(device::tesla_c2050()))
            .stage("gauss5", gaussian_operator(5, 1.1, m))
            .stage("attenuate", attenuate_operator())
            .stage("sobel", sobel_operator(true, m))
            .stage("window", window_operator())
            .with_config(StreamConfig {
                fuse,
                workers: Some(2),
                engine: Some(engine),
                ..StreamConfig::default()
            })
    };
    for engine in [Engine::Bytecode, Engine::Simd] {
        let frames = frame_sequence(4, 16, 16);
        let fused = build("split", true, engine).run(frames.clone()).unwrap();
        let plain = build("plain", false, engine).run(frames).unwrap();

        assert_eq!(
            fused.report.stages,
            vec!["gauss5+attenuate", "sobel+window"]
        );
        let rejects: Vec<_> = fused.report.fusion.iter().filter(|d| !d.fused).collect();
        assert_eq!(rejects.len(), 1, "{:?}", fused.report.fusion);
        assert_eq!(rejects[0].code.as_deref(), Some("F0102"));
        assert_eq!(rejects[0].stages, vec!["attenuate", "sobel"]);
        assert_eq!(fused.report.fusion.iter().filter(|d| d.fused).count(), 2);
        assert_outputs_identical(&fused, &plain, engine.label());
    }

    let m = BoundaryMode::Clamp;
    let chains = [
        vec![
            gaussian_operator(5, 1.1, m),
            attenuate_operator(),
            sobel_operator(true, m),
        ],
        vec![window_operator(), gaussian_operator(5, 1.1, m)],
    ];
    for ops in &chains {
        let refs: Vec<&Operator> = ops.iter().collect();
        let err = fuse_operators(&refs).unwrap_err();
        let codes: Vec<&str> = err.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["F0102"], "{err}");
    }
}

/// A point consumer that scales its own pixel by the centre of a
/// compile-time 91x91 constant mask (33 124 B).
fn centre_scale_operator(name: &str, scale: f32) -> Operator {
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};
    let mut coeffs = vec![0.0; 91 * 91];
    coeffs[91 * 91 / 2] = scale;
    let mut b = KernelBuilder::new(name, ScalarType::F32);
    let input = b.accessor("Input", ScalarType::F32);
    let m = b.mask_const("M", 91, 91, coeffs);
    b.output(b.mask_at(&m, Expr::int(0), Expr::int(0)) * b.read_center(&input));
    Operator::new(b.finish())
}

/// A fused kernel that overflows device resources falls back per-stage
/// with an `F0105` decision — and still produces the unfused chain's
/// exact outputs.
#[test]
fn resource_overflow_falls_back_per_stage_with_f0105() {
    // Each consumer's constant mask fits the Tesla C2050's 64 KiB of
    // constant memory alone; the folded kernel declares both, 66 248 B,
    // which the verifier rejects (A0403, a resource limit).
    let build = |name: &str, fuse: bool| {
        Stream::new(name, Target::cuda(device::tesla_c2050()))
            .stage("gauss5", gaussian_operator(5, 1.1, BoundaryMode::Clamp))
            .stage("wide_a", centre_scale_operator("WideA", 0.5))
            .stage("wide_b", centre_scale_operator("WideB", 3.0))
            .with_config(StreamConfig {
                fuse,
                workers: Some(2),
                engine: Some(Engine::Bytecode),
                ..StreamConfig::default()
            })
    };
    let frames = frame_sequence(1, 16, 16);
    let fused = build("overflow", true).run(frames.clone()).unwrap();
    let plain = build("plain", false).run(frames).unwrap();

    assert_eq!(
        fused.report.stages,
        vec!["gauss5", "wide_a", "wide_b"],
        "the chain must run per-stage"
    );
    let d = fused
        .report
        .fusion
        .iter()
        .find(|d| d.code.as_deref() == Some("F0105"))
        .expect("the overflow decision is recorded");
    assert!(!d.fused);
    assert!(d.detail.contains("A0403"), "{}", d.detail);
    assert_eq!(fused.report.frames_out, 1);
    assert_outputs_identical(&fused, &plain, "resource fallback");
}

/// Fault injection on a fused chain: a hang recovered by a deadline
/// retry leaves the outputs bit-identical to the clean unfused chain,
/// and the pipelined run agrees with its own sequential reference.
#[test]
fn fused_chain_recovers_faults_bit_identically() {
    let mut faults = HashMap::new();
    faults.insert(2u64, FaultPlan::hang_block(44, (0, 1), 10_000));
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        faults,
        ..StreamConfig::default()
    };
    let frames = frame_sequence(5, 48, 40);
    let fused = three_stage_stream("faulty", true, config.clone())
        .run(frames.clone())
        .unwrap();
    let fused_seq = three_stage_stream("faulty-seq", true, config)
        .run_sequential(frames.clone())
        .unwrap();
    let clean = three_stage_stream(
        "clean",
        false,
        StreamConfig {
            workers: Some(2),
            engine: Some(Engine::Bytecode),
            ..StreamConfig::default()
        },
    )
    .run(frames)
    .unwrap();

    assert_eq!(fused.report.frames_out, 5, "no frame may be lost");
    assert!(fused.report.failed.is_empty());
    assert_eq!(
        fused.report.recovered_frames, 1,
        "the hang fired and recovered"
    );
    assert_outputs_identical(&fused, &fused_seq, "fused vs sequential");
    assert_outputs_identical(&fused, &clean, "fused+faults vs clean unfused");
}

/// Breaker pinning on the fused stage: repeated degraded frames open
/// the breaker and pin the proven rung onto the fused kernel — pinned
/// launches recompile with the forced configuration and stay
/// bit-identical to the clean unfused chain.
#[test]
fn breaker_pinning_on_fused_stage_stays_bit_identical() {
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
    let frames = frame_sequence(8, 16, 16);
    let fused = three_stage_stream("pinned", true, config.clone())
        .run(frames.clone())
        .unwrap();
    let fused_seq = three_stage_stream("pinned-seq", true, config)
        .run_sequential(frames.clone())
        .unwrap();
    let clean = three_stage_stream(
        "clean",
        false,
        StreamConfig {
            workers: Some(2),
            engine: Some(Engine::Bytecode),
            ..StreamConfig::default()
        },
    )
    .run(frames)
    .unwrap();

    assert!(fused.report.failed.is_empty(), "every frame recovers");
    assert!(
        !fused.report.breaker_transitions.is_empty(),
        "the breaker must have opened on the fused stage"
    );
    assert_eq!(
        fused.report.breaker_transitions[0].stage, "gauss5+attenuate+window",
        "transitions name the fused stage"
    );
    assert_eq!(
        fused.report.breaker_transitions, fused_seq.report.breaker_transitions,
        "governor decisions must not depend on pipelining"
    );
    assert_outputs_identical(&fused, &fused_seq, "pinned fused vs sequential");
    assert_outputs_identical(&fused, &clean, "pinned fused vs clean unfused");
}

/// The fused kernel amortizes through the shared cache like any other:
/// the planner's pre-flight compile is the chain's one miss and leaves
/// the entry warm, so every frame's launch hits.
#[test]
fn fused_kernel_is_served_from_the_cache() {
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        ..StreamConfig::default()
    };
    let stream = three_stage_stream("cached", true, config);
    let run = stream.run(frame_sequence(8, 16, 16)).unwrap();
    assert_eq!(run.report.frames_out, 8);
    assert_eq!(
        stream.cache().misses(),
        1,
        "one miss: the fused chain compiles once"
    );
    assert_eq!(
        run.report.cache_misses, 0,
        "the pre-flight warmed the entry"
    );
    assert_eq!(run.report.cache_hits, 8, "every frame's launch hits");
    assert_eq!(run.report.cache_hit_rate, 1.0);
}

/// The pre-flight compiles through the stream's cache: a second run of
/// the same fused stream compiles nothing, so two runs add exactly one
/// miss between them.
#[test]
fn fused_preflight_compiles_once_across_runs() {
    let config = StreamConfig {
        workers: Some(2),
        engine: Some(Engine::Bytecode),
        ..StreamConfig::default()
    };
    let stream = three_stage_stream("preflight", true, config);
    let cache = Arc::clone(stream.cache());
    let before = cache.misses();
    for _ in 0..2 {
        let run = stream.run(frame_sequence(4, 16, 16)).unwrap();
        assert_eq!(run.report.frames_out, 4);
        assert_eq!(run.report.cache_misses, 0);
    }
    assert_eq!(cache.misses() - before, 1, "one compile for two runs");
    assert_eq!(cache.len(), 1, "one fused entry");
}

/// Property-style sweep: random-ish drifting geometries and modes stay
/// bit-identical between the fused and unfused chains.
#[test]
fn fused_chain_is_bit_identical_across_geometry_sweep() {
    for (i, (w, h)) in [(8, 8), (11, 5), (17, 23), (32, 9), (33, 31)]
        .into_iter()
        .enumerate()
    {
        let engine = [Engine::Bytecode, Engine::Simd][i % 2];
        let config = StreamConfig {
            workers: Some(2),
            engine: Some(engine),
            ..StreamConfig::default()
        };
        let frames = frame_sequence(3, w, h);
        let fused = three_stage_stream("sweep-f", true, config.clone())
            .run(frames.clone())
            .unwrap();
        let plain = three_stage_stream("sweep-p", false, config)
            .run(frames)
            .unwrap();
        assert_outputs_identical(&fused, &plain, &format!("{w}x{h}"));
    }
}

/// The window/level point operator `(v − level) / window + 0.5`.
fn window_operator() -> Operator {
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};
    let mut b = KernelBuilder::new("WindowLevel", ScalarType::F32);
    let input = b.accessor("Input", ScalarType::F32);
    let window = b.param("window", ScalarType::F32);
    let level = b.param("level", ScalarType::F32);
    let v = b.let_("v", ScalarType::F32, b.read_center(&input));
    b.output((v.get() - level.get()) / window.get() + Expr::float(0.5));
    Operator::new(b.finish())
        .param_float("window", 0.8)
        .param_float("level", 0.3)
}

fn attenuate_operator() -> Operator {
    Operator::new(hipacc_filters::pyramid::attenuate_kernel()).param_float("threshold", 0.05)
}

/// Point consumers fold into their producer (register handoff): every
/// chain stays bit-identical to the sequential chain on both engines and
/// compiles to one ordinary kernel — no staging tile, no barrier, and
/// the same texture reads as the unfused first stage.
#[test]
fn point_consumers_fold_into_their_producer() {
    type Chain = fn(BoundaryMode) -> Vec<Operator>;
    let chains: [(&str, Chain); 2] = [
        ("gauss5+attenuate+window", |m| {
            vec![
                gaussian_operator(5, 1.1, m),
                attenuate_operator(),
                window_operator(),
            ]
        }),
        ("attenuate+window", |_| {
            vec![attenuate_operator(), window_operator()]
        }),
    ];
    let mut cases = Vec::new();
    for (name, chain) in chains {
        for mode in [
            BoundaryMode::Clamp,
            BoundaryMode::Mirror,
            BoundaryMode::Constant(0.25),
        ] {
            for size in [(9, 7), (16, 16), (40, 33)] {
                cases.push((name, chain(mode), size));
            }
        }
    }
    // A partial ROI fuses when every stage iterates the same one (F0101).
    let roi = chains[0].1(BoundaryMode::Mirror)
        .into_iter()
        .map(|op| op.with_roi(3, 2, 20, 17));
    cases.push(("gauss5+attenuate+window", roi.collect(), (40, 33)));

    for (name, ops, (w, h)) in &cases {
        let refs: Vec<&Operator> = ops.iter().collect();
        let fused = fuse_operators(&refs).unwrap();
        let img = phantom::vessel_tree(*w, *h, &phantom::VesselParams::default());
        for target in [
            Target::cuda(device::tesla_c2050()),
            Target::opencl(device::radeon_hd_5870()),
        ] {
            for engine in [Engine::Bytecode, Engine::Simd] {
                let what = format!("{name} {w}x{h} {:?} {}", target.backend, engine.label());
                let mut cur = img.clone();
                let mut stage0_tex = None;
                for op in &refs {
                    let run = op
                        .execute_with(&[("Input", &cur)], &target, engine)
                        .unwrap();
                    stage0_tex.get_or_insert(run.stats.tex_fetches);
                    cur = run.output;
                }
                let got = fused
                    .execute_with(&[("Input", &img)], &target, engine)
                    .unwrap();
                assert_eq!(got.output.max_abs_diff(&cur), 0.0, "{what} diverged");
                assert!(got.compiled.device_kernel.shared.is_empty(), "{what}");
                assert_eq!(got.stats.barriers, 0, "{what}");
                assert_eq!(got.stats.shared_loads, 0, "{what}");
                assert_eq!(got.stats.tex_fetches, stage0_tex.unwrap(), "{what}");
            }
        }
    }
}
