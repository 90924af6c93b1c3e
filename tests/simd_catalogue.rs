//! The shipped catalogue on the simd engine: every filter (plus one ROI
//! launch) × four border modes × the six evaluation targets must run on
//! the vector path — no
//! block may fall back to the scalar engine, for any cause, and every
//! block is accounted for as a lockstep block — and stay bit- and
//! stat-identical to the scalar bytecode engine and, on the first target,
//! to the tree-walking specification.

use hipacc_core::{pipeline, Engine, KernelCache, Operator, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::boxf::box_operator;
use hipacc_filters::gaussian::{gaussian_operator, gaussian_separable_operators};
use hipacc_filters::harris::harris_response_kernel;
use hipacc_filters::laplacian::{laplacian_operator, unsharp_operator};
use hipacc_filters::median::median3_operator;
use hipacc_filters::pyramid::attenuate_kernel;
use hipacc_filters::sobel::{sobel_magnitude_operator, sobel_operator};
use hipacc_image::{phantom, BoundaryMode, Image};

const MODES: [BoundaryMode; 4] = [
    BoundaryMode::Clamp,
    BoundaryMode::Repeat,
    BoundaryMode::Mirror,
    BoundaryMode::Constant(0.25),
];

/// Every operator the filters crate ships, built for `mode`, with the
/// accessors it reads.
fn catalogue(mode: BoundaryMode) -> Vec<(&'static str, Operator, Vec<&'static str>)> {
    let (row, col) = gaussian_separable_operators(5, 1.0, mode);
    let harris = Operator::new(harris_response_kernel(3, 0.04))
        .boundary("Ixx", mode, 3, 3)
        .boundary("Iyy", mode, 3, 3)
        .boundary("Ixy", mode, 3, 3);
    let one = |name, op| (name, op, vec!["Input"]);
    vec![
        one("gaussian3", gaussian_operator(3, 0.8, mode)),
        one("gaussian5", gaussian_operator(5, 1.1, mode)),
        // An interior ROI launch: the grid covers only part of the frame,
        // so the iteration-space offsets are live.
        one(
            "gaussian5-roi",
            gaussian_operator(5, 1.1, mode).with_roi(4, 4, 20, 10),
        ),
        one("gaussian-row", row),
        one("gaussian-col", col),
        one("box7", box_operator(7, 7, mode)),
        one("sobel-x", sobel_operator(true, mode)),
        one("sobel-y", sobel_operator(false, mode)),
        one("sobel-magnitude", sobel_magnitude_operator(mode)),
        one("laplacian", laplacian_operator(mode)),
        one("unsharp", unsharp_operator(0.7, mode)),
        one("median3", median3_operator(mode)),
        one("bilateral-3", bilateral_operator(3, 5, true, mode)),
        one("bilateral-1-masked", bilateral_operator(1, 5, false, mode)),
        one(
            "attenuate",
            Operator::new(attenuate_kernel()).param_float("threshold", 0.05),
        ),
        ("harris-response", harris, vec!["Ixx", "Iyy", "Ixy"]),
    ]
}

/// The simd engine's own account of one launch of `kernel` under `spec`.
fn simd_telemetry(
    kernel: &hipacc_ir::kernel::DeviceKernelDef,
    spec: &hipacc_sim::launch::LaunchSpec<'_>,
) -> hipacc_sim::SimdTelemetry {
    let memo = Default::default();
    let run = hipacc_sim::run_on_image_instrumented(kernel, spec, Engine::Simd, true, None, &memo)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    run.exec.and_then(|e| e.simd).expect("simd telemetry")
}

#[test]
fn no_shipped_filter_falls_back_to_the_scalar_engine() {
    // Not a multiple of any block size: partial warps and border blocks
    // on every side.
    let img: Image<f32> = phantom::vessel_tree(28, 18, &phantom::VesselParams::default());
    // Each kernel compiles once; the oracle launch is a cache hit.
    let cache = std::sync::Arc::new(KernelCache::new(8));
    let mut launches = 0;
    let same_bits = |a: &Image<f32>, b: &Image<f32>| {
        let bits = |v: &f32| v.to_bits();
        a.raw().iter().map(bits).eq(b.raw().iter().map(bits))
    };
    for (ti, target) in Target::evaluation_targets().into_iter().enumerate() {
        for mode in MODES {
            for (name, mut op, accessors) in catalogue(mode) {
                op.options.sim_threads = Some(1);
                op.options.cache = Some(cache.clone());
                let inputs: Vec<(&str, &Image<f32>)> =
                    accessors.iter().map(|a| (*a, &img)).collect();
                let at = format!("{name} / {} / {}", mode.name(), target.label());
                let (simd, profile) = op
                    .execute_profiled(&inputs, &target, Engine::Simd)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(profile.scalar_fallback_blocks, 0, "{at}");
                assert!(profile.fallback_causes.is_empty(), "{at}");
                let uniform = profile.warp_uniform_share.expect("simd telemetry");
                assert!(uniform > 0.0 && uniform < 1.0, "{at}: {uniform}");
                if name == "gaussian5" && mode == BoundaryMode::Clamp {
                    // Tap counters, mask indices, the constant-bank load
                    // and the loop branches: most of a stencil's steps. A
                    // lowering that demotes them still passes every
                    // bit-identity check, so pin it here.
                    assert!(uniform > 0.5, "{at}: warp-uniform share {uniform}");
                }
                assert!(!profile.render_text().contains("simd fallback"), "{at}");

                let scalar = op
                    .execute_with(&inputs, &target, Engine::Bytecode)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(simd.stats, scalar.stats, "{at}");
                assert!(
                    same_bits(&simd.output, &scalar.output),
                    "{at}: outputs differ"
                );
                // Every block of the launch ran in lockstep; the
                // profile's share is that count over the grid.
                let kernel = &scalar.compiled.device_kernel;
                let spec =
                    pipeline::launch_spec(&scalar.compiled, &inputs, &op.params, &op.mask_uploads);
                let tel = simd_telemetry(kernel, &spec);
                let blocks = u64::from(spec.grid.0 * spec.grid.1);
                assert_eq!(tel.scalar_fallback_blocks(), 0, "{at}");
                assert_eq!(tel.lockstep_blocks, blocks, "{at}");
                assert_eq!(profile.lockstep_block_share, Some(1.0), "{at}");
                if ti == 0 {
                    // Reference equality for the whole catalogue: the
                    // specification on the same kernel and binding.
                    let (mut mem, params) = hipacc_sim::launch::bind(kernel, &spec).unwrap();
                    let stats = hipacc_sim::interp::execute(kernel, &params, &mut mem)
                        .unwrap_or_else(|e| panic!("{at}: specification: {e}"));
                    assert_eq!(simd.stats, stats, "{at}: specification");
                    let reference = mem.buffer("OUT").unwrap().to_image();
                    assert!(same_bits(&simd.output, &reference), "{at}: specification");
                }
                launches += 1;
            }
        }
    }
    assert_eq!(launches, 6 * 4 * 16);
}

/// The `steady_gauss512` kernel: grid 16×86 of 32×6 blocks over 512 rows,
/// 86·6 = 516, so only the 16 bottom-row blocks hold threads outside the
/// image. Those return inside the extent guard, and their blocks go on in
/// lockstep from its join over the threads left. Every other block —
/// border blocks included, whose clamped taps are branch-free — runs on
/// one program counter from start to end.
#[test]
fn gaussian5_at_512_keeps_every_block_in_lockstep() {
    let img: Image<f32> = phantom::vessel_tree(512, 512, &phantom::VesselParams::default());
    let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
    let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op.options.sim_threads = Some(2);
    let inputs = [("Input", &img)];
    let (run, profile) = op.execute_profiled(&inputs, &target, Engine::Simd).unwrap();
    assert_eq!((profile.grid, profile.block), ((16, 86), (32, 6)));
    assert_eq!(profile.lockstep_block_share, Some(1.0));
    assert!(
        profile
            .render_text()
            .contains("lockstep: 100.0 % of blocks"),
        "{}",
        profile.render_text()
    );
    assert!(
        profile
            .chrome_trace()
            .contains("\"lockstep_block_share\":\"1.0000\""),
        "the execute span carries the share"
    );
    let spec = pipeline::launch_spec(&run.compiled, &inputs, &op.params, &op.mask_uploads);
    let tel = simd_telemetry(&run.compiled.device_kernel, &spec);
    assert_eq!(tel.lockstep_blocks, 1376);
    assert_eq!(tel.scalar_fallback_blocks(), 0);
}

/// The window/level point operator of the display chain:
/// `(v − level) / window + 0.5`.
fn window_level_operator() -> Operator {
    let mut b = hipacc_ir::KernelBuilder::new("WindowLevel", hipacc_ir::ScalarType::F32);
    let input = b.accessor("Input", hipacc_ir::ScalarType::F32);
    let window = b.param("window", hipacc_ir::ScalarType::F32);
    let level = b.param("level", hipacc_ir::ScalarType::F32);
    let v = b.let_("v", hipacc_ir::ScalarType::F32, b.read_center(&input));
    b.output((v.get() - level.get()) / window.get() + hipacc_ir::Expr::float(0.5));
    Operator::new(b.finish())
        .param_float("window", 0.8)
        .param_float("level", 0.3)
}

/// Launches whose blocks hold threads outside the image: the `stream_tiny`
/// stages at 16² (32×8 blocks over a 16-wide image, so half of every
/// block) and the display chain's point stages at 256² (192×1 blocks,
/// the right-hand column's 128 lanes past the edge). Those threads return
/// inside the extent guard's region; the block goes on in lockstep from
/// its join with the threads left. The re-merges are the guard's lazy
/// `||` (the region the threads returned in is not one), and the warp
/// counts are the ones per-warp execution of the same blocks reads.
#[test]
fn blocks_with_threads_past_the_image_stay_in_lockstep() {
    let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
    let params = phantom::VesselParams::default();
    let tiny: Image<f32> = phantom::vessel_tree(16, 16, &params);
    let mid: Image<f32> = phantom::vessel_tree(256, 256, &params);
    let (gauss5, sobel, laplace, attenuate) = (
        gaussian_operator(5, 1.1, BoundaryMode::Clamp),
        sobel_operator(true, BoundaryMode::Clamp),
        laplacian_operator(BoundaryMode::Clamp),
        Operator::new(attenuate_kernel()).param_float("threshold", 0.05),
    );
    // (remerges, region_steps) and (warp_steps, active_lane_sum,
    // uniform_steps) per launch.
    let (tiny_launch, tiny_regions) = (((1, 2), (32, 8)), (2, 12));
    let (mid_launch, mid_regions) = (((2, 256), (192, 1)), (256, 1536));
    let cases = [
        (
            "gauss5",
            gauss5,
            &tiny,
            tiny_launch,
            tiny_regions,
            (9352, 149_632, 5320),
        ),
        (
            "sobel",
            sobel,
            &tiny,
            tiny_launch,
            tiny_regions,
            (4344, 69_504, 2488),
        ),
        (
            "laplace",
            laplace,
            &tiny,
            tiny_launch,
            tiny_regions,
            (4344, 69_504, 2488),
        ),
        (
            "attenuate",
            attenuate,
            &mid,
            mid_launch,
            mid_regions,
            (196_608, 3_145_728, 51_200),
        ),
        (
            "window",
            window_level_operator(),
            &mid,
            mid_launch,
            mid_regions,
            (196_608, 3_145_728, 59_392),
        ),
    ];
    for (name, mut op, img, launch, regions, steps) in cases {
        op.options.sim_threads = Some(1);
        let inputs = [("Input", img)];
        let (run, profile) = op.execute_profiled(&inputs, &target, Engine::Simd).unwrap();
        assert_eq!((profile.grid, profile.block), launch, "{name}");
        assert_eq!(profile.lockstep_block_share, Some(1.0), "{name}");
        let spec = pipeline::launch_spec(&run.compiled, &inputs, &op.params, &op.mask_uploads);
        let tel = simd_telemetry(&run.compiled.device_kernel, &spec);
        let blocks = u64::from(launch.0 .0 * launch.0 .1);
        assert_eq!(tel.scalar_fallback_blocks(), 0, "{name}");
        assert_eq!(tel.lockstep_blocks, blocks, "{name}");
        assert_eq!((tel.remerges, tel.region_steps), regions, "{name}");
        let warp = (tel.warp_steps, tel.active_lane_sum, tel.uniform_steps);
        assert_eq!(warp, steps, "{name}");
    }
}

/// The `steady_bilateral_border` kernel (13×13 taps at 96², grid 3×16 of
/// 32×6) under `mode`: its profile and the simd engine's telemetry.
fn bilateral_at_96(mode: BoundaryMode) -> (hipacc_core::LaunchProfile, hipacc_sim::SimdTelemetry) {
    let img: Image<f32> = phantom::vessel_tree(96, 96, &phantom::VesselParams::default());
    let target = Target::cuda(hipacc_hwmodel::device::tesla_c2050());
    let mut op = bilateral_operator(3, 5, true, mode);
    op.options.sim_threads = Some(1);
    let inputs = [("Input", &img)];
    let (run, profile) = op.execute_profiled(&inputs, &target, Engine::Simd).unwrap();
    assert_eq!((profile.grid, profile.block), ((3, 16), (32, 6)));
    let spec = pipeline::launch_spec(&run.compiled, &inputs, &op.params, &op.mask_uploads);
    let tel = simd_telemetry(&run.compiled.device_kernel, &spec);
    assert_eq!(tel.scalar_fallback_blocks(), 0);
    (profile, tel)
}

/// The `steady_bilateral_border` kernel under `Mirror`. Every mirrored
/// index is a branch diamond that the block's border columns or rows take
/// the other way, so 34 of the 48 blocks meet a varying branch; each runs
/// its diamonds block-wide, lanes grouped by program counter, and
/// re-merges at their joins, so every block ends in lockstep. The warp
/// counts are what running the same blocks warp by warp from start to end
/// reads: neither the regions nor the re-merges move any of them.
#[test]
fn bilateral_mirror_at_96_re_merges_every_border_block() {
    let (profile, tel) = bilateral_at_96(BoundaryMode::Mirror);
    assert_eq!(
        (profile.lockstep_block_share, profile.remerges),
        (Some(1.0), 5022)
    );
    assert_eq!(profile.region_steps, REGION_STEPS);
    let text = profile.render_text();
    let line = format!("lockstep: 100.0 % of blocks, 5022 re-merges, {REGION_STEPS} region steps");
    assert!(text.contains(&line), "{text}");
    let trace = profile.chrome_trace();
    assert!(
        trace.contains("\"remerges\":\"5022\"")
            && trace.contains(&format!("\"region_steps\":\"{REGION_STEPS}\"")),
        "the execute span carries the re-merges and region steps"
    );
    let steps = (tel.warp_steps, tel.active_lane_sum, tel.uniform_steps);
    assert_eq!(steps, (4_015_338, 61_976_544, 1_273_068));
    assert_eq!(tel.lockstep_blocks, 48);
    assert_eq!((tel.remerges, tel.region_steps), (5022, REGION_STEPS));
}

/// Block-wide group steps of the `Mirror` bilateral's regions; run warp
/// by warp the same regions took 346 158 warp steps.
const REGION_STEPS: u64 = 42_687;

/// The same kernel under `Constant(0)`, the border mode with the most
/// varying regions: each tap's in-range test is a branch the border lanes
/// take the other way.
#[test]
fn bilateral_constant_at_96_counts_what_per_warp_execution_counts() {
    let (profile, tel) = bilateral_at_96(BoundaryMode::Constant(0.0));
    assert_eq!(profile.lockstep_block_share, Some(1.0));
    let steps = (tel.warp_steps, tel.active_lane_sum, tel.uniform_steps);
    assert_eq!(steps, (5_548_032, 87_182_064, 1_581_264));
    let pin = (tel.lockstep_blocks, tel.remerges);
    assert_eq!(pin, (48, 6108));
    assert_eq!(tel.region_steps, 63_444);
}
