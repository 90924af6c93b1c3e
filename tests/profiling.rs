//! Integration tests for the observability layer: `execute_profiled`
//! must tell the truth.
//!
//! * Per-region execution counters sum **exactly** to the launch totals
//!   for every shipped filter on every frozen device (the cross-check
//!   the `LaunchProfile` itself enforces).
//! * Profiling never perturbs semantics: outputs and statistics are
//!   bit-identical to the plain `execute` path, across both engines and
//!   any simulator worker count.
//! * The strided block scheduler balances work: per-worker block counts
//!   differ by at most one.
//! * The exported Chrome trace round-trips through the bundled JSON
//!   parser and carries the compile-phase and launch spans.
//! * `opt:uniformity` times the fixpoint `flatten` consumes: one span
//!   per opt-1 compile, none when nothing would read the result.

use hipacc_core::prelude::*;
use hipacc_core::{Engine, Operator, Target};
use hipacc_filters::{
    bilateral::bilateral_operator, boxf::box_operator, gaussian::gaussian_operator,
    harris::harris_response_kernel, laplacian::laplacian_operator, median::median3_operator,
    pyramid::attenuate_kernel, sobel::sobel_operator,
};
use hipacc_hwmodel::{device, Vendor};
use hipacc_image::phantom;

/// The five frozen device models of the evaluation.
fn frozen_devices() -> Vec<hipacc_hwmodel::DeviceModel> {
    vec![
        device::tesla_c2050(),
        device::quadro_fx_5800(),
        device::radeon_hd_5870(),
        device::radeon_hd_6970(),
        device::geforce_8800_gtx(),
    ]
}

/// One representative operator per shipped filter module.
fn shipped_operators() -> Vec<(&'static str, Operator)> {
    let m = BoundaryMode::Clamp;
    vec![
        ("bilateral", bilateral_operator(1, 5, true, m)),
        ("box", box_operator(5, 5, m)),
        ("gaussian", gaussian_operator(5, 1.1, m)),
        (
            "harris",
            Operator::new(harris_response_kernel(3, 0.04))
                .boundary("Ixx", m, 3, 3)
                .boundary("Iyy", m, 3, 3)
                .boundary("Ixy", m, 3, 3),
        ),
        ("laplacian", laplacian_operator(m)),
        ("median", median3_operator(m)),
        (
            "pyramid",
            Operator::new(attenuate_kernel()).param_float("threshold", 0.1),
        ),
        ("sobel", sobel_operator(true, m)),
    ]
}

fn test_image() -> Image<f32> {
    phantom::vessel_tree(96, 80, &phantom::VesselParams::default())
}

/// Bind the test image to every accessor the filter reads (the Harris
/// response kernel has three).
fn inputs<'a>(name: &str, img: &'a Image<f32>) -> Vec<(&'static str, &'a Image<f32>)> {
    if name == "harris" {
        vec![("Ixx", img), ("Iyy", img), ("Ixy", img)]
    } else {
        vec![("Input", img)]
    }
}

/// Every shipped filter × every frozen device × both backends: the
/// per-region counters must sum exactly to the launch totals and the
/// region block counts must cover the grid. (AMD devices are
/// OpenCL-only, as in the paper's toolchain.)
#[test]
fn per_region_stats_sum_to_launch_totals_across_the_sweep() {
    let img = test_image();
    for (name, op) in shipped_operators() {
        for dev in frozen_devices() {
            let mut targets = vec![Target::opencl(dev.clone())];
            if dev.vendor != Vendor::Amd {
                targets.push(Target::cuda(dev.clone()));
            }
            for target in targets {
                let (run, profile) = op
                    .execute_profiled(&inputs(name, &img), &target, Engine::default())
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.label()));
                profile
                    .cross_check()
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.label()));
                assert_eq!(
                    profile.totals,
                    run.stats,
                    "{name} on {}: profile totals diverge from execution stats",
                    target.label()
                );
                assert!(
                    !profile.regions.is_empty(),
                    "{name} on {}: no regions attributed",
                    target.label()
                );
            }
        }
    }
}

/// Profiling is observation only: output image and statistics are
/// bit-identical to the plain `execute` path on both engines.
#[test]
fn profiled_run_matches_plain_execute() {
    let img = test_image();
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let target = Target::cuda(device::tesla_c2050());
    for engine in [Engine::Bytecode, Engine::Simd] {
        let plain = op
            .execute_with(&[("Input", &img)], &target, engine)
            .unwrap();
        let (profiled, _) = op
            .execute_profiled(&[("Input", &img)], &target, engine)
            .unwrap();
        assert_eq!(plain.stats, profiled.stats, "{engine:?}");
        assert_eq!(
            plain.output.max_abs_diff(&profiled.output),
            0.0,
            "{engine:?}"
        );
    }
}

/// Both engines agree on the full profile: totals, per-region counters
/// and outputs.
#[test]
fn engines_agree_on_region_profiles() {
    let img = test_image();
    let op = bilateral_operator(1, 5, true, BoundaryMode::Clamp);
    let target = Target::cuda(device::tesla_c2050());
    let (run_bc, p_bc) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::Bytecode)
        .unwrap();
    let (run_sd, p_sd) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::Simd)
        .unwrap();
    assert_eq!(run_bc.output.max_abs_diff(&run_sd.output), 0.0);
    assert_eq!(p_bc.totals, p_sd.totals);
    assert_eq!(p_bc.regions, p_sd.regions);
}

/// The strided scheduler: any worker count produces bit-identical
/// outputs and statistics, and spreads blocks evenly (per-worker counts
/// differ by at most one). Worker counts are pinned through the
/// `sim_threads` option, not the environment, so parallel test threads
/// cannot race.
#[test]
fn outputs_bit_identical_across_worker_counts() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    for engine in [Engine::Bytecode, Engine::Simd] {
        let mut reference: Option<(Image<f32>, hipacc_sim::ExecStats)> = None;
        for workers in [1usize, 3, 4, 7] {
            let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
            op.options.sim_threads = Some(workers);
            let (run, profile) = op
                .execute_profiled(&[("Input", &img)], &target, engine)
                .unwrap();
            assert_eq!(
                profile.n_workers, workers,
                "{engine:?}: requested worker count must be honoured"
            );
            let (min, max) = profile
                .blocks_per_worker
                .iter()
                .fold((usize::MAX, 0), |(lo, hi), &n| (lo.min(n), hi.max(n)));
            assert!(
                max - min <= 1,
                "{engine:?}/{workers} workers: unbalanced block counts {:?}",
                profile.blocks_per_worker
            );
            match &reference {
                None => reference = Some((run.output, run.stats)),
                Some((out, stats)) => {
                    assert_eq!(
                        out.max_abs_diff(&run.output),
                        0.0,
                        "{engine:?}/{workers} workers: output diverged"
                    );
                    assert_eq!(*stats, run.stats, "{engine:?}/{workers} workers");
                }
            }
        }
    }
}

/// The exported Chrome trace is well-formed JSON with the spans the
/// pipeline promises: compile phases, verifier passes, and the launch.
#[test]
fn chrome_trace_round_trips_with_expected_spans() {
    let img = test_image();
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let target = Target::cuda(device::tesla_c2050());
    let (_, profile) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::default())
        .unwrap();

    let trace = profile.chrome_trace();
    let n_events = hipacc_profile::chrome::validate(&trace).expect("trace must validate");
    assert_eq!(n_events, profile.spans.len());

    let doc = hipacc_profile::json::parse(&trace).unwrap();
    let events = doc.as_object().unwrap()["traceEvents"].as_array().unwrap();
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.as_object().unwrap()["name"].as_str().unwrap())
        .collect();
    for expected in [
        "specialize",
        "config-select",
        "lowering",
        "emission",
        "verify",
        "verify:taint",
        "verify:bounds",
        "execute",
    ] {
        assert!(
            names.contains(&expected),
            "missing span {expected:?} in {names:?}"
        );
    }
}

/// `opt:uniformity` is the thread-dependence fixpoint `flatten` asks
/// about, computed on the body that pass is about to walk: exactly one
/// span per opt-1 compile, directly before `opt:flatten`, and none when
/// no pass would read the result (opt 0, or `flatten` vetoed).
#[test]
fn uniformity_span_times_the_value_flatten_uses() {
    let target = Target::cuda(device::tesla_c2050());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let opt_spans = |opt_level: u8, disabled: &[&str]| -> Vec<String> {
        let mut spec = op.compile_spec(&target, 96, 80);
        spec.opt_level = opt_level;
        spec.disabled_passes = disabled.iter().map(|p| p.to_string()).collect();
        let mut rec = hipacc_profile::Recorder::new();
        hipacc_codegen::Compiler::new()
            .compile_with_sink(&op.def, &spec, &mut rec)
            .unwrap();
        let spans = rec.into_spans().into_iter().map(|s| s.name);
        spans.filter(|n| n.starts_with("opt:")).collect()
    };

    let names = opt_spans(1, &[]);
    let at = names.iter().position(|n| n == "opt:uniformity").unwrap();
    assert_eq!(
        names[at - 1..=at + 1],
        ["opt:strength-reduce", "opt:uniformity", "opt:flatten"]
    );
    assert!(!names[at + 1..].contains(&names[at]), "{names:?}");

    assert_eq!(opt_spans(0, &[]), Vec::<String>::new());

    let names = opt_spans(1, &[hipacc_ir::opt::PASS_FLATTEN]);
    assert!(names.contains(&"opt:strength-reduce".to_string()));
    assert!(
        !names
            .iter()
            .any(|n| n == "opt:uniformity" || n == "opt:flatten"),
        "{names:?}"
    );
}

/// `phase_times` rides on every compile, profiled or not, and names the
/// pipeline's phases in order.
#[test]
fn phase_times_populated_on_plain_compiles() {
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let compiled = op
        .compile(&Target::cuda(device::tesla_c2050()), 96, 80)
        .unwrap();
    let names: Vec<&str> = compiled
        .phase_times
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "specialize",
            "access-analysis",
            "mem-path",
            "resource-probe",
            "config-select",
            "lowering",
            "resources",
            "optimize",
            "emission",
            "verify",
        ]
    );
    assert!(compiled.phase_times.iter().all(|(_, ms)| *ms >= 0.0));
}
