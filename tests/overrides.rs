//! Launch override precedence: **explicit spec > environment >
//! default**, with conflicts surfaced as `R0203` diagnostics instead of
//! silently ignored environment variables.
//!
//! The failure mode under test: a benchmark shell exports
//! `HIPACC_SIM_ENGINE=simd`, the code under measurement pins
//! `engine: Some(Bytecode)` — before this contract, the run silently
//! measured a different engine than one of the two parties believed.
//! Now the explicit setting always wins and the disagreement lands in
//! the launch profile.

use hipacc_core::{Engine, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_hwmodel::device;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_sim::launch::ENGINE_ENV;
use hipacc_sim::sched::THREADS_ENV;
use std::sync::Mutex;

/// Env-var manipulation must be serialized across the test threads of
/// this binary (same pattern as `tests/optimizer.rs`).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn test_image() -> Image<f32> {
    phantom::vessel_tree(64, 48, &phantom::VesselParams::default())
}

fn op() -> hipacc_core::Operator {
    gaussian_operator(5, 1.1, BoundaryMode::Clamp)
}

#[test]
fn explicit_engine_beats_conflicting_env_and_is_reported() {
    let _g = ENV_LOCK.lock().unwrap();
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());

    std::env::remove_var(ENGINE_ENV);
    std::env::remove_var(THREADS_ENV);
    let (reference, clean) = op()
        .execute_profiled(&[("Input", &img)], &target, Engine::Bytecode)
        .unwrap();
    assert!(clean.override_conflicts.is_empty());

    std::env::set_var(ENGINE_ENV, "simd");
    let (run, profile) = op()
        .execute_profiled(&[("Input", &img)], &target, Engine::Bytecode)
        .unwrap();
    std::env::remove_var(ENGINE_ENV);

    assert_eq!(profile.engine, "bytecode", "the explicit engine must run");
    assert_eq!(profile.override_conflicts.len(), 1);
    let c = &profile.override_conflicts[0];
    assert!(
        c.contains(ENGINE_ENV) && c.contains("engine=bytecode") && c.contains("simd"),
        "conflict must name both sides: {c}"
    );
    assert!(profile.render_text().contains("override conflict"));
    assert!(
        profile
            .spans
            .iter()
            .any(|s| s.name == "override-conflict" && s.cat == "diagnostic"),
        "the conflict must appear as a diagnostic span"
    );
    assert_eq!(reference.output.max_abs_diff(&run.output), 0.0);
}

#[test]
fn explicit_threads_beat_conflicting_env_and_are_reported() {
    let _g = ENV_LOCK.lock().unwrap();
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());

    std::env::set_var(THREADS_ENV, "7");
    let mut pinned = op();
    pinned.options.sim_threads = Some(2);
    let (run, profile) = pinned
        .execute_profiled(&[("Input", &img)], &target, Engine::Bytecode)
        .unwrap();
    std::env::remove_var(THREADS_ENV);

    assert_eq!(profile.n_workers, 2, "the explicit thread count must run");
    assert_eq!(profile.override_conflicts.len(), 1);
    let c = &profile.override_conflicts[0];
    assert!(
        c.contains(THREADS_ENV) && c.contains("sim_threads=2") && c.contains('7'),
        "conflict must name both sides: {c}"
    );

    std::env::remove_var(ENGINE_ENV);
    let reference = op().execute(&[("Input", &img)], &target).unwrap();
    assert_eq!(reference.output.max_abs_diff(&run.output), 0.0);
}

#[test]
fn agreeing_explicit_and_env_settings_are_not_a_conflict() {
    let _g = ENV_LOCK.lock().unwrap();
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());

    std::env::set_var(ENGINE_ENV, "simd");
    std::env::set_var(THREADS_ENV, "2");
    let mut pinned = op();
    pinned.options.sim_threads = Some(2);
    let (_, profile) = pinned
        .execute_profiled(&[("Input", &img)], &target, Engine::Simd)
        .unwrap();
    std::env::remove_var(ENGINE_ENV);
    std::env::remove_var(THREADS_ENV);

    assert!(
        profile.override_conflicts.is_empty(),
        "agreement is not a conflict: {:?}",
        profile.override_conflicts
    );
}

#[test]
fn unparsable_env_shadowed_by_explicit_is_reported_not_fatal() {
    let _g = ENV_LOCK.lock().unwrap();
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());

    std::env::set_var(ENGINE_ENV, "warpdrive");
    let result = op().execute_profiled(&[("Input", &img)], &target, Engine::Simd);
    std::env::remove_var(ENGINE_ENV);

    let (_, profile) = result.expect("the explicit engine shadows the broken env value");
    assert_eq!(profile.engine, "simd");
    assert_eq!(profile.override_conflicts.len(), 1);
    assert!(profile.override_conflicts[0].contains("warpdrive"));
}

#[test]
fn invalid_env_without_an_explicit_override_fails_the_launch() {
    let _g = ENV_LOCK.lock().unwrap();
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());

    // A typo, and the label of the engine that became the specification.
    for raw in ["warpdrive", "tree-walk"] {
        std::env::set_var(ENGINE_ENV, raw);
        let err = op().execute(&[("Input", &img)], &target).unwrap_err();
        std::env::remove_var(ENGINE_ENV);
        assert!(
            err.to_string().contains(&format!(
                "{ENGINE_ENV} must be one of `bytecode`, `simd`, got `{raw}`"
            )),
            "a bad engine value must fail loudly and name the valid ones, got: {err}"
        );
        // The code it surfaces under explains this cause, not only geometry.
        let code = err.diagnostic().code;
        assert_eq!(code, "R0202");
        let info = hipacc_core::explain(code).unwrap();
        assert!(info.summary.contains(ENGINE_ENV) && info.advice.contains("`simd`"));
    }
}

#[test]
fn override_conflict_code_is_registered() {
    let info = hipacc_core::explain("R0203").expect("R0203 must be in the registry");
    assert!(info.summary.contains("override"));
    assert!(info.advice.contains("explicit"));
}

// ---------------------------------------------------------------------
// Stream configuration validation (R0605): a nonsensical resilience
// knob is rejected at construction, before any frame is enqueued.
// ---------------------------------------------------------------------

use hipacc_filters::sobel::sobel_operator;
use hipacc_runtime::{Stream, StreamConfig};

fn stream_with(config: StreamConfig) -> Stream {
    Stream::new("validated", Target::cuda(device::tesla_c2050()))
        .stage("sobel", sobel_operator(true, BoundaryMode::Clamp))
        .with_config(config)
}

fn reject(config: StreamConfig, what: &str) {
    let err = stream_with(config.clone())
        .run(vec![test_image()])
        .expect_err(&format!("{what} must be rejected by run()"));
    assert!(
        err.to_string().contains("R0605"),
        "{what}: the rejection must carry the typed code, got: {err}"
    );
    let err = stream_with(config)
        .run_sequential(vec![test_image()])
        .expect_err(&format!("{what} must be rejected by run_sequential()"));
    assert!(err.to_string().contains("R0605"), "{what}: {err}");
}

#[test]
fn zero_valued_stream_knobs_are_rejected_with_r0605() {
    let _g = ENV_LOCK.lock().unwrap();
    std::env::remove_var(hipacc_runtime::WORKERS_ENV);
    std::env::remove_var(hipacc_runtime::QUEUE_ENV);
    std::env::remove_var(hipacc_runtime::DEADLINE_ENV);
    std::env::remove_var(hipacc_runtime::BREAKER_ENV);

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
    let _g = ENV_LOCK.lock().unwrap();
    std::env::remove_var(ENGINE_ENV);
    let empty = Stream::new("empty", Target::cuda(device::tesla_c2050()));
    for result in [
        empty.run(vec![test_image()]),
        empty.run_sequential(vec![test_image()]),
    ] {
        let msg = result.expect_err("no stages, no run").to_string();
        assert!(
            msg.contains("R0605") && msg.contains("no stages"),
            "got: {msg}"
        );
    }
}

/// A present-but-malformed resilience env var is a loud R0605, not a
/// silently ignored knob — unlike the lenient `effective_*` accessors,
/// which the legacy precedence test above exercises.
#[test]
fn malformed_resilience_env_vars_fail_validation_loudly() {
    let _g = ENV_LOCK.lock().unwrap();
    let defaults = StreamConfig::default();

    for (var, value) in [
        (hipacc_runtime::WORKERS_ENV, "zero"),
        (hipacc_runtime::QUEUE_ENV, "-1"),
        (hipacc_runtime::DEADLINE_ENV, "soon"),
        (hipacc_runtime::BREAKER_ENV, "0"),
    ] {
        std::env::set_var(var, value);
        let err = defaults
            .validate()
            .expect_err(&format!("{var}={value} must fail validation"));
        std::env::remove_var(var);
        let msg = err.to_string();
        assert!(
            msg.contains("R0605") && msg.contains(var),
            "{var}: the error must name the variable, got: {msg}"
        );
    }

    // Well-formed env values resolve with the expected precedence.
    std::env::set_var(hipacc_runtime::DEADLINE_ENV, "250000");
    std::env::set_var(hipacc_runtime::BREAKER_ENV, "5");
    assert_eq!(defaults.resolve_frame_deadline().unwrap(), Some(250_000));
    assert_eq!(defaults.resolve_breaker_threshold().unwrap(), 5);
    let explicit = StreamConfig {
        frame_deadline_us: Some(9_000),
        breaker_threshold: Some(2),
        ..StreamConfig::default()
    };
    assert_eq!(
        explicit.resolve_frame_deadline().unwrap(),
        Some(9_000),
        "explicit beats env"
    );
    assert_eq!(explicit.resolve_breaker_threshold().unwrap(), 2);
    std::env::remove_var(hipacc_runtime::DEADLINE_ENV);
    std::env::remove_var(hipacc_runtime::BREAKER_ENV);

    assert!(defaults.validate().is_ok(), "defaults validate clean");
    let info = hipacc_core::explain("R0605").expect("R0605 must be registered");
    assert!(!info.summary.is_empty());
}
