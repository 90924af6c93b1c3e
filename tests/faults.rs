//! Integration tests for the fault-injection plane and the launch
//! supervisor: **no silent corruption, ever**.
//!
//! * With an inert plan the supervised path is bit-identical to the
//!   plain `execute` path on both engines.
//! * A seeded fault sweep over every shipped filter and frozen device
//!   must end in one of exactly two states: a validated output that is
//!   bit-identical to the fault-free reference, or a typed error.
//! * Hung workers are cancelled on the virtual deadline and retried —
//!   no wall-clock sleeps anywhere.
//! * Resource-limit compilations and exhausted retries walk the
//!   config-degradation ladder (scratchpad→global, shrinking tiles).
//! * Targeted store faults are repaired by re-executing only the
//!   corrupted blocks.

use hipacc_core::prelude::*;
use hipacc_core::supervisor::RecoveryAction;
use hipacc_core::{Engine, FaultPlan, Operator, OperatorError, SupervisorConfig, Target};
use hipacc_filters::{
    bilateral::bilateral_operator, boxf::box_operator, gaussian::gaussian_operator,
    harris::harris_response_kernel, laplacian::laplacian_operator, median::median3_operator,
    pyramid::attenuate_kernel, sobel::sobel_operator,
};
use hipacc_hwmodel::{device, Vendor};
use hipacc_image::phantom;

fn frozen_devices() -> Vec<hipacc_hwmodel::DeviceModel> {
    vec![
        device::tesla_c2050(),
        device::quadro_fx_5800(),
        device::radeon_hd_5870(),
        device::radeon_hd_6970(),
        device::geforce_8800_gtx(),
    ]
}

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

/// A 3x1 convolution with a *dynamically uploaded* mask — the only kind
/// of kernel whose coefficients live in corruptible constant banks (the
/// shipped filters bake theirs in at compile time).
fn dyn_mask_operator() -> Operator {
    let mut b = KernelBuilder::new("dynconv", ScalarType::F32);
    let input = b.accessor("Input", ScalarType::F32);
    let m = b.mask_dynamic("M", 3, 1);
    let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
    b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
        b.add_assign(
            &acc,
            b.mask_at(&m, xf.get(), Expr::int(0)) * b.read_at(&input, xf.get(), Expr::int(0)),
        );
    });
    b.output(acc.get());
    Operator::new(b.finish())
        .boundary("Input", BoundaryMode::Clamp, 3, 1)
        .upload_mask("M", vec![0.25, 0.5, 0.25])
}

fn inputs<'a>(name: &str, img: &'a Image<f32>) -> Vec<(&'static str, &'a Image<f32>)> {
    if name == "harris" {
        vec![("Ixx", img), ("Iyy", img), ("Ixy", img)]
    } else {
        vec![("Input", img)]
    }
}

/// A plan with every fault class armed at moderate rates. Transient
/// (`faulty_attempts: 1`), so retries cure what repair cannot.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        global_flip_rate: 0.05,
        shared_flip_rate: 0.03,
        drop_rate: 0.05,
        poison_boundary_rate: 0.05,
        stall_rate: 0.05,
        stall_us: 20,
        hang_rate: 0.02,
        const_flips: 1,
        deadline_us: Some(50_000),
        ..FaultPlan::default()
    }
}

/// Property: with `FaultPlan::none()` the supervisor is a bit-identical
/// wrapper around the plain execute path, on both engines — and so is
/// every other point of the launch lattice: 2 engines × {`execute_with`,
/// `execute_profiled`, supervised under an inert plan, supervised under
/// an armed plan whose one fault targets a block outside the grid}.
#[test]
fn inert_plan_is_bit_identical_to_plain_execute_on_both_engines() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let never_fires = FaultPlan::drop_block(7, (u32::MAX, u32::MAX));
    for (name, op) in shipped_operators() {
        for engine in [Engine::Bytecode, Engine::Simd] {
            let ins = inputs(name, &img);
            let plain = op.execute_with(&ins, &target, engine).unwrap();
            let sup = op
                .execute_supervised(&ins, &target, engine, &FaultPlan::none(), &cfg)
                .unwrap_or_else(|e| panic!("{name}/{engine:?}: {e}"));
            assert_eq!(
                plain.output.max_abs_diff(&sup.execution.output),
                0.0,
                "{name}/{engine:?}: supervised output diverged"
            );
            assert_eq!(plain.stats, sup.execution.stats, "{name}/{engine:?}");
            assert!(
                !sup.recovery.recovered(),
                "{name}/{engine:?}: no recovery should be needed"
            );
            assert_eq!(sup.recovery.attempts, 1);
            assert_eq!(sup.profile().fault_plan, None);

            let (profiled, profile) = op.execute_profiled(&ins, &target, engine).unwrap();
            let armed = op
                .execute_supervised(&ins, &target, engine, &never_fires, &cfg)
                .unwrap_or_else(|e| panic!("{name}/{engine:?} armed: {e}"));
            assert!(!armed.recovery.recovered(), "{name}/{engine:?}");
            assert_eq!(armed.profile().fault_plan, Some(never_fires.summary()));
            for (path, run, sup_profile) in [
                ("profiled", &profiled, None),
                ("inert", &sup.execution, Some(sup.profile())),
                ("armed", &armed.execution, Some(armed.profile())),
            ] {
                let at = format!("{name}/{engine:?}/{path}");
                let same_bits = (plain.output.raw().iter())
                    .zip(run.output.raw())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_bits, "{at}: output bits diverged");
                assert_eq!(plain.stats, run.stats, "{at}");
                assert_eq!(plain.time, run.time, "{at}");
                // One constructor builds both profiles; keep them one.
                let Some(p) = sup_profile else { continue };
                assert_eq!(profile.regions, p.regions, "{at}");
                assert_eq!(profile.totals, p.totals, "{at}");
                assert_eq!(profile.blocks_per_worker, p.blocks_per_worker, "{at}");
                assert_eq!(profile.occupancy, p.occupancy, "{at}");
                assert_eq!(profile.warp_occupancy, p.warp_occupancy, "{at}");
                assert_eq!((profile.grid, profile.block), (p.grid, p.block), "{at}");
            }
        }
    }
}

/// The seeded sweep: every shipped filter × every frozen device under a
/// plan arming every fault class. Each run must either produce an output
/// bit-identical to the fault-free reference or fail with a typed error.
/// Silent corruption — Ok with a wrong output — fails the test.
#[test]
fn seeded_sweep_corrects_every_fault_or_fails_typed() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let mut seed = 0xfa117;
    for (name, op) in shipped_operators() {
        for dev in frozen_devices() {
            let mut targets = vec![Target::opencl(dev.clone())];
            if dev.vendor != Vendor::Amd {
                targets.push(Target::cuda(dev.clone()));
            }
            for target in targets {
                seed += 1;
                let ins = inputs(name, &img);
                let reference = op
                    .execute_with(&ins, &target, Engine::default())
                    .unwrap_or_else(|e| {
                        panic!("{name} on {}: clean run failed: {e}", target.label())
                    });
                match op.execute_supervised(
                    &ins,
                    &target,
                    Engine::default(),
                    &mixed_plan(seed),
                    &cfg,
                ) {
                    Ok(sup) => {
                        assert_eq!(
                            reference.output.max_abs_diff(&sup.execution.output),
                            0.0,
                            "{name} on {} seed {seed}: SILENT CORRUPTION:\n{}",
                            target.label(),
                            sup.recovery.render_text()
                        );
                        assert!(sup.recovery.attempts >= 1);
                    }
                    Err(e) => {
                        // Typed failure is acceptable; it must carry a
                        // stable diagnostic code and the recovery log.
                        let d = e.error.diagnostic();
                        assert!(
                            d.code.starts_with('R')
                                || d.code.starts_with('C')
                                || d.code.starts_with('A'),
                            "{name} on {}: untyped failure {d}",
                            target.label()
                        );
                        assert!(!e.report.events.is_empty());
                    }
                }
            }
        }
    }
}

/// A hung worker is cancelled by the virtual deadline, classified
/// transient, retried with backoff, and the retry succeeds — all on the
/// virtual clock, on both engines.
#[test]
fn hung_worker_is_cancelled_and_cured_by_retry() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let reference = op
        .execute_with(&[("Input", &img)], &target, Engine::default())
        .unwrap();
    for engine in [Engine::Bytecode, Engine::Simd] {
        let plan = FaultPlan::hang_block(99, (0, 3), 10_000);
        let sup = op
            .execute_supervised(&[("Input", &img)], &target, engine, &plan, &cfg)
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(reference.output.max_abs_diff(&sup.execution.output), 0.0);
        assert_eq!(sup.recovery.attempts, 2, "{engine:?}: one hang, one retry");
        let retried: Vec<_> = sup
            .recovery
            .events
            .iter()
            .filter(|e| e.action == RecoveryAction::Retried)
            .collect();
        assert_eq!(retried.len(), 1, "{engine:?}");
        assert!(
            retried[0].detail.contains("R0301"),
            "{engine:?}: expected deadline diagnostic, got {}",
            retried[0].detail
        );
        assert!(
            sup.recovery.virtual_us >= 10_000,
            "{engine:?}: deadline time must be charged to the virtual clock"
        );
        assert_eq!(
            sup.profile().fault_plan.as_deref(),
            Some(plan.summary().as_str())
        );
    }
}

/// A device with almost no scratchpad cannot compile the scratchpad
/// variant; the supervisor walks the fallback ladder and recompiles the
/// filter down to plain global loads.
#[test]
fn fallback_chain_recompiles_scratchpad_down_to_global() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    // Artificially shrunk scratchpad: plain-global kernels still fit
    // (zero shared bytes round up to one 128-byte granule) but even the
    // smallest scratchpad tile for a 5x5 filter needs (32+4)*(1+4)*4 =
    // 720 bytes.
    let mut dev = device::tesla_c2050();
    dev.shared_mem_per_sm = 512;
    let target = Target::cuda(dev);
    let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op.options.variant = MemVariant::Scratchpad;

    let sup = op
        .execute_supervised(
            &[("Input", &img)],
            &target,
            Engine::default(),
            &FaultPlan::none(),
            &cfg,
        )
        .expect("fallback must recover the launch");
    let degraded: Vec<_> = sup
        .recovery
        .events
        .iter()
        .filter(|e| e.action == RecoveryAction::Degraded)
        .collect();
    assert!(
        degraded
            .iter()
            .any(|e| e.detail.contains("scratchpad->global")),
        "missing scratchpad->global rung:\n{}",
        sup.recovery.render_text()
    );
    assert_eq!(
        sup.execution.compiled.mem_path,
        hipacc_codegen::lower::MemPath::Global,
        "final artifact must use plain global loads"
    );
    // The degraded result is still correct.
    let mut op_global = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op_global.options.variant = MemVariant::Global;
    let reference = op_global
        .execute_with(&[("Input", &img)], &target, Engine::default())
        .unwrap();
    assert_eq!(reference.output.max_abs_diff(&sup.execution.output), 0.0);
}

/// A permanent hang (no retry cures it) drives the supervisor down the
/// whole tile-degradation ladder before it surfaces a typed error, with
/// every rung recorded.
#[test]
fn permanent_hang_walks_the_tile_ladder_then_surfaces() {
    let img = test_image();
    let cfg = SupervisorConfig {
        max_attempts: 2,
        ..SupervisorConfig::default()
    };
    let target = Target::cuda(device::tesla_c2050());
    let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op.options.variant = MemVariant::Global;
    op.options.force_config = Some((128, 1));
    let plan = FaultPlan {
        seed: 5,
        hang_rate: 1.0,
        deadline_us: Some(1_000),
        faulty_attempts: u32::MAX,
        ..FaultPlan::default()
    };

    let err = op
        .execute_supervised(&[("Input", &img)], &target, Engine::default(), &plan, &cfg)
        .expect_err("a permanent hang must not produce a result");
    assert!(matches!(
        err.error,
        OperatorError::Sim(hipacc_sim::SimError::DeadlineExceeded { .. })
    ));
    let rungs: Vec<&str> = err
        .report
        .events
        .iter()
        .filter(|e| e.action == RecoveryAction::Degraded)
        .map(|e| e.detail.as_str())
        .collect();
    assert!(
        rungs.iter().any(|d| d.contains("tile 64x1"))
            && rungs.iter().any(|d| d.contains("tile 32x1")),
        "ladder not walked: {rungs:?}\n{}",
        err.report.render_text()
    );
    assert_eq!(
        err.report.events.last().unwrap().action,
        RecoveryAction::Surfaced
    );
}

/// A dropped block result is detected by the checksum ledger and
/// repaired by re-executing only that block — one extra attempt never
/// happens, the event log names the block.
#[test]
fn targeted_drop_is_repaired_selectively() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let reference = op
        .execute_with(&[("Input", &img)], &target, Engine::default())
        .unwrap();
    for engine in [Engine::Bytecode, Engine::Simd] {
        // Permanent drop: proves repair (not the seed rotation) cures it.
        let plan = FaultPlan {
            faulty_attempts: u32::MAX,
            ..FaultPlan::drop_block(7, (0, 2))
        };
        let sup = op
            .execute_supervised(&[("Input", &img)], &target, engine, &plan, &cfg)
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(
            reference.output.max_abs_diff(&sup.execution.output),
            0.0,
            "{engine:?}: repaired output must be bit-identical"
        );
        assert_eq!(sup.recovery.attempts, 1, "{engine:?}: repair, not retry");
        let repaired: Vec<_> = sup
            .recovery
            .events
            .iter()
            .filter(|e| e.action == RecoveryAction::Repaired)
            .collect();
        assert_eq!(repaired.len(), 1, "{engine:?}");
        assert!(
            repaired[0].detail.contains("(0,2)"),
            "{engine:?}: event must name the block: {}",
            repaired[0].detail
        );
    }
}

/// Permanently corrupted constant banks can never validate; the
/// supervisor exhausts its retries and surfaces the typed
/// `Unrecovered` error with the full recovery log attached.
#[test]
fn permanent_constant_corruption_surfaces_typed_error() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    // A dynamically uploaded mask gives the plan a constant bank to hit
    // (the shipped filters bake their masks in as compile-time
    // constants, which no runtime fault can touch).
    let op = dyn_mask_operator();
    let plan = FaultPlan {
        faulty_attempts: u32::MAX,
        ..FaultPlan::corrupt_constants(13, 2)
    };
    let err = op
        .execute_supervised(&[("Input", &img)], &target, Engine::default(), &plan, &cfg)
        .expect_err("corrupt constants must never validate");
    assert!(matches!(err.error, OperatorError::Unrecovered(_)));
    assert_eq!(err.error.diagnostic().code, "R0401");
    assert_eq!(err.report.attempts, cfg.max_attempts);
    assert!(
        err.report
            .events
            .iter()
            .any(|e| e.detail.contains("constant banks corrupted")),
        "{}",
        err.report.render_text()
    );
}

/// Both engines agree under the same fault plan: identical outputs,
/// identical recovery action sequences.
#[test]
fn engines_agree_under_the_same_plan() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let op = sobel_operator(true, BoundaryMode::Clamp);
    let plan = mixed_plan(0xbeef);
    let run = |engine| {
        op.execute_supervised(&[("Input", &img)], &target, engine, &plan, &cfg)
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"))
    };
    let bc = run(Engine::Bytecode);
    let sd = run(Engine::Simd);
    assert_eq!(
        bc.execution.output.max_abs_diff(&sd.execution.output),
        0.0,
        "engines diverged under faults"
    );
    let actions = |s: &hipacc_core::Supervised| {
        s.recovery
            .events
            .iter()
            .map(|e| (e.step.clone(), e.attempt, e.action))
            .collect::<Vec<_>>()
    };
    assert_eq!(actions(&bc), actions(&sd));
}

/// The supervised profile carries the fault plan and a recovery span per
/// event, and its Chrome trace still validates.
#[test]
fn supervised_profile_records_plan_and_recovery_spans() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let plan = FaultPlan::drop_block(3, (0, 1));
    let sup = op
        .execute_supervised(&[("Input", &img)], &target, Engine::default(), &plan, &cfg)
        .unwrap();
    assert_eq!(sup.profile().fault_plan, Some(plan.summary()));
    let recovery_spans = sup
        .profile()
        .spans
        .iter()
        .filter(|s| s.cat == "recovery")
        .count();
    assert_eq!(recovery_spans, sup.recovery.events.len());
    let trace = sup.profile().chrome_trace();
    let n = hipacc_profile::chrome::validate(&trace).expect("trace must validate");
    assert_eq!(n, sup.profile().spans.len());
    assert!(sup.profile().render_text().contains("injected: fault-plan"));
}
