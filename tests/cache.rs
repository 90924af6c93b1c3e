//! Integration tests for the cross-launch kernel cache and the
//! engine/warp reporting in the launch profile.
//!
//! * A cache hit serves an artifact byte-identical to a fresh compile —
//!   same generated sources, same device IR, same launch outputs.
//! * A warm cache removes the compile phases from steady-state launch
//!   profiles entirely: no compile spans, empty `phase_times`, and the
//!   report says so.
//! * The supervisor bypasses the cache on degraded rungs and never
//!   retains a degraded artifact, so config degradation can never leak
//!   a stale tape into later healthy launches.
//! * The profile names the engine that ran and, on the simd engine,
//!   reports mean warp occupancy.
//! * An entry keeps its simulator tape and modelled time, and hands them
//!   only to launches whose launch-constant state matches: operators that
//!   share a fingerprint but not their masks, launch count, worker count
//!   or pool get exactly what an uncached launch gets, and a corrupted
//!   constant bank costs one rebuild, never the kept tape.

use hipacc_core::prelude::*;
use hipacc_core::supervisor::RecoveryAction;
use hipacc_core::{pipeline, Engine, FaultPlan, FaultSession, KernelCache, SupervisorConfig};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_hwmodel::device;
use hipacc_image::phantom;
use hipacc_sim::launch::run_on_image_instrumented;
use hipacc_sim::{TapeMemo, TapeRebuild, TapeSource, WorkerPool};
use std::sync::Arc;

fn test_image() -> Image<f32> {
    phantom::vessel_tree(96, 80, &phantom::VesselParams::default())
}

fn cached_op(cache: &Arc<KernelCache>) -> hipacc_core::Operator {
    let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op.options.cache = Some(Arc::clone(cache));
    op
}

/// The artifact served from the cache is byte-identical to a fresh
/// compile: identical `Debug` rendering (device IR, generated sources,
/// config, phase structure) and identical launch behaviour.
#[test]
fn cached_and_fresh_compiles_produce_byte_identical_tapes() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());

    let fresh = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    let miss = cached_op(&cache)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    let hit = cached_op(&cache)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    assert_eq!(cache.hits(), 1, "second launch must be served from cache");
    assert_eq!(cache.misses(), 1);

    // `phase_times` carries wall-clock timings, which legitimately differ
    // between compiles; everything else must match bit for bit.
    let strip = |c: &hipacc_codegen::CompiledKernel| {
        let mut c = c.clone();
        c.phase_times.clear();
        format!("{c:?}")
    };
    let fresh_tape = strip(&fresh.compiled);
    assert_eq!(fresh_tape, strip(&miss.compiled));
    assert_eq!(fresh_tape, strip(&hit.compiled));
    assert_eq!(
        format!("{:?}", miss.compiled),
        format!("{:?}", hit.compiled),
        "the cached artifact must be the inserted artifact, timings included"
    );
    assert_eq!(fresh.output.max_abs_diff(&miss.output), 0.0);
    assert_eq!(fresh.output.max_abs_diff(&hit.output), 0.0);
    assert_eq!(fresh.stats, hit.stats);
}

/// Steady state: the second profiled launch hits the cache, records zero
/// compile time (no compile spans, empty phase breakdown) and says so in
/// the report.
#[test]
fn warm_cache_removes_compile_phases_from_the_profile() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());
    let op = cached_op(&cache);

    let (cold_run, cold) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::default())
        .unwrap();
    let cold_cache = cold.cache.as_ref().expect("cache was installed");
    assert_eq!(cold_cache.outcome, "miss");
    assert!(!cold.phase_times.is_empty(), "cold compile has phases");
    assert!(cold.spans.iter().any(|s| s.name == "specialize"));

    let (warm_run, warm) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::default())
        .unwrap();
    let warm_cache = warm.cache.as_ref().expect("cache was installed");
    assert_eq!(warm_cache.outcome, "hit");
    assert_eq!(warm_cache.hits, 1);
    assert!(
        warm.phase_times.is_empty(),
        "a cache hit must report zero compile-phase time, got {:?}",
        warm.phase_times
    );
    assert!(
        warm.spans.iter().all(|s| s.cat != "compile"),
        "a cache hit must record no compile spans, got {:?}",
        warm.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert!(
        warm.spans.iter().any(|s| s.name == "execute"),
        "the launch span itself must still be recorded"
    );
    assert_eq!(cold_run.output.max_abs_diff(&warm_run.output), 0.0);
    assert_eq!(cold_run.stats, warm_run.stats);
    assert!(cold
        .render_text()
        .contains("tape: built (1 built, 0 reused, 1 warp programs lowered)"));
    let text = warm.render_text();
    assert!(text.contains("kernel cache: hit"), "{text}");
    assert!(
        text.contains("tape: reused (1 built, 1 reused, 1 warp programs lowered)"),
        "a hit runs the entry's tape and its lowered warp program: {text}"
    );
}

/// The cache key covers everything that changes the artifact: different
/// geometry, options or kernels never collide.
#[test]
fn distinct_configurations_never_share_an_entry() {
    let img_a = test_image();
    let img_b = phantom::gradient(64, 64);
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());

    let op = cached_op(&cache);
    op.execute(&[("Input", &img_a)], &target).unwrap();
    // Different geometry → different key → miss.
    op.execute(&[("Input", &img_b)], &target).unwrap();
    // Different compile options → different key → miss.
    let mut forced = cached_op(&cache);
    forced.options.force_config = Some((64, 2));
    let run = forced.execute(&[("Input", &img_a)], &target).unwrap();
    assert_eq!(
        (run.compiled.config.bx, run.compiled.config.by),
        (64, 2),
        "forced config must not be shadowed by a cached artifact"
    );
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.len(), 3);
}

/// Degraded supervisor rungs bypass the cache (recorded as bypasses, not
/// misses) and never insert, so a fault-driven config degradation leaves
/// no stale tape behind: a healthy launch afterwards still compiles (or
/// reuses) the *healthy* configuration.
#[test]
fn degraded_rungs_bypass_the_cache_and_leave_no_stale_tape() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    // A device whose scratchpad cannot hold the 5x5 tile: the initial
    // rung fails at compile time and the supervisor degrades to global
    // memory (see the fallback-chain fault tests).
    let mut small = device::tesla_c2050();
    small.shared_mem_per_sm = 512;
    let degraded_target = Target::cuda(small);
    let cache = Arc::new(KernelCache::default());

    let mut op = cached_op(&cache);
    op.options.variant = MemVariant::Scratchpad;
    let sup = op
        .execute_supervised(
            &[("Input", &img)],
            &degraded_target,
            Engine::default(),
            &FaultPlan::none(),
            &cfg,
        )
        .expect("fallback must recover the launch");
    assert_eq!(
        sup.execution.compiled.mem_path,
        hipacc_codegen::lower::MemPath::Global
    );
    let report = sup.profile().cache.expect("cache was installed");
    assert!(
        report.outcome.starts_with("bypass"),
        "degraded rung must bypass, got {:?}",
        report.outcome
    );
    assert!(cache.bypasses() >= 1);
    assert_eq!(
        cache.len(),
        0,
        "no artifact may be retained from a degraded recovery"
    );

    // A healthy launch with the same cache compiles fresh — it cannot be
    // served the degraded global-memory artifact.
    let healthy_target = Target::cuda(device::tesla_c2050());
    let mut healthy = cached_op(&cache);
    healthy.options.variant = MemVariant::Scratchpad;
    let run = healthy
        .execute(&[("Input", &img)], &healthy_target)
        .unwrap();
    assert_eq!(
        run.compiled.mem_path,
        hipacc_codegen::lower::MemPath::Scratchpad,
        "healthy launch must get the scratchpad artifact, not a stale tape"
    );
}

/// The supervisor serves its initial rung from the cache: a repeated
/// healthy supervised launch is a hit with zero compile-phase time and a
/// bit-identical result.
#[test]
fn supervised_steady_state_hits_the_cache() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());
    let op = cached_op(&cache);
    let run = |op: &hipacc_core::Operator| {
        op.execute_supervised(
            &[("Input", &img)],
            &target,
            Engine::default(),
            &FaultPlan::none(),
            &cfg,
        )
        .unwrap()
    };
    let cold = run(&op);
    let warm = run(&op);
    assert_eq!(
        warm.profile().cache.as_ref().map(|c| c.outcome.as_str()),
        Some("hit")
    );
    assert!(warm.profile().phase_times.is_empty());
    assert!(warm.profile().spans.iter().all(|s| s.cat != "compile"));
    assert_eq!(
        cold.execution.output.max_abs_diff(&warm.execution.output),
        0.0
    );
}

/// The profile names the engine and, on the simd engine, reports the
/// mean active-lane fraction of all warp steps.
#[test]
fn profile_reports_engine_and_warp_occupancy() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);

    let (_, simd) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::Simd)
        .unwrap();
    assert_eq!(simd.engine, "simd");
    let w = simd.warp_occupancy.expect("simd launches report occupancy");
    assert!(w > 0.0 && w <= 1.0, "occupancy {w} out of range");
    let text = simd.render_text();
    assert!(text.contains("simd engine"), "{text}");
    assert!(text.contains("warp occupancy"), "{text}");

    let (_, bc) = op
        .execute_profiled(&[("Input", &img)], &target, Engine::Bytecode)
        .unwrap();
    assert_eq!(bc.engine, "bytecode");
    assert_eq!(
        bc.warp_occupancy, None,
        "scalar engines have no warp telemetry"
    );
}

// ---------------------------------------------------------------------
// Concurrency: the cache as the shared resource of a streaming fleet.
// ---------------------------------------------------------------------

/// N threads hammering the same kernel agree on one cache entry, every
/// lookup is counted exactly once, and every output is bit-identical to
/// an uncached reference.
#[test]
fn concurrent_launches_of_one_kernel_share_one_entry() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());
    let reference = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .execute(&[("Input", &img)], &target)
        .unwrap();

    let threads = 6;
    let launches_per_thread = 4;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (cache, img, target, reference) = (&cache, &img, &target, &reference);
            scope.spawn(move || {
                for _ in 0..launches_per_thread {
                    let run = cached_op(cache).execute(&[("Input", img)], target).unwrap();
                    assert_eq!(reference.output.max_abs_diff(&run.output), 0.0);
                }
            });
        }
    });

    assert_eq!(cache.len(), 1, "one kernel, one entry");
    assert_eq!(
        cache.hits() + cache.misses(),
        (threads * launches_per_thread) as u64,
        "every lookup must be counted exactly once under contention"
    );
    assert!(cache.misses() >= 1 && cache.misses() <= threads as u64);
}

/// Threads compiling *different* kernels concurrently never collide:
/// each gets its own entry and its own correct artifact.
#[test]
fn concurrent_distinct_kernels_get_distinct_entries() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());
    let sizes = [3u32, 5, 7, 9];

    std::thread::scope(|scope| {
        for &size in &sizes {
            let (cache, img, target) = (&cache, &img, &target);
            scope.spawn(move || {
                let reference = gaussian_operator(size, 1.1, BoundaryMode::Clamp)
                    .execute(&[("Input", img)], target)
                    .unwrap();
                for _ in 0..2 {
                    let mut op = gaussian_operator(size, 1.1, BoundaryMode::Clamp);
                    op.options.cache = Some(Arc::clone(cache));
                    let run = op.execute(&[("Input", img)], target).unwrap();
                    assert_eq!(
                        reference.output.max_abs_diff(&run.output),
                        0.0,
                        "gaussian{size} served a foreign artifact"
                    );
                }
            });
        }
    });
    assert_eq!(cache.len(), sizes.len());
    assert_eq!(cache.hits() + cache.misses(), (sizes.len() * 2) as u64);
}

/// An uncached reference output for the poison-recovery test.
fn reference_free_of_poison(img: &Image<f32>, target: &Target) -> Image<f32> {
    gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .execute(&[("Input", img)], target)
        .unwrap()
        .output
}

/// A thread panicking while holding the cache lock poisons it; the
/// cache recovers by adopting the state (every mutation leaves it
/// valid), counts the recovery, and reports it as an `R0501` warning —
/// instead of cascading the panic into every later launch.
#[test]
fn poisoned_lock_recovers_with_a_typed_diagnostic() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cache = Arc::new(KernelCache::default());
    cached_op(&cache)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    assert_eq!(cache.poison_recoveries(), 0);
    assert!(cache.poison_diagnostic().is_none());

    // Poison the lock: panic while holding it (on another thread, so
    // the unwind crosses the guard exactly as a crashed peer would).
    let result = std::thread::scope(|scope| {
        scope
            .spawn(|| cache.with_lock_for_test(|| panic!("peer thread crashed mid-insert")))
            .join()
    });
    assert!(result.is_err(), "the probe thread must have panicked");

    // The cache keeps working: the pre-poison entry is still served.
    let run = cached_op(&cache)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    assert_eq!(
        reference_free_of_poison(&img, &target).max_abs_diff(&run.output),
        0.0
    );
    assert_eq!(cache.hits(), 1, "post-poison lookup must hit");
    assert_eq!(cache.len(), 1);
    assert!(cache.poison_recoveries() >= 1);

    let diag = cache
        .poison_diagnostic()
        .expect("recovery must be reported");
    assert_eq!(diag.code, "R0501");
    assert!(!diag.is_error(), "recovery is a warning, not an error");
    assert!(diag.message.contains("poisoned"));
    assert!(hipacc_core::explain("R0501").is_some());
    assert!(cache.report("hit").poison_recoveries >= 1);
}

/// Degraded supervisor rungs bypassing the cache while healthy cached
/// launches run concurrently: no deadlock, no stale degraded artifact,
/// and the healthy entry survives.
#[test]
fn degraded_bypass_and_healthy_launches_share_the_cache_without_deadlock() {
    let img = test_image();
    let cfg = SupervisorConfig::default();
    let cache = Arc::new(KernelCache::default());
    let mut small = device::tesla_c2050();
    small.shared_mem_per_sm = 512;
    let degraded_target = Target::cuda(small);
    let healthy_target = Target::cuda(device::tesla_c2050());
    let reference = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .execute(&[("Input", &img)], &healthy_target)
        .unwrap();

    std::thread::scope(|scope| {
        for i in 0..4 {
            let (cache, img, cfg, reference) = (&cache, &img, &cfg, &reference);
            let (degraded_target, healthy_target) = (&degraded_target, &healthy_target);
            scope.spawn(move || {
                if i % 2 == 0 {
                    let mut op = cached_op(cache);
                    op.options.variant = MemVariant::Scratchpad;
                    let sup = op
                        .execute_supervised(
                            &[("Input", img)],
                            degraded_target,
                            Engine::default(),
                            &FaultPlan::none(),
                            cfg,
                        )
                        .expect("fallback must recover");
                    assert_eq!(reference.output.max_abs_diff(&sup.execution.output), 0.0);
                } else {
                    let run = cached_op(cache)
                        .execute(&[("Input", img)], healthy_target)
                        .unwrap();
                    assert_eq!(reference.output.max_abs_diff(&run.output), 0.0);
                }
            });
        }
    });

    assert!(cache.bypasses() >= 2, "each degraded rung must bypass");
    assert_eq!(
        cache.len(),
        1,
        "only the healthy artifact may be retained, got {} entries",
        cache.len()
    );
}

/// `PipelineOptions::engine` selects the engine for `execute()` and the
/// result is bit-identical to the default engine.
#[test]
fn engine_option_selects_the_simd_engine() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let reference = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .execute(&[("Input", &img)], &target)
        .unwrap();
    let mut op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    op.options.engine = Some(Engine::Simd);
    let simd = op.execute(&[("Input", &img)], &target).unwrap();
    assert_eq!(reference.output.max_abs_diff(&simd.output), 0.0);
    assert_eq!(reference.stats, simd.stats);
}

// ---------------------------------------------------------------------
// Prepared kernels: what an entry keeps, and who may use it.
// ---------------------------------------------------------------------

/// A 3x1 convolution with a dynamically uploaded mask: the kind of
/// kernel whose coefficients live in a constant bank the launch uploads.
fn dyn_mask_operator(coeffs: [f32; 3]) -> Operator {
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
        .upload_mask("M", coeffs.to_vec())
}

/// Bit-identical outputs, equal statistics and equal modelled time.
fn assert_same_run(got: &Execution, want: &Execution, what: &str) {
    let bits = |e: &Execution| {
        e.output
            .raw()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want), "{what}: output bits");
    assert_eq!(got.stats, want.stats, "{what}: ExecStats");
    assert_eq!(got.time, want.time, "{what}: TimeBreakdown");
}

/// Two operators share one cache entry (same definition, same geometry,
/// hence one fingerprint) but differ in something the fingerprint does
/// not cover. Each must get exactly what an uncached launch gets, on both
/// engines, so the tape and the modelled time are never keyed by the
/// fingerprint alone.
#[test]
fn operators_sharing_a_fingerprint_never_share_launch_constants() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let mask = [0.25, 0.5, 0.25];
    let op = |coeffs, options| dyn_mask_operator(coeffs).with_options(options);
    let one = PipelineOptions {
        sim_threads: Some(1),
        ..PipelineOptions::default()
    };
    let first = op(mask, one.clone());
    // (what differs, second operator, whether it may run the first's tape)
    let cases = [
        (
            "mask coefficients",
            op([0.5, 0.25, 0.25], one.clone()),
            false,
        ),
        (
            "launch count",
            op(
                mask,
                PipelineOptions {
                    launches: 3,
                    ..one.clone()
                },
            ),
            true,
        ),
        (
            "worker count",
            op(
                mask,
                PipelineOptions {
                    sim_threads: Some(3),
                    ..one.clone()
                },
            ),
            false,
        ),
        (
            "worker pool",
            op(
                mask,
                PipelineOptions {
                    pool: Some(Arc::new(WorkerPool::new(2))),
                    ..one
                },
            ),
            false,
        ),
    ];
    for engine in [Engine::Bytecode, Engine::Simd] {
        for (what, second, shares_tape) in &cases {
            let cache = Arc::new(KernelCache::default());
            let (mut first, mut second) = (first.clone(), second.clone());
            for op in [&mut first, &mut second] {
                op.options.cache = Some(Arc::clone(&cache));
            }
            let uncached = |op: &Operator| {
                let mut op = op.clone();
                op.options.cache = None;
                op.execute_with(&[("Input", &img)], &target, engine)
                    .unwrap()
            };
            let label = format!("{what} on {}", engine.label());
            // First, second, first again: the entry must keep serving
            // the operator that filled it.
            for (i, op) in [&first, &second, &first].into_iter().enumerate() {
                let run = op
                    .execute_with(&[("Input", &img)], &target, engine)
                    .unwrap();
                assert_same_run(&run, &uncached(op), &format!("{label}, launch {i}"));
            }
            assert_eq!(cache.len(), 1, "{label}: one fingerprint, one entry");
            let built = if *shares_tape { 1 } else { 2 };
            assert_eq!(
                (cache.tapes_built(), cache.tapes_reused()),
                (built, 3 - built),
                "{label}: tapes built / reused"
            );
        }
    }
}

/// A launch whose constant bank a fault hook corrupted builds a tape of
/// its own (and says why); the kept tape survives it, and a corrupted
/// launch on an empty memo does not fill the memo either.
#[test]
fn a_corrupted_bank_gets_its_own_tape_and_never_the_kept_one() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let op = dyn_mask_operator([0.25, 0.5, 0.25]);
    let compiled = op.compile(&target, img.width(), img.height()).unwrap();
    let inputs = [("Input", &img)];
    let spec = pipeline::launch_spec(&compiled, &inputs, &op.params, &op.mask_uploads);
    let kernel = &compiled.device_kernel;
    let corrupt = FaultSession::new(FaultPlan::corrupt_constants(55, 1), 0);
    let launch = |hook: Option<&FaultSession>, memo: &TapeMemo| {
        let hook = hook.map(|h| h as &dyn hipacc_sim::FaultHook);
        run_on_image_instrumented(kernel, &spec, Engine::Simd, false, hook, memo).unwrap()
    };

    let memo = TapeMemo::default();
    let clean = launch(None, &memo);
    assert_eq!(clean.tape.source, TapeSource::Built);
    assert!(clean.tape.lowered_warp);
    let dirty = launch(Some(&corrupt), &memo);
    assert_eq!(
        dirty.tape.source,
        TapeSource::Rebuilt(TapeRebuild::ConstBank)
    );
    assert!(!dirty.corrupt_const_banks.is_empty());
    let again = launch(None, &memo);
    assert_eq!(again.tape.source, TapeSource::Reused);
    assert!(!again.tape.lowered_warp, "the kept tape is lowered once");
    assert_eq!(again.output.max_abs_diff(&clean.output), 0.0);

    let empty = TapeMemo::default();
    let dirty_first = launch(Some(&corrupt), &empty);
    assert_eq!(
        dirty_first.tape.source,
        TapeSource::Rebuilt(TapeRebuild::ConstBank)
    );
    assert_eq!(launch(None, &empty).tape.source, TapeSource::Built);
}

/// Under the supervisor: a frame with an armed corrupt-constants plan
/// rebuilds exactly once (its corrupted attempt), its clean retry and the
/// next clean frame reuse the kept tape, and that frame is bit-identical
/// to an uncached run.
#[test]
fn a_corrupt_constants_frame_rebuilds_once_and_the_next_frame_reuses() {
    let img = test_image();
    let target = Target::cuda(device::tesla_c2050());
    let cfg = SupervisorConfig::default();
    let cache = Arc::new(KernelCache::default());
    let mut op = dyn_mask_operator([0.25, 0.5, 0.25]);
    op.options.cache = Some(Arc::clone(&cache));
    let frame = |plan: &FaultPlan| {
        op.execute_supervised(&[("Input", &img)], &target, Engine::Simd, plan, &cfg)
            .unwrap()
    };
    let counts = || (cache.tapes_built(), cache.tapes_reused());

    frame(&FaultPlan::none());
    assert_eq!(counts(), (1, 0));
    let armed = frame(&FaultPlan::corrupt_constants(55, 1));
    assert_eq!(armed.recovery.action_total(RecoveryAction::Retried), 1);
    assert_eq!(counts(), (2, 1), "one rebuild, then the clean retry reuses");
    let next = frame(&FaultPlan::none());
    assert_eq!(counts(), (2, 2));
    let report = next.cache.as_ref().expect("cache was installed");
    assert_eq!(report.tape.map(|t| t.source), Some(TapeSource::Reused));
    assert_eq!(cache.warps_lowered(), 2, "the kept tape and the rebuild");

    let mut uncached = op.clone();
    uncached.options.cache = None;
    let reference = uncached
        .execute_with(&[("Input", &img)], &target, Engine::Simd)
        .unwrap();
    assert_same_run(&next.execution, &reference, "next clean frame");
}
