//! The analysis-driven optimizer: translation validation, per-pass fire
//! tests, mutant re-verification, and the pass veto.
//!
//! * **Translation validation** — for randomized operators (filter,
//!   boundary mode, memory variant, geometry) the optimized kernel must
//!   produce *bit-identical* outputs to the unoptimized one on both
//!   execution engines, and within each opt level the engines must agree
//!   with the specification on outputs and execution statistics.
//!   (Statistics may legitimately differ *between* levels — the optimizer
//!   deletes provably dead barriers and branches.)
//! * **Warp-step gate** — opt 1 runs the interior Gaussian in fewer simd
//!   warp steps than opt 0, with identical outputs and statistics.
//! * **Fire tests** — each pass rewrites the exact IR shape it exists
//!   for, witnessed structurally.
//! * **Mutant tests** — hand-unsound "optimizations" (stripped border
//!   clamps, deleted staging barrier, dropped wrap-around modulo) are
//!   caught by the re-run verifier, demonstrating the safety net the
//!   compiler puts under the real passes.
//! * **Pass veto** — `CompileSpec::disabled_passes` skips exactly the
//!   named passes and never changes results, and disabling everything
//!   reproduces the opt-0 kernel body.

use hipacc_analysis::races::removable_barriers;
use hipacc_analysis::range::RangeState;
use hipacc_analysis::{has_errors, Severity, VerifyInput};
use hipacc_codegen::{verify_compiled, CompileSpec, CompiledKernel, Compiler, MemVariant};
use hipacc_core::prelude::*;
use hipacc_core::{pipeline, Engine, PipelineOptions};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_hwmodel::device;
use hipacc_image::phantom;
use hipacc_image::rng::Pcg32;
use hipacc_ir::kernel::{AddressMode, BufferAccess, BufferParam, DeviceKernelDef, SharedDecl};
use hipacc_ir::ty::Const;
use hipacc_ir::{opt, BinOp, Builtin, Expr, KernelDef, LValue, MathFn, ScalarType, Stmt};
use hipacc_sim::launch::{bind, run_on_image_instrumented, run_on_image_with};
use std::collections::HashMap;

fn cases(n: u64, mut f: impl FnMut(u64, &mut Pcg32)) {
    for i in 0..n {
        let seed = 0x0B71_0000 + i;
        let mut rng = Pcg32::seed_from_u64(seed);
        f(seed, &mut rng);
    }
}

fn bits(img: &Image<f32>) -> Vec<u32> {
    img.raw().iter().map(|v| v.to_bits()).collect()
}

/// A DSL kernel mixing the shapes every pass targets: a convolution loop
/// (hoist), a thread-varying two-sided branch (flatten), and a modulo on
/// the output column (strength reduction).
fn mix_kernel() -> KernelDef {
    let mut b = KernelBuilder::new("tvmix", ScalarType::F32);
    let input = b.accessor("Input", ScalarType::F32);
    let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
    b.for_inclusive("cy", Expr::int(-1), Expr::int(1), |b, cy| {
        b.add_assign(&acc, b.read_at(&input, Expr::int(0), cy.get()));
    });
    let w = b.let_("wgt", ScalarType::F32, Expr::float(0.25));
    b.if_else(
        Expr::OutputX.rem(Expr::int(2)).eq_(Expr::int(0)),
        |b| b.assign(&w, acc.get() * Expr::float(0.5)),
        |b| b.assign(&w, acc.get() - Expr::float(1.0)),
    );
    b.output(w.get() + acc.get() * Expr::float(0.125));
    b.finish()
}

/// Randomized operators × both engines × opt 0 vs 1: the engines agree
/// with the specification within a level (outputs and stats, bitwise),
/// levels agree on outputs (bitwise), and the optimizer actually fired
/// somewhere in the sweep.
#[test]
fn translation_validation_on_random_operators() {
    let target = Target::cuda(device::tesla_c2050());
    let modes = [
        BoundaryMode::Clamp,
        BoundaryMode::Repeat,
        BoundaryMode::Mirror,
        BoundaryMode::Constant(0.5),
    ];
    let variants = [
        MemVariant::Global,
        MemVariant::Texture,
        MemVariant::Scratchpad,
    ];
    let mut total_fires = 0u32;
    cases(10, |seed, rng| {
        let wid = 33 + rng.gen_below(32);
        let hei = 20 + rng.gen_below(28);
        let mode = modes[rng.gen_below(4) as usize];
        let variant = variants[rng.gen_below(3) as usize];
        let use_gauss = rng.gen_below(2) == 0;
        let size = [3u32, 5][rng.gen_below(2) as usize];
        let img = phantom::vessel_tree(wid, hei, &phantom::VesselParams::default());
        let make = |opt_level: u8| {
            let base = if use_gauss {
                gaussian_operator(size, 1.1, mode)
            } else {
                Operator::new(mix_kernel()).boundary("Input", mode, 1, 3)
            };
            base.with_options(PipelineOptions {
                variant,
                opt_level,
                ..PipelineOptions::default()
            })
        };
        let mut per_level: Vec<Vec<u32>> = Vec::new();
        for level in [0u8, 1] {
            let op = make(level);
            let compiled = op
                .compile(&target, wid, hei)
                .unwrap_or_else(|e| panic!("seed {seed} opt{level} {mode:?}/{variant:?}: {e}"));
            if level == 1 {
                assert_eq!(compiled.opt.level, 1, "seed {seed}");
                total_fires += compiled.opt.total();
            } else {
                assert_eq!(compiled.opt.total(), 0, "seed {seed}");
            }
            let spec =
                pipeline::launch_spec(&compiled, &[("Input", &img)], &op.params, &op.mask_uploads);
            // The reference leg: the specification on the same binding.
            let (mut mem, params) = bind(&compiled.device_kernel, &spec)
                .unwrap_or_else(|e| panic!("seed {seed} opt{level} bind: {e}"));
            let ref_stats = hipacc_sim::interp::execute(&compiled.device_kernel, &params, &mut mem)
                .unwrap_or_else(|e| panic!("seed {seed} opt{level} specification: {e}"));
            let reference = bits(&mem.buffer("OUT").unwrap().to_image());
            for engine in [Engine::Bytecode, Engine::Simd] {
                let run = run_on_image_with(&compiled.device_kernel, &spec, engine)
                    .unwrap_or_else(|e| panic!("seed {seed} opt{level} {engine:?}: {e}"));
                assert_eq!(
                    reference,
                    bits(&run.output),
                    "seed {seed} opt{level} {mode:?}/{variant:?}: {engine:?} output diverges"
                );
                assert_eq!(
                    ref_stats, run.stats,
                    "seed {seed} opt{level} {mode:?}/{variant:?}: {engine:?} stats diverge"
                );
            }
            per_level.push(reference);
        }
        assert_eq!(
            per_level[0], per_level[1],
            "seed {seed} {mode:?}/{variant:?}: optimized output diverges from opt 0"
        );
    });
    assert!(total_fires > 0, "optimizer never fired across the sweep");
}

/// What opt 1 buys on the simd engine, counted instead of timed: the 5×5
/// Gaussian over an interior ROI of a 128² frame takes 21 % fewer warp
/// steps at opt 1, with the same output bits and the same `ExecStats`.
/// Warp steps are exact and machine-independent, so the pin holds on any
/// host.
#[test]
fn opt1_takes_fewer_simd_warp_steps_on_the_interior_gaussian() {
    let target = Target::cuda(device::tesla_c2050());
    let img = phantom::vessel_tree(128, 128, &phantom::VesselParams::default());
    let run = |opt_level: u8| {
        let op = gaussian_operator(5, 1.0, BoundaryMode::Clamp)
            .with_roi(8, 8, 112, 112)
            .with_options(PipelineOptions {
                opt_level,
                ..PipelineOptions::default()
            });
        let compiled = op.compile(&target, 128, 128).unwrap();
        let spec =
            pipeline::launch_spec(&compiled, &[("Input", &img)], &op.params, &op.mask_uploads);
        let memo = Default::default();
        let run = run_on_image_instrumented(
            &compiled.device_kernel,
            &spec,
            Engine::Simd,
            true,
            None,
            &memo,
        )
        .unwrap();
        let tel = run
            .exec
            .as_ref()
            .and_then(|e| e.simd)
            .expect("simd telemetry");
        (bits(&run.output), run.stats, tel.warp_steps)
    };
    let (out0, stats0, steps0) = run(0);
    let (out1, stats1, steps1) = run(1);
    assert_eq!(out0, out1, "opt 1 output diverges from opt 0");
    assert_eq!(stats0, stats1, "opt 1 ExecStats diverge from opt 0");
    assert!(
        steps1 < steps0,
        "opt 1 took {steps1} warp steps, opt 0 {steps0}"
    );
    assert_eq!((steps0, steps1), (666_928, 525_312));
}

/// The iteration-space scalars stay launch-rebindable at opt 1: shrinking
/// the ROI through the launch spec (without recompiling) must behave
/// exactly as at opt 0 — the regression the optimizer's scalar-seeding
/// rules exist to prevent.
#[test]
fn runtime_roi_shrink_bit_identical_across_opt_levels() {
    let img = phantom::gradient(32, 32);
    let target = Target::cuda(device::tesla_c2050());
    let mut per_level = Vec::new();
    for level in [0u8, 1] {
        let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp).with_options(PipelineOptions {
            opt_level: level,
            ..PipelineOptions::default()
        });
        let compiled = op.compile(&target, 32, 32).unwrap();
        let mut spec =
            pipeline::launch_spec(&compiled, &[("Input", &img)], &op.params, &op.mask_uploads);
        spec.scalars.insert("is_width".into(), Const::Int(16));
        spec.scalars.insert("is_height".into(), Const::Int(8));
        let run = run_on_image_with(&compiled.device_kernel, &spec, Engine::Bytecode).unwrap();
        assert_eq!(
            run.output.get(20, 20),
            0.0,
            "opt {level}: pixel outside the runtime-shrunk ROI was written"
        );
        per_level.push(bits(&run.output));
    }
    assert_eq!(per_level[0], per_level[1]);
}

/// The report on a default compile names every pass in pipeline order;
/// at opt 0 it is empty.
#[test]
fn opt_report_names_passes_in_pipeline_order() {
    let target = Target::cuda(device::tesla_c2050());
    let compiled = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .compile(&target, 64, 48)
        .unwrap();
    assert_eq!(compiled.opt.level, 1, "default opt level is 1");
    let names: Vec<&str> = compiled
        .opt
        .passes
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names.as_slice(), opt::PASSES);

    let c0 = gaussian_operator(5, 1.1, BoundaryMode::Clamp)
        .with_options(PipelineOptions {
            opt_level: 0,
            ..PipelineOptions::default()
        })
        .compile(&target, 64, 48)
        .unwrap();
    assert_eq!(c0.opt.level, 0);
    assert!(c0.opt.passes.is_empty());
    assert_eq!(c0.opt.total(), 0);
}

/// `CompileSpec::disabled_passes`: a selective veto, and the guarantee
/// that vetoing passes never changes results — disabling everything
/// reproduces the opt-0 kernel body exactly.
#[test]
fn opt_disable_env_vetoes_passes_and_preserves_semantics() {
    let target = Target::cuda(device::tesla_c2050());
    let img = phantom::vessel_tree(48, 36, &phantom::VesselParams::default());
    let op = gaussian_operator(5, 1.1, BoundaryMode::Clamp);
    let compile = |level: u8, disabled: &[&str]| {
        let mut spec = op.compile_spec(&target, 48, 36);
        spec.opt_level = level;
        spec.disabled_passes = disabled.iter().map(|p| p.to_string()).collect();
        let compiled = Compiler::new().compile(&op.def, &spec).unwrap();
        let spec =
            pipeline::launch_spec(&compiled, &[("Input", &img)], &op.params, &op.mask_uploads);
        let run = run_on_image_with(&compiled.device_kernel, &spec, Engine::Bytecode).unwrap();
        (compiled, bits(&run.output))
    };
    let (c0, out0) = compile(0, &[]);
    let (c1, out1) = compile(1, &[]);
    assert!(c1.opt.total() > 0, "baseline opt-1 compile must fire");
    assert_eq!(out0, out1);

    // A single vetoed pass is skipped (absent from the report), the rest
    // still run, and the output is unchanged.
    let (c_nh, out_nh) = compile(1, &[opt::PASS_HOIST]);
    assert!(c_nh.opt.passes.iter().all(|(n, _)| n != opt::PASS_HOIST));
    assert!(c_nh
        .opt
        .passes
        .iter()
        .any(|(n, _)| n == opt::PASS_ELIDE_CLAMPS));
    assert_eq!(out_nh, out0);

    // Vetoing every pass reproduces the opt-0 device kernel bit for bit.
    let (c_all, out_all) = compile(1, opt::PASSES);
    assert!(c_all.opt.passes.is_empty());
    assert_eq!(c_all.device_kernel.body, c0.device_kernel.body);
    assert_eq!(out_all, out0);
}

// ---------------------------------------------------------------------
// Per-pass fire tests: each pass rewrites the exact shape it exists for.
// ---------------------------------------------------------------------

fn tid() -> Expr {
    Expr::Builtin(Builtin::ThreadIdxX)
}

fn fire_kernel(body: Vec<Stmt>, shared: Vec<SharedDecl>) -> DeviceKernelDef {
    DeviceKernelDef {
        name: "fire".into(),
        buffers: vec![BufferParam {
            name: "OUT".into(),
            ty: ScalarType::F32,
            access: BufferAccess::WriteOnly,
            space: MemorySpace::Global,
            address_mode: AddressMode::None,
        }],
        scalars: vec![],
        const_buffers: vec![],
        shared,
        body,
    }
}

use hipacc_ir::kernel::MemorySpace;

/// A 32×1 block, 1×1 grid oracle with no scalar facts, told which
/// variables of `k` vary across the block.
fn oracle(k: &DeviceKernelDef) -> RangeState {
    RangeState::new(k, (32, 1), (1, 1), &HashMap::new())
        .with_varying(hipacc_analysis::taint::thread_dependent_vars(&k.body))
}

#[test]
fn elide_clamps_fires_on_range_redundant_min_max() {
    // tid ∈ [0,31], so max(tid,0) and min(·,31) are both redundant.
    let idx = Expr::min(Expr::max(tid(), Expr::int(0)), Expr::int(31));
    let mut k = fire_kernel(
        vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx,
            value: Expr::float(1.0),
        }],
        vec![],
    );
    let mut o = oracle(&k);
    let fires = opt::elide_clamps(&mut k, &mut o);
    assert_eq!(fires, 2, "both clamps are provably redundant");
    assert_eq!(
        k.body,
        vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: tid(),
            value: Expr::float(1.0),
        }]
    );
}

#[test]
fn strength_reduce_fires_on_provable_rem_and_decided_select() {
    // tid ∈ [0,31] < 64 proves `tid % 64 == tid` and decides the select.
    let mut k = fire_kernel(
        vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: tid().rem(Expr::int(64)),
            value: Expr::select(tid().lt(Expr::int(64)), Expr::float(2.0), Expr::float(3.0)),
        }],
        vec![],
    );
    let mut o = oracle(&k);
    let fires = opt::strength_reduce(&mut k, &mut o);
    assert!(fires >= 2, "expected rem + select rewrites, got {fires}");
    assert_eq!(
        k.body,
        vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: tid(),
            value: Expr::float(2.0),
        }]
    );
}

#[test]
fn flatten_rewrites_thread_varying_two_sided_branch_to_select() {
    let mut k = fire_kernel(
        vec![
            Stmt::Decl {
                name: "v".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            },
            Stmt::If {
                cond: tid().lt(Expr::int(16)),
                then: vec![Stmt::Assign {
                    target: LValue::Var("v".into()),
                    value: Expr::float(1.0),
                }],
                els: vec![Stmt::Assign {
                    target: LValue::Var("v".into()),
                    value: Expr::float(2.0),
                }],
            },
            Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: tid(),
                value: Expr::var("v"),
            },
        ],
        vec![],
    );
    let mut o = oracle(&k);
    let fires = opt::flatten_branches(&mut k, &mut o);
    assert_eq!(fires, 1);
    assert!(
        !k.body.iter().any(|s| matches!(s, Stmt::If { .. })),
        "the divergent branch must be gone: {:?}",
        k.body
    );
    let mut has_select = false;
    Stmt::visit_exprs(&k.body, &mut |e| {
        if matches!(e, Expr::Select(..)) {
            has_select = true;
        }
    });
    assert!(has_select, "flattening must introduce a select");
}

#[test]
fn hoist_moves_loop_invariant_out_of_unconditional_position() {
    let invariant = || Expr::var("base") * Expr::int(4);
    let mut k = fire_kernel(
        vec![
            Stmt::Decl {
                name: "base".into(),
                ty: ScalarType::I32,
                init: Some(tid() * Expr::int(2)),
            },
            Stmt::Decl {
                name: "acc".into(),
                ty: ScalarType::I32,
                init: Some(Expr::int(0)),
            },
            Stmt::For {
                var: "i".into(),
                from: Expr::int(0),
                to: Expr::int(3),
                body: vec![Stmt::Assign {
                    target: LValue::Var("acc".into()),
                    value: Expr::var("acc") + invariant() + Expr::var("i"),
                }],
            },
            Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: tid(),
                value: Expr::float(1.0),
            },
        ],
        vec![],
    );
    let fires = opt::hoist_invariants(&mut k);
    assert_eq!(fires, 1);
    let decl_pos = k
        .body
        .iter()
        .position(|s| matches!(s, Stmt::Decl { name, .. } if name.starts_with("_opt_h")))
        .expect("hoisted declaration present");
    let loop_pos = k
        .body
        .iter()
        .position(|s| matches!(s, Stmt::For { .. }))
        .unwrap();
    assert!(decl_pos < loop_pos, "hoisted decl must precede the loop");
    if let Stmt::For { body, .. } = &k.body[loop_pos] {
        let mut uses = false;
        Stmt::visit_exprs(body, &mut |e| {
            if matches!(e, Expr::Var(v) if v.starts_with("_opt_h")) {
                uses = true;
            }
        });
        assert!(uses, "loop body must reference the hoisted temporary");
    }
}

/// The same invariant expression appearing *only* under a branch inside
/// the loop is not hoisted: naming a guarded subexpression would compute
/// it unrefined at the decl site and can turn verified kernels
/// unprovable (the verifier narrows ranges through guard conditions by
/// expression pattern).
#[test]
fn hoist_leaves_guarded_expressions_alone() {
    let mut k = fire_kernel(
        vec![
            Stmt::Decl {
                name: "base".into(),
                ty: ScalarType::I32,
                init: Some(tid() * Expr::int(2)),
            },
            Stmt::Decl {
                name: "acc".into(),
                ty: ScalarType::I32,
                init: Some(Expr::int(0)),
            },
            Stmt::For {
                var: "i".into(),
                from: Expr::int(0),
                to: Expr::int(3),
                body: vec![Stmt::If {
                    cond: tid().lt(Expr::int(16)),
                    then: vec![Stmt::Assign {
                        target: LValue::Var("acc".into()),
                        value: Expr::var("acc") + Expr::var("base") * Expr::int(4),
                    }],
                    els: vec![],
                }],
            },
        ],
        vec![],
    );
    let before = k.body.clone();
    let fires = opt::hoist_invariants(&mut k);
    assert_eq!(fires, 0, "guarded expressions must not be hoisted");
    assert_eq!(k.body, before);
}

#[test]
fn dead_barrier_removed_when_phases_are_thread_disjoint() {
    let shared = vec![SharedDecl {
        name: "S".into(),
        ty: ScalarType::F32,
        rows: 1,
        cols: 33,
    }];
    let body = vec![
        Stmt::SharedStore {
            buf: "S".into(),
            y: Expr::int(0),
            x: tid(),
            value: Expr::float(1.0),
        },
        Stmt::Barrier,
        Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: tid(),
            value: Expr::SharedLoad {
                buf: "S".into(),
                y: Box::new(Expr::int(0)),
                x: Box::new(tid()),
            },
        },
    ];
    // Each thread reads back its own cell: the phases are disjoint across
    // threads, so the barrier is removable.
    let k = fire_kernel(body, shared);
    let dev = device::tesla_c2050();
    let input = VerifyInput::new(&k, &dev, (32, 1), (1, 1));
    let dead = removable_barriers(&input);
    assert_eq!(dead, vec![0]);
    let mut k2 = k.clone();
    let fires = opt::remove_barriers(&mut k2, &dead);
    assert_eq!(fires, 1);
    assert!(!k2.body.iter().any(|s| matches!(s, Stmt::Barrier)));

    // Reading the neighbour's cell makes the phases overlap across
    // threads: the barrier must stay.
    let mut k3 = k;
    if let Stmt::GlobalStore { value, .. } = &mut k3.body[2] {
        *value = Expr::SharedLoad {
            buf: "S".into(),
            y: Box::new(Expr::int(0)),
            x: Box::new(tid() + Expr::int(1)),
        };
    }
    let input = VerifyInput::new(&k3, &dev, (32, 1), (1, 1));
    assert!(
        removable_barriers(&input).is_empty(),
        "cross-thread reuse must keep the barrier"
    );
}

#[test]
fn cleanup_folds_literals_collapses_ifs_and_drops_dead_decls() {
    let mut k = fire_kernel(
        vec![
            Stmt::Decl {
                name: "x".into(),
                ty: ScalarType::I32,
                init: Some(Expr::int(1) + Expr::int(2)),
            },
            Stmt::If {
                cond: Expr::ImmBool(true),
                then: vec![Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("x"),
                    value: Expr::float(1.0),
                }],
                els: vec![],
            },
            Stmt::Decl {
                name: "dead".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            },
        ],
        vec![],
    );
    let fires = opt::cleanup(&mut k);
    assert!(fires >= 3, "fold + collapse + dead decl, got {fires}");
    assert!(!k.body.iter().any(|s| matches!(s, Stmt::If { .. })));
    assert!(!k
        .body
        .iter()
        .any(|s| matches!(s, Stmt::Decl { name, .. } if name == "dead")));
    assert!(k
        .body
        .iter()
        .any(|s| matches!(s, Stmt::Decl { name, init: Some(Expr::ImmInt(3)), .. } if name == "x")));
}

// ---------------------------------------------------------------------
// Mutant tests: unsound rewrites are caught by re-verification.
// ---------------------------------------------------------------------

fn compile_gaussian(
    mode: BoundaryMode,
    variant: MemVariant,
    opt_level: u8,
) -> (CompiledKernel, CompileSpec) {
    let op = gaussian_operator(5, 1.1, mode).with_options(PipelineOptions {
        variant,
        opt_level,
        ..PipelineOptions::default()
    });
    let target = Target::cuda(device::tesla_c2050());
    let spec = op.compile_spec(&target, 48, 36);
    let compiled = Compiler::new().compile(&op.def, &spec).unwrap();
    (compiled, spec)
}

#[test]
fn reverification_catches_stripped_border_clamps() {
    let (mut c, spec) = compile_gaussian(BoundaryMode::Clamp, MemVariant::Global, 0);
    assert!(!has_errors(&verify_compiled(&c, &spec)));

    // An unsound "elide-clamps": drop every min/max by keeping its
    // non-literal operand (the raw index).
    let literal = |e: &Expr| matches!(e, Expr::ImmInt(_) | Expr::ImmFloat(_));
    let mut stripped = 0u32;
    c.device_kernel.body = Stmt::rewrite_exprs(
        std::mem::take(&mut c.device_kernel.body),
        &mut |e| match e {
            Expr::Call(f, mut args)
                if matches!(f, MathFn::Min | MathFn::Max) && args.len() == 2 =>
            {
                stripped += 1;
                if literal(&args[0]) && !literal(&args[1]) {
                    args.swap(0, 1);
                }
                args.swap_remove(0)
            }
            other => other,
        },
    );
    assert!(stripped > 0, "clamped boundary mode must emit min/max");
    let diags = verify_compiled(&c, &spec);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A0301" && d.severity == Severity::Error),
        "stripped clamps must trip the bounds checker: {diags:?}"
    );
}

#[test]
fn reverification_catches_removed_staging_barrier() {
    let (mut c, spec) = compile_gaussian(BoundaryMode::Clamp, MemVariant::Scratchpad, 1);
    assert!(!has_errors(&verify_compiled(&c, &spec)));

    let before = c.device_kernel.body.len();
    c.device_kernel.body.retain(|s| !matches!(s, Stmt::Barrier));
    assert!(
        c.device_kernel.body.len() < before,
        "scratchpad staging must synchronize through a barrier"
    );
    let diags = verify_compiled(&c, &spec);
    assert!(
        diags
            .iter()
            .any(|d| (d.code == "A0201" || d.code == "A0202") && d.severity == Severity::Error),
        "the missing barrier must surface as a shared-memory race: {diags:?}"
    );
}

#[test]
fn reverification_catches_unsound_wrap_elision() {
    let (mut c, spec) = compile_gaussian(BoundaryMode::Repeat, MemVariant::Global, 0);
    assert!(!has_errors(&verify_compiled(&c, &spec)));

    // An unsound "strength-reduce": decide every `i < 0` guard as false,
    // collapsing the repeat mode's low-side wrap `i < 0 ? i + n : i` to
    // the unwrapped coordinate.
    let mut stripped = 0u32;
    c.device_kernel.body = Stmt::rewrite_exprs(
        std::mem::take(&mut c.device_kernel.body),
        &mut |e| match e {
            Expr::Select(cond, _, els) if matches!(&*cond, Expr::Binary(BinOp::Lt, _, z) if **z == Expr::int(0)) =>
            {
                stripped += 1;
                *els
            }
            other => other,
        },
    );
    assert!(
        stripped > 0,
        "repeat boundary mode must wrap negative coordinates"
    );
    let diags = verify_compiled(&c, &spec);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A0301" && d.severity == Severity::Error),
        "dropping the wrap must trip the bounds checker: {diags:?}"
    );
}
