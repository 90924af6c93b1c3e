//! Property-style randomized tests on the core invariants of the system.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small hand-rolled case driver: each test runs a few hundred
//! cases drawn from a seeded PCG32 (`hipacc_image::rng::Pcg32`), so every
//! failure is reproducible from the printed case seed.

use hipacc_codegen::regions::RegionGrid;
use hipacc_hwmodel::{occupancy, KernelResources, LaunchConfig};
use hipacc_image::boundary::{clamp_index, mirror_index, repeat_index};
use hipacc_image::rng::Pcg32;
use hipacc_image::{phantom, reference, BoundaryMode, Image};
use hipacc_ir::fold::{eval_const, fold_expr};
use hipacc_ir::metrics::{count_ops, count_ops_licm, CountConfig};
use hipacc_ir::{Expr, MathFn, Stmt};
use std::collections::HashMap;

/// Run `n` randomized cases. Each case gets a fresh RNG derived from the
/// case index, so a failing assertion pinpoints the case via `seed` in its
/// message and can be replayed in isolation.
fn cases(n: u64, mut f: impl FnMut(u64, &mut Pcg32)) {
    for i in 0..n {
        let seed = 0x5EED_0000 + i;
        let mut rng = Pcg32::seed_from_u64(seed);
        f(seed, &mut rng);
    }
}

// ---------------------------------------------------------------------
// Boundary index maps (Table I / Figure 2 semantics).
// ---------------------------------------------------------------------

#[test]
fn index_maps_are_inbounds_and_idempotent() {
    cases(500, |seed, rng| {
        let i = rng.gen_range_i64(-10_000, 10_000) as i32;
        let n = rng.gen_range_i64(1, 4096) as u32;
        for f in [clamp_index, repeat_index, mirror_index] {
            let m = f(i, n);
            assert!(
                (0..n as i32).contains(&m),
                "map({i}, {n}) = {m} [seed {seed:#x}]"
            );
            assert_eq!(f(m, n), m, "not idempotent at {i} [seed {seed:#x}]");
        }
    });
}

#[test]
fn inbounds_are_fixed_points() {
    cases(500, |_, rng| {
        let n = rng.gen_range_i64(1, 2048) as u32;
        let i = (rng.gen_range_i64(0, 2048) % n as i64) as i32;
        assert_eq!(clamp_index(i, n), i);
        assert_eq!(repeat_index(i, n), i);
        assert_eq!(mirror_index(i, n), i);
    });
}

#[test]
fn mirror_reflection_symmetry() {
    cases(300, |_, rng| {
        let d = rng.gen_range_i64(1, 99) as i32;
        let n = rng.gen_range_i64(100, 499) as u32;
        // Point d-1 pixels outside the left border mirrors to d-1 inside.
        assert_eq!(mirror_index(-d, n), d - 1);
        // And symmetrically on the right.
        assert_eq!(mirror_index(n as i32 - 1 + d, n), n as i32 - d);
    });
}

#[test]
fn repeat_is_periodic() {
    cases(500, |_, rng| {
        let i = rng.gen_range_i64(-5_000, 5_000) as i32;
        let n = rng.gen_range_i64(1, 999) as u32;
        assert_eq!(repeat_index(i, n), repeat_index(i + n as i32, n));
    });
}

// ---------------------------------------------------------------------
// Constant folding.
// ---------------------------------------------------------------------

/// A random small pure integer expression over variables `a` and `b`.
fn gen_int_expr(rng: &mut Pcg32, depth: u32) -> Expr {
    if depth == 0 || rng.gen_below(3) == 0 {
        match rng.gen_below(3) {
            0 => Expr::int(rng.gen_range_i64(-50, 49)),
            1 => Expr::var("a"),
            _ => Expr::var("b"),
        }
    } else {
        let x = gen_int_expr(rng, depth - 1);
        let y = gen_int_expr(rng, depth - 1);
        match rng.gen_below(5) {
            0 => x + y,
            1 => x - y,
            2 => x * y,
            3 => Expr::call2(MathFn::Min, x, y),
            _ => Expr::call2(MathFn::Max, x, y),
        }
    }
}

fn int_env(a: i64, b: i64) -> HashMap<String, hipacc_ir::Const> {
    let mut env = HashMap::new();
    env.insert("a".to_string(), hipacc_ir::Const::Int(a));
    env.insert("b".to_string(), hipacc_ir::Const::Int(b));
    env
}

#[test]
fn folding_preserves_value() {
    cases(400, |seed, rng| {
        let e = gen_int_expr(rng, 4);
        let env = int_env(rng.gen_range_i64(-100, 100), rng.gen_range_i64(-100, 100));
        let before = eval_const(&e, &env);
        let folded = fold_expr(e, &env);
        let after = eval_const(&folded, &env);
        assert_eq!(before, after, "[seed {seed:#x}]");
    });
}

#[test]
fn partial_folding_is_sound() {
    cases(400, |seed, rng| {
        let e = gen_int_expr(rng, 4);
        let env = int_env(rng.gen_range_i64(-100, 100), rng.gen_range_i64(-100, 100));
        let before = eval_const(&e, &env);
        // Fold knowing nothing, then evaluate with the full environment.
        let folded = fold_expr(e, &HashMap::new());
        let after = eval_const(&folded, &env);
        assert_eq!(before, after, "[seed {seed:#x}]");
    });
}

// ---------------------------------------------------------------------
// Operation counting.
// ---------------------------------------------------------------------

#[test]
fn licm_counts_are_bounded_by_naive() {
    for half in 1i64..6 {
        let load = Expr::GlobalLoad {
            buf: "IN".into(),
            idx: Box::new(Expr::var("gid") + Expr::var("x")),
        };
        let stmts = vec![Stmt::For {
            var: "y".into(),
            from: Expr::int(-half),
            to: Expr::int(half),
            body: vec![Stmt::For {
                var: "x".into(),
                from: Expr::int(-half),
                to: Expr::int(half),
                body: vec![Stmt::Assign {
                    target: hipacc_ir::LValue::Var("acc".into()),
                    value: Expr::var("acc") + Expr::exp(load.clone()),
                }],
            }],
        }];
        let cfg = CountConfig::default();
        let naive = count_ops(&stmts, &cfg, &HashMap::new());
        let licm = count_ops_licm(&stmts, &cfg, &HashMap::new());
        assert!(licm.global_loads <= naive.global_loads);
        assert!(licm.sfu <= naive.sfu);
        assert!(licm.alu <= naive.alu + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Occupancy.
// ---------------------------------------------------------------------

#[test]
fn occupancy_bounds_and_monotonicity() {
    cases(400, |seed, rng| {
        let regs = rng.gen_range_i64(8, 59) as u32;
        let smem = rng.gen_range_i64(0, 39_999) as u32;
        let bx = 1u32 << rng.gen_range_i64(5, 8) as u32;
        let by = rng.gen_range_i64(1, 3) as u32;
        let dev = hipacc_hwmodel::device::tesla_c2050();
        if bx * by > dev.max_threads_per_block {
            return;
        }
        let res = KernelResources {
            registers_per_thread: regs,
            shared_bytes: smem,
            instruction_estimate: 0,
        };
        if let Some(o) = occupancy(&dev, &res, bx, by) {
            assert!(o.occupancy > 0.0 && o.occupancy <= 1.0, "[seed {seed:#x}]");
            // More registers can only lower (or keep) occupancy.
            let res2 = KernelResources {
                registers_per_thread: regs + 4,
                ..res
            };
            if let Some(o2) = occupancy(&dev, &res2, bx, by) {
                assert!(o2.occupancy <= o.occupancy + 1e-12, "[seed {seed:#x}]");
            }
            // More shared memory likewise.
            let res3 = KernelResources {
                shared_bytes: smem + 4096,
                ..res
            };
            if let Some(o3) = occupancy(&dev, &res3, bx, by) {
                assert!(o3.occupancy <= o.occupancy + 1e-12, "[seed {seed:#x}]");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Region partition.
// ---------------------------------------------------------------------

#[test]
fn region_partition_is_total() {
    cases(400, |seed, rng| {
        let w = rng.gen_range_i64(16, 700) as u32;
        let h = rng.gen_range_i64(16, 700) as u32;
        let halo = rng.gen_range_i64(0, 7) as u32;
        let cfg = LaunchConfig {
            bx: 1 << rng.gen_range_i64(5, 7),
            by: rng.gen_range_i64(1, 7) as u32,
        };
        let grid = RegionGrid::compute(w, h, halo, halo, cfg);
        let counts = grid.block_counts();
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, grid.total_blocks(), "[seed {seed:#x}]");
        // Threshold sanity.
        assert!(
            grid.left_blocks + grid.right_blocks <= grid.grid_x,
            "[seed {seed:#x}]"
        );
        assert!(
            grid.top_blocks + grid.bottom_blocks <= grid.grid_y,
            "[seed {seed:#x}]"
        );
    });
}

// ---------------------------------------------------------------------
// End-to-end functional property: random convolutions match the CPU
// reference through the whole compile + simulate pipeline.
// ---------------------------------------------------------------------

#[test]
fn random_convolutions_match_reference() {
    cases(8, |seed, rng| {
        let w = 2 * rng.gen_below(3) + 1;
        let h = 2 * rng.gen_below(3) + 1;
        let mode = [
            BoundaryMode::Clamp,
            BoundaryMode::Repeat,
            BoundaryMode::Mirror,
            BoundaryMode::Constant(0.25),
        ][rng.gen_below(4) as usize];
        let coeffs: Vec<f32> = (0..w * h).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();

        let mut img = phantom::gradient(24, 20);
        phantom::add_gaussian_noise(&mut img, 0.2, seed);

        // DSL kernel via the convolve() sugar.
        use hipacc_core::convolve::{convolve, Reduce};
        use hipacc_ir::{KernelBuilder, ScalarType};
        let mut b = KernelBuilder::new("randconv", ScalarType::F32);
        let input = b.accessor("Input", ScalarType::F32);
        let mask = b.mask_const("M", w, h, coeffs.clone());
        let m2 = mask.clone();
        let acc = convolve(&mut b, &mask, Reduce::Sum, |b, dx, dy| {
            b.mask_at(&m2, dx.clone(), dy.clone()) * b.read_at(&input, dx, dy)
        });
        b.output(acc.get());
        let op = hipacc_core::Operator::new(b.finish()).boundary(
            "Input",
            mode,
            w.max(3) | 1,
            h.max(3) | 1,
        );
        let target = hipacc_core::Target::cuda(hipacc_hwmodel::device::tesla_c2050());
        let result = op.execute(&[("Input", &img)], &target).unwrap();

        let expected = reference::convolve2d(&img, &reference::MaskCoeffs::new(w, h, coeffs), mode);
        assert!(
            result.output.max_abs_diff(&expected) < 1e-3,
            "diff {} [seed {seed:#x}]",
            result.output.max_abs_diff(&expected)
        );
    });
}

// ---------------------------------------------------------------------
// Image container.
// ---------------------------------------------------------------------

#[test]
fn host_roundtrip_lossless() {
    cases(100, |_, rng| {
        let w = rng.gen_range_i64(1, 199) as u32;
        let h = rng.gen_range_i64(1, 49) as u32;
        let data: Vec<f32> = (0..w * h).map(|i| i as f32 * 0.5).collect();
        let img = Image::from_vec(w, h, data.clone());
        assert_eq!(img.to_host_vec(), data);
    });
}

#[test]
fn boundary_view_transparent_inside() {
    cases(100, |seed, rng| {
        let w = rng.gen_range_i64(2, 59) as u32;
        let h = rng.gen_range_i64(2, 59) as u32;
        let mut img = phantom::gradient(w, h);
        phantom::add_gaussian_noise(&mut img, 0.5, seed);
        let x = rng.gen_below(w) as i32;
        let y = rng.gen_below(h) as i32;
        for mode in BoundaryMode::all() {
            let v = hipacc_image::BoundaryView::new(&img, mode);
            assert_eq!(v.get(x, y), img.get(x, y), "[seed {seed:#x}]");
        }
    });
}

// ---------------------------------------------------------------------
// Interpreter vs constant evaluator: the two expression evaluators in the
// system (the simulator's and the folder's) must agree on pure math.
// ---------------------------------------------------------------------

#[test]
fn interpreter_agrees_with_const_evaluator() {
    use hipacc_ir::kernel::{
        AddressMode, BufferAccess, BufferParam, DeviceKernelDef, MemorySpace, ParamDecl,
    };
    use hipacc_ir::ScalarType;
    use hipacc_sim::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};

    cases(150, |seed, rng| {
        let e = gen_int_expr(rng, 4);
        let a = rng.gen_range_i64(-100, 100);
        let b = rng.gen_range_i64(-100, 100);
        let env = int_env(a, b);
        let Some(expected) = eval_const(&e, &env) else {
            // Overflow or division by zero: the folder refuses; skip.
            return;
        };

        let kernel = DeviceKernelDef {
            name: "probe".into(),
            buffers: vec![BufferParam {
                name: "OUT".into(),
                ty: ScalarType::F32,
                access: BufferAccess::WriteOnly,
                space: MemorySpace::Global,
                address_mode: AddressMode::None,
            }],
            scalars: vec![
                ParamDecl {
                    name: "a".into(),
                    ty: ScalarType::I32,
                },
                ParamDecl {
                    name: "b".into(),
                    ty: ScalarType::I32,
                },
            ],
            const_buffers: vec![],
            shared: vec![],
            body: vec![Stmt::GlobalStore {
                buf: "OUT".into(),
                idx: Expr::int(0),
                value: e.cast(ScalarType::F32),
            }],
        };
        let mut mem = DeviceMemory::new();
        mem.bind(
            "OUT",
            DeviceBuffer::new(BufferGeometry {
                width: 1,
                height: 1,
                stride: 1,
            }),
        );
        let mut params = LaunchParams::new((1, 1), (1, 1));
        params.set_int("a", a).set_int("b", b);
        match hipacc_sim::interp::execute(&kernel, &params, &mut mem) {
            Ok(_) => {
                let got = mem.buffer("OUT").unwrap().data[0];
                assert!(
                    (got - expected.as_f32()).abs() < 1e-3,
                    "interp {got} vs folder {} [seed {seed:#x}]",
                    expected.as_f32()
                );
            }
            // The interpreter may reject what the folder also refuses
            // (e.g. division by zero) — but if the folder produced a
            // value, the interpreter must too.
            Err(err) => panic!("interpreter failed: {err} [seed {seed:#x}]"),
        }
    });
}

// ---------------------------------------------------------------------
// Execution-engine equivalence: for randomly generated small kernels both
// tape engines and the tree-walking specification must produce identical
// outputs, identical per-block store order and identical dynamic
// statistics (including `oob_reads`).
// ---------------------------------------------------------------------

mod engines {
    use super::*;
    use hipacc_ir::kernel::{
        AddressMode, BufferAccess, BufferParam, DeviceKernelDef, MemorySpace, ParamDecl,
    };
    use hipacc_ir::{Builtin, LValue, ScalarType};
    use hipacc_sim::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};
    use hipacc_sim::{Engine, SimError};

    /// A random value expression over the named locals, input loads with
    /// random (sometimes out-of-bounds) offsets, lazy `Select`/`&&`/`||`
    /// and math calls — the operator mix the engines must agree on
    /// operation-for-operation, not just value-for-value.
    ///
    /// Untyped, a `Select` may pair an int arm with a float one, so its
    /// result has no fixed dynamic tag — legal on the dynamically typed
    /// engines, refused (and counted) by the simd engine's lowering.
    /// `typed` is the well-typed arm family: every `Select` arm is cast to
    /// `f32`, as code generated from a typechecked kernel would be.
    fn gen_val_expr(rng: &mut Pcg32, depth: u32, vars: &[&str], typed: bool) -> Expr {
        if depth == 0 || rng.gen_below(4) == 0 {
            return match rng.gen_below(4) {
                0 => Expr::float(rng.gen_range_f32(-2.0, 2.0)),
                1 => Expr::int(rng.gen_range_i64(-3, 3)),
                2 => Expr::var(vars[rng.gen_below(vars.len() as u32) as usize]),
                _ => {
                    // Offsets occasionally jump far out of bounds so both
                    // engines exercise (and must agree on) OOB clamping.
                    let far = if rng.gen_below(8) == 0 { 1000 } else { 1 };
                    Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(Expr::var("gid") + Expr::int(rng.gen_range_i64(-4, 4) * far)),
                    }
                }
            };
        }
        let x = gen_val_expr(rng, depth - 1, vars, typed);
        let y = gen_val_expr(rng, depth - 1, vars, typed);
        let arm = |e: Expr| if typed { e.cast(ScalarType::F32) } else { e };
        match rng.gen_below(8) {
            0 => x + y,
            1 => x - y,
            2 => x * y,
            3 => Expr::min(x, y),
            4 => Expr::max(x, y),
            5 => {
                let z = gen_val_expr(rng, depth - 1, vars, typed);
                Expr::select(x.lt(y), arm(z), Expr::float(0.5))
            }
            6 => Expr::select(
                x.clone()
                    .lt(Expr::float(0.0))
                    .and(y.clone().gt(Expr::float(-1.0))),
                arm(x),
                arm(y),
            ),
            _ => Expr::select(
                x.clone()
                    .ge(Expr::float(1.0))
                    .or(y.clone().le(Expr::float(0.0))),
                arm(y),
                arm(x),
            ),
        }
    }

    /// A random one-dimensional kernel: thread id, an optional extra
    /// local, an optional accumulation loop, and a guarded store. Two in
    /// three kernels draw their expressions from the well-typed family.
    fn gen_kernel(rng: &mut Pcg32) -> DeviceKernelDef {
        let typed = rng.gen_below(3) != 0;
        let mut vars: Vec<&str> = vec!["gid"];
        let mut body = vec![Stmt::Decl {
            name: "gid".into(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                    + Expr::Builtin(Builtin::ThreadIdxX),
            ),
        }];
        if rng.gen_below(2) == 0 {
            let init = gen_val_expr(rng, 2, &vars, typed);
            body.push(Stmt::Decl {
                name: "t".into(),
                ty: ScalarType::F32,
                init: Some(init),
            });
            vars.push("t");
        }
        if rng.gen_below(2) == 0 {
            body.push(Stmt::Decl {
                name: "acc".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            });
            let taps = rng.gen_range_i64(0, 3);
            body.push(Stmt::For {
                var: "i".into(),
                from: Expr::int(-taps),
                to: Expr::int(taps),
                body: vec![Stmt::Assign {
                    target: LValue::Var("acc".into()),
                    value: Expr::var("acc")
                        + Expr::GlobalLoad {
                            buf: "IN".into(),
                            idx: Box::new(Expr::var("gid") + Expr::var("i")),
                        },
                }],
            });
            vars.push("acc");
        }
        if rng.gen_below(2) == 0 {
            // A *divergent* loop: the trip count depends on the thread
            // index, so the lanes of one simd warp run different
            // iteration counts and the engines must agree on the
            // per-lane traces (loads included), not just on the final
            // values.
            body.push(Stmt::Decl {
                name: "div".into(),
                ty: ScalarType::F32,
                init: Some(Expr::float(0.0)),
            });
            let modulus = rng.gen_range_i64(2, 7);
            body.push(Stmt::For {
                var: "j".into(),
                from: Expr::int(0),
                to: Expr::var("gid").rem(Expr::int(modulus)),
                body: vec![Stmt::Assign {
                    target: LValue::Var("div".into()),
                    value: Expr::var("div")
                        + Expr::GlobalLoad {
                            buf: "IN".into(),
                            idx: Box::new(Expr::var("gid") - Expr::var("j")),
                        },
                }],
            });
            vars.push("div");
        }
        let value = gen_val_expr(rng, 3, &vars, typed);
        if rng.gen_below(3) == 0 {
            body.push(Stmt::If {
                cond: Expr::var("gid").rem(Expr::int(3)).eq_(Expr::int(0)),
                then: vec![Stmt::Return],
                els: vec![],
            });
        }
        body.push(Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid") + Expr::int(rng.gen_range_i64(-2, 2)),
            value,
        });
        DeviceKernelDef {
            name: "randkern".into(),
            buffers: vec![
                BufferParam {
                    name: "IN".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::ReadOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
                BufferParam {
                    name: "OUT".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::WriteOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
            ],
            scalars: vec![ParamDecl {
                name: "bias".into(),
                ty: ScalarType::F32,
            }],
            const_buffers: vec![],
            shared: vec![],
            body,
        }
    }

    /// The block shapes every random kernel runs under: one row of two
    /// warps, then shapes with several warps to a block whose rows do not
    /// end where warps do. Rows share their `gid`s, so threads of
    /// different warps store to one cell and only thread order decides
    /// which value stays.
    const BLOCK_SHAPES: [(u32, u32); 4] = [(32, 1), (32, 6), (24, 2), (8, 8)];

    /// `params` once per entry of [`BLOCK_SHAPES`].
    fn block_shapes(params: &LaunchParams) -> impl Iterator<Item = LaunchParams> + '_ {
        BLOCK_SHAPES.into_iter().map(|block| LaunchParams {
            block,
            ..params.clone()
        })
    }

    /// A random kernel with the two-block launch it runs under: 48 random
    /// input elements, a zeroed output, a random `bias`.
    fn gen_launch(rng: &mut Pcg32) -> (DeviceKernelDef, DeviceMemory, LaunchParams) {
        let k = gen_kernel(rng);
        let geom = BufferGeometry {
            width: 48,
            height: 1,
            stride: 48,
        };
        let mut mem = DeviceMemory::new();
        let mut inp = DeviceBuffer::new(geom);
        for v in inp.data.iter_mut() {
            *v = rng.gen_range_f32(-3.0, 3.0);
        }
        mem.bind("IN", inp);
        mem.bind("OUT", DeviceBuffer::new(geom));
        let mut params = LaunchParams::new((2, 1), (32, 1));
        params.set_float("bias", rng.gen_range_f32(-1.0, 1.0));
        (k, mem, params)
    }

    /// `IN` and `OUT` as bit patterns.
    fn buffer_bits(m: &DeviceMemory) -> [Vec<u32>; 2] {
        ["IN", "OUT"].map(|name| {
            let data = &m.buffer(name).unwrap().data;
            data.iter().map(|v| v.to_bits()).collect()
        })
    }

    /// If the specification or one of the two engines rejects a kernel,
    /// all three must, with the same error.
    fn assert_same_failure([spec, bc, simd]: [Result<(), SimError>; 3], at: &str) {
        assert_eq!(spec, bc, "bytecode disagrees on failure, {at}");
        assert_eq!(spec, simd, "simd disagrees on failure, {at}");
    }

    #[test]
    fn random_kernels_agree_between_engines() {
        // Launches that ran, and those of them the simd engine kept on
        // its vector path from the first block to the last.
        let (mut ran, mut vectorized) = (0u32, 0u32);
        cases(60, |seed, rng| {
            let (k, mem, params) = gen_launch(rng);
            for params in block_shapes(&params) {
                let at = format!("block {:?} [seed {seed:#x}]", params.block);
                let mut mem_tree = mem.clone();
                let mut mem_bc = mem.clone();
                let mut mem_simd = mem.clone();
                let r_tree = hipacc_sim::interp::execute(&k, &params, &mut mem_tree);
                let r_bc = hipacc_sim::execute_bytecode(&k, &params, &mut mem_bc);
                let r_simd = hipacc_sim::compile(&k, &params, &mem_simd)
                    .and_then(|c| c.run_instrumented(&mut mem_simd, Engine::Simd, true, None));
                match (r_tree, r_bc, r_simd) {
                    (Ok(stats_tree), Ok(stats_bc), Ok(run_simd)) => {
                        // No silent path: every block ran in lockstep or
                        // ran scalar, and the launch says how many did
                        // which, and why.
                        let tel = run_simd.exec.and_then(|e| e.simd).expect("simd telemetry");
                        let by_cause: u64 = tel.fallbacks().map(|(_, n)| n).sum();
                        assert_eq!(by_cause, tel.scalar_fallback_blocks(), "{at}");
                        assert_eq!(
                            tel.lockstep_blocks + tel.scalar_fallback_blocks(),
                            2,
                            "a block is not accounted for, {at}"
                        );
                        if tel.warp_steps == 0 {
                            assert_eq!(
                                tel.scalar_fallback_blocks(),
                                2,
                                "refused without being counted, {at}"
                            );
                        }
                        ran += 1;
                        vectorized += u32::from(tel.scalar_fallback_blocks() == 0);
                        let stats_simd = run_simd.stats;
                        assert_eq!(stats_tree, stats_bc, "ExecStats diverge, {at}");
                        assert_eq!(stats_tree, stats_simd, "simd ExecStats diverge, {at}");
                        for (engine, m) in [("bytecode", &mem_bc), ("simd", &mem_simd)] {
                            assert!(
                                buffer_bits(&mem_tree) == buffer_bits(m),
                                "buffers diverge on {engine}, {at}"
                            );
                        }
                    }
                    (t, b, s) => assert_same_failure([t.map(drop), b.map(drop), s.map(drop)], &at),
                }
            }
        });
        assert!(
            vectorized * 2 >= ran && ran >= 120,
            "only {vectorized} of {ran} random kernels ran on the vector path"
        );
    }

    /// Which store a `FlipBits { nth }` fault corrupts depends on the
    /// order a block journals its stores in, so that order is part of the
    /// specification: block by block, both engines must produce the
    /// specification's stores entry for entry, and its statistics. Given
    /// that, one commit step serves both engines, and under an armed fault
    /// plan (memory corruption before compile, store drops and bit flips
    /// at commit) they must still agree bit-for-bit with each other: same
    /// stats, same outputs, same corrupted-block ledger.
    #[test]
    fn random_kernels_agree_under_faults() {
        use hipacc_core::{FaultPlan, FaultSession};
        use hipacc_sim::inject::FaultHook;

        cases(24, |seed, rng| {
            let (k, mem, params) = gen_launch(rng);
            let blocks = [(0, 0), (1, 0)];
            let plan = FaultPlan {
                seed,
                global_flip_rate: 0.08,
                drop_rate: 0.08,
                poison_boundary_rate: 0.08,
                faulty_attempts: 1,
                ..FaultPlan::default()
            };
            // Mirrors the launch-layer ordering: memory corruption lands
            // before the tape is compiled (it captures constant banks).
            let corrupted = || {
                let mut m = mem.clone();
                let session = FaultSession::new(plan.clone(), 0);
                session.corrupt_memory(&mut m);
                (m, session)
            };
            for params in block_shapes(&params) {
                let at = format!("block {:?} [seed {seed:#x}]", params.block);
                let spec = hipacc_sim::interp::execute_blocks(&k, &params, &corrupted().0, &blocks);
                let run = |engine: Engine| {
                    let (mut m, session) = corrupted();
                    let c = hipacc_sim::compile(&k, &params, &m)?;
                    let (stores, _) = c.run_blocks_with(&m, &blocks, engine)?;
                    let run = c.run_instrumented(&mut m, engine, true, Some(&session))?;
                    let faults = run.faults.expect("the session is armed");
                    let profile = run.exec.expect("a profile was asked for");
                    Ok((
                        stores,
                        profile.blocks,
                        run.stats,
                        faults.corrupted_blocks(),
                        m,
                    ))
                };
                match (spec, run(Engine::Bytecode), run(Engine::Simd)) {
                    (Ok(spec), Ok(bc), Ok(simd)) => {
                        let bits =
                            |s: &hipacc_sim::RepairStore| (s.buf.clone(), s.idx, s.value.to_bits());
                        let spec_stores: Vec<_> =
                            spec.iter().flat_map(|(s, _)| s).map(bits).collect();
                        for (engine, r) in [("bytecode", &bc), ("simd", &simd)] {
                            assert_eq!(
                                spec_stores,
                                r.0.iter().map(bits).collect::<Vec<_>>(),
                                "ordered stores diverge on {engine} {at}"
                            );
                            assert_eq!(
                                spec.iter().map(|(_, stats)| *stats).collect::<Vec<_>>(),
                                r.1.iter().map(|b| b.stats).collect::<Vec<_>>(),
                                "per-block ExecStats diverge on {engine} {at}"
                            );
                        }
                        assert_eq!(bc.2, simd.2, "faulted ExecStats diverge {at}");
                        assert_eq!(bc.3, simd.3, "corrupted-block ledgers diverge {at}");
                        assert!(
                            buffer_bits(&bc.4) == buffer_bits(&simd.4),
                            "faulted buffers diverge {at}"
                        );
                    }
                    (t, b, s) => assert_same_failure([t.map(drop), b.map(drop), s.map(drop)], &at),
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Static verifier vs dynamic observer: a kernel the verifier calls clean
// must run clean under the execution observer, and both engines must
// stay bit-identical on it. Roughly a third of the generated kernels
// carry a seeded defect; those must be flagged statically.
// ---------------------------------------------------------------------

mod verifier_cross_validation {
    use super::*;
    use hipacc_analysis::{has_errors, verify, VerifyInput};
    use hipacc_ir::kernel::{
        AddressMode, BufferAccess, BufferParam, DeviceKernelDef, MemorySpace, SharedDecl,
    };
    use hipacc_ir::{Builtin, ScalarType};
    use hipacc_sim::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};

    const BLOCK: (u32, u32) = (16, 1);
    const GRID: (u32, u32) = (3, 1);
    const N: usize = 48; // GRID.0 * BLOCK.0 threads, one element each

    fn tid() -> Expr {
        Expr::Builtin(Builtin::ThreadIdxX)
    }

    fn gid() -> Expr {
        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX) + tid()
    }

    /// The defect classes a dirty kernel can be seeded with. Each maps to
    /// one static diagnostic family and (where observable) one observer
    /// counter.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Defect {
        /// `IN[gid + 1000]` — provably out of bounds (A0301).
        FarLoad,
        /// Barrier under a `threadIdx`-dependent branch (A0101).
        DivergentBarrier,
        /// Staging store at `2 * tid` past the padded tile (A0302).
        SharedOverrun,
        /// Two lanes write one cell: store at `tid / 2` (A0201).
        SharedCollision,
        /// Cross-lane read with the barrier removed (A0202).
        MissingBarrier,
        /// `OUT[gid + 20]` — the tail of the grid stores past the end
        /// (A0301).
        FarStore,
    }

    /// A 1-D kernel: load, optional shared-memory staging with a
    /// reversed cross-lane read after a barrier, store. `defect`
    /// mutates one spot.
    fn gen_kernel(rng: &mut Pcg32, defect: Option<Defect>) -> DeviceKernelDef {
        let stage = defect
            .map(|d| {
                matches!(
                    d,
                    Defect::SharedOverrun | Defect::SharedCollision | Defect::MissingBarrier
                )
            })
            .unwrap_or(rng.gen_below(2) == 0);

        let mut body = vec![Stmt::Decl {
            name: "gid".into(),
            ty: ScalarType::I32,
            init: Some(gid()),
        }];
        let load_off = if defect == Some(Defect::FarLoad) {
            1000
        } else {
            0
        };
        body.push(Stmt::Decl {
            name: "v".into(),
            ty: ScalarType::F32,
            init: Some(Expr::GlobalLoad {
                buf: "IN".into(),
                idx: Box::new(Expr::var("gid") + Expr::int(load_off)),
            }),
        });
        if defect == Some(Defect::DivergentBarrier) {
            body.push(Stmt::If {
                cond: tid().lt(Expr::int(8)),
                then: vec![Stmt::Barrier],
                els: vec![],
            });
        }
        let value = if stage {
            let x = match defect {
                Some(Defect::SharedOverrun) => tid() * Expr::int(2),
                Some(Defect::SharedCollision) => tid() / Expr::int(2),
                _ => tid(),
            };
            body.push(Stmt::SharedStore {
                buf: "tile".into(),
                y: Expr::int(0),
                x,
                value: Expr::var("v"),
            });
            if defect != Some(Defect::MissingBarrier) {
                body.push(Stmt::Barrier);
            }
            // Reversed cross-lane read: safe exactly when the barrier
            // orders it after every lane's store.
            Expr::SharedLoad {
                buf: "tile".into(),
                y: Box::new(Expr::int(0)),
                x: Box::new(Expr::int(15) - tid()),
            }
        } else {
            Expr::var("v") * Expr::float(rng.gen_range_f32(0.5, 2.0))
        };
        let store_off = if defect == Some(Defect::FarStore) {
            20
        } else {
            0
        };
        body.push(Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::var("gid") + Expr::int(store_off),
            value,
        });

        let shared = if stage {
            vec![SharedDecl {
                name: "tile".into(),
                ty: ScalarType::F32,
                rows: 1,
                cols: 17, // 16 lanes + the bank-conflict pad
            }]
        } else {
            vec![]
        };
        let buffer = |name: &str, access| BufferParam {
            name: name.into(),
            ty: ScalarType::F32,
            access,
            space: MemorySpace::Global,
            address_mode: AddressMode::None,
        };
        DeviceKernelDef {
            name: "propkern".into(),
            buffers: vec![
                buffer("IN", BufferAccess::ReadOnly),
                buffer("OUT", BufferAccess::WriteOnly),
            ],
            scalars: vec![],
            const_buffers: vec![],
            shared,
            body,
        }
    }

    #[test]
    fn static_clean_implies_dynamically_clean() {
        let dev = hipacc_hwmodel::device::tesla_c2050();
        let defects = [
            Defect::FarLoad,
            Defect::DivergentBarrier,
            Defect::SharedOverrun,
            Defect::SharedCollision,
            Defect::MissingBarrier,
            Defect::FarStore,
        ];
        let (mut clean, mut dirty) = (0u32, 0u32);
        cases(90, |seed, rng| {
            // Every third case carries a seeded defect.
            let defect =
                (seed % 3 == 0).then(|| defects[rng.gen_below(defects.len() as u32) as usize]);
            let k = gen_kernel(rng, defect);

            let mut input = VerifyInput::new(&k, &dev, BLOCK, GRID);
            input.buffer_len.insert("IN".into(), N as i64);
            input.buffer_len.insert("OUT".into(), N as i64);
            let diags = verify(&input);

            if let Some(d) = defect {
                assert!(
                    has_errors(&diags),
                    "seeded {d:?} not caught [seed {seed:#x}]: {diags:?}"
                );
                dirty += 1;
                return;
            }
            assert!(
                !has_errors(&diags),
                "clean kernel flagged [seed {seed:#x}]: {diags:?}"
            );
            clean += 1;

            // Dynamic cross-check on the statically clean kernel.
            let geom = BufferGeometry {
                width: N as u32,
                height: 1,
                stride: N as u32,
            };
            let mut mem = DeviceMemory::new();
            let mut inp = DeviceBuffer::new(geom);
            for v in inp.data.iter_mut() {
                *v = rng.gen_range_f32(-3.0, 3.0);
            }
            mem.bind("IN", inp);
            mem.bind("OUT", DeviceBuffer::new(geom));
            let params = LaunchParams::new(GRID, BLOCK);

            let mut mem_obs = mem.clone();
            let mut mem_bc = mem;
            let (stats, report) = hipacc_sim::execute_observed(&k, &params, &mut mem_obs).unwrap();
            assert!(
                report.is_clean(),
                "static-clean kernel observed dirty [seed {seed:#x}]: {report:?}"
            );
            let stats_bc = hipacc_sim::execute_bytecode(&k, &params, &mut mem_bc).unwrap();
            assert_eq!(stats, stats_bc, "ExecStats diverge [seed {seed:#x}]");
            let a = &mem_obs.buffer("OUT").unwrap().data;
            let b = &mem_bc.buffer("OUT").unwrap().data;
            assert!(
                a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "outputs diverge [seed {seed:#x}]"
            );
        });
        assert!(clean >= 40, "only {clean} clean kernels generated");
        assert!(dirty >= 20, "only {dirty} dirty kernels generated");
    }
}
