//! Global operators (reductions) — the Section VIII outlook item
//! implemented.
//!
//! The paper classifies operators into point, local and global, and defers
//! global operators ("we look for a similar syntax that allows the
//! programmer to define operations that merge/reduce two pixels") to
//! future work. This module supplies that piece: a device-side two-stage
//! reduction. Stage one is a generated kernel that stages each block's
//! pixels into scratchpad memory and tree-reduces them with barriers
//! between strides; stage two folds the per-block partials on the host —
//! the standard CUDA reduction pattern.

use crate::target::Target;
use hipacc_ir::kernel::{
    AddressMode, BufferAccess, BufferParam, DeviceKernelDef, MemorySpace, ParamDecl, SharedDecl,
};
use hipacc_ir::{Builtin, Expr, MathFn, ScalarType, Stmt};
use hipacc_sim::interp::ExecStats;
use hipacc_sim::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};

/// The merge function of a global operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of all pixels.
    Sum,
    /// Minimum pixel value.
    Min,
    /// Maximum pixel value.
    Max,
}

impl ReduceOp {
    fn identity(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f32::MAX,
            ReduceOp::Max => f32::MIN,
        }
    }

    fn combine_expr(self, a: Expr, b: Expr) -> Expr {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => Expr::call2(MathFn::Min, a, b),
            ReduceOp::Max => Expr::call2(MathFn::Max, a, b),
        }
    }

    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Generate the stage-one reduction kernel for a 1-D block of `threads`
/// threads (must be a power of two).
pub fn reduction_kernel(op: ReduceOp, threads: u32) -> DeviceKernelDef {
    assert!(threads.is_power_of_two(), "reduction blocks must be 2^k");
    let tid = || Expr::Builtin(Builtin::ThreadIdxX);
    let mut body = vec![
        Stmt::Comment("stage: one pixel per thread, identity when out of range".into()),
        Stmt::Decl {
            name: "gid_x".into(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX) + tid(),
            ),
        },
        Stmt::Decl {
            name: "gid_y".into(),
            ty: ScalarType::I32,
            init: Some(Expr::Builtin(Builtin::BlockIdxY)),
        },
        Stmt::Decl {
            name: "v".into(),
            ty: ScalarType::F32,
            init: Some(Expr::float(op.identity())),
        },
        Stmt::If {
            cond: Expr::var("gid_x")
                .lt(Expr::var("width"))
                .and(Expr::var("gid_y").lt(Expr::var("height"))),
            then: vec![Stmt::Assign {
                target: hipacc_ir::LValue::Var("v".into()),
                value: Expr::GlobalLoad {
                    buf: "IN".into(),
                    idx: Box::new(Expr::var("gid_x") + Expr::var("gid_y") * Expr::var("stride")),
                },
            }],
            els: vec![],
        },
        Stmt::SharedStore {
            buf: "_sred".into(),
            y: Expr::int(0),
            x: tid(),
            value: Expr::var("v"),
        },
        Stmt::Barrier,
    ];

    // Tree reduction: stride halving, one barrier per level.
    let mut s = threads / 2;
    while s >= 1 {
        body.push(Stmt::If {
            cond: tid().lt(Expr::int(s as i64)),
            then: vec![Stmt::SharedStore {
                buf: "_sred".into(),
                y: Expr::int(0),
                x: tid(),
                value: op.combine_expr(
                    Expr::SharedLoad {
                        buf: "_sred".into(),
                        y: Box::new(Expr::int(0)),
                        x: Box::new(tid()),
                    },
                    Expr::SharedLoad {
                        buf: "_sred".into(),
                        y: Box::new(Expr::int(0)),
                        x: Box::new(tid() + Expr::int(s as i64)),
                    },
                ),
            }],
            els: vec![],
        });
        body.push(Stmt::Barrier);
        s /= 2;
    }

    body.push(Stmt::If {
        cond: tid().eq_(Expr::int(0)),
        then: vec![Stmt::GlobalStore {
            buf: "OUT".into(),
            idx: Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::GridDimX)
                + Expr::Builtin(Builtin::BlockIdxX),
            value: Expr::SharedLoad {
                buf: "_sred".into(),
                y: Box::new(Expr::int(0)),
                x: Box::new(Expr::int(0)),
            },
        }],
        els: vec![],
    });

    DeviceKernelDef {
        name: format!("reduce_{op:?}").to_lowercase(),
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
        scalars: vec![
            ParamDecl {
                name: "width".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "height".into(),
                ty: ScalarType::I32,
            },
            ParamDecl {
                name: "stride".into(),
                ty: ScalarType::I32,
            },
        ],
        const_buffers: vec![],
        shared: vec![SharedDecl {
            name: "_sred".into(),
            ty: ScalarType::F32,
            rows: 1,
            cols: threads,
        }],
        body,
    }
}

/// Bind the image and the per-block partials buffer and size the grid
/// for the stage-one kernel: one block row per image row.
fn bind(img: &hipacc_image::Image<f32>, threads: u32) -> (DeviceMemory, LaunchParams) {
    let grid_x = img.width().div_ceil(threads);
    let grid_y = img.height();

    let mut mem = DeviceMemory::new();
    mem.bind_image("IN", img);
    let partials = grid_x * grid_y;
    mem.bind(
        "OUT",
        DeviceBuffer::new(BufferGeometry {
            width: partials,
            height: 1,
            stride: partials,
        }),
    );
    let mut params = LaunchParams::new((grid_x, grid_y), (threads, 1));
    params
        .set_int("width", img.width() as i64)
        .set_int("height", img.height() as i64)
        .set_int("stride", img.stride() as i64);
    (mem, params)
}

/// Run a global reduction over an image on a simulated target, on the
/// default (simd) engine.
pub fn reduce_image(
    img: &hipacc_image::Image<f32>,
    op: ReduceOp,
    target: &Target,
) -> Result<(f64, ExecStats), hipacc_sim::SimError> {
    let threads = 128u32
        .min(target.device.max_threads_per_block)
        .next_power_of_two()
        / 2
        * 2;
    let threads = if threads.is_power_of_two() {
        threads
    } else {
        128
    };
    let kernel = reduction_kernel(op, threads);
    let (mut mem, params) = bind(img, threads);
    let stats = hipacc_sim::compile(&kernel, &params, &mem)?
        .run_with(&mut mem, hipacc_sim::Engine::default())?;

    let partials = &mem.buffer("OUT").unwrap().data;
    let acc = partials
        .iter()
        .fold(op.identity() as f64, |acc, &p| op.combine(acc, p as f64));
    Ok((acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::{radeon_hd_5870, tesla_c2050};
    use hipacc_image::{phantom, reference};

    #[test]
    fn reduction_kernel_typechecks() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let k = reduction_kernel(op, 128);
            hipacc_ir::typecheck::check_device(&k).unwrap();
            assert!(k.has_barrier());
        }
    }

    #[test]
    fn sum_matches_reference() {
        let img = phantom::vessel_tree(100, 64, &phantom::VesselParams::default());
        let (sum, stats) = reduce_image(&img, ReduceOp::Sum, &Target::cuda(tesla_c2050())).unwrap();
        let expected = reference::reduce_sum(&img);
        assert!(
            (sum - expected).abs() / expected.abs() < 1e-4,
            "{sum} vs {expected}"
        );
        assert!(stats.barriers > 0);
    }

    #[test]
    fn max_and_min_match_reference() {
        let img = phantom::gradient(73, 21); // deliberately non-power-of-two
        let t = Target::cuda(tesla_c2050());
        let (mx, _) = reduce_image(&img, ReduceOp::Max, &t).unwrap();
        let (mn, _) = reduce_image(&img, ReduceOp::Min, &t).unwrap();
        let (lo, hi) = img.min_max();
        assert_eq!(mx as f32, hi);
        assert_eq!(mn as f32, lo);
    }

    #[test]
    fn reduction_respects_amd_block_cap() {
        let img = phantom::gradient(64, 16);
        let t = Target::opencl(radeon_hd_5870());
        let (sum, _) = reduce_image(&img, ReduceOp::Sum, &t).unwrap();
        let expected = reference::reduce_sum(&img);
        assert!((sum - expected).abs() / expected.abs() < 1e-4);
    }

    /// The generated kernel (scratchpad, barriers, a strided loop) runs
    /// on both engines exactly as the specification says: partials
    /// bitwise, `ExecStats` equal.
    #[test]
    fn engines_match_the_specification() {
        let img = phantom::vessel_tree(73, 21, &phantom::VesselParams::default());
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let kernel = reduction_kernel(op, 64);
            let (mem, params) = bind(&img, 64);
            let mut spec_mem = mem.clone();
            let spec = hipacc_sim::interp::execute(&kernel, &params, &mut spec_mem).unwrap();
            let bits = |m: &DeviceMemory| -> Vec<u32> {
                let out = &m.buffer("OUT").unwrap().data;
                out.iter().map(|v| v.to_bits()).collect()
            };
            let tape = hipacc_sim::compile(&kernel, &params, &mem).unwrap();
            for engine in [hipacc_sim::Engine::Bytecode, hipacc_sim::Engine::Simd] {
                let mut m = mem.clone();
                let stats = tape.run_with(&mut m, engine).unwrap();
                assert_eq!(stats, spec, "{op:?} on {engine:?}");
                assert_eq!(bits(&m), bits(&spec_mem), "{op:?} on {engine:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_blocks_rejected() {
        let _ = reduction_kernel(ReduceOp::Sum, 96);
    }
}
