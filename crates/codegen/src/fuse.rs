//! Fused-chain compilation: one device kernel for a producer–consumer
//! operator chain.
//!
//! The unfused pipeline launches every operator separately and
//! round-trips each intermediate image through global memory. This
//! module lowers a validated [`FusionChain`] into a *single* kernel in
//! two steps.
//!
//! **Register handoff.** Every point (halo-0) consumer is folded into
//! the stage before it: the producer's `output(e)` becomes a local
//! `_h<i>: f32 = e` and the consumer's body follows, reading that local
//! where it read its input. A point consumer needs no buffer at all; its
//! input is already in a register. A chain that folds down to one stage
//! is an ordinary kernel and goes through [`Compiler::compile_with_sink`]
//! under the chain's name, so it gets what every unfused kernel gets:
//! the nine border-region bodies, Algorithm-2 configuration, the
//! device's texture path, the optimizer and the verifier.
//!
//! **Staging tiles.** When stencil consumers remain, stages hand off
//! through scratchpad memory:
//!
//! * stage `i < N-1` computes its output into a shared-memory tile that
//!   covers the block extent plus the *cumulative* stencil reach of all
//!   downstream stages (`cum_i = Σ_{j>i} halo_j`), exactly the widened
//!   halo the legality analysis (`hipacc_analysis::fusion`) reasons
//!   about;
//! * a block-wide barrier separates each stage from its consumer;
//! * the final stage reads the last tile at the thread's own pixel and
//!   writes `OUT`, like any unfused kernel.
//!
//! Boundary handling composes bit-identically with the unfused chain:
//! every staging slot is evaluated at its coordinate clamped into the
//! image (out-of-image slots are never read back — `Clamp`, `Mirror`
//! and guarded `Constant` handoffs always resolve to in-image
//! coordinates, which is why `Repeat`/`Undefined` handoffs are
//! rejected), and reads apply the stage's own boundary mode with
//! both-sides index adjustment, the same [`adjust_coord`] forms the
//! unfused lowering emits. Tile reads carry a belt-and-braces clamp to
//! the tile extent; the containment argument makes it a value identity,
//! and it lets the bounds verifier prove every shared access in range.
//! The staged kernel has one body for every block: no region split and
//! no texture path.
//!
//! The staged compile drives the same phase pipeline as
//! [`Compiler::compile`] — specialize/unroll per stage, access
//! analysis, resource probe, Algorithm-2 configuration selection,
//! device typecheck, the analysis-driven optimizer, emission — and runs
//! the full kernel verifier over the result. Because a staged kernel's
//! scratchpad demand grows with the block size, the chosen
//! configuration is re-validated against the *real* fused resources and
//! degraded through the device's configuration ladder when it does not
//! fit; [`CompileError::NoValidConfiguration`] (a resource-limit error)
//! tells the runtime to fall back to per-stage launches.

use crate::compile::{
    launch_scalars, verify_compiled_with_sink, CompileError, CompiledKernel, Compiler, PhaseTimer,
};
use crate::cuda::emit_cuda;
use crate::host::{emit_cuda_host, emit_opencl_host};
use crate::index::{adjust_coord, clamp_expr, in_bounds_expr, Sides};
use crate::lower::MemPath;
use crate::opencl::emit_opencl;
use crate::options::CompileSpec;
use crate::regions::Region;
use hipacc_analysis::has_errors;
use hipacc_hwmodel::{
    estimate_resources, heuristic, occupancy, select_configuration, Backend, BorderInfo,
    LaunchConfig,
};
use hipacc_image::BoundaryMode;
use hipacc_ir::access::analyze;
use hipacc_ir::fold::specialize_kernel;
use hipacc_ir::fuse::{FusedStage, FusionChain};
use hipacc_ir::kernel::{
    AddressMode, BufferAccess, BufferParam, ConstBufferDecl, DeviceKernelDef, MemorySpace,
    SharedDecl,
};
use hipacc_ir::stmt::LValue;
use hipacc_ir::typecheck::check_device;
use hipacc_ir::unroll::unroll_kernel;
use hipacc_ir::{Builtin, Expr, KernelDef, ParamDecl, ScalarType, Stmt};
use std::collections::{HashMap, HashSet};

/// One stage of the chain, ready to lower: the specialized kernel plus
/// the halo facts the tiling is derived from.
struct StagePlan {
    /// Specialized/unrolled, alpha-renamed stage kernel.
    def: KernelDef,
    /// The (renamed) accessor this stage reads.
    input: String,
    /// Boundary mode of the stage's reads.
    mode: BoundaryMode,
    /// This stage's stencil half-window on its input, widened with the
    /// declared boundary window (same rule as the unfused compile).
    halo: (u32, u32),
    /// Halo the stage's *output tile* must carry: the summed stencil
    /// reach of every downstream stage.
    cum: (u32, u32),
}

impl Compiler {
    /// Compile a fused operator chain into a single device kernel.
    ///
    /// The chain must already be structurally composed
    /// ([`hipacc_ir::fuse::compose`]) and boundary-legal
    /// (`hipacc_analysis::fusion::check_fusion`); illegal handoff modes
    /// are re-checked here and fail with
    /// [`CompileError::UnsupportedCombination`]. `spec` describes the
    /// chain's shared geometry; per-stage boundary modes are looked up
    /// under the renamed accessor names, parameter bindings under the
    /// renamed parameter names.
    pub fn compile_fused(
        &self,
        chain: &FusionChain,
        spec: &CompileSpec,
    ) -> Result<CompiledKernel, CompileError> {
        self.compile_fused_with_sink(chain, spec, &mut hipacc_profile::NullSink)
    }

    /// [`Self::compile_fused`] with one timed span per compile phase
    /// recorded into `sink`, mirroring [`Self::compile_with_sink`].
    pub fn compile_fused_with_sink(
        &self,
        chain: &FusionChain,
        spec: &CompileSpec,
        sink: &mut dyn hipacc_profile::ProfileSink,
    ) -> Result<CompiledKernel, CompileError> {
        if !self.db.backend_supported(&spec.device, spec.backend) {
            return Err(CompileError::UnsupportedBackend(format!(
                "{} cannot target {}",
                spec.backend.name(),
                spec.device.name
            )));
        }
        if spec.vectorize > 1 {
            return Err(CompileError::UnsupportedCombination(
                "fused kernels are scalar; vectorization is not supported".into(),
            ));
        }
        if chain.stages.len() < 2 {
            return Err(CompileError::Internal(
                "fusion chain has fewer than two stages".into(),
            ));
        }
        // Handoff legality: interior stages read a staged tile, which
        // Repeat wraps out of and Undefined leaves unspecified. The
        // planner rejects these with F0102 before compiling; this is the
        // compiler's own backstop. Point consumers (no inferred or
        // declared half-window) only ever read their own pixel, so the
        // handoff mode is never exercised and any mode is legal.
        for s in &chain.stages[1..] {
            let declared = spec
                .boundaries
                .get(&s.input)
                .map(|b| (b.half_x(), b.half_y()))
                .unwrap_or((0, 0));
            if s.halo == (0, 0) && declared == (0, 0) {
                continue;
            }
            match spec.boundary_mode(&s.input) {
                BoundaryMode::Repeat => {
                    return Err(CompileError::UnsupportedCombination(format!(
                        "stage `{}`: Repeat handoff boundary handling cannot be fused",
                        s.def.name
                    )))
                }
                BoundaryMode::Undefined => {
                    return Err(CompileError::UnsupportedCombination(format!(
                        "stage `{}`: Undefined handoff boundary handling cannot be fused",
                        s.def.name
                    )))
                }
                _ => {}
            }
        }

        // Register handoff: a chain that folds down to one stage is an
        // ordinary kernel, compiled like any unfused one.
        let stages = fold_point_consumers(&chain.stages);
        if let [only] = stages.as_slice() {
            let folded = KernelDef {
                name: chain.union.name.clone(),
                ..only.def.clone()
            };
            return self.compile_with_sink(&folded, spec, sink);
        }

        let mut ph = PhaseTimer {
            sink,
            times: Vec::new(),
        };

        // 1. Per-stage optimization passes, same order as the unfused
        // compile (bindings and locals are alpha-renamed, so the shared
        // binding map applies cleanly per stage).
        let works: Vec<KernelDef> = ph.run("specialize", || {
            stages
                .iter()
                .map(|s| {
                    let mut w = s.def.clone();
                    if spec.constant_propagation && !spec.param_bindings.is_empty() {
                        w = specialize_kernel(&w, &spec.param_bindings);
                    }
                    if spec.unroll_limit > 0 {
                        let (unrolled, _stats) = unroll_kernel(&w, spec.unroll_limit);
                        w = unrolled;
                    }
                    w
                })
                .collect()
        });

        // 2. Access analysis: per-stage stencils, then the cumulative
        // trailing halo each staging tile must carry.
        let plans = ph.run(
            "access-analysis",
            || -> Result<Vec<StagePlan>, CompileError> {
                let mut plans = Vec::with_capacity(works.len());
                for (s, work) in stages.iter().zip(works) {
                    let info = analyze(&work, &spec.param_bindings);
                    let inferred = match info.inputs.get(&s.input) {
                        None => (0, 0),
                        Some(p) => match p.window() {
                            Some((w, h)) if !p.unbounded => (w / 2, h / 2),
                            _ => {
                                return Err(CompileError::UnsupportedCombination(format!(
                                    "fused stage `{}` reads its input with an unbounded window",
                                    work.name
                                )))
                            }
                        },
                    };
                    let declared = spec
                        .boundaries
                        .get(&s.input)
                        .map(|b| (b.half_x(), b.half_y()))
                        .unwrap_or((0, 0));
                    plans.push(StagePlan {
                        mode: spec.boundary_mode(&s.input),
                        input: s.input.clone(),
                        def: work,
                        halo: (inferred.0.max(declared.0), inferred.1.max(declared.1)),
                        cum: (0, 0),
                    });
                }
                let (mut cx, mut cy) = (0u32, 0u32);
                for p in plans.iter_mut().rev() {
                    p.cum = (cx, cy);
                    cx += p.halo.0;
                    cy += p.halo.1;
                }
                Ok(plans)
            },
        )?;
        // Total stencil reach of the whole chain on the real input.
        let total = plans
            .iter()
            .fold((0u32, 0u32), |a, p| (a.0 + p.halo.0, a.1 + p.halo.1));
        let union = specialized_union(&plans, &chain.union.name);

        // 3. Resource probe at the default configuration.
        let (roi_x, roi_y, roi_w, roi_h) = spec.iteration_space();
        let probe_res = ph.run("resource-probe", || {
            let probe_cfg = LaunchConfig {
                bx: spec
                    .device
                    .simd_width
                    .min(spec.device.max_threads_per_block),
                by: 1,
            };
            estimate_resources(&fused_device_kernel(&plans, &union, spec, probe_cfg))
        });

        // 4. Configuration selection (Algorithm 2) or forced config,
        // with the chain's total halo as the border information.
        let border = (total.0 > 0 || total.1 > 0).then_some(BorderInfo {
            half_x: total.0,
            half_y: total.1,
            width: roi_w,
            height: roi_h,
        });
        let selected = ph.run("config-select", || match spec.force_config {
            Some((bx, by)) => Ok(LaunchConfig { bx, by }),
            None => select_configuration(&spec.device, &probe_res, border)
                .map(|s| s.config)
                .ok_or(CompileError::NoValidConfiguration),
        })?;

        // 5. Final lowering. Scratchpad demand grows with the block
        // extent, and the probe ran at `by = 1`, so the selection is
        // re-validated against the real fused kernel and degraded
        // deterministically when it does not fit. Unlike single-stage
        // selection, occupancy is the wrong primary objective for a
        // fused chain: every block re-computes its staging tiles
        // including the cumulative halo, so the dominant cost is the
        // *redundant work* `blocks × Σ tile areas`, which shrinks as
        // blocks grow toward the iteration space. Candidates are
        // therefore ranked by that estimate (Algorithm 2's pick merely
        // joins the pool), and the first one the device's real fused
        // resources admit wins. A forced configuration (the
        // supervisor's breaker pinning) is never reranked or degraded —
        // it fails instead.
        let staged_work = |c: &LaunchConfig| -> u64 {
            // Staging slots outside the image are pruned by the step
            // guard, so count each block's tile clipped to the image —
            // the axes are separable.
            let clipped = |blocks: u32, bs: u32, cum: u32, off: u32, extent: u32| -> u64 {
                (0..blocks)
                    .map(|b| {
                        let base = i64::from(off) + i64::from(b * bs) - i64::from(cum);
                        let end = base + i64::from(bs + 2 * cum);
                        (end.min(i64::from(extent)) - base.max(0)).max(0) as u64
                    })
                    .sum()
            };
            let (gx, gy) = (roi_w.div_ceil(c.bx), roi_h.div_ceil(c.by));
            // Final stage: every launched thread at least runs the guard.
            let mut work = u64::from(gx * c.bx) * u64::from(gy * c.by);
            for p in &plans[..plans.len() - 1] {
                work += clipped(gx, c.bx, p.cum.0, roi_x, spec.width)
                    * clipped(gy, c.by, p.cum.1, roi_y, spec.height);
            }
            work
        };
        let (config, device_kernel, resources, occ) =
            ph.run("lowering", || -> Result<_, CompileError> {
                let mut candidates = vec![selected];
                if spec.force_config.is_none() {
                    let alts: Vec<LaunchConfig> = heuristic::enumerate_configs(&spec.device)
                        .into_iter()
                        .filter(|c| *c != selected)
                        .collect();
                    candidates.extend(alts);
                    candidates
                        .sort_by_key(|c| (staged_work(c), std::cmp::Reverse(c.threads()), c.by));
                }
                for cand in candidates {
                    let dk = fused_device_kernel(&plans, &union, spec, cand);
                    let res = estimate_resources(&dk);
                    if let Some(o) = occupancy(&spec.device, &res, cand.bx, cand.by) {
                        return Ok((cand, dk, res, Some(o)));
                    }
                    if spec.force_config.is_some() {
                        return Err(CompileError::InvalidForcedConfiguration(format!(
                            "{cand} on {} (fused chain)",
                            spec.device.name
                        )));
                    }
                }
                Err(CompileError::NoValidConfiguration)
            })?;
        let mut device_kernel = device_kernel;
        check_device(&device_kernel)
            .map_err(|e| CompileError::Internal(format!("fused device typecheck failed: {e}")))?;

        // The timing model weighs the unoptimized body, like the unfused
        // region bodies.
        let region_bodies = vec![(Region::Interior, device_kernel.body.clone())];

        // 6. Analysis-driven optimization of the fused device IR.
        let grid = config.grid_for(roi_w, roi_h);
        let opt_report = ph.run_with_sink("optimize", |sink| {
            let scalars = launch_scalars(spec, (roi_x, roi_y, roi_w, roi_h));
            crate::optimize::optimize_device_kernel(
                &mut device_kernel,
                spec,
                config,
                grid,
                &scalars,
                sink,
            )
        });
        if opt_report.total() > 0 {
            check_device(&device_kernel).map_err(|e| {
                CompileError::Internal(format!("optimized fused kernel typecheck failed: {e}"))
            })?;
        }

        // 7. Source emission.
        let (source, host_source) = ph.run("emission", || match spec.backend {
            Backend::Cuda => (
                emit_cuda(&device_kernel, false),
                emit_cuda_host(
                    &device_kernel,
                    config,
                    grid,
                    spec.width,
                    spec.height,
                    spec.stride,
                ),
            ),
            Backend::OpenCl => (
                emit_opencl(&device_kernel),
                emit_opencl_host(
                    &device_kernel,
                    config,
                    grid,
                    spec.width,
                    spec.height,
                    spec.stride,
                ),
            ),
        });

        let mut halves = HashMap::new();
        halves.insert(plans[0].input.clone(), total);
        let mut out = CompiledKernel {
            device_kernel,
            config,
            grid,
            region_grid: None,
            region_bodies,
            resources,
            occupancy: occ,
            source,
            host_source,
            backend: spec.backend,
            mem_path: MemPath::Scratchpad,
            kernel: union,
            halves,
            max_half: total,
            iteration_space: (roi_x, roi_y, roi_w, roi_h),
            vector_width: 1,
            diagnostics: Vec::new(),
            phase_times: Vec::new(),
            opt: opt_report,
        };

        // 8. Full kernel verification, same obligations as any compile.
        let out_ref = &out;
        let diags = ph.run_with_sink("verify", |sink| {
            verify_compiled_with_sink(out_ref, spec, sink)
        });
        if has_errors(&diags) {
            return Err(CompileError::Verification(diags));
        }
        out.diagnostics = diags;
        out.phase_times = ph.times;
        Ok(out)
    }
}

/// Fold every point (halo-0) consumer into the stage before it. The
/// producer's top-level `output(e)` becomes `_h<i>: f32 = e` (the type an
/// intermediate image holds) and the consumer's body follows, reading
/// `_h<i>` wherever it read its input. Stages are alpha-renamed, so the
/// concatenation captures no name. A chain with no point consumer comes
/// back unchanged.
fn fold_point_consumers(stages: &[FusedStage]) -> Vec<FusedStage> {
    let mut out = vec![stages[0].clone()];
    for (i, s) in stages.iter().enumerate().skip(1) {
        if s.halo != (0, 0) {
            out.push(s.clone());
            continue;
        }
        let p = &mut out.last_mut().expect("stage 0 never folds").def;
        let h = format!("_h{i}");
        for st in &mut p.body {
            if let Stmt::Output(e) = st {
                *st = Stmt::Decl {
                    name: h.clone(),
                    ty: ScalarType::F32,
                    init: Some(e.clone()),
                };
            }
        }
        let consumer = Stmt::rewrite_exprs(s.def.body.clone(), &mut |e| match e {
            Expr::InputAt { acc, .. } if acc == s.input => Expr::Var(h.clone()),
            other => other,
        });
        p.body.extend(consumer);
        p.params.extend(s.def.params.iter().cloned());
        p.masks.extend(s.def.masks.iter().cloned());
        p.pixel = s.def.pixel;
    }
    out
}

/// Merge the *specialized* stage kernels into one declaration namespace
/// (the runtime fingerprints against the unspecialized union from the
/// composer; this one backs the compiled artifact, so the verifier's
/// mask lookups see exactly the masks the device kernel declares).
fn specialized_union(plans: &[StagePlan], name: &str) -> KernelDef {
    let mut body = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        body.push(Stmt::Comment(format!("fused stage {i}: {}", p.def.name)));
        body.extend(p.def.body.iter().cloned());
    }
    KernelDef {
        name: name.to_string(),
        pixel: plans.last().expect("chain has stages").def.pixel,
        params: plans.iter().flat_map(|p| p.def.params.clone()).collect(),
        accessors: plans[0].def.accessors.clone(),
        masks: plans.iter().flat_map(|p| p.def.masks.clone()).collect(),
        body,
    }
}

/// Where a stage's `Input(dx, dy)` reads resolve.
enum ReadSrc {
    /// Stage 0: the real input image in global memory.
    Global(String),
    /// Later stages: the producer's scratchpad tile.
    Tile {
        /// Tile buffer name.
        buf: String,
        /// Name of the tile's base-x coordinate variable.
        base_x: String,
        /// Name of the tile's base-y coordinate variable.
        base_y: String,
        /// Tile width in slots (without the pad column).
        tw: u32,
        /// Tile height in slots.
        th: u32,
    },
}

/// Everything needed to lower one stage body at one evaluation point.
struct StageCtx<'a> {
    mode: BoundaryMode,
    /// The pixel coordinate the stage is being evaluated at (a clamped
    /// staging-slot coordinate, or `gid_x`/`gid_y` for the final stage).
    cx: Expr,
    cy: Expr,
    src: &'a ReadSrc,
    union: &'a KernelDef,
    use_const_masks: bool,
}

fn width() -> Expr {
    Expr::var("width")
}

fn height() -> Expr {
    Expr::var("height")
}

fn stride() -> Expr {
    Expr::var("stride")
}

fn tile_name(i: usize) -> String {
    format!("_ftile{i}")
}

/// Lower `Input(dx, dy)` for a fused stage: boundary-adjusted global
/// load for stage 0, tile read with a belt-and-braces clamp for later
/// stages. The index adjustment always checks both sides of each axis —
/// the staged tile must be valid for every block, like the unfused
/// scratchpad staging.
fn read_expr(ctx: &StageCtx<'_>, dx: &Expr, dy: &Expr) -> Expr {
    let ix = ctx.cx.clone() + dx.clone();
    let iy = ctx.cy.clone() + dy.clone();
    match ctx.src {
        ReadSrc::Global(buf) => {
            let load = |ax: Expr, ay: Expr| Expr::GlobalLoad {
                buf: buf.clone(),
                idx: Box::new(ax + ay * stride()),
            };
            match ctx.mode {
                BoundaryMode::Undefined => load(ix, iy),
                BoundaryMode::Clamp | BoundaryMode::Repeat | BoundaryMode::Mirror => {
                    let ax = adjust_coord(ctx.mode, ix, width(), Sides::both());
                    let ay = adjust_coord(ctx.mode, iy, height(), Sides::both());
                    load(ax, ay)
                }
                BoundaryMode::Constant(c) => {
                    let pred =
                        in_bounds_expr(&ix, &iy, &width(), &height(), Sides::both(), Sides::both())
                            .expect("both sides checked");
                    Expr::select(pred, load(ix, iy), Expr::float(c))
                }
            }
        }
        ReadSrc::Tile {
            buf,
            base_x,
            base_y,
            tw,
            th,
        } => {
            let slot = |a: Expr, base: &str, n: u32| {
                clamp_expr(a - Expr::var(base), Expr::int(n as i64), Sides::both())
            };
            let load = |ax: Expr, ay: Expr| Expr::SharedLoad {
                buf: buf.clone(),
                y: Box::new(slot(ay, base_y, *th)),
                x: Box::new(slot(ax, base_x, *tw)),
            };
            match ctx.mode {
                BoundaryMode::Clamp | BoundaryMode::Mirror => {
                    let ax = adjust_coord(ctx.mode, ix, width(), Sides::both());
                    let ay = adjust_coord(ctx.mode, iy, height(), Sides::both());
                    load(ax, ay)
                }
                BoundaryMode::Constant(c) => {
                    let pred =
                        in_bounds_expr(&ix, &iy, &width(), &height(), Sides::both(), Sides::both())
                            .expect("both sides checked");
                    Expr::select(pred, load(ix, iy), Expr::float(c))
                }
                // Point consumers fold into their producer, so a stage
                // that reads a tile has a halo, and its mode passed the
                // handoff check in `compile_fused_with_sink`.
                BoundaryMode::Repeat | BoundaryMode::Undefined => {
                    unreachable!("illegal handoff modes are rejected before lowering")
                }
            }
        }
    }
}

/// Lower `Mask(dx, dy)`, mirroring the unfused lowering's mask access
/// (mask declarations are looked up in the union kernel, which carries
/// every stage's renamed masks).
fn mask_expr(ctx: &StageCtx<'_>, mask: &str, dx: &Expr, dy: &Expr) -> Expr {
    let decl = ctx
        .union
        .mask(mask)
        .unwrap_or_else(|| panic!("unknown mask {mask}"));
    let idx = (dy.clone() + Expr::int(decl.half_h() as i64)) * Expr::int(decl.width as i64)
        + dx.clone()
        + Expr::int(decl.half_w() as i64);
    if ctx.use_const_masks {
        Expr::ConstLoad {
            buf: format!("_const{mask}"),
            idx: Box::new(idx),
        }
    } else {
        Expr::GlobalLoad {
            buf: format!("_gmask{mask}"),
            idx: Box::new(idx),
        }
    }
}

fn lower_expr(ctx: &StageCtx<'_>, e: Expr) -> Expr {
    e.rewrite(&mut |n| match n {
        Expr::InputAt { dx, dy, .. } => read_expr(ctx, &dx, &dy),
        Expr::MaskAt { mask, dx, dy } => mask_expr(ctx, &mask, &dx, &dy),
        Expr::OutputX => ctx.cx.clone(),
        Expr::OutputY => ctx.cy.clone(),
        other => other,
    })
}

/// Lower one stage body at one evaluation point; `store` decides where
/// `output(...)` goes (a tile slot, or `OUT` for the final stage).
fn lower_stage_stmts(
    stmts: &[Stmt],
    ctx: &StageCtx<'_>,
    store: &dyn Fn(Expr) -> Stmt,
) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Decl { name, ty, init } => Stmt::Decl {
                name: name.clone(),
                ty: *ty,
                init: init.clone().map(|e| lower_expr(ctx, e)),
            },
            Stmt::Assign { target, value } => Stmt::Assign {
                target: target.clone(),
                value: lower_expr(ctx, value.clone()),
            },
            Stmt::Output(e) => store(lower_expr(ctx, e.clone())),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => Stmt::For {
                var: var.clone(),
                from: lower_expr(ctx, from.clone()),
                to: lower_expr(ctx, to.clone()),
                body: lower_stage_stmts(body, ctx, store),
            },
            Stmt::If { cond, then, els } => Stmt::If {
                cond: lower_expr(ctx, cond.clone()),
                then: lower_stage_stmts(then, ctx, store),
                els: lower_stage_stmts(els, ctx, store),
            },
            other => other.clone(),
        })
        .collect()
}

/// Build the fused device kernel for one launch configuration.
/// Suffix every local the stage body declares (`Decl` names, `For`
/// loop variables) and every use of them. Staging replays the body once
/// per tile step; the optimizer may prove a step's guard always-true
/// and collapse the branch scope away, so each replay needs its own
/// local names.
fn suffix_locals(stmts: &[Stmt], suffix: &str) -> Vec<Stmt> {
    let mut vars: HashSet<String> = HashSet::new();
    Stmt::visit_all(stmts, &mut |s| match s {
        Stmt::Decl { name, .. } => {
            vars.insert(name.clone());
        }
        Stmt::For { var, .. } => {
            vars.insert(var.clone());
        }
        _ => {}
    });
    let renamed = suffix_decl_sites(stmts.to_vec(), &vars, suffix);
    Stmt::rewrite_exprs(renamed, &mut |e| match e {
        Expr::Var(name) if vars.contains(&name) => Expr::Var(format!("{name}{suffix}")),
        other => other,
    })
}

/// The declaration-site half of [`suffix_locals`].
fn suffix_decl_sites(stmts: Vec<Stmt>, vars: &HashSet<String>, suffix: &str) -> Vec<Stmt> {
    let rename = |name: String| {
        if vars.contains(&name) {
            format!("{name}{suffix}")
        } else {
            name
        }
    };
    stmts
        .into_iter()
        .map(|s| match s {
            Stmt::Decl { name, ty, init } => Stmt::Decl {
                name: rename(name),
                ty,
                init,
            },
            Stmt::Assign {
                target: LValue::Var(name),
                value,
            } => Stmt::Assign {
                target: LValue::Var(rename(name)),
                value,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
            } => Stmt::For {
                var: rename(var),
                from,
                to,
                body: suffix_decl_sites(body, vars, suffix),
            },
            Stmt::If { cond, then, els } => Stmt::If {
                cond,
                then: suffix_decl_sites(then, vars, suffix),
                els: suffix_decl_sites(els, vars, suffix),
            },
            other => other,
        })
        .collect()
}

fn fused_device_kernel(
    plans: &[StagePlan],
    union: &KernelDef,
    spec: &CompileSpec,
    cfg: LaunchConfig,
) -> DeviceKernelDef {
    let bsx = cfg.bx;
    let bsy = cfg.by;
    let n = plans.len();
    let mut shared = Vec::new();
    let mut body: Vec<Stmt> = Vec::new();

    // Global ids in image coordinates, as in the unfused lowering.
    body.push(Stmt::Decl {
        name: "gid_x".into(),
        ty: ScalarType::I32,
        init: Some(
            Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                + Expr::Builtin(Builtin::ThreadIdxX)
                + Expr::var("is_offset_x"),
        ),
    });
    body.push(Stmt::Decl {
        name: "gid_y".into(),
        ty: ScalarType::I32,
        init: Some(
            Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::BlockDimY)
                + Expr::Builtin(Builtin::ThreadIdxY)
                + Expr::var("is_offset_y"),
        ),
    });

    // Staging phases: every stage but the last fills a tile.
    let mut prev_src = ReadSrc::Global(plans[0].input.clone());
    for (i, p) in plans.iter().enumerate().take(n - 1) {
        let tile_w = bsx + 2 * p.cum.0;
        let tile_h = bsy + 2 * p.cum.1;
        let tile = tile_name(i);
        shared.push(SharedDecl {
            name: tile.clone(),
            ty: ScalarType::F32,
            rows: tile_h,
            // +1 column pad against bank conflicts, like unfused staging.
            cols: tile_w + 1,
        });
        body.push(Stmt::Comment(format!(
            "fused stage {i} ({}) into a {}x{} tile (+1 pad)",
            p.def.name, tile_h, tile_w
        )));
        let base_x = format!("_fbase_x{i}");
        let base_y = format!("_fbase_y{i}");
        body.push(Stmt::Decl {
            name: base_x.clone(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxX) * Expr::int(bsx as i64)
                    + Expr::var("is_offset_x")
                    - Expr::int(p.cum.0 as i64),
            ),
        });
        body.push(Stmt::Decl {
            name: base_y.clone(),
            ty: ScalarType::I32,
            init: Some(
                Expr::Builtin(Builtin::BlockIdxY) * Expr::int(bsy as i64)
                    + Expr::var("is_offset_y")
                    - Expr::int(p.cum.1 as i64),
            ),
        });

        let steps_x = tile_w.div_ceil(bsx);
        let steps_y = tile_h.div_ceil(bsy);
        for step_y in 0..steps_y {
            for step_x in 0..steps_x {
                // Slot locals are named per step: the optimizer may
                // prove a step's guard always-true and collapse the
                // branch scope away, so same-named locals across steps
                // would collide.
                let s = step_y * steps_x + step_x;
                let (lxn, lyn) = (format!("_flx{i}_{s}"), format!("_fly{i}_{s}"));
                let (exn, eyn) = (format!("_fex{i}_{s}"), format!("_fey{i}_{s}"));
                let (cxn, cyn) = (format!("_fcx{i}_{s}"), format!("_fcy{i}_{s}"));
                let ctx = StageCtx {
                    mode: p.mode,
                    cx: Expr::var(&cxn),
                    cy: Expr::var(&cyn),
                    src: &prev_src,
                    union,
                    use_const_masks: spec.use_const_masks,
                };
                let lx = Expr::Builtin(Builtin::ThreadIdxX) + Expr::int((step_x * bsx) as i64);
                let ly = Expr::Builtin(Builtin::ThreadIdxY) + Expr::int((step_y * bsy) as i64);
                // Slot coordinates: the tile position, its image-space
                // coordinate, and that coordinate clamped into the image
                // (out-of-image slots evaluate the stage at the nearest
                // edge pixel; no downstream read ever targets them).
                let mut slot = vec![
                    Stmt::Decl {
                        name: lxn.clone(),
                        ty: ScalarType::I32,
                        init: Some(lx.clone()),
                    },
                    Stmt::Decl {
                        name: lyn.clone(),
                        ty: ScalarType::I32,
                        init: Some(ly.clone()),
                    },
                    Stmt::Decl {
                        name: exn.clone(),
                        ty: ScalarType::I32,
                        init: Some(Expr::var(&base_x) + Expr::var(&lxn)),
                    },
                    Stmt::Decl {
                        name: eyn.clone(),
                        ty: ScalarType::I32,
                        init: Some(Expr::var(&base_y) + Expr::var(&lyn)),
                    },
                    Stmt::Decl {
                        name: cxn.clone(),
                        ty: ScalarType::I32,
                        init: Some(clamp_expr(Expr::var(&exn), width(), Sides::both())),
                    },
                    Stmt::Decl {
                        name: cyn.clone(),
                        ty: ScalarType::I32,
                        init: Some(clamp_expr(Expr::var(&eyn), height(), Sides::both())),
                    },
                ];
                let tile_store = {
                    let (tile, lxn, lyn) = (tile.clone(), lxn.clone(), lyn.clone());
                    move |v: Expr| Stmt::SharedStore {
                        buf: tile.clone(),
                        y: Expr::var(&lyn),
                        x: Expr::var(&lxn),
                        value: v,
                    }
                };
                let step_body = suffix_locals(&p.def.body, &format!("_t{s}"));
                slot.extend(lower_stage_stmts(&step_body, &ctx, &tile_store));
                // Every step is guarded: the branch skips slots past the
                // tile extent, skips slots whose image coordinate falls
                // outside the image (tile reads always adjust their
                // coordinate into the image first, so such slots are
                // never read — for edge blocks this prunes the whole
                // out-of-image halo), and gives the redeclared slot
                // locals their own scope in the emitted C.
                let ex = Expr::var(&base_x) + lx.clone();
                let ey = Expr::var(&base_y) + ly.clone();
                body.push(Stmt::If {
                    cond: lx
                        .lt(Expr::int(tile_w as i64))
                        .and(ly.lt(Expr::int(tile_h as i64)))
                        .and(ex.clone().ge(Expr::int(0)))
                        .and(ex.lt(width()))
                        .and(ey.clone().ge(Expr::int(0)))
                        .and(ey.lt(height())),
                    then: slot,
                    els: vec![],
                });
            }
        }
        body.push(Stmt::Barrier);
        prev_src = ReadSrc::Tile {
            buf: tile,
            base_x,
            base_y,
            tw: tile_w,
            th: tile_h,
        };
    }

    // Staging must complete block-wide before any thread may return, so
    // the iteration-space guard follows the last barrier.
    body.push(Stmt::If {
        cond: Expr::var("gid_x")
            .ge(Expr::var("is_offset_x") + Expr::var("is_width"))
            .or(Expr::var("gid_y").ge(Expr::var("is_offset_y") + Expr::var("is_height"))),
        then: vec![Stmt::Return],
        els: vec![],
    });

    // Final stage: evaluated at the thread's own pixel, writing OUT.
    let last = &plans[n - 1];
    body.push(Stmt::Comment(format!(
        "fused stage {} ({}): final, writes OUT",
        n - 1,
        last.def.name
    )));
    let ctx = StageCtx {
        mode: last.mode,
        cx: Expr::var("gid_x"),
        cy: Expr::var("gid_y"),
        src: &prev_src,
        union,
        use_const_masks: spec.use_const_masks,
    };
    let out_store = |v: Expr| Stmt::GlobalStore {
        buf: "OUT".into(),
        idx: Expr::var("gid_x") + Expr::var("gid_y") * stride(),
        value: v,
    };
    body.extend(lower_stage_stmts(&last.def.body, &ctx, &out_store));

    // Parameters: the geometry scalars every launch binds, then the
    // merged (renamed) stage parameters.
    let mut scalars = vec![
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
        ParamDecl {
            name: "is_width".into(),
            ty: ScalarType::I32,
        },
        ParamDecl {
            name: "is_height".into(),
            ty: ScalarType::I32,
        },
        ParamDecl {
            name: "is_offset_x".into(),
            ty: ScalarType::I32,
        },
        ParamDecl {
            name: "is_offset_y".into(),
            ty: ScalarType::I32,
        },
    ];
    for p in &union.params {
        scalars.push(p.clone());
    }

    let mut buffers = Vec::new();
    for acc in &union.accessors {
        buffers.push(BufferParam {
            name: acc.name.clone(),
            ty: acc.ty,
            access: BufferAccess::ReadOnly,
            space: MemorySpace::Global,
            address_mode: AddressMode::None,
        });
    }
    buffers.push(BufferParam {
        name: "OUT".into(),
        ty: union.pixel,
        access: BufferAccess::WriteOnly,
        space: MemorySpace::Global,
        address_mode: AddressMode::None,
    });

    let mut const_buffers = Vec::new();
    for m in &union.masks {
        if spec.use_const_masks {
            const_buffers.push(ConstBufferDecl {
                name: format!("_const{}", m.name),
                width: m.width,
                height: m.height,
                data: m.coeffs.clone(),
            });
        } else {
            buffers.push(BufferParam {
                name: format!("_gmask{}", m.name),
                ty: ScalarType::F32,
                access: BufferAccess::ReadOnly,
                space: MemorySpace::Global,
                address_mode: AddressMode::None,
            });
        }
    }

    DeviceKernelDef {
        name: format!("{}_kernel", union.name),
        buffers,
        scalars,
        const_buffers,
        shared,
        body,
    }
}
