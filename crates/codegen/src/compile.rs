//! The compilation driver.
//!
//! Reproduces the paper's two-phase flow: lower once with default
//! constants to probe resource usage, run the Algorithm-2 heuristic to
//! pick the launch configuration and tiling, then generate the *final*
//! kernel whose region-dispatch constants depend on that tiling
//! ("the final kernel code is generated after the kernel configuration
//! and tiling are determined").

use crate::cuda::emit_cuda;
use crate::host::{emit_cuda_host, emit_opencl_host};
use crate::lower::{hw_address_mode, resolve_mem, Lowering, MemPath};
use crate::opencl::emit_opencl;
use crate::options::CompileSpec;
use crate::regions::{Region, RegionGrid};
use hipacc_analysis::{has_errors, Diagnostic, RegionSeed, VerifyInput};
use hipacc_hwmodel::{
    estimate_resources, occupancy, select_configuration, Backend, BorderInfo, KernelResources,
    LaunchConfig, Occupancy, OptimizationDb,
};
use hipacc_image::BoundaryMode;
use hipacc_ir::access::analyze;
use hipacc_ir::fold::specialize_kernel;
use hipacc_ir::kernel::{AddressMode, DeviceKernelDef};
use hipacc_ir::typecheck::check_device;
use hipacc_ir::unroll::unroll_kernel;
use hipacc_ir::{Const, KernelDef, Stmt};
use std::collections::HashMap;
use std::fmt;

/// Compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The backend cannot target the device (CUDA on AMD).
    UnsupportedBackend(String),
    /// The requested hardware boundary handling does not exist — the
    /// "n/a" cells of the evaluation tables.
    UnsupportedHwBoundary(String),
    /// No launch configuration fits the device's resource limits.
    NoValidConfiguration,
    /// The forced configuration is invalid on the device.
    InvalidForcedConfiguration(String),
    /// Lowering produced an ill-formed kernel (internal error).
    Internal(String),
    /// A feature combination the compiler does not support.
    UnsupportedCombination(String),
    /// The kernel verifier found error-severity defects in the generated
    /// kernel (barrier divergence, shared-memory race, out-of-bounds
    /// access, resource overflow, or a lint failure).
    Verification(Vec<Diagnostic>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedBackend(m) => write!(f, "unsupported backend: {m}"),
            CompileError::UnsupportedHwBoundary(m) => write!(f, "{m}"),
            CompileError::NoValidConfiguration => {
                write!(f, "no launch configuration fits the device")
            }
            CompileError::InvalidForcedConfiguration(m) => {
                write!(f, "forced configuration invalid: {m}")
            }
            CompileError::Internal(m) => write!(f, "internal codegen error: {m}"),
            CompileError::UnsupportedCombination(m) => {
                write!(f, "unsupported combination: {m}")
            }
            CompileError::Verification(diags) => {
                write!(f, "kernel verification failed:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl CompileError {
    /// Whether the failure is a *resource-limit* failure — the kernel (or
    /// its forced configuration) does not fit the device — as opposed to a
    /// structural one (unsupported backend, ill-formed kernel). Resource
    /// failures are the ones the launch supervisor's config-degradation
    /// fallback can work around by recompiling with a cheaper memory
    /// variant or a smaller tile; structural failures are final.
    pub fn is_resource_limit(&self) -> bool {
        match self {
            CompileError::NoValidConfiguration | CompileError::InvalidForcedConfiguration(_) => {
                true
            }
            // A04xx is the verifier's resource-limit band (shared memory,
            // registers, constant bytes, block shape).
            CompileError::Verification(diags) => diags.iter().any(|d| d.code.starts_with("A04")),
            _ => false,
        }
    }
}

/// The product of one compilation, ready for the simulator and for
/// inspection.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The device-level kernel (what the simulator executes).
    pub device_kernel: DeviceKernelDef,
    /// The selected (or forced) launch configuration.
    pub config: LaunchConfig,
    /// Grid dimensions covering the iteration space.
    pub grid: (u32, u32),
    /// Region thresholds, when border-specialized code was generated.
    pub region_grid: Option<RegionGrid>,
    /// Per-region lowered bodies, for the timing model's region weighting.
    /// Contains a single `(Interior, body)` entry when no specialization
    /// was generated.
    pub region_bodies: Vec<(Region, Vec<Stmt>)>,
    /// Estimated resource usage (the PTXAS stand-in).
    pub resources: KernelResources,
    /// Occupancy at the chosen configuration.
    pub occupancy: Option<Occupancy>,
    /// Generated device source (CUDA or OpenCL text).
    pub source: String,
    /// Generated host-side launcher.
    pub host_source: String,
    /// The backend the source targets.
    pub backend: Backend,
    /// The memory path the inputs use.
    pub mem_path: MemPath,
    /// The (possibly specialized/unrolled) DSL kernel that was lowered.
    pub kernel: KernelDef,
    /// Per-accessor half-windows used for boundary regions.
    pub halves: HashMap<String, (u32, u32)>,
    /// The maximum half-window, i.e. the boundary metadata.
    pub max_half: (u32, u32),
    /// The iteration space `(offset_x, offset_y, width, height)`.
    pub iteration_space: (u32, u32, u32, u32),
    /// Pixels per work-item (1 = scalar; >1 = the Section-VIII
    /// vectorization extension).
    pub vector_width: u32,
    /// Warning-severity verifier findings. Error-severity findings never
    /// reach here — they fail the compile with
    /// [`CompileError::Verification`] instead.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock time of each compile phase, `(name, milliseconds)` in
    /// execution order — the compile half of the observability layer.
    /// Always populated (the measurement is two clock reads per phase);
    /// pass a sink to [`Compiler::compile_with_sink`] for full spans.
    pub phase_times: Vec<(String, f64)>,
    /// What the device-IR optimizer did: the level it ran at and the
    /// rewrite count of every executed pass, in pipeline order. Empty
    /// pass list at `opt_level = 0`.
    pub opt: hipacc_ir::opt::OptReport,
}

impl CompiledKernel {
    /// Lines of generated device code (§VI-C metric).
    pub fn generated_loc(&self) -> usize {
        crate::cuda::line_count(&self.source)
    }
}

/// The source-to-source compiler.
#[derive(Default)]
pub struct Compiler {
    db: OptimizationDb,
}

impl Compiler {
    /// Create a compiler with the built-in optimization database.
    pub fn new() -> Self {
        Self {
            db: OptimizationDb::new(),
        }
    }

    /// Compile a DSL kernel against a specification.
    pub fn compile(
        &self,
        kernel: &KernelDef,
        spec: &CompileSpec,
    ) -> Result<CompiledKernel, CompileError> {
        self.compile_with_sink(kernel, spec, &mut hipacc_profile::NullSink)
    }

    /// [`Self::compile`] with one timed span per compile phase recorded
    /// into `sink` (category `"compile"`), plus one span per verifier
    /// pass (category `"verify"`, via
    /// [`hipacc_analysis::verify_with_sink`]). The phase-time breakdown
    /// is also stored on the result as
    /// [`CompiledKernel::phase_times`] regardless of the sink.
    pub fn compile_with_sink(
        &self,
        kernel: &KernelDef,
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
        let mut ph = PhaseTimer {
            sink,
            times: Vec::new(),
        };

        // 1. Optional optimization passes (Section VIII).
        let work = ph.run("specialize", || {
            let mut work = kernel.clone();
            if spec.constant_propagation && !spec.param_bindings.is_empty() {
                work = specialize_kernel(&work, &spec.param_bindings);
            }
            if spec.unroll_limit > 0 {
                let (unrolled, _stats) = unroll_kernel(&work, spec.unroll_limit);
                work = unrolled;
            }
            work
        });

        // 2. Access analysis: infer per-accessor windows.
        let (halves, max_half) = ph.run("access-analysis", || {
            let info = analyze(&work, &spec.param_bindings);
            let mut halves: HashMap<String, (u32, u32)> = HashMap::new();
            for acc in &work.accessors {
                let inferred = info
                    .inputs
                    .get(&acc.name)
                    .and_then(|p| p.window())
                    .map(|(w, h)| (w / 2, h / 2))
                    .unwrap_or((0, 0));
                let declared = spec
                    .boundaries
                    .get(&acc.name)
                    .map(|b| (b.half_x(), b.half_y()))
                    .unwrap_or((0, 0));
                halves.insert(
                    acc.name.clone(),
                    (inferred.0.max(declared.0), inferred.1.max(declared.1)),
                );
            }
            let max_half = halves
                .values()
                .fold((0u32, 0u32), |acc, h| (acc.0.max(h.0), acc.1.max(h.1)));
            (halves, max_half)
        });
        let window = (2 * max_half.0 + 1, 2 * max_half.1 + 1);

        // 3. Memory path + hardware-boundary validation.
        let mem = ph.run("mem-path", || -> Result<MemPath, CompileError> {
            let mem = resolve_mem(spec, window);
            if mem == MemPath::TexHw {
                for acc in &work.accessors {
                    let mode = spec.boundary_mode(&acc.name);
                    if mode != BoundaryMode::Undefined {
                        hw_address_mode(mode, spec.backend)
                            .map_err(CompileError::UnsupportedHwBoundary)?;
                    }
                }
            }
            if spec.vectorize > 1 && mem == MemPath::Scratchpad {
                return Err(CompileError::UnsupportedCombination(
                    "vectorization is not implemented for scratchpad staging".into(),
                ));
            }
            Ok(mem)
        })?;

        // Boundary-specialized code is generated when any accessor needs
        // software handling of a real window; the TexHw path delegates to
        // the sampler instead.
        let needs_bh = mem != MemPath::TexHw
            && !spec.generic_boundary
            && spec.needs_boundary_handling()
            && (max_half.0 > 0 || max_half.1 > 0);

        // 4. Resource probe with a default configuration. The probe kernel
        // already contains all nine region bodies ("the initial kernel code
        // that is used to determine the resource usage uses default
        // constants"), so its register pressure matches the final kernel.
        // The bodies are lowered here once and taken back out of the
        // probe kernel; the final kernel reuses them when its launch shape
        // leaves the overlap flags unchanged.
        let (probe_res, probe_bodies) = ph.run("resource-probe", || {
            let probe_cfg = LaunchConfig {
                bx: spec
                    .device
                    .simd_width
                    .min(spec.device.max_threads_per_block),
                by: 1,
            };
            let probe = Lowering::new(&work, spec, mem, halves.clone(), probe_cfg);
            let probe_grid = needs_bh.then(|| {
                let (ox, oy, rw, rh) = spec.iteration_space();
                RegionGrid::compute_roi(
                    spec.width,
                    spec.height,
                    ox,
                    oy,
                    rw,
                    rh,
                    max_half.0,
                    max_half.1,
                    probe_cfg,
                )
            });
            let probe_kernel = probe.assemble(probe_grid.as_ref(), probe.region_bodies(needs_bh));
            let resources = estimate_resources(&probe_kernel);
            let bodies = probe.disassemble(probe_kernel, needs_bh);
            (resources, bodies.map(|b| (probe.overlap(), b)))
        });

        // 5. Configuration selection (Algorithm 2) or forced config.
        let (roi_x, roi_y, roi_w, roi_h) = spec.iteration_space();
        let border = needs_bh.then_some(BorderInfo {
            half_x: max_half.0,
            half_y: max_half.1,
            width: roi_w,
            height: roi_h,
        });
        let config = ph.run("config-select", || -> Result<LaunchConfig, CompileError> {
            match spec.force_config {
                Some((bx, by)) => {
                    let cfg = LaunchConfig { bx, by };
                    if occupancy(&spec.device, &probe_res, bx, by).is_none() {
                        return Err(CompileError::InvalidForcedConfiguration(format!(
                            "{cfg} on {}",
                            spec.device.name
                        )));
                    }
                    Ok(cfg)
                }
                None => Ok(select_configuration(&spec.device, &probe_res, border)
                    .ok_or(CompileError::NoValidConfiguration)?
                    .config),
            }
        })?;

        // 6. Final lowering with the tiling-dependent region constants.
        let (region_grid, device_kernel, region_bodies) = ph.run("lowering", || {
            let region_grid = needs_bh.then(|| {
                // With vectorization a block tile spans `bx * vectorize` pixels.
                let eff = LaunchConfig {
                    bx: config.bx * spec.vectorize.max(1),
                    by: config.by,
                };
                RegionGrid::compute_roi(
                    spec.width,
                    spec.height,
                    roi_x,
                    roi_y,
                    roi_w,
                    roi_h,
                    max_half.0,
                    max_half.1,
                    eff,
                )
            });
            let lowering = Lowering::new(&work, spec, mem, halves.clone(), config);
            let bodies = match probe_bodies {
                Some((overlap, bodies)) if overlap == lowering.overlap() => bodies,
                _ => lowering.region_bodies(needs_bh),
            };
            // The timing model weighs the unoptimized per-region bodies.
            let region_bodies = bodies.clone();
            let device_kernel = lowering.assemble(region_grid.as_ref(), bodies);
            (region_grid, device_kernel, region_bodies)
        });
        let mut device_kernel = device_kernel;
        check_device(&device_kernel)
            .map_err(|e| CompileError::Internal(format!("device typecheck failed: {e}")))?;

        // 7. Resources and occupancy. Estimated on the *unoptimized*
        // kernel, like the region timing bodies: the analytical model
        // reflects the paper's per-region costs, and counting the
        // optimizer's named temporaries as registers would skew the
        // occupancy the timing model feeds on (the op-count model is
        // already LICM-aware).
        let (resources, occ) = ph.run("resources", || {
            let resources = estimate_resources(&device_kernel);
            let occ = occupancy(&spec.device, &resources, config.bx, config.by);
            (resources, occ)
        });

        // 7b. Analysis-driven optimization of the device IR (`ir::opt`),
        // oracle-fed by the same launch facts the verifier uses. The
        // optimized kernel is what emission and the execution engines
        // see; phase 9 then re-runs the full verifier over it.
        let vec_w = spec.vectorize.max(1);
        let grid = config.grid_for(roi_w.div_ceil(vec_w), roi_h);
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
                CompileError::Internal(format!("optimized kernel typecheck failed: {e}"))
            })?;
        }

        // 8. Source emission. The grid covers the iteration space, with
        // vectorized work-items owning `vectorize` pixels each.
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

        let mut out = CompiledKernel {
            device_kernel,
            config,
            grid,
            region_grid,
            region_bodies,
            resources,
            occupancy: occ,
            source,
            host_source,
            backend: spec.backend,
            mem_path: mem,
            kernel: work,
            halves,
            max_half,
            iteration_space: (roi_x, roi_y, roi_w, roi_h),
            vector_width: vec_w,
            diagnostics: Vec::new(),
            phase_times: Vec::new(),
            opt: opt_report,
        };

        // 9. Kernel verification: the four static analyses plus the source
        // lint run on every compile. Errors abort; warnings ride along.
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

    /// Enumerate all valid configurations with their occupancy for the
    /// configuration-exploration mode (Section V-D / Figure 4). The
    /// caller times each configuration on the simulator.
    pub fn explore_configurations(
        &self,
        kernel: &KernelDef,
        spec: &CompileSpec,
    ) -> Result<Vec<LaunchConfig>, CompileError> {
        let base = self.compile(kernel, spec)?;
        let mut configs: Vec<LaunchConfig> =
            hipacc_hwmodel::heuristic::enumerate_configs(&spec.device)
                .into_iter()
                .filter(|c| occupancy(&spec.device, &base.resources, c.bx, c.by).is_some())
                .collect();
        configs.sort_by_key(|c| (c.threads(), c.by));
        Ok(configs)
    }
}

/// Times the numbered phases of one compilation: every phase duration is
/// kept for [`CompiledKernel::phase_times`] (two clock reads per phase),
/// and forwarded to the sink as a span when one is attached.
struct PhaseTimer<'s> {
    sink: &'s mut dyn hipacc_profile::ProfileSink,
    times: Vec<(String, f64)>,
}

impl PhaseTimer<'_> {
    fn run<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.run_with_sink(name, |_| f())
    }

    /// Like [`Self::run`] for phases that record sub-spans of their own
    /// (the verifier's per-pass spans nest inside the `verify` phase).
    fn run_with_sink<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut dyn hipacc_profile::ProfileSink) -> R,
    ) -> R {
        let start = hipacc_profile::now_us();
        let out = f(self.sink);
        let dur = hipacc_profile::now_us().saturating_sub(start);
        self.times.push((name.to_string(), dur as f64 / 1000.0));
        if self.sink.enabled() {
            self.sink
                .record(hipacc_profile::Span::new(name, "compile", start, dur));
        }
        out
    }
}

/// The integer scalar bindings every launch provides: the geometry
/// scalars the host launcher always passes plus the compile-time-bound
/// integer parameters. Shared between the optimizer's oracle seeding and
/// the verifier's [`VerifyInput`], so both reason from the same facts.
fn launch_scalars(
    spec: &CompileSpec,
    iteration_space: (u32, u32, u32, u32),
) -> HashMap<String, i64> {
    let (ox, oy, rw, rh) = iteration_space;
    let mut scalars = HashMap::new();
    for (name, v) in [
        ("width", spec.width as i64),
        ("height", spec.height as i64),
        ("stride", spec.stride as i64),
        ("is_offset_x", ox as i64),
        ("is_offset_y", oy as i64),
        ("is_width", rw as i64),
        ("is_height", rh as i64),
    ] {
        scalars.insert(name.to_string(), v);
    }
    for (name, c) in &spec.param_bindings {
        if let Const::Int(v) = c {
            scalars.insert(name.clone(), *v);
        }
    }
    scalars
}

/// Build the verifier's view of a compiled kernel and run every analysis
/// pass over it — barrier divergence, shared-memory races, bounds,
/// resource limits — plus the generated-source lint. `compile` calls this
/// on every kernel; it is public so the verifier can be rerun (and timed)
/// in isolation.
pub fn verify_compiled(out: &CompiledKernel, spec: &CompileSpec) -> Vec<Diagnostic> {
    verify_compiled_with_sink(out, spec, &mut hipacc_profile::NullSink)
}

/// [`verify_compiled`] with one timed span per analysis pass (plus the
/// source lint) recorded into `sink`.
pub fn verify_compiled_with_sink(
    out: &CompiledKernel,
    spec: &CompileSpec,
    sink: &mut dyn hipacc_profile::ProfileSink,
) -> Vec<Diagnostic> {
    let k = &out.device_kernel;
    let mut input = VerifyInput::new(k, &spec.device, (out.config.bx, out.config.by), out.grid);

    // Geometry scalars and bound integer parameters: the launcher always
    // binds these (same seeding the optimizer's oracle uses).
    input.scalars = launch_scalars(spec, out.iteration_space);

    // Buffer geometry. Image buffers hold `stride * height` elements;
    // `_gmask*` fallback buffers hold the mask coefficients row-major.
    for b in &k.buffers {
        if let Some(mask) = b.name.strip_prefix("_gmask") {
            if let Some(m) = out.kernel.masks.iter().find(|m| m.name == mask) {
                input
                    .buffer_len
                    .insert(b.name.clone(), m.width as i64 * m.height as i64);
            }
            continue;
        }
        input
            .buffer_len
            .insert(b.name.clone(), spec.stride as i64 * spec.height as i64);
        input
            .buffer_dims
            .insert(b.name.clone(), (spec.width as i64, spec.height as i64));
        if b.address_mode != AddressMode::None {
            input.hw_bounded.insert(b.name.clone());
        }
    }
    for acc in &out.kernel.accessors {
        if spec.boundary_mode(&acc.name) == BoundaryMode::Undefined {
            input.oob_allowed.insert(acc.name.clone());
        }
    }

    // One block-rectangle seed per generated boundary region, so each
    // specialized body is checked exactly for the blocks that reach it.
    if let Some(g) = &out.region_grid {
        let (gx, gy) = (g.grid_x as i64, g.grid_y as i64);
        let (lb, rb) = (g.left_blocks as i64, g.right_blocks as i64);
        let (tb, bb) = (g.top_blocks as i64, g.bottom_blocks as i64);
        for r in Region::all() {
            let bx = if r.checks_left() {
                (0, lb - 1)
            } else if r.checks_right() {
                (gx - rb, gx - 1)
            } else {
                (lb, gx - rb - 1)
            };
            let by = if r.checks_top() {
                (0, tb - 1)
            } else if r.checks_bottom() {
                (gy - bb, gy - 1)
            } else {
                (tb, gy - bb - 1)
            };
            if bx.0 > bx.1 || by.0 > by.1 {
                continue;
            }
            input.regions.push(RegionSeed {
                label: Some(r.label().to_string()),
                bx,
                by,
            });
        }
    }

    input.registers_per_thread = out.resources.registers_per_thread;

    let mut diags = hipacc_analysis::verify_with_sink(&input, sink);
    diags.extend(hipacc_profile::timed(sink, "verify:lint", "verify", || {
        crate::lint::lint_diagnostics(&out.source, &k.name)
    }));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BoundarySpec, MemVariant};
    use hipacc_hwmodel::device::{radeon_hd_5870, tesla_c2050};
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn blur3() -> KernelDef {
        let mut b = KernelBuilder::new("blur", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(&acc, b.read_at(&input, xf.get(), yf.get()));
            });
        });
        b.output(acc.get() / Expr::float(9.0));
        b.finish()
    }

    #[test]
    fn compiles_and_emits_cuda() {
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 512, 512)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 3));
        let out = Compiler::new().compile(&blur3(), &spec).unwrap();
        assert!(out.source.contains("__global__ void blur_kernel"));
        assert!(out.region_grid.is_some());
        assert_eq!(out.region_bodies.len(), 9);
        assert!(out.occupancy.unwrap().occupancy > 0.0);
        assert_eq!(out.max_half, (1, 1));
    }

    #[test]
    fn compiles_and_emits_opencl() {
        let spec = CompileSpec::new(radeon_hd_5870(), Backend::OpenCl, 512, 512)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Mirror, 3, 3));
        let out = Compiler::new().compile(&blur3(), &spec).unwrap();
        assert!(out.source.contains("__kernel void blur_kernel"));
        assert!(out.config.threads() <= 256, "AMD block cap");
    }

    #[test]
    fn cuda_on_amd_rejected() {
        let spec = CompileSpec::new(radeon_hd_5870(), Backend::Cuda, 64, 64);
        let err = Compiler::new().compile(&blur3(), &spec).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedBackend(_)));
    }

    #[test]
    fn undefined_mode_generates_single_body() {
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 512, 512);
        let out = Compiler::new().compile(&blur3(), &spec).unwrap();
        assert!(out.region_grid.is_none());
        assert_eq!(out.region_bodies.len(), 1);
    }

    #[test]
    fn hw_boundary_mirror_is_na() {
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 512, 512)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Mirror, 3, 3))
            .with_variant(MemVariant::TextureHwBoundary);
        let err = Compiler::new().compile(&blur3(), &spec).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedHwBoundary(_)));
    }

    #[test]
    fn forced_config_is_respected() {
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 4096, 4096)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 3))
            .with_config(128, 1);
        let out = Compiler::new().compile(&blur3(), &spec).unwrap();
        assert_eq!(out.config, LaunchConfig { bx: 128, by: 1 });
        assert_eq!(out.grid, (32, 4096));
    }

    #[test]
    fn invalid_forced_config_rejected() {
        let spec = CompileSpec::new(radeon_hd_5870(), Backend::OpenCl, 64, 64).with_config(512, 1); // above the 256 cap
        let err = Compiler::new().compile(&blur3(), &spec).unwrap_err();
        assert!(matches!(err, CompileError::InvalidForcedConfiguration(_)));
    }

    #[test]
    fn generated_loc_amplification() {
        // The 9-region bilateral-style kernel must be far larger than the
        // DSL description (paper: 16 -> 317 lines).
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 4096, 4096)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 3));
        let out = Compiler::new().compile(&blur3(), &spec).unwrap();
        let dsl_loc = blur3().dsl_loc();
        let gen_loc = out.generated_loc();
        assert!(
            gen_loc > dsl_loc * 5,
            "expected big amplification, got {dsl_loc} -> {gen_loc}"
        );
    }

    #[test]
    fn exploration_lists_multiple_tilings() {
        let spec = CompileSpec::new(tesla_c2050(), Backend::Cuda, 512, 512);
        let configs = Compiler::new()
            .explore_configurations(&blur3(), &spec)
            .unwrap();
        assert!(configs.len() > 20);
        // Contains both 1D and 2D tilings of the same size.
        assert!(configs.contains(&LaunchConfig { bx: 128, by: 1 }));
        assert!(configs.contains(&LaunchConfig { bx: 32, by: 4 }));
    }
}
