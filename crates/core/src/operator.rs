//! The user-facing operator API.
//!
//! [`Operator`] bundles a DSL kernel with its access/execute metadata —
//! boundary conditions per accessor, scalar parameter values, dynamic mask
//! coefficients — the same information the paper's framework gathers from
//! the `BoundaryCondition` / `Accessor` / `Mask` objects and the kernel
//! constructor arguments. `execute()` drives the full pipeline: compile
//! for the target, run on the simulated device, estimate the execution
//! time with the analytical model.

use crate::cache::{CacheTally, KernelCache, Prepared};
use crate::pipeline::{launch_spec, timing_input_opts};
use crate::profile::{LaunchFacts, LaunchProfile};
use crate::target::Target;
use hipacc_codegen::compile::CompileError;
use hipacc_codegen::{BoundarySpec, CompileSpec, CompiledKernel, Compiler, MemVariant};
use hipacc_image::{BoundaryMode, Image};
use hipacc_ir::ty::Const;
use hipacc_ir::KernelDef;
use hipacc_profile::{now_us, NullSink, ProfileSink, Recorder};
use hipacc_sim::interp::ExecStats;
use hipacc_sim::timing::{estimate_time, TimeBreakdown};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Pipeline knobs beyond the kernel itself — the compiler flags of the
/// paper's evaluation axes.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Memory-path selection (`Auto` consults the optimization database).
    pub variant: MemVariant,
    /// Store masks in constant memory.
    pub const_masks: bool,
    /// Run constant propagation with the bound parameters.
    pub constant_propagation: bool,
    /// Unroll convolution loops up to this trip count (0 = off).
    pub unroll_limit: u32,
    /// Pin the launch configuration instead of running the heuristic.
    pub force_config: Option<(u32, u32)>,
    /// Number of device launches the operator performs (for multi-pass
    /// operators' launch-overhead accounting).
    pub launches: u32,
    /// Iteration space `(x, y, w, h)` within the image; `None` = whole
    /// image (the paper's `IterationSpace` over the full output).
    pub roi: Option<(u32, u32, u32, u32)>,
    /// Pixels per work-item (Section-VIII vectorization; 1 = scalar).
    pub vectorize: u32,
    /// Naive boundary handling everywhere, no region specialization (the
    /// "Manual" baseline behaviour).
    pub generic_boundary: bool,
    /// Device-IR optimization level (0 = lower only, 1 = run the
    /// analysis-driven `ir::opt` pipeline; the default).
    pub opt_level: u8,
    /// Model a naive JIT backend (RapidMind): no loop-invariant code
    /// motion, no common-subexpression elimination in the op counting.
    pub naive_codegen: bool,
    /// Host worker threads for the simulator's parallel block loop
    /// (`None` = the pool's width, then the host's available
    /// parallelism). Outputs are bit-identical for any value.
    pub sim_threads: Option<usize>,
    /// Simulator execution engine (`None` = the default simd engine).
    /// Outputs and statistics are bit-identical across engines.
    pub engine: Option<hipacc_sim::Engine>,
    /// Cross-launch compiled-kernel cache (see [`crate::cache`]). `None`
    /// compiles fresh on every launch; sharing one `Arc` across operators
    /// lets steady-state pipelines skip the compile phases entirely.
    pub cache: Option<std::sync::Arc<crate::cache::KernelCache>>,
    /// Shared simulator worker pool (see [`hipacc_sim::WorkerPool`]).
    /// `None` spawns per-launch scoped threads; sharing one `Arc` across
    /// operators multiplexes the block work of concurrent launches over
    /// one set of persistent threads. Outputs are bit-identical either
    /// way.
    pub pool: Option<std::sync::Arc<hipacc_sim::WorkerPool>>,
    /// When set, this operator is a fused chain: compilation goes through
    /// [`Compiler::compile_fused`] with this chain instead of lowering
    /// [`Operator::def`] directly. Built by [`crate::fusion::fuse_operators`];
    /// `def` then holds the chain's union kernel, which launches and cache
    /// fingerprints are keyed against.
    pub fused: Option<std::sync::Arc<hipacc_ir::fuse::FusionChain>>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            variant: MemVariant::Auto,
            const_masks: true,
            constant_propagation: true,
            unroll_limit: 0,
            force_config: None,
            launches: 1,
            roi: None,
            vectorize: 1,
            generic_boundary: false,
            opt_level: 1,
            naive_codegen: false,
            sim_threads: None,
            engine: None,
            cache: None,
            pool: None,
            fused: None,
        }
    }
}

/// Errors from the operator pipeline.
#[derive(Debug)]
pub enum OperatorError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(hipacc_sim::SimError),
    /// No input image was provided.
    NoInputs,
    /// The launch supervisor exhausted its retries and fallback
    /// configurations without obtaining a validated result (see
    /// [`crate::supervisor`]).
    Unrecovered(String),
}

impl fmt::Display for OperatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatorError::Compile(e) => write!(f, "compile error: {e}"),
            OperatorError::Sim(e) => write!(f, "simulation error: {e}"),
            OperatorError::NoInputs => write!(f, "operator executed with no input images"),
            OperatorError::Unrecovered(m) => write!(f, "unrecovered launch: {m}"),
        }
    }
}

impl std::error::Error for OperatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OperatorError::Compile(e) => Some(e),
            OperatorError::Sim(e) => Some(e),
            OperatorError::NoInputs | OperatorError::Unrecovered(_) => None,
        }
    }
}

impl From<CompileError> for OperatorError {
    fn from(e: CompileError) -> Self {
        OperatorError::Compile(e)
    }
}

impl From<hipacc_sim::SimError> for OperatorError {
    fn from(e: hipacc_sim::SimError) -> Self {
        OperatorError::Sim(e)
    }
}

/// The result of executing an operator on a target.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The output image.
    pub output: Image<f32>,
    /// Dynamic simulator statistics.
    pub stats: ExecStats,
    /// Modelled execution time.
    pub time: TimeBreakdown,
    /// The compiled artifact (generated sources, config, occupancy, …),
    /// shared with the kernel cache entry it came from, if any.
    pub compiled: Arc<CompiledKernel>,
}

impl Execution {
    /// Whether the paper would report this run as a crash: *Undefined*
    /// boundary handling actually read out of bounds.
    pub fn would_crash(&self) -> bool {
        self.stats.oob_reads > 0
    }
}

/// The installed kernel cache and what it did for one compile (`"hit"`,
/// `"miss"` or `"bypass: <reason>"`); `None` without a cache.
pub(crate) type CacheUse<'a> = Option<(&'a KernelCache, String)>;

/// A DSL kernel plus its instance metadata.
#[derive(Clone, Debug)]
pub struct Operator {
    /// The kernel definition.
    pub def: KernelDef,
    /// Per-accessor boundary conditions.
    pub boundaries: HashMap<String, BoundarySpec>,
    /// Scalar parameter values (compile-time bound *and* passed at
    /// launch). Behind an `Arc` so every per-frame [`launch_spec`] shares
    /// one allocation instead of deep-cloning the map; the builder
    /// methods copy-on-write via [`std::sync::Arc::make_mut`].
    pub params: std::sync::Arc<HashMap<String, Const>>,
    /// Coefficients for dynamically initialized masks. Shared like
    /// [`Self::params`] — a 13×13 bilateral mask is uploaded by
    /// reference, never cloned per launch.
    pub mask_uploads: std::sync::Arc<HashMap<String, Vec<f32>>>,
    /// Pipeline options.
    pub options: PipelineOptions,
}

impl Operator {
    /// Wrap a kernel definition.
    pub fn new(def: KernelDef) -> Self {
        Self {
            def,
            boundaries: HashMap::new(),
            params: std::sync::Arc::new(HashMap::new()),
            mask_uploads: std::sync::Arc::new(HashMap::new()),
            options: PipelineOptions::default(),
        }
    }

    /// Attach a boundary condition to an accessor (the paper's
    /// `BoundaryCondition(IN, w, h, mode)` + `Accessor(BcIn)` pair).
    pub fn boundary(mut self, accessor: &str, mode: BoundaryMode, w: u32, h: u32) -> Self {
        self.boundaries
            .insert(accessor.to_string(), BoundarySpec::new(mode, w, h));
        self
    }

    /// Bind an integer parameter.
    pub fn param_int(mut self, name: &str, v: i64) -> Self {
        std::sync::Arc::make_mut(&mut self.params).insert(name.to_string(), Const::Int(v));
        self
    }

    /// Bind a float parameter.
    pub fn param_float(mut self, name: &str, v: f32) -> Self {
        std::sync::Arc::make_mut(&mut self.params).insert(name.to_string(), Const::Float(v));
        self
    }

    /// Upload coefficients for a dynamically initialized mask.
    pub fn upload_mask(mut self, name: &str, coeffs: Vec<f32>) -> Self {
        // Both the constant-memory name and the global fallback name are
        // registered; the compiled kernel uses whichever exists.
        let uploads = std::sync::Arc::make_mut(&mut self.mask_uploads);
        uploads.insert(format!("_const{name}"), coeffs.clone());
        uploads.insert(format!("_gmask{name}"), coeffs);
        self
    }

    /// Replace the pipeline options.
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Restrict the iteration space to a sub-rectangle of the output — the
    /// paper's `IterationSpace(OUT, roi)` form.
    pub fn with_roi(mut self, x: u32, y: u32, w: u32, h: u32) -> Self {
        self.options.roi = Some((x, y, w, h));
        self
    }

    /// Compute several adjacent pixels per work-item (the Section-VIII
    /// vectorization extension, relevant on AMD's VLIW parts).
    pub fn vectorized(mut self, width: u32) -> Self {
        self.options.vectorize = width;
        self
    }

    /// Build the compile specification for an image geometry.
    pub fn compile_spec(&self, target: &Target, width: u32, height: u32) -> CompileSpec {
        let mut spec = CompileSpec::new(target.device.clone(), target.backend, width, height);
        for (acc, b) in &self.boundaries {
            spec = spec.with_boundary(acc, *b);
        }
        for (name, v) in self.params.iter() {
            spec = spec.with_param(name, *v);
        }
        spec.variant = self.options.variant;
        spec.use_const_masks = self.options.const_masks;
        spec.constant_propagation = self.options.constant_propagation;
        spec.unroll_limit = self.options.unroll_limit;
        spec.force_config = self.options.force_config;
        spec.generic_boundary = self.options.generic_boundary;
        spec.opt_level = self.options.opt_level;
        if let Some((x, y, w, h)) = self.options.roi {
            spec = spec.with_roi(x, y, w, h);
        }
        if self.options.vectorize > 1 {
            spec = spec.with_vectorize(self.options.vectorize);
        }
        spec
    }

    /// Compile for a target and image geometry without executing.
    pub fn compile(
        &self,
        target: &Target,
        width: u32,
        height: u32,
    ) -> Result<CompiledKernel, OperatorError> {
        let spec = self.compile_spec(target, width, height);
        Ok(self.compile_fresh(&spec, &mut NullSink)?)
    }

    /// Run the compiler — the fused-chain one when this operator is a
    /// fused chain — recording its phase spans into `sink`.
    fn compile_fresh(
        &self,
        spec: &CompileSpec,
        sink: &mut dyn ProfileSink,
    ) -> Result<CompiledKernel, CompileError> {
        match &self.options.fused {
            Some(chain) => Compiler::new().compile_fused_with_sink(chain, spec, sink),
            None => Compiler::new().compile_with_sink(&self.def, spec, sink),
        }
    }

    /// [`Self::compile`] through the installed [`KernelCache`]: a hit is
    /// served from the cache, a miss compiles and leaves the entry warm
    /// for the launches that follow (counted as a hit or a miss like a
    /// launch's lookup). Without a cache it compiles fresh.
    pub fn compile_cached(
        &self,
        target: &Target,
        width: u32,
        height: u32,
    ) -> Result<Arc<CompiledKernel>, OperatorError> {
        let (prepared, _) =
            self.compile_maybe_cached(target, width, height, &mut NullSink, None, None)?;
        Ok(Arc::clone(prepared.compiled()))
    }

    /// Estimate the execution time of a compiled kernel on a target.
    pub fn estimate(&self, compiled: &CompiledKernel, target: &Target) -> TimeBreakdown {
        estimate_time(&timing_input_opts(
            compiled,
            target,
            &self.params,
            self.options.launches,
            self.options.naive_codegen,
        ))
    }

    /// The one compile step of every launch: through the configured
    /// [`KernelCache`] when one is installed, otherwise fresh, with the
    /// compile-phase spans going to `sink`. Returns the prepared kernel —
    /// on a hit the cache's own entry, with its tape and modelled time —
    /// and, when a cache is installed, the cache with what it did
    /// (`"hit"`, `"miss"` or `"bypass: <reason>"`).
    ///
    /// `bypass` names a reason to leave an installed cache alone — neither
    /// served from nor populating it, and counted as a bypass rather than
    /// a miss. The supervisor passes one on degraded rungs: recovery
    /// timing must never be skewed by warm-cache effects, and a degraded
    /// artifact must never linger for later healthy launches. A hit or
    /// miss is also counted into `tally`, when one is given.
    pub(crate) fn compile_maybe_cached(
        &self,
        target: &Target,
        width: u32,
        height: u32,
        sink: &mut dyn ProfileSink,
        bypass: Option<&str>,
        tally: Option<&CacheTally>,
    ) -> Result<(Arc<Prepared>, CacheUse<'_>), CompileError> {
        let spec = self.compile_spec(target, width, height);
        let fresh = |sink: &mut dyn ProfileSink| -> Result<Arc<Prepared>, CompileError> {
            let compiled = self.compile_fresh(&spec, sink)?;
            Ok(Arc::new(Prepared::new(
                compiled,
                self.options.cache.as_deref(),
            )))
        };
        let Some(cache) = self.options.cache.as_deref() else {
            return Ok((fresh(sink)?, None));
        };
        if let Some(reason) = bypass {
            cache.note_bypass();
            return Ok((fresh(sink)?, Some((cache, format!("bypass: {reason}")))));
        }
        let key = KernelCache::fingerprint(&self.def, &spec);
        let hit = cache.lookup_prepared(&key);
        if let Some(tally) = tally {
            tally.note(hit.is_some());
        }
        if let Some(hit) = hit {
            return Ok((hit, Some((cache, "hit".into()))));
        }
        let prepared = fresh(sink)?;
        cache.insert_prepared(key, Arc::clone(&prepared));
        Ok((prepared, Some((cache, "miss".into()))))
    }

    /// The modelled time of `prepared` on `target`, kept with the cache
    /// entry for this operator's launch count and codegen model.
    pub(crate) fn time_of(&self, prepared: &Prepared, target: &Target) -> TimeBreakdown {
        let key = (self.options.launches, self.options.naive_codegen);
        prepared.time(key, || self.estimate(prepared.compiled(), target))
    }

    /// The simulator launch spec for `compiled` over `inputs`, wired to
    /// this operator's parameters, masks, worker count and pool.
    pub(crate) fn spec_for<'a>(
        &self,
        compiled: &CompiledKernel,
        inputs: &[(&str, &'a Image<f32>)],
    ) -> hipacc_sim::launch::LaunchSpec<'a> {
        let mut spec = launch_spec(compiled, inputs, &self.params, &self.mask_uploads);
        spec.sim_threads = self.options.sim_threads;
        spec.pool = self.options.pool.clone();
        spec
    }

    /// Full pipeline: compile, execute on the simulated device, estimate
    /// the time. Runs on the engine selected by
    /// [`PipelineOptions::engine`] (the default simd engine when unset).
    pub fn execute(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
    ) -> Result<Execution, OperatorError> {
        self.execute_with(inputs, target, self.options.engine.unwrap_or_default())
    }

    /// [`Self::execute`] on an explicitly chosen simulator engine
    /// (bytecode register machine or warp-vectorized simd).
    pub fn execute_with(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
    ) -> Result<Execution, OperatorError> {
        self.launch(inputs, target, engine, false).map(|(e, _)| e)
    }

    /// [`Self::execute`] with full observability: compile phases and
    /// verifier passes are recorded as timed spans, the simulated launch
    /// is profiled per block, and everything is joined with the timing
    /// model and occupancy into a [`LaunchProfile`].
    ///
    /// Execution semantics — output image, statistics, modelled time —
    /// are identical to [`Self::execute`]; only the instrumentation
    /// differs.
    pub fn execute_profiled(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
    ) -> Result<(Execution, LaunchProfile), OperatorError> {
        let (execution, profile) = self.launch(inputs, target, engine, true)?;
        Ok((execution, profile.expect("a profile was requested")))
    }

    /// Compile, launch, estimate — the body of [`Self::execute_with`] and,
    /// with `profile` set (compile spans, per-block statistics, a timed
    /// launch span), of [`Self::execute_profiled`].
    fn launch(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
        profile: bool,
    ) -> Result<(Execution, Option<LaunchProfile>), OperatorError> {
        let (_, first) = inputs.first().ok_or(OperatorError::NoInputs)?;
        let (mut rec, mut off) = (Recorder::new(), NullSink);
        let sink: &mut dyn ProfileSink = if profile { &mut rec } else { &mut off };
        let (prepared, cached) =
            self.compile_maybe_cached(target, first.width(), first.height(), sink, None, None)?;
        let compiled = prepared.compiled();
        let start = now_us();
        let run = hipacc_sim::launch::run_on_image_instrumented(
            &compiled.device_kernel,
            &self.spec_for(compiled, inputs),
            engine,
            profile,
            None,
            prepared.tape(),
        )?;
        let launch_us = (start, now_us().saturating_sub(start));
        let cache = cached.map(|(cache, outcome)| cache.launch_report(outcome, run.tape));
        let execution = Execution {
            output: run.output,
            stats: run.stats,
            time: self.time_of(&prepared, target),
            compiled: Arc::clone(compiled),
        };
        let profile = run.exec.map(|exec| {
            let facts = self.facts(target, engine, exec, rec.into_spans(), launch_us, None);
            LaunchProfile::assemble(&facts, &execution, cache)
        });
        Ok((execution, profile))
    }

    /// The facts a [`LaunchProfile`] of a launch of this operator is
    /// assembled from.
    pub(crate) fn facts(
        &self,
        target: &Target,
        engine: hipacc_sim::Engine,
        exec: hipacc_sim::ExecProfile,
        compile_spans: Vec<hipacc_profile::Span>,
        launch_us: (u64, u64),
        fault_plan: Option<String>,
    ) -> LaunchFacts {
        LaunchFacts {
            kernel: self.def.name.clone(),
            target: target.label(),
            engine,
            exec,
            compile_spans,
            launch_us,
            fault_plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::{radeon_hd_5870, tesla_c2050};
    use hipacc_image::phantom;
    use hipacc_image::reference;
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn box3_kernel() -> KernelDef {
        let mut b = KernelBuilder::new("box3", ScalarType::F32);
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
    fn executed_box_filter_matches_cpu_reference() {
        let img = phantom::vessel_tree(48, 40, &phantom::VesselParams::default());
        let op = Operator::new(box3_kernel()).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let target = Target::cuda(tesla_c2050());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        let expected = reference::convolve2d(
            &img,
            &reference::MaskCoeffs::box_filter(3, 3),
            BoundaryMode::Clamp,
        );
        assert!(
            result.output.max_abs_diff(&expected) < 1e-5,
            "diff {}",
            result.output.max_abs_diff(&expected)
        );
        assert!(!result.would_crash());
        assert!(result.time.total_ms > 0.0);
    }

    #[test]
    fn all_boundary_modes_match_reference_on_all_paths() {
        let img = phantom::gradient(40, 33);
        let mask = reference::MaskCoeffs::box_filter(3, 3);
        for mode in [
            BoundaryMode::Clamp,
            BoundaryMode::Repeat,
            BoundaryMode::Mirror,
            BoundaryMode::Constant(0.25),
        ] {
            for variant in [
                MemVariant::Global,
                MemVariant::Texture,
                MemVariant::Scratchpad,
            ] {
                let op = Operator::new(box3_kernel())
                    .boundary("IN", mode, 3, 3)
                    .with_options(PipelineOptions {
                        variant,
                        ..PipelineOptions::default()
                    });
                let target = Target::cuda(tesla_c2050());
                let result = op.execute(&[("IN", &img)], &target).unwrap();
                let expected = reference::convolve2d(&img, &mask, mode);
                assert!(
                    result.output.max_abs_diff(&expected) < 1e-4,
                    "{mode:?}/{variant:?}: diff {}",
                    result.output.max_abs_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn undefined_mode_reports_potential_crash() {
        let img = phantom::gradient(32, 32);
        let op = Operator::new(box3_kernel()); // no boundary spec
        let target = Target::cuda(tesla_c2050());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        assert!(result.would_crash(), "border reads must go out of bounds");
    }

    #[test]
    fn opencl_on_amd_works_and_respects_block_cap() {
        let img = phantom::gradient(64, 64);
        let op = Operator::new(box3_kernel()).boundary("IN", BoundaryMode::Mirror, 3, 3);
        let target = Target::opencl(radeon_hd_5870());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        assert!(result.compiled.config.threads() <= 256);
        let expected = reference::convolve2d(
            &img,
            &reference::MaskCoeffs::box_filter(3, 3),
            BoundaryMode::Mirror,
        );
        assert!(result.output.max_abs_diff(&expected) < 1e-4);
    }

    #[test]
    fn forced_config_reaches_launch() {
        let img = phantom::gradient(64, 64);
        let op = Operator::new(box3_kernel())
            .boundary("IN", BoundaryMode::Clamp, 3, 3)
            .with_options(PipelineOptions {
                force_config: Some((64, 2)),
                ..PipelineOptions::default()
            });
        let result = op
            .execute(&[("IN", &img)], &Target::cuda(tesla_c2050()))
            .unwrap();
        assert_eq!(
            (result.compiled.config.bx, result.compiled.config.by),
            (64, 2)
        );
    }

    #[test]
    fn dynamic_mask_upload_is_used() {
        // Convolve with an uploaded 1x3 mask [0, 1, 0] — identity.
        let mut b = KernelBuilder::new("dynconv", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_dynamic("M", 3, 1);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
            b.add_assign(
                &acc,
                b.mask_at(&m, xf.get(), Expr::int(0)) * b.read_at(&input, xf.get(), Expr::int(0)),
            );
        });
        b.output(acc.get());
        let img = phantom::gradient(32, 8);
        let op = Operator::new(b.finish())
            .boundary("IN", BoundaryMode::Clamp, 3, 1)
            .upload_mask("M", vec![0.0, 1.0, 0.0]);
        let result = op
            .execute(&[("IN", &img)], &Target::cuda(tesla_c2050()))
            .unwrap();
        assert!(result.output.max_abs_diff(&img) < 1e-6);
    }

    #[test]
    fn no_inputs_is_an_error() {
        let op = Operator::new(box3_kernel());
        assert!(matches!(
            op.execute(&[], &Target::cuda(tesla_c2050())).unwrap_err(),
            OperatorError::NoInputs
        ));
    }
}
