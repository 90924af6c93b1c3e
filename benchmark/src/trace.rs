//! The traced run's instruments: a span recorder, sample bags for the
//! per-layer metrics, and a launch that repeats `Operator::execute` step
//! by step through public functions so each layer can be timed from
//! outside.

use hipacc_codegen::{CompileSpec, CompiledKernel, Compiler};
use hipacc_core::pipeline::launch_spec;
use hipacc_core::{Engine, KernelCache, Operator, OperatorError, Target};
use hipacc_image::Image;
use hipacc_ir::kernel::{BufferAccess, DeviceKernelDef};
use hipacc_ir::ty::Const;
use hipacc_profile::{now_us, Recorder, Span};
use hipacc_sim::launch::LaunchSpec;
use hipacc_sim::memory::{BufferGeometry, DeviceBuffer};
use hipacc_sim::timing::TimeBreakdown;
use hipacc_sim::{DeviceMemory, ExecStats, LaunchParams, SimError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span id meaning "no parent".
pub const ROOT: u64 = 0;

/// Everything the traced run collects. Spans stay in memory until the
/// run ends.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    next_id: u64,
    /// Timing samples by per-layer metric name; the metric is their median.
    samples: BTreeMap<String, Vec<f64>>,
    /// Per-repetition values that must repeat exactly.
    exact: BTreeMap<String, f64>,
    /// Exact values that did not repeat, as messages.
    pub drift: Vec<String>,
}

impl Trace {
    /// Run `f` under a span of `layer`, child of `parent`, belonging to
    /// `frame`. Returns the result, the span's id and its duration in µs
    /// (from a nanosecond clock: many spans are shorter than 1 µs).
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &str,
        parent: u64,
        frame: u64,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> (R, f64) {
        self.next_id += 1;
        let id = self.next_id;
        let (start, t0) = (now_us(), Instant::now());
        let out = f(self, id);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(
            Span::new(name, layer, start, us.round() as u64)
                .arg("id", id.to_string())
                .arg("parent", parent.to_string())
                .arg("frame", frame.to_string()),
        );
        (out, us)
    }

    /// Adopt spans the program recorded itself (compile phases, verifier
    /// passes, stream stages) as children of `parent`.
    pub fn adopt(&mut self, spans: impl IntoIterator<Item = Span>, parent: u64, frame: u64) {
        for s in spans {
            self.next_id += 1;
            self.spans.push(
                s.arg("id", self.next_id.to_string())
                    .arg("parent", parent.to_string())
                    .arg("frame", frame.to_string()),
            );
        }
    }

    /// Add one timing sample to a `*_p50` metric.
    pub fn sample(&mut self, metric: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    /// Record a per-repetition value that every repetition must repeat.
    pub fn exact(&mut self, metric: &str, value: f64) {
        if let Some(prev) = self.exact.insert(metric.to_string(), value) {
            if prev.to_bits() != value.to_bits() {
                self.drift.push(format!(
                    "{metric}: {prev} in one repetition, {value} in another"
                ));
            }
        }
    }

    /// The value of a per-layer metric: the exact value if one was set,
    /// else the median of its samples, else `None`.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.exact
            .get(metric)
            .copied()
            .or_else(|| self.samples.get(metric).map(|s| crate::stats::median(s)))
    }

    /// Samples recorded under a metric name.
    pub fn samples(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    /// The recorded spans as a Chrome trace document.
    pub fn chrome_json(&self) -> String {
        hipacc_profile::chrome::trace_json(&self.spans)
    }
}

/// Wall time of every step of one launch, in µs. `compile` is 0 on a
/// cache hit.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimes {
    pub fingerprint: f64,
    pub lookup: f64,
    pub compile: f64,
    pub launch_spec: f64,
    pub upload: f64,
    pub tape_build: f64,
    pub execute: f64,
    pub download: f64,
    pub estimate: f64,
}

impl StepTimes {
    /// The steps `hipacc_sim::launch::run_on_image_with` covers.
    pub fn sim(&self) -> f64 {
        self.upload + self.tape_build + self.execute + self.download
    }

    /// Every step.
    pub fn total(&self) -> f64 {
        self.fingerprint
            + self.lookup
            + self.compile
            + self.launch_spec
            + self.estimate
            + self.sim()
    }

    /// Accumulate the next stage of a chain.
    pub fn add(&mut self, o: &StepTimes) {
        self.fingerprint += o.fingerprint;
        self.lookup += o.lookup;
        self.compile += o.compile;
        self.launch_spec += o.launch_spec;
        self.upload += o.upload;
        self.tape_build += o.tape_build;
        self.execute += o.execute;
        self.download += o.download;
        self.estimate += o.estimate;
    }
}

/// The result of [`stepped_execute`]: what `Operator::execute` returns,
/// plus what only the inside of a launch shows.
pub struct Stepped {
    pub output: Image<f32>,
    pub stats: ExecStats,
    pub time: TimeBreakdown,
    pub compiled: CompiledKernel,
    pub times: StepTimes,
    pub tape_uniform_insts: usize,
    pub tape_thread_regs: usize,
    /// Blocks on the bounds-dispatch-free fast path ÷ blocks launched.
    pub interior_block_share: f64,
}

/// `Operator::execute_with`, one public function at a time, each under a
/// span: fingerprint, cache lookup (or a cold compile whose phases and
/// verifier passes become child spans), launch spec, buffer upload, tape
/// build, block execution, download, timing estimate.
///
/// The caller asserts the output and statistics are bit-identical to
/// `Operator::execute`; a drift of this copy from the program fails that
/// assertion.
pub fn stepped_execute(
    op: &Operator,
    input: (&str, &Image<f32>),
    target: &Target,
    engine: Engine,
    tr: &mut Trace,
    parent: u64,
    frame: u64,
) -> Result<Stepped, OperatorError> {
    let mode = engine
        .exec_mode()
        .expect("the benchmark runs tape engines only");
    let mut t = StepTimes::default();
    let (spec, us) = tr.span("fingerprint", "core", parent, frame, |_, _| {
        let spec = op.compile_spec(target, input.1.width(), input.1.height());
        let key = op
            .options
            .cache
            .as_ref()
            .map(|_| KernelCache::fingerprint(&op.def, &spec));
        (spec, key)
    });
    t.fingerprint = us;
    let (spec, key) = spec;

    let cached = match (&op.options.cache, &key) {
        (Some(cache), Some(key)) => {
            let (hit, us) = tr.span("cache-lookup", "core", parent, frame, |_, _| {
                cache.lookup(key)
            });
            t.lookup = us;
            hit
        }
        _ => None,
    };
    let compiled = match cached {
        Some(hit) => hit,
        None => {
            let (compiled, us) = cold_compile(op, &spec, tr, parent, frame)?;
            t.compile = us;
            if let (Some(cache), Some(key)) = (&op.options.cache, key) {
                cache.insert(key, compiled.clone());
            }
            compiled
        }
    };

    let inputs = [input];
    let (mut lspec, us) = tr.span("launch-spec", "core", parent, frame, |_, _| {
        launch_spec(&compiled, &inputs, &op.params, &op.mask_uploads)
    });
    t.launch_spec = us;
    lspec.sim_threads = op.options.sim_threads;
    lspec.pool = op.options.pool.clone();

    let kernel = &compiled.device_kernel;
    let (bound, us) = tr.span("upload", "sim", parent, frame, |_, _| bind(kernel, &lspec));
    t.upload = us;
    let (mut mem, params) = bound?;
    let (tape, us) = tr.span("tape-build", "sim", parent, frame, |_, _| {
        hipacc_sim::compile(kernel, &params, &mem)
    });
    t.tape_build = us;
    let tape = tape?;
    let (stats, us) = tr.span("execute", "sim", parent, frame, |_, _| {
        tape.run_with(&mut mem, mode)
    });
    t.execute = us;
    let stats = stats?;
    let (output, us) = tr.span("download", "sim", parent, frame, |_, _| {
        mem.buffer("OUT").map(DeviceBuffer::to_image)
    });
    t.download = us;
    let output = output.ok_or_else(|| SimError::UnboundBuffer("OUT".into()))?;
    let (time, us) = tr.span("estimate", "core", parent, frame, |_, _| {
        op.estimate(&compiled, target)
    });
    t.estimate = us;

    let (gx, gy) = compiled.grid;
    let interior = (0..gy)
        .flat_map(|by| (0..gx).map(move |bx| (bx, by)))
        .filter(|&(bx, by)| tape.block_is_interior(bx, by))
        .count();
    Ok(Stepped {
        output,
        stats,
        time,
        times: t,
        tape_uniform_insts: tape.uniform_insts(),
        tape_thread_regs: tape.thread_regs(),
        interior_block_share: interior as f64 / (f64::from(gx) * f64::from(gy)),
        compiled,
    })
}

/// What `hipacc_sim::launch` does before it runs a kernel (its `prepare`
/// is private): bind the input images, the mask fallbacks and a zeroed
/// output, copy the texture modes and dynamic constant banks, and fill
/// the scalars in the order launch overrides > filter parameters >
/// geometry defaults.
fn bind(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<(DeviceMemory, LaunchParams), SimError> {
    let first = spec
        .inputs
        .values()
        .next()
        .ok_or_else(|| SimError::UnboundBuffer("no input images".into()))?;
    let geom = BufferGeometry {
        width: first.width(),
        height: first.height(),
        stride: first.stride(),
    };
    let mut mem = DeviceMemory::new();
    for buf in &kernel.buffers {
        match buf.access {
            BufferAccess::ReadOnly => {
                if let Some(img) = spec.inputs.get(&buf.name) {
                    mem.bind_image(&buf.name, img);
                } else if let Some(coeffs) = spec.mask_data.get(&buf.name) {
                    let n = coeffs.len() as u32;
                    let mut b = DeviceBuffer::new(BufferGeometry {
                        width: n,
                        height: 1,
                        stride: n,
                    });
                    b.data.copy_from_slice(coeffs);
                    mem.bind(&buf.name, b);
                } else {
                    return Err(SimError::UnboundBuffer(buf.name.clone()));
                }
            }
            BufferAccess::WriteOnly | BufferAccess::ReadWrite => {
                mem.bind(&buf.name, DeviceBuffer::new(geom));
            }
        }
        mem.tex_modes.insert(buf.name.clone(), buf.address_mode);
    }
    for cb in kernel.const_buffers.iter().filter(|cb| cb.data.is_none()) {
        let coeffs = spec
            .mask_data
            .get(&cb.name)
            .ok_or_else(|| SimError::UnboundBuffer(cb.name.clone()))?;
        mem.dynamic_const.insert(cb.name.clone(), coeffs.clone());
    }

    let mut params = LaunchParams::new(spec.grid, spec.block);
    params.scalars = spec.scalars.clone();
    for (name, v) in spec.params.iter() {
        params.scalars.entry(name.clone()).or_insert(*v);
    }
    for (name, v) in [
        ("width", geom.width),
        ("height", geom.height),
        ("stride", geom.stride),
        ("is_width", geom.width),
        ("is_height", geom.height),
        ("is_offset_x", 0),
        ("is_offset_y", 0),
    ] {
        params
            .scalars
            .entry(name.to_string())
            .or_insert(Const::Int(i64::from(v)));
    }
    params.sim_threads = spec.sim_threads;
    params.pool = spec.pool.clone();
    Ok((mem, params))
}

/// Compile `op` fresh under a `compile` span. The compiler's own phase
/// and verifier-pass spans become its children, and its measurements go
/// into the `codegen.*` and `analysis.verify_us.*` sample bags. Returns
/// the artifact and the compile's wall time in µs.
pub fn cold_compile(
    op: &Operator,
    spec: &CompileSpec,
    tr: &mut Trace,
    parent: u64,
    frame: u64,
) -> Result<(CompiledKernel, f64), OperatorError> {
    let (compiled, us) = tr.span("compile", "codegen", parent, frame, |tr, id| {
        let mut rec = Recorder::new();
        let compiled = match &op.options.fused {
            Some(chain) => Compiler::new().compile_fused_with_sink(chain, spec, &mut rec),
            None => Compiler::new().compile_with_sink(&op.def, spec, &mut rec),
        };
        for s in rec.spans() {
            if let Some(pass) = s.name.strip_prefix("verify:") {
                tr.sample(&format!("analysis.verify_us.{pass}"), s.dur_us as f64);
            }
        }
        tr.adopt(rec.into_spans(), id, frame);
        compiled
    });
    let compiled = compiled?;
    tr.sample("codegen.compile_ms_p50", us / 1e3);
    for (phase, ms) in &compiled.phase_times {
        tr.sample(&format!("codegen.phase_us.{phase}"), ms * 1e3);
    }
    Ok((compiled, us))
}
