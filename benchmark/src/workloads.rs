//! The seven workloads: how each builds its inputs and operators, what
//! one repetition runs and times, and how every output is verified.
//!
//! Protocol shared by all: engine `simd`, `opt_level` 1, target CUDA on
//! the Tesla C2050 (except the sweep's six targets), every thread and
//! worker count passed explicitly, caches warm before timing unless the
//! workload is the cold path, one closed loop with one client.

use crate::inputs;
use crate::layers::{self, FrameLayers};
use crate::reference::{apply_chain, bit_identical, mismatch, RefOp};
use crate::stats::{median, quantile};
use crate::trace::{Trace, ROOT};
use hipacc_core::{fuse_operators, Engine, KernelCache, Operator, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::boxf::box_operator;
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::median::median3_operator;
use hipacc_filters::pyramid::attenuate_kernel;
use hipacc_filters::sobel::{sobel_magnitude_operator, sobel_operator};
use hipacc_hwmodel::device::tesla_c2050;
use hipacc_image::{BoundaryMode, Image};
use hipacc_ir::{Expr, KernelBuilder, ScalarType};
use hipacc_runtime::{Stream, StreamConfig, StreamReport, DEFAULT_QUEUE_CAPACITY};
use hipacc_sim::{ExecStats, WorkerPool};
use std::sync::Arc;
use std::time::Instant;

/// The engine every launch of the benchmark names.
pub const ENGINE: Engine = Engine::Simd;
/// The accessor every operator of `hipacc-filters` reads.
pub const INPUT: &str = "Input";
/// Pool width of the stream workloads.
const STREAM_WORKERS: usize = 2;
/// Distinct input frames a single-operator workload cycles through.
const SINGLE_POOL: usize = 3;

/// Frame edges and frames per repetition. [`Sizes::FULL`] is the
/// benchmark; [`Sizes::QUICK`] only serves the self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub sweep: u32,
    /// How many of the six evaluation targets the sweep compiles for.
    pub sweep_targets: usize,
    pub gauss: u32,
    pub bilateral: u32,
    pub tiny: (u32, usize),
    pub mid: (u32, usize),
    pub faulted: (u32, usize),
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        sweep: 16,
        sweep_targets: 6,
        gauss: 512,
        bilateral: 96,
        tiny: (16, 256),
        mid: (256, 12),
        faulted: (64, 96),
    };
    pub const QUICK: Sizes = Sizes {
        sweep: 16,
        sweep_targets: 1,
        gauss: 48,
        bilateral: 32,
        tiny: (16, 16),
        mid: (32, 4),
        faulted: (32, 16),
    };
}

fn default_target() -> Target {
    Target::cuda(tesla_c2050())
}

/// Pin everything a `HIPACC_*` variable or a machine default could
/// otherwise decide.
fn tuned(mut op: Operator, sim_threads: usize, cache: Option<Arc<KernelCache>>) -> Operator {
    op.options.engine = Some(ENGINE);
    op.options.sim_threads = Some(sim_threads);
    op.options.opt_level = 1;
    op.options.cache = cache;
    op
}

/// One repetition's outcome. A frame is one operation of the workload.
/// Every repetition of a workload times the same positions in the same
/// order: one per frame for the single-operator workloads, one for the
/// whole repetition of a stream.
#[derive(Default)]
pub struct Rep {
    pub frames: u64,
    pub failed: u64,
    /// Wall seconds of each timed position; their sum is the repetition's
    /// timed region.
    pub timed_s: Vec<f64>,
    /// Frame latency in ms at each position: submit → output of the
    /// frame, or a stream's in-service latency (Σ over stages of the
    /// stage's shortest span).
    pub latency_ms: Vec<f64>,
    /// The first verification failures, for the log.
    pub errors: Vec<String>,
}

impl Rep {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(what);
        }
    }

    fn timed(&mut self, seconds: f64) {
        self.timed_s.push(seconds);
        self.latency_ms.push(seconds * 1e3);
    }
}

/// A measured segment: repetitions until the time is up.
///
/// The shared machine mostly adds time — a neighbour's burst slows a
/// frame — and how much it adds drifts over minutes; in its noisy phases
/// a run's median moved twice as much between runs as its low quantiles.
/// So the end-to-end estimates take, per timed position, the 10th
/// percentile over repetitions: the repetitions the machine disturbed
/// least, short of the single fastest, which is an outlier when the
/// machine is calm.
#[derive(Default)]
pub struct Measured {
    pub reps: Vec<Rep>,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.frames).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    pub fn errors(&self) -> Vec<String> {
        let all = self.reps.iter().flat_map(|r| r.errors.iter().cloned());
        all.take(8).collect()
    }

    /// Per position, the 10th percentile over repetitions.
    fn quiet(&self, get: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
        let n = self.reps.first().map_or(0, |r| get(r).len());
        (0..n)
            .map(|i| {
                let at: Vec<f64> = self
                    .reps
                    .iter()
                    .filter_map(|r| get(r).get(i).copied())
                    .collect();
                quantile(&at, 0.1)
            })
            .collect()
    }

    /// Verified frames of a repetition ÷ the sum over its positions of
    /// the quiet time there.
    pub fn frames_per_s(&self) -> f64 {
        let ok = self.reps.iter().map(|r| r.frames - r.failed).min();
        let quiet: f64 = self.quiet(|r| &r.timed_s).iter().sum();
        ok.unwrap_or(0) as f64 / quiet.max(1e-9)
    }

    /// Median over positions of the quiet latency there.
    pub fn frame_ms_p10(&self) -> f64 {
        median(&self.quiet(|r| &r.latency_ms))
    }

    /// Every latency sample, undisturbed or not.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.latency_ms.clone())
            .collect()
    }

    /// Verified frames per timed second, one value per repetition.
    pub fn rep_fps(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| (r.frames - r.failed) as f64 / r.timed_s.iter().sum::<f64>().max(1e-9))
            .collect()
    }
}

pub trait Workload {
    /// Run, time and verify one repetition; with a trace, the traced
    /// variant of it.
    fn rep(&mut self, tr: Option<&mut Trace>) -> Rep;
    /// The traced run's extra measurements. Returns what one frame costs
    /// the untraced program, in µs.
    fn probes(&mut self, tr: &mut Trace, untraced: &Measured) -> Result<f64, String>;
}

/// Repeat `w` for at least `seconds`.
pub fn measure(w: &mut dyn Workload, seconds: f64, mut tr: Option<&mut Trace>) -> Measured {
    let mut m = Measured::default();
    let t0 = Instant::now();
    loop {
        m.reps.push(w.rep(tr.as_deref_mut()));
        if t0.elapsed().as_secs_f64() >= seconds {
            return m;
        }
    }
}

/// Build the named workload from the seed: inputs, operators, cold
/// compiles, warm-up frames and reference outputs. Everything before the
/// first timed frame. Fails when a warm-up frame does not verify.
pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Result<Box<dyn Workload>, String> {
    let gauss5 = || {
        stage(
            "gauss5",
            || gaussian_operator(5, 1.1, BoundaryMode::Clamp),
            RefOp::gaussian(5, 1.1),
        )
    };
    let stencils = || -> Vec<StageDef> {
        vec![
            gauss5(),
            stage(
                "sobel",
                || sobel_operator(true, BoundaryMode::Clamp),
                RefOp::sobel_x(),
            ),
            stage(
                "laplace",
                || laplacian_operator(BoundaryMode::Clamp),
                RefOp::laplace(),
            ),
        ]
    };
    let display = || -> Vec<StageDef> {
        vec![
            gauss5(),
            stage(
                "attenuate",
                || Operator::new(attenuate_kernel()).param_float("threshold", 0.05),
                RefOp::Attenuate { threshold: 0.05 },
            ),
            stage(
                "window",
                || {
                    Operator::new(window_level_kernel())
                        .param_float("window", 0.8)
                        .param_float("level", 0.3)
                },
                RefOp::WindowLevel {
                    window: 0.8,
                    level: 0.3,
                },
            ),
        ]
    };
    Ok(match name {
        "cold_sweep" => Box::new(Sweep::setup(seed, sizes.sweep, sizes.sweep_targets)?),
        "steady_gauss512" => Box::new(Single::setup(
            seed,
            sizes.gauss,
            gauss5(),
            BoundaryMode::Clamp,
        )?),
        "steady_bilateral_border" => Box::new(Single::setup(
            seed,
            sizes.bilateral,
            stage(
                "bilateral13",
                || bilateral_operator(3, 5, true, BoundaryMode::Mirror),
                RefOp::Bilateral {
                    sigma_d: 3,
                    sigma_r: 5.0,
                },
            ),
            BoundaryMode::Mirror,
        )?),
        "stream_tiny" => Box::new(Streamed::setup(
            name,
            seed,
            sizes.tiny,
            stencils(),
            false,
            false,
        )?),
        "stream_256" => Box::new(Streamed::setup(
            name,
            seed,
            sizes.mid,
            display(),
            false,
            false,
        )?),
        "stream_fused_256" => Box::new(Streamed::setup(
            name,
            seed,
            sizes.mid,
            display(),
            true,
            false,
        )?),
        "stream_faulted" => Box::new(Streamed::setup(
            name,
            seed,
            sizes.faulted,
            stencils(),
            false,
            true,
        )?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The window/level point operator of a pre-display step:
/// `(v − level) / window + 0.5`.
fn window_level_kernel() -> hipacc_ir::KernelDef {
    let mut b = KernelBuilder::new("WindowLevel", ScalarType::F32);
    let input = b.accessor(INPUT, ScalarType::F32);
    let window = b.param("window", ScalarType::F32);
    let level = b.param("level", ScalarType::F32);
    let v = b.let_("v", ScalarType::F32, b.read_center(&input));
    b.output((v.get() - level.get()) / window.get() + Expr::float(0.5));
    b.finish()
}

/// One operator of a workload: how the DSL builds it and what the
/// independent reference computes for it.
struct StageDef {
    name: &'static str,
    build: fn() -> Operator,
    reference: RefOp,
}

fn stage(name: &'static str, build: fn() -> Operator, reference: RefOp) -> StageDef {
    StageDef {
        name,
        build,
        reference,
    }
}

// --- cold_sweep ---------------------------------------------------------

const SWEEP_MODES: [BoundaryMode; 4] = [
    BoundaryMode::Clamp,
    BoundaryMode::Repeat,
    BoundaryMode::Mirror,
    BoundaryMode::Constant(0.25),
];

struct SweepOp {
    build: fn(BoundaryMode) -> Operator,
    reference: RefOp,
}

fn sweep_ops() -> Vec<SweepOp> {
    let op = |build, reference| SweepOp { build, reference };
    vec![
        op(|m| gaussian_operator(3, 0.8, m), RefOp::gaussian(3, 0.8)),
        op(|m| gaussian_operator(5, 1.1, m), RefOp::gaussian(5, 1.1)),
        op(|m| box_operator(7, 7, m), RefOp::box_filter(7, 7)),
        op(|m| sobel_operator(true, m), RefOp::sobel_x()),
        op(sobel_magnitude_operator, RefOp::SobelMagnitude),
        op(laplacian_operator, RefOp::laplace()),
        op(median3_operator, RefOp::Median3),
        op(
            |m| bilateral_operator(3, 5, true, m),
            RefOp::Bilateral {
                sigma_d: 3,
                sigma_r: 5.0,
            },
        ),
        op(
            |m| bilateral_operator(1, 5, false, m),
            RefOp::Bilateral {
                sigma_d: 1,
                sigma_r: 5.0,
            },
        ),
    ]
}

/// Every operator × border mode × evaluation target, compiled fresh for
/// every frame: the paper's own use of the system.
struct Sweep {
    ops: Vec<SweepOp>,
    targets: Vec<Target>,
    /// `(operator, mode, target)` in seeded order.
    order: Vec<(usize, usize, usize)>,
    input: Image<f32>,
    /// Reference output per `(operator, mode)`.
    refs: Vec<Image<f32>>,
    /// What `Operator::execute` returned per combination in the warm-up
    /// pass, for the stepped launch's bit-identity check.
    executed: Vec<Option<(Image<f32>, ExecStats)>>,
}

impl Sweep {
    fn setup(seed: u64, size: u32, n_targets: usize) -> Result<Self, String> {
        let ops = sweep_ops();
        let mut targets = Target::evaluation_targets();
        targets.truncate(n_targets);
        let mut order = Vec::new();
        for o in 0..ops.len() {
            for m in 0..SWEEP_MODES.len() {
                for t in 0..targets.len() {
                    order.push((o, m, t));
                }
            }
        }
        inputs::shuffle(seed, &mut order);
        let input = inputs::frames(seed, size, 1).remove(0);
        let refs = ops
            .iter()
            .flat_map(|op| SWEEP_MODES.map(|m| op.reference.apply(&input, m)))
            .collect();
        let mut sweep = Sweep {
            executed: vec![None; order.len()],
            ops,
            targets,
            order,
            input,
            refs,
        };
        let warm = sweep.pass(true);
        match warm.errors.first() {
            Some(e) => Err(format!("cold_sweep warm-up: {e}")),
            None => Ok(sweep),
        }
    }

    fn key(&self, (o, m, t): (usize, usize, usize)) -> usize {
        (o * SWEEP_MODES.len() + m) * self.targets.len() + t
    }

    /// One frame = DSL build + `Operator::execute`, no kernel cache.
    fn pass(&mut self, keep: bool) -> Rep {
        let mut rep = Rep::default();
        for i in 0..self.order.len() {
            let combo @ (o, m, t) = self.order[i];
            let t0 = Instant::now();
            let op = tuned((self.ops[o].build)(SWEEP_MODES[m]), 1, None);
            let run = op.execute(&[(INPUT, &self.input)], &self.targets[t]);
            let dt = t0.elapsed().as_secs_f64();
            rep.frames += 1;
            rep.timed(dt);
            match run {
                Err(e) => rep.fail(format!("combination {combo:?}: {e}")),
                Ok(run) => {
                    if let Some(why) = mismatch(&run.output, &self.refs[o * SWEEP_MODES.len() + m])
                    {
                        rep.fail(format!("combination {combo:?}: {why}"));
                    }
                    if keep {
                        let key = self.key(combo);
                        self.executed[key] = Some((run.output, run.stats));
                    }
                }
            }
        }
        rep
    }

    /// The same pass through stepped launches.
    fn traced_pass(&mut self, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let mut frames = Vec::with_capacity(self.order.len());
        for &combo in &self.order {
            let (o, m, t) = combo;
            let key = self.key(combo);
            let ((result, build_us), us) =
                tr.span("frame", "harness", ROOT, key as u64, |tr, id| {
                    let (op, build_us) = tr.span("dsl-build", "filters", id, key as u64, |_, _| {
                        tuned((self.ops[o].build)(SWEEP_MODES[m]), 1, None)
                    });
                    let taps = [self.ops[o].reference.taps()];
                    let ops = [op];
                    let target = &self.targets[t];
                    let run =
                        layers::stepped_chain(&ops, &taps, target, &self.input, tr, id, key as u64);
                    (run, build_us)
                });
            rep.frames += 1;
            rep.timed(us / 1e6);
            match result {
                Err(e) => rep.fail(format!("stepped combination {combo:?}: {e}")),
                Ok((output, stats, mut layers)) => {
                    let same = self.executed[key]
                        .as_ref()
                        .is_some_and(|(img, st)| bit_identical(img, &output) && *st == stats);
                    if !same {
                        rep.fail(format!(
                            "stepped combination {combo:?} is not bit-identical to Operator::execute"
                        ));
                    }
                    layers.build_us = build_us;
                    layers::record_frame(tr, &layers);
                    frames.push((key as u64, layers));
                }
            }
        }
        layers::fold_exact(tr, &mut frames);
        rep
    }
}

impl Workload for Sweep {
    fn rep(&mut self, tr: Option<&mut Trace>) -> Rep {
        match tr {
            None => self.pass(false),
            Some(tr) => self.traced_pass(tr),
        }
    }

    fn probes(&mut self, tr: &mut Trace, untraced: &Measured) -> Result<f64, String> {
        // The three engines-and-entry-points probes cost four launches and
        // three compiles per combination: one pass over the first of every
        // six (each operator × mode once) is enough for a median.
        for (i, &(o, m, t)) in self.order.iter().enumerate() {
            let ops = [tuned((self.ops[o].build)(SWEEP_MODES[m]), 1, None)];
            if i % self.targets.len() == 0 {
                layers::probe_overheads(&ops, &self.targets[t], &self.input, tr)?;
            }
            if i < 3 {
                layers::probe_engines(&ops, &self.targets[t], &self.input, tr)?;
            }
        }
        Ok(median(&untraced.latencies_ms()) * 1e3)
    }
}

// --- steady_gauss512, steady_bilateral_border --------------------------------

/// One operator on a warm shared cache, `Operator::execute` per frame.
struct Single {
    def: StageDef,
    op: Operator,
    cache: Arc<KernelCache>,
    inputs: Vec<Image<f32>>,
    refs: Vec<Image<f32>>,
    /// `Operator::execute`'s result per input, from the warm-up frames.
    executed: Vec<(Image<f32>, ExecStats)>,
    next: usize,
}

impl Single {
    fn setup(seed: u64, size: u32, def: StageDef, mode: BoundaryMode) -> Result<Self, String> {
        let inputs = inputs::frames(seed, size, SINGLE_POOL);
        let cache = Arc::new(KernelCache::default());
        let op = tuned((def.build)(), 1, Some(Arc::clone(&cache)));
        let target = default_target();
        let mut refs = Vec::new();
        let mut executed = Vec::new();
        // The first execute compiles cold; all are warm-up frames.
        for img in &inputs {
            let run = op
                .execute(&[(INPUT, img)], &target)
                .map_err(|e| format!("{} warm-up: {e}", def.name))?;
            let want = def.reference.apply(img, mode);
            if let Some(why) = mismatch(&run.output, &want) {
                return Err(format!("{} warm-up: {why}", def.name));
            }
            refs.push(want);
            executed.push((run.output, run.stats));
        }
        Ok(Single {
            def,
            op,
            cache,
            inputs,
            refs,
            executed,
            next: 0,
        })
    }
}

impl Workload for Single {
    fn rep(&mut self, tr: Option<&mut Trace>) -> Rep {
        let i = self.next % self.inputs.len();
        let frame = self.next as u64;
        self.next += 1;
        let target = default_target();
        let mut rep = Rep {
            frames: 1,
            ..Rep::default()
        };
        let output = match tr {
            None => {
                let t0 = Instant::now();
                let run = self.op.execute(&[(INPUT, &self.inputs[i])], &target);
                rep.timed(t0.elapsed().as_secs_f64());
                run.map(|r| r.output).map_err(|e| e.to_string())
            }
            Some(tr) => {
                let before = (
                    self.cache.hits(),
                    self.cache.misses(),
                    self.cache.bypasses(),
                );
                let (run, us) = tr.span("frame", "harness", ROOT, frame, |tr, id| {
                    let ops = std::slice::from_ref(&self.op);
                    let taps = [self.def.reference.taps()];
                    layers::stepped_chain(ops, &taps, &target, &self.inputs[i], tr, id, frame)
                });
                rep.timed(us / 1e6);
                tr.exact("core.cache_hits", (self.cache.hits() - before.0) as f64);
                tr.exact("core.cache_misses", (self.cache.misses() - before.1) as f64);
                tr.exact(
                    "core.cache_bypasses",
                    (self.cache.bypasses() - before.2) as f64,
                );
                run.map_err(|e| e.to_string())
                    .map(|(output, stats, layers)| {
                        let (img, st) = &self.executed[i];
                        if !(bit_identical(img, &output) && *st == stats) {
                            rep.fail(
                                "stepped launch is not bit-identical to Operator::execute".into(),
                            );
                        }
                        layers::record_frame(tr, &layers);
                        layers::fold_exact(tr, &mut [(0, layers)]);
                        output
                    })
            }
        };
        match output {
            Err(e) => rep.fail(e),
            Ok(img) => {
                if let Some(why) = mismatch(&img, &self.refs[i]) {
                    rep.fail(why);
                }
            }
        }
        rep.failed = rep.failed.min(1);
        rep
    }

    fn probes(&mut self, tr: &mut Trace, untraced: &Measured) -> Result<f64, String> {
        let target = default_target();
        let ops = std::slice::from_ref(&self.op);
        for i in 0..3 {
            let img = &self.inputs[i % self.inputs.len()];
            layers::probe_overheads(ops, &target, img, tr)?;
            layers::probe_engines(ops, &target, img, tr)?;
            layers::probe_cold(
                &[self.def.build],
                ops,
                &target,
                (img.width(), img.height()),
                tr,
            )?;
        }
        Ok(median(&untraced.latencies_ms()) * 1e3)
    }
}

// --- stream_* -----------------------------------------------------------------

/// An operator chain behind `Stream::run`: two pool workers, the default
/// queue capacity, the stream's own warm cache. `Stream::run` owns its
/// producer, so the loop is closed and backpressure bounds the window.
struct Streamed {
    stream: Stream,
    defs: Vec<StageDef>,
    frames: Vec<Image<f32>>,
    /// `Stream::run_sequential`'s outputs, which `run` must repeat bit
    /// for bit.
    sequential: Vec<Image<f32>>,
    refs: Vec<Image<f32>>,
    last: Option<StreamReport>,
}

impl Streamed {
    fn setup(
        name: &str,
        seed: u64,
        (size, n): (u32, usize),
        defs: Vec<StageDef>,
        fuse: bool,
        faulted: bool,
    ) -> Result<Self, String> {
        let frames = inputs::frames(seed, size, n);
        let mut stream = Stream::new(name, default_target());
        for def in &defs {
            stream = stream.stage(def.name, tuned((def.build)(), STREAM_WORKERS, None));
        }
        let stream = stream.with_config(StreamConfig {
            workers: Some(STREAM_WORKERS),
            queue_capacity: Some(DEFAULT_QUEUE_CAPACITY),
            engine: Some(ENGINE),
            fuse,
            faults: if faulted {
                inputs::fault_plans(seed, n)
            } else {
                Default::default()
            },
            ..StreamConfig::default()
        });
        // The sequential run is the warm-up (it fills the stream's cache)
        // and the bit-identity reference.
        let seq = stream
            .run_sequential(frames.clone())
            .map_err(|e| format!("{name} warm-up: {e}"))?;
        if seq.outputs.len() != n || !seq.report.accounted() {
            return Err(format!(
                "{name} warm-up: {} of {n} frames came out ({} failed)",
                seq.outputs.len(),
                seq.report.failed.len()
            ));
        }
        let chain: Vec<RefOp> = defs.iter().map(|d| d.reference.clone()).collect();
        let refs: Vec<Image<f32>> = frames
            .iter()
            .map(|f| apply_chain(&chain, f, BoundaryMode::Clamp))
            .collect();
        let sequential: Vec<Image<f32>> = seq.outputs.into_iter().map(|f| f.image).collect();
        for (i, (got, want)) in sequential.iter().zip(&refs).enumerate() {
            if let Some(why) = mismatch(got, want) {
                return Err(format!("{name} warm-up frame {i}: {why}"));
            }
        }
        Ok(Streamed {
            stream,
            defs,
            frames,
            sequential,
            refs,
            last: None,
        })
    }

    /// The operators the stream actually launches: its planned stages,
    /// fused where the report says so, on a cache and pool of the
    /// harness's own.
    fn planned_ops(&self, report: &StreamReport) -> Result<(Vec<Operator>, Vec<u64>), String> {
        let cache = Arc::new(KernelCache::default());
        let pool = Arc::new(WorkerPool::new(STREAM_WORKERS));
        let mut ops = Vec::new();
        let mut taps = Vec::new();
        for planned in &report.stages {
            let group: Vec<&StageDef> = planned
                .split('+')
                .map(|n| {
                    self.defs
                        .iter()
                        .find(|d| d.name == n)
                        .ok_or_else(|| format!("planned stage `{n}` is not in the chain"))
                })
                .collect::<Result<_, _>>()?;
            let built: Vec<Operator> = group.iter().map(|d| (d.build)()).collect();
            let op = match built.as_slice() {
                [one] => one.clone(),
                many => fuse_operators(&many.iter().collect::<Vec<_>>())
                    .map_err(|e| format!("fusing `{planned}`: {e}"))?,
            };
            let mut op = tuned(op, STREAM_WORKERS, Some(Arc::clone(&cache)));
            op.options.pool = Some(Arc::clone(&pool));
            ops.push(op);
            taps.push(group.iter().map(|d| d.reference.taps()).sum());
        }
        Ok((ops, taps))
    }
}

impl Workload for Streamed {
    fn rep(&mut self, tr: Option<&mut Trace>) -> Rep {
        let n = self.frames.len();
        let mut rep = Rep {
            frames: n as u64,
            ..Rep::default()
        };
        let bypasses = self.stream.cache().bypasses();
        let run = match self.stream.run(self.frames.clone()) {
            Ok(run) => run,
            Err(e) => {
                rep.failed = rep.frames;
                rep.errors.push(e.to_string());
                rep.timed(0.0);
                return rep;
            }
        };
        let report = run.report;
        // The program's own per-frame×stage spans, named `stage:seq`.
        let service_ms: Vec<Vec<f64>> = report
            .stages
            .iter()
            .map(|stage| {
                let of_stage = report
                    .spans
                    .iter()
                    .filter(|s| s.name.rsplit_once(':').is_some_and(|(st, _)| st == stage));
                of_stage.map(|s| s.dur_us as f64 / 1e3).collect()
            })
            .collect();
        rep.timed_s.push(report.wall_us as f64 / 1e6);
        // A stage's span includes its wait for the shared pool; the
        // shortest one is the frame that did not wait.
        rep.latency_ms
            .push(service_ms.iter().map(|s| quantile(s, 0.0)).sum());

        // Failed and shed frames are missing from `outputs`; every frame
        // that is missing or wrong counts once.
        let mut ok = vec![false; n];
        for f in &run.outputs {
            let i = f.seq as usize;
            if !bit_identical(&f.image, &self.sequential[i]) {
                rep.fail(format!("frame {i} differs from Stream::run_sequential"));
            } else if let Some(why) = mismatch(&f.image, &self.refs[i]) {
                rep.fail(format!("frame {i}: {why}"));
            } else {
                ok[i] = true;
            }
        }
        for f in &report.failed {
            rep.errors.truncate(3);
            rep.errors
                .push(format!("frame {} failed at {}: {}", f.seq, f.stage, f.code));
        }
        rep.failed = ok.iter().filter(|ok| !**ok).count() as u64;
        if !report.accounted() {
            rep.failed = rep.frames;
            rep.errors
                .push("frames_in != frames_out + failed + shed".into());
        }

        if let Some(tr) = tr {
            let per_frame = |v: u64| v as f64 / n as f64;
            tr.sample("runtime.wall_ms_p50", report.wall_us as f64 / 1e3);
            tr.sample("runtime.latency_ms_p50", report.latency_p50_us as f64 / 1e3);
            tr.sample("runtime.latency_ms_p99", report.latency_p99_us as f64 / 1e3);
            let service_p50: Vec<f64> = service_ms.iter().map(|s| median(s)).collect();
            for (idx, p50) in service_p50.iter().enumerate().take(3) {
                tr.sample(&format!("runtime.stage{idx}_service_ms_p50"), *p50);
            }
            let latency = report.latency_p50_us as f64 / 1e3;
            if latency > 0.0 {
                let service: f64 = service_p50.iter().sum();
                tr.sample(
                    "runtime.queue_wait_share",
                    (1.0 - service / latency).max(0.0),
                );
            }
            let depth = report.queue_max_depths.iter().max().copied().unwrap_or(0);
            tr.sample("runtime.queue_max_depth", depth as f64);
            tr.exact("runtime.cache_hit_rate", report.cache_hit_rate);
            tr.exact("core.cache_hits", per_frame(report.cache_hits));
            tr.exact("core.cache_misses", per_frame(report.cache_misses));
            tr.exact(
                "core.cache_bypasses",
                per_frame(self.stream.cache().bypasses() - bypasses),
            );
            tr.exact("core.actions_retried", per_frame(report.actions.retried));
            tr.exact("core.actions_repaired", per_frame(report.actions.repaired));
            tr.exact("core.actions_degraded", per_frame(report.actions.degraded));
            tr.exact("core.actions_surfaced", per_frame(report.actions.surfaced));
            tr.exact("runtime.frames_failed", report.failed.len() as f64);
            tr.exact("runtime.frames_shed", report.shed.len() as f64);
            tr.exact("runtime.frames_recovered", report.recovered_frames as f64);
            tr.exact(
                "runtime.breaker_transitions",
                report.breaker_transitions.len() as f64,
            );
            tr.exact(
                "runtime.fused_groups",
                report.fusion.iter().filter(|d| d.fused).count() as f64,
            );
            if self.last.is_none() {
                tr.adopt(report.spans.iter().cloned(), ROOT, 0);
            }
        }
        self.last = Some(report);
        rep
    }

    fn probes(&mut self, tr: &mut Trace, _untraced: &Measured) -> Result<f64, String> {
        let n = self.frames.len();
        let report = self
            .last
            .clone()
            .ok_or("no repetition ran before the probes")?;
        let (json, us) = {
            let t0 = Instant::now();
            let json = report.to_json();
            (json, t0.elapsed().as_secs_f64() * 1e6)
        };
        hipacc_profile::json::parse(&json).map_err(|e| format!("StreamReport JSON: {e}"))?;
        tr.sample("runtime.report_json_us", us);

        // The single-threaded baseline of the same job.
        let mut seq_wall_us = Vec::new();
        for _ in 0..3 {
            let seq = self
                .stream
                .run_sequential(self.frames.clone())
                .map_err(|e| e.to_string())?;
            seq_wall_us.push(seq.report.wall_us as f64);
        }
        let seq_wall_us = median(&seq_wall_us);
        let run_wall_us = tr.value("runtime.wall_ms_p50").unwrap_or(0.0) * 1e3;
        if run_wall_us > 0.0 {
            tr.sample("runtime.pipeline_speedup", seq_wall_us / run_wall_us);
        }

        // Every frame × stage once more as a standalone stepped launch.
        let (ops, taps) = self.planned_ops(&report)?;
        let target = default_target();
        let mut frames = Vec::with_capacity(n);
        for (i, img) in self.frames.iter().enumerate() {
            let (run, _) = tr.span("frame", "harness", ROOT, i as u64, |tr, id| {
                layers::stepped_chain(&ops, &taps, &target, img, tr, id, i as u64)
            });
            let (output, _, layers): (_, _, FrameLayers) = run.map_err(|e| e.to_string())?;
            if !bit_identical(&output, &self.sequential[i]) {
                return Err(format!(
                    "stepped chain frame {i} is not bit-identical to Stream::run_sequential"
                ));
            }
            layers::record_frame(tr, &layers);
            frames.push((i as u64, layers));
        }
        layers::fold_exact(tr, &mut frames);
        tr.sample(
            "runtime.exec_share",
            layers::stepped_sim_total_us(tr) / seq_wall_us,
        );

        let builders: Vec<fn() -> Operator> = self.defs.iter().map(|d| d.build).collect();
        let size = (self.frames[0].width(), self.frames[0].height());
        for i in 0..3 {
            let img = &self.frames[i % n];
            layers::probe_overheads(&ops, &target, img, tr)?;
            layers::probe_engines(&ops, &target, img, tr)?;
            layers::probe_cold(&builders, &ops, &target, size, tr)?;
        }
        Ok(seq_wall_us / n as f64)
    }
}
