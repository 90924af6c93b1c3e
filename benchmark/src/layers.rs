//! What the traced run does with the instruments of [`crate::trace`]:
//! step whole operator chains, turn each traced frame into per-layer
//! samples, probe the overheads that only show as differences between
//! public entry points, and assemble the per-layer metrics.

use crate::catalog::PER_LAYER;
use crate::stats::{iqr_share, median, quantile};
use crate::trace::{cold_compile, stepped_execute, StepTimes, Stepped, Trace, ROOT};
use crate::workloads::{Measured, ENGINE, INPUT};
use hipacc_codegen::CompiledKernel;
use hipacc_core::pipeline::launch_spec;
use hipacc_core::{Engine, FaultPlan, Operator, OperatorError, SupervisorConfig, Target};
use hipacc_image::Image;
use hipacc_sim::launch::{run_on_image_with, LaunchResult};
use hipacc_sim::{ExecStats, SimError};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one traced frame cost and did, summed over the stages of its
/// chain.
#[derive(Clone, Default)]
pub struct FrameLayers {
    /// DSL build time in µs, when the frame includes one.
    pub build_us: f64,
    pub times: StepTimes,
    pub stats: ExecStats,
    pub modelled_ms: f64,
    pub generated_loc: u64,
    pub source_bytes: u64,
    pub opt_rewrites: u64,
    pub warnings: u64,
    pub tape_uniform_insts: u64,
    /// Largest per-thread register file of any stage.
    pub tape_thread_regs: u64,
    occupancy_sum: f64,
    interior_sum: f64,
    stages: u32,
    /// Σ over stages of pixels × window taps.
    pub pixtaps: u64,
}

impl FrameLayers {
    fn absorb(&mut self, s: &Stepped, taps: u64) {
        self.times.add(&s.times);
        self.stats.merge(&s.stats);
        self.modelled_ms += s.time.total_ms;
        self.generated_loc += s.compiled.generated_loc() as u64;
        self.source_bytes += s.compiled.source.len() as u64;
        self.opt_rewrites += u64::from(s.compiled.opt.total());
        self.warnings += s.compiled.diagnostics.len() as u64;
        self.tape_uniform_insts += s.tape_uniform_insts as u64;
        self.tape_thread_regs = self.tape_thread_regs.max(s.tape_thread_regs as u64);
        self.occupancy_sum += s.compiled.occupancy.map_or(0.0, |o| o.occupancy);
        self.interior_sum += s.interior_block_share;
        self.stages += 1;
        let (_, _, w, h) = s.compiled.iteration_space;
        self.pixtaps += u64::from(w) * u64::from(h) * taps;
    }
}

/// Run `ops` in order on `input` through [`stepped_execute`], every
/// stage's spans under `parent`. `taps[i]` is stage `i`'s window size.
pub fn stepped_chain(
    ops: &[Operator],
    taps: &[u64],
    target: &Target,
    input: &Image<f32>,
    tr: &mut Trace,
    parent: u64,
    frame: u64,
) -> Result<(Image<f32>, ExecStats, FrameLayers), OperatorError> {
    let mut layers = FrameLayers::default();
    let mut image = None;
    let mut last = ExecStats::default();
    for (op, taps) in ops.iter().zip(taps) {
        let current = image.as_ref().unwrap_or(input);
        let s = stepped_execute(op, (INPUT, current), target, ENGINE, tr, parent, frame)?;
        layers.absorb(&s, *taps);
        last = s.stats;
        image = Some(s.output);
    }
    Ok((image.expect("a chain has a stage"), last, layers))
}

/// Turn one traced frame into timing samples.
pub fn record_frame(tr: &mut Trace, f: &FrameLayers) {
    let t = &f.times;
    if f.build_us > 0.0 {
        tr.sample("filters.build_us_p50", f.build_us);
    }
    tr.sample("core.fingerprint_us_p50", t.fingerprint);
    tr.sample("core.cache_lookup_us_p50", t.lookup);
    tr.sample("core.launch_spec_us_p50", t.launch_spec);
    tr.sample("core.estimate_us_p50", t.estimate);
    tr.sample("sim.upload_us_p50", t.upload);
    tr.sample("sim.tape_build_us_p50", t.tape_build);
    tr.sample("sim.download_us_p50", t.download);
    tr.sample("sim.execute_ms_p50", t.execute / 1e3);
    tr.sample(
        "sim.ns_per_pixtap",
        t.execute * 1e3 / f.pixtaps.max(1) as f64,
    );
    tr.sample(STEPPED_TOTAL_US, f.build_us + t.total());
    tr.sample(STEPPED_SIM_US, t.sim());
}

/// Sample bags that feed shares, not metrics of their own.
const STEPPED_TOTAL_US: &str = "stepped.total_us";
const STEPPED_SIM_US: &str = "stepped.sim_us";

/// Record the exact per-layer values of one repetition: per-frame means
/// over its frames, folded in the order of their keys so that a shuffled
/// repetition gives the same bits.
pub fn fold_exact(tr: &mut Trace, frames: &mut [(u64, FrameLayers)]) {
    frames.sort_by_key(|(key, _)| *key);
    let n = frames.len().max(1) as f64;
    let mean_u = |get: &dyn Fn(&FrameLayers) -> u64| {
        frames.iter().map(|(_, f)| get(f)).sum::<u64>() as f64 / n
    };
    let mean_f =
        |get: &dyn Fn(&FrameLayers) -> f64| frames.iter().map(|(_, f)| get(f)).sum::<f64>() / n;
    let values = [
        ("codegen.generated_loc", mean_u(&|f| f.generated_loc)),
        ("codegen.source_bytes", mean_u(&|f| f.source_bytes)),
        ("ir.opt_rewrites", mean_u(&|f| f.opt_rewrites)),
        ("analysis.warnings", mean_u(&|f| f.warnings)),
        ("sim.tape_uniform_insts", mean_u(&|f| f.tape_uniform_insts)),
        ("sim.tape_thread_regs", mean_u(&|f| f.tape_thread_regs)),
        ("sim.global_loads", mean_u(&|f| f.stats.global_loads)),
        ("sim.tex_fetches", mean_u(&|f| f.stats.tex_fetches)),
        ("sim.const_loads", mean_u(&|f| f.stats.const_loads)),
        ("sim.shared_loads", mean_u(&|f| f.stats.shared_loads)),
        ("sim.shared_stores", mean_u(&|f| f.stats.shared_stores)),
        ("sim.barriers", mean_u(&|f| f.stats.barriers)),
        ("sim.oob_reads", mean_u(&|f| f.stats.oob_reads)),
        ("sim.modelled_frame_ms", mean_f(&|f| f.modelled_ms)),
        (
            "hwmodel.occupancy",
            mean_f(&|f| f.occupancy_sum / f64::from(f.stages.max(1))),
        ),
        (
            "sim.interior_block_share",
            mean_f(&|f| f.interior_sum / f64::from(f.stages.max(1))),
        ),
    ];
    for (name, v) in values {
        tr.exact(name, v);
    }
}

fn launch(
    op: &Operator,
    compiled: &CompiledKernel,
    img: &Image<f32>,
    engine: Engine,
) -> Result<(LaunchResult, f64), SimError> {
    let inputs = [(INPUT, img)];
    let mut spec = launch_spec(compiled, &inputs, &op.params, &op.mask_uploads);
    spec.sim_threads = op.options.sim_threads;
    spec.pool = op.options.pool.clone();
    let t0 = Instant::now();
    let out = run_on_image_with(&compiled.device_kernel, &spec, engine)?;
    Ok((out, t0.elapsed().as_secs_f64() * 1e6))
}

fn timed_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// One pass of `ops` over `input` through each of the program's launch
/// entry points, interleaved so machine drift hits all alike. Samples the
/// bare launch and the three overheads that exist only as differences:
/// `execute_with` − `run_on_image_with`, `execute_profiled` −
/// `execute_with`, and fault-free `execute_supervised` − `execute_with`.
pub fn probe_overheads(
    ops: &[Operator],
    target: &Target,
    input: &Image<f32>,
    tr: &mut Trace,
) -> Result<(), String> {
    let (mut launch_us, mut exec_us, mut prof_us, mut sup_us) = (0.0, 0.0, 0.0, 0.0);
    let mut occupancy = Vec::new();
    let mut image = input.clone();
    for op in ops {
        let compiled = op
            .compile(target, image.width(), image.height())
            .map_err(|e| e.to_string())?;
        let inputs = [(INPUT, &image)];
        let (bare, us) = launch(op, &compiled, &image, ENGINE).map_err(|e| e.to_string())?;
        launch_us += us;
        let (r, us) = timed_us(|| op.execute_with(&inputs, target, ENGINE));
        r.map_err(|e| e.to_string())?;
        exec_us += us;
        let (r, us) = timed_us(|| op.execute_profiled(&inputs, target, ENGINE));
        let (_, profile) = r.map_err(|e| e.to_string())?;
        prof_us += us;
        occupancy.extend(profile.warp_occupancy);
        let t0 = Instant::now();
        let supervised = op.execute_supervised(
            &inputs,
            target,
            ENGINE,
            &FaultPlan::none(),
            &SupervisorConfig::default(),
        );
        sup_us += t0.elapsed().as_secs_f64() * 1e6;
        supervised.map_err(|e| e.to_string())?;
        image = bare.output;
    }
    tr.sample("sim.launch_ms_p50", launch_us / 1e3);
    tr.sample("core.execute_overhead_us_p50", exec_us - launch_us);
    tr.sample("core.profile_overhead_us_p50", prof_us - exec_us);
    tr.sample("core.supervise_overhead_us_p50", sup_us - exec_us);
    if !occupancy.is_empty() {
        tr.sample(
            "sim.warp_occupancy",
            occupancy.iter().sum::<f64>() / occupancy.len() as f64,
        );
    }
    Ok(())
}

const BYTECODE_US: &str = "probe.bytecode_us";
const SIMD_US: &str = "probe.simd_us";

/// One pass of `ops` over `input`, every stage launched on the scalar
/// bytecode engine and on the simd engine; the metric is the ratio of the
/// two medians.
pub fn probe_engines(
    ops: &[Operator],
    target: &Target,
    input: &Image<f32>,
    tr: &mut Trace,
) -> Result<(), String> {
    let (mut bytecode_us, mut simd_us) = (0.0, 0.0);
    let mut image = input.clone();
    for op in ops {
        let compiled = op
            .compile(target, image.width(), image.height())
            .map_err(|e| e.to_string())?;
        let (_, us) = launch(op, &compiled, &image, Engine::Bytecode).map_err(|e| e.to_string())?;
        bytecode_us += us;
        let (out, us) = launch(op, &compiled, &image, Engine::Simd).map_err(|e| e.to_string())?;
        simd_us += us;
        image = out.output;
    }
    tr.sample(BYTECODE_US, bytecode_us);
    tr.sample(SIMD_US, simd_us);
    Ok(())
}

/// Time the DSL builders of a chain (`filters.build_us_p50`, summed) and
/// compile every launched operator cold, sampling the `codegen.*` and
/// `analysis.*` timings.
pub fn probe_cold(
    builders: &[fn() -> Operator],
    ops: &[Operator],
    target: &Target,
    (width, height): (u32, u32),
    tr: &mut Trace,
) -> Result<(), String> {
    let build_us: f64 = builders.iter().map(|build| timed_us(build).1).sum();
    tr.sample("filters.build_us_p50", build_us);
    for op in ops {
        let spec = op.compile_spec(target, width, height);
        cold_compile(op, &spec, tr, ROOT, 0).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Every per-layer metric of the catalogue, from the traced run's
/// collection. `frame_wall_us` is what one frame costs the untraced
/// program; a layer the workload does not cross reads 0.
pub fn per_layer_metrics(
    tr: &Trace,
    untraced: &Measured,
    traced: &Measured,
    frame_wall_us: f64,
) -> BTreeMap<String, f64> {
    let p50 = |bag: &str| median(tr.samples(bag));
    let share = |part: f64| {
        if frame_wall_us > 0.0 {
            part / frame_wall_us
        } else {
            0.0
        }
    };
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    derived.insert("sim.exec_share", share(p50("sim.execute_ms_p50") * 1e3));
    derived.insert(
        "sim.unattributed_share",
        share((frame_wall_us - p50(STEPPED_TOTAL_US)).abs()),
    );
    let simd = p50(SIMD_US);
    derived.insert(
        "sim.bytecode_over_simd",
        if simd > 0.0 {
            p50(BYTECODE_US) / simd
        } else {
            0.0
        },
    );
    let latencies = untraced.latencies_ms();
    derived.insert("harness.frame_ms_p50", median(&latencies));
    derived.insert("harness.frame_ms_p90", quantile(&latencies, 0.9));
    derived.insert("harness.samples", latencies.len() as f64);
    derived.insert("harness.rep_spread", iqr_share(&untraced.rep_fps()));
    let (fast, slow) = (untraced.frames_per_s(), traced.frames_per_s());
    derived.insert(
        "harness.trace_overhead_share",
        if fast > 0.0 { 1.0 - slow / fast } else { 0.0 },
    );
    let attempted = (untraced.attempted() + traced.attempted()).max(1);
    derived.insert(
        "harness.fail_share",
        (untraced.failed() + traced.failed()) as f64 / attempted as f64,
    );
    PER_LAYER
        .iter()
        .map(|m| {
            let v = derived
                .get(m.name)
                .copied()
                .or_else(|| tr.value(m.name))
                .unwrap_or(0.0);
            (m.name.to_string(), v)
        })
        .collect()
}

/// Σ over traced frames of the steps `run_on_image_with` covers, in µs.
pub fn stepped_sim_total_us(tr: &Trace) -> f64 {
    tr.samples(STEPPED_SIM_US).iter().sum()
}
