//! One run of one workload in this process: set-up, the timed segment,
//! and — when traced — the traced segment and the probes.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::layers::per_layer_metrics;
use crate::stats::median;
use crate::trace::Trace;
use crate::workloads::{measure, setup, Measured, Sizes};
use std::collections::BTreeMap;
use std::time::Instant;

/// How often the untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one run found.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), by name.
    pub metrics: BTreeMap<String, f64>,
    pub errors: Vec<String>,
}

/// The unit of a metric of the catalogue.
pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// `{"name":{"value":…,"unit":"…"},…}`, the shape the driver reads.
pub fn metrics_json(metrics: &BTreeMap<String, f64>) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    if args.trace {
        return run_traced(args, &sizes);
    }
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        workload = Some(setup(&args.workload, args.seed, &sizes)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS >= 1");
    let m = measure(workload.as_mut(), args.seconds, None);
    let metrics = BTreeMap::from([
        ("setup_s".to_string(), median(&setup_s)),
        ("frames_per_s".to_string(), m.frames_per_s()),
        ("frame_ms_p10".to_string(), m.frame_ms_p10()),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
    ]);
    Ok(finish(metrics, &[&m], Vec::new()))
}

/// A quarter of the time untraced, a quarter traced, then the probes.
/// End-to-end numbers never come from here.
fn run_traced(args: &RunArgs, sizes: &Sizes) -> Result<RunResult, String> {
    let mut workload = setup(&args.workload, args.seed, sizes)?;
    let untraced = measure(workload.as_mut(), args.seconds / 4.0, None);
    let mut tr = Trace::default();
    let traced = measure(workload.as_mut(), args.seconds / 4.0, Some(&mut tr));
    let frame_wall_us = workload.probes(&mut tr, &untraced)?;
    let metrics = per_layer_metrics(&tr, &untraced, &traced, frame_wall_us);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}.trace.json", args.workload);
    let json = tr.chrome_json();
    hipacc_profile::chrome::validate(&json).map_err(|e| format!("trace does not validate: {e}"))?;
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok(finish(metrics, &[&untraced, &traced], tr.drift))
}

fn finish(
    metrics: BTreeMap<String, f64>,
    segments: &[&Measured],
    mut errors: Vec<String>,
) -> RunResult {
    for (name, v) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }
    let mut attempted = 0;
    let mut failed = 0;
    for m in segments {
        attempted += m.attempted();
        failed += m.failed();
        errors.extend(m.errors());
    }
    RunResult {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
    }
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// Every metric by name with its unit, one per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.metrics {
            out.push_str(&format!("  {name:<36} {v:>16.6} {}\n", unit_of(name)));
        }
        out.push_str(&format!(
            "  verified {} of {} frames\n",
            self.attempted - self.failed,
            self.attempted
        ));
        for e in &self.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        out
    }
}
