//! Cross-engine execution benchmark with a machine-readable export.
//!
//! Times one frame per engine (bytecode, simd) on the
//! representative local-operator cells of the evaluation — 3×3 and 5×5
//! Gaussian, the 13×13 bilateral filter, and an interior-only 5×5
//! Gaussian ROI that exercises the uniform-branch fast path — and
//! renders the result as text or as the `BENCH_engine.json` document the
//! CI bench-smoke job gates on.
//!
//! The device kernel is compiled from the DSL once outside the timed
//! region, so the numbers isolate launch + execution: exactly the part
//! the bytecode and simd engines restructure. Before any timing, every
//! engine's output and [`hipacc_sim::ExecStats`] are asserted
//! bit-identical to the specification ([`hipacc_sim::interp`]), so a cell
//! can never get faster by computing something else.
//!
//! This module uses plain [`std::time::Instant`] medians rather than the
//! criterion stand-in because the stand-in is a dev-dependency of the
//! bench crate and this module backs the `reproduce --bench-json` flag
//! of the regular binary.

use hipacc_core::pipeline::launch_spec;
use hipacc_core::{Engine, Operator, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_hwmodel::device::tesla_c2050;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_sim::{interp, launch, run_on_image_with};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Square image edge used by every cell.
pub const SIZE: u32 = 128;

/// Default number of timed frames per engine (the median is reported).
pub const DEFAULT_SAMPLES: usize = 9;

/// The two engines, in the order they appear in every report.
pub const ENGINES: [Engine; 2] = [Engine::Bytecode, Engine::Simd];

/// The cell whose simd-vs-bytecode speedup the CI bench-smoke job gates
/// on: an interior-only ROI where every warp takes the uniform in-bounds
/// branch, so the simd engine has no divergence to hide behind. The CI
/// opt-smoke job additionally gates this cell at `opt_level` 1 vs 0.
pub const GATE_CELL: &str = "gaussian5x5_interior";

/// The optimizer level under benchmark: `HIPACC_OPT_LEVEL` (0 or 1),
/// defaulting to the pipeline default of 1. Invalid values fall back to
/// the default rather than failing a benchmark run.
pub fn opt_level_from_env() -> u8 {
    std::env::var("HIPACC_OPT_LEVEL")
        .ok()
        .and_then(|v| v.trim().parse::<u8>().ok())
        .map(|v| v.min(1))
        .unwrap_or(1)
}

/// Median frame time per engine for one benchmark cell.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// Cell name (e.g. `gaussian5x5`).
    pub name: &'static str,
    /// `(engine label, median ns per frame)` in [`ENGINES`] order.
    pub engines: Vec<(&'static str, f64)>,
}

impl CellTiming {
    /// Median ns/frame for one engine label.
    pub fn ns(&self, engine: &str) -> Option<f64> {
        self.engines
            .iter()
            .find(|(e, _)| *e == engine)
            .map(|(_, ns)| *ns)
    }

    /// How many times faster `num` runs than `den` on this cell.
    pub fn speedup(&self, num: &str, den: &str) -> Option<f64> {
        Some(self.ns(den)? / self.ns(num)?)
    }
}

/// A full engine-benchmark run over every cell.
#[derive(Clone, Debug)]
pub struct EngineBench {
    /// Image edge (images are `size`×`size`).
    pub size: u32,
    /// Lanes per warp in the simd engine.
    pub warp: usize,
    /// Timed frames per engine per cell.
    pub samples: usize,
    /// Optimizer level the kernels were compiled at (0 or 1).
    pub opt_level: u8,
    /// Per-cell timings.
    pub cells: Vec<CellTiming>,
    /// Streaming-throughput cell (3-stage chain, pipelined vs
    /// sequential per-frame). Populated by [`EngineBench::with_streaming`];
    /// absent in the quick per-engine runs.
    pub streaming: Option<crate::streambench::StreamingBench>,
    /// Fusion-throughput cell (fused vs unfused 3-stage chain).
    /// Populated by [`EngineBench::with_fusion`]; absent in the quick
    /// per-engine runs.
    pub fusion: Option<crate::fusionbench::FusionBench>,
}

/// The benchmark cells: representative local operators from the paper's
/// evaluation plus the interior-only CI gate cell, compiled at
/// `opt_level`.
fn cells(opt_level: u8) -> Vec<(&'static str, Operator)> {
    let mut cells = vec![
        (
            "gaussian3x3",
            gaussian_operator(3, 1.0, BoundaryMode::Clamp),
        ),
        (
            "gaussian5x5",
            gaussian_operator(5, 1.0, BoundaryMode::Clamp),
        ),
        (
            "bilateral13x13",
            bilateral_operator(3, 5, true, BoundaryMode::Clamp),
        ),
        (
            GATE_CELL,
            gaussian_operator(5, 1.0, BoundaryMode::Clamp).with_roi(8, 8, SIZE - 16, SIZE - 16),
        ),
    ];
    for (_, op) in &mut cells {
        op.options.opt_level = opt_level;
    }
    cells
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Time one cell on both engines, asserting agreement with the
/// specification (bit-identical output and [`hipacc_sim::ExecStats`])
/// first.
fn time_cell(name: &'static str, op: &Operator, img: &Image<f32>, samples: usize) -> CellTiming {
    let target = Target::cuda(tesla_c2050());
    let compiled = op.compile(&target, img.width(), img.height()).unwrap();
    let spec = launch_spec(&compiled, &[("Input", img)], &op.params, &op.mask_uploads);

    let (mut mem, params) = launch::bind(&compiled.device_kernel, &spec).unwrap();
    let ref_stats = interp::execute(&compiled.device_kernel, &params, &mut mem).unwrap();
    let ref_output = mem.buffer("OUT").unwrap().to_image();
    for engine in ENGINES {
        let run = run_on_image_with(&compiled.device_kernel, &spec, engine).unwrap();
        assert_eq!(
            ref_stats,
            run.stats,
            "{name}: {} stats diverge from the specification",
            engine.label()
        );
        assert_eq!(
            ref_output.max_abs_diff(&run.output),
            0.0,
            "{name}: {} output diverges from the specification",
            engine.label()
        );
    }

    let engines = ENGINES
        .iter()
        .map(|&engine| {
            let ns = median_ns(samples, || {
                black_box(run_on_image_with(&compiled.device_kernel, &spec, engine).unwrap());
            });
            (engine.label(), ns)
        })
        .collect();
    CellTiming { name, engines }
}

/// Run every cell with `samples` timed frames per engine at the
/// optimizer level from `HIPACC_OPT_LEVEL` (default 1).
pub fn run(samples: usize) -> EngineBench {
    run_at(samples, opt_level_from_env())
}

/// Run every cell with `samples` timed frames per engine, compiling the
/// kernels at an explicit optimizer level.
pub fn run_at(samples: usize, opt_level: u8) -> EngineBench {
    let img = phantom::vessel_tree(SIZE, SIZE, &phantom::VesselParams::default());
    let cells = cells(opt_level)
        .iter()
        .map(|(name, op)| time_cell(name, op, &img, samples))
        .collect();
    EngineBench {
        size: SIZE,
        warp: hipacc_sim::simd::WARP,
        samples,
        opt_level,
        cells,
        streaming: None,
        fusion: None,
    }
}

impl EngineBench {
    /// Look up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&CellTiming> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Run the streaming-throughput cell and attach it to the report
    /// (see [`crate::streambench`]).
    pub fn with_streaming(mut self) -> Self {
        self.streaming = Some(crate::streambench::run());
        self
    }

    /// Run the fusion-throughput cell and attach it to the report (see
    /// [`crate::fusionbench`]).
    pub fn with_fusion(mut self) -> Self {
        self.fusion = Some(crate::fusionbench::run());
        self
    }

    /// The `BENCH_engine.json` document: sizes, warp width and per-cell
    /// ns/frame for every engine. Hand-rolled — every emitted string is
    /// a known identifier with nothing to escape.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"size\":{},\"warp\":{},\"samples\":{},\"opt_level\":{},\"cells\":[",
            self.size, self.warp, self.samples, self.opt_level
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"engines\":{{", cell.name);
            for (j, (engine, ns)) in cell.engines.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{engine}\":{ns:.1}");
            }
            out.push_str("}}");
        }
        out.push(']');
        if let Some(streaming) = &self.streaming {
            let _ = write!(out, ",\"streaming\":{}", streaming.to_json());
        }
        if let Some(fusion) = &self.fusion {
            let _ = write!(out, ",\"fusion\":{}", fusion.to_json());
        }
        out.push('}');
        out
    }

    /// Human-readable table with simd-over-bytecode speedups.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "engine frame times, {0}x{0}, median of {1} (warp width {2}, opt {3}):\n",
            self.size, self.samples, self.warp, self.opt_level
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>12} {:>12} {:>14}",
            "cell", "bytecode", "simd", "simd/bytecode"
        );
        for cell in &self.cells {
            let ms = |e: &str| cell.ns(e).unwrap_or(f64::NAN) / 1e6;
            let _ = writeln!(
                out,
                "  {:<22} {:>9.3} ms {:>9.3} ms {:>13.2}x",
                cell.name,
                ms("bytecode"),
                ms("simd"),
                cell.speedup("simd", "bytecode").unwrap_or(f64::NAN)
            );
        }
        if let Some(streaming) = &self.streaming {
            out.push_str(&streaming.render_text());
        }
        if let Some(fusion) = &self.fusion {
            out.push_str(&fusion.render_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_cell_and_engine() {
        let bench = run_at(1, 1);
        assert_eq!(bench.size, SIZE);
        assert_eq!(bench.warp, hipacc_sim::simd::WARP);
        assert_eq!(bench.opt_level, 1);
        assert_eq!(bench.cells.len(), 4);
        assert!(bench.cell(GATE_CELL).is_some());
        for cell in &bench.cells {
            assert_eq!(cell.engines.len(), ENGINES.len());
            for (_, ns) in &cell.engines {
                assert!(*ns > 0.0, "{}: non-positive time", cell.name);
            }
            assert!(cell.speedup("simd", "bytecode").unwrap() > 0.0);
        }
    }

    #[test]
    fn json_round_trips_through_the_bundled_parser() {
        let bench = run_at(1, 0);
        let doc = hipacc_profile::json::parse(&bench.to_json()).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["size"].as_number(), Some(SIZE as f64));
        assert_eq!(obj["warp"].as_number(), Some(hipacc_sim::simd::WARP as f64));
        assert_eq!(obj["opt_level"].as_number(), Some(0.0));
        let cells = obj["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 4);
        for cell in cells {
            let engines = cell.as_object().unwrap()["engines"].as_object().unwrap();
            assert_eq!(engines.len(), ENGINES.len());
            for engine in ENGINES {
                assert!(engines[engine.label()].as_number().unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn streaming_cell_attaches_to_the_json_report() {
        let bench = run_at(1, 1).with_streaming();
        let streaming = bench.streaming.as_ref().expect("cell attached");
        assert!(streaming.bit_identical);
        let doc = hipacc_profile::json::parse(&bench.to_json()).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["cells"].as_array().unwrap().len(), 4);
        let s = obj["streaming"].as_object().unwrap();
        assert!(s["speedup"].as_number().unwrap() > 0.0);
        assert!(bench.render_text().contains("streaming"));
    }

    #[test]
    fn fusion_cell_attaches_to_the_json_report() {
        let bench = run_at(1, 1).with_fusion();
        let fusion = bench.fusion.as_ref().expect("cell attached");
        assert!(fusion.bit_identical);
        let doc = hipacc_profile::json::parse(&bench.to_json()).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        let f = obj["fusion"].as_object().unwrap();
        assert!(f["speedup"].as_number().unwrap() > 0.0);
        assert!(bench.render_text().contains("fusing"));
    }

    #[test]
    fn text_report_names_every_engine() {
        let bench = run_at(1, 1);
        let text = bench.render_text();
        for needle in ["bytecode", "simd", "gaussian5x5_interior", "opt 1"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
