//! Generators for Tables II–IX.
//!
//! All bilateral tables use the paper's setup: 4096×4096 pixels, filter
//! window 13×13 (σd = 3, σr = 5), kernel configuration 128×1 for all
//! kernels. The Gaussian tables use the framework's automatic kernel
//! configuration, as the paper states for its own implementations.
//!
//! Times come from the analytical timing model; the functional simulator
//! validates the same kernels bit-for-bit on smaller images in the test
//! suites and integration tests.

use crate::cells::{Cell, Table};
use hipacc_baselines::manual::{manual_bilateral, ManualVariant, TexVariant};
use hipacc_baselines::opencv::OpencvSeparable;
use hipacc_baselines::rapidmind::{
    rapidmind_bilateral, with_geometry, RapidMindOutcome, RAPIDMIND_CONFIG,
};
use hipacc_core::{Operator, PipelineOptions, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::gaussian::{default_sigma, gaussian_operator};
use hipacc_hwmodel::{Architecture, Backend};
use hipacc_image::BoundaryMode;

/// Evaluation image edge length.
pub const IMAGE: u32 = 4096;
/// Geometric spread of the bilateral filter (window 13×13).
pub const SIGMA_D: u32 = 3;
/// Photometric spread.
pub const SIGMA_R: u32 = 5;
/// The pinned configuration of Tables II–VII.
pub const TABLE_CONFIG: (u32, u32) = (128, 1);

/// The boundary-mode columns of Tables II–VII, in table order.
pub fn bilateral_columns() -> Vec<(String, BoundaryMode)> {
    BoundaryMode::all()
        .iter()
        .map(|m| (short_mode(m), *m))
        .collect()
}

fn short_mode(m: &BoundaryMode) -> String {
    match m {
        BoundaryMode::Undefined => "Undef.".into(),
        BoundaryMode::Constant(_) => "Const.".into(),
        other => other.name().to_string(),
    }
}

/// The paper's crash rule: on the Tesla (Fermi) CUDA path, implementations
/// that read unallocated memory (Undefined handling through plain global
/// pointers) crash; texture-path reads are clamped by the hardware.
fn crashes(mode: BoundaryMode, target: &Target, reads_global: bool) -> bool {
    mode == BoundaryMode::Undefined
        && target.backend == Backend::Cuda
        && target.device.arch == Architecture::Fermi
        && reads_global
}

/// Estimate one operator cell (compile + analytical model); compile errors
/// surface as "n/a" cells.
fn estimate_cell(op: &Operator, target: &Target, mode: BoundaryMode, reads_global: bool) -> Cell {
    if crashes(mode, target, reads_global) {
        return Cell::Crash;
    }
    match op.compile(target, IMAGE, IMAGE) {
        Ok(compiled) => Cell::Time(op.estimate(&compiled, target).total_ms),
        Err(_) => Cell::NotAvailable,
    }
}

/// A generated-code row variant.
#[derive(Copy, Clone, Debug)]
struct GenVariant {
    tex: bool,
    mask: bool,
}

fn generated_row(v: GenVariant, mode: BoundaryMode, target: &Target) -> Cell {
    let op = bilateral_operator(SIGMA_D, SIGMA_R, v.mask, mode).with_options(PipelineOptions {
        variant: if v.tex {
            hipacc_codegen::MemVariant::Texture
        } else {
            hipacc_codegen::MemVariant::Global
        },
        force_config: Some(TABLE_CONFIG),
        ..PipelineOptions::default()
    });
    estimate_cell(&op, target, mode, !v.tex)
}

fn manual_row(v: ManualVariant, mode: BoundaryMode, target: &Target) -> Cell {
    let op = manual_bilateral(SIGMA_D, SIGMA_R, v, mode, TABLE_CONFIG);
    estimate_cell(&op, target, mode, v.tex == TexVariant::None)
}

fn rapidmind_row(tex: bool, mode: BoundaryMode, target: &Target) -> Cell {
    match rapidmind_bilateral(SIGMA_D, SIGMA_R, mode, target.device.arch, tex) {
        Err(RapidMindOutcome::Crash) => Cell::Crash,
        Err(_) => Cell::NotAvailable,
        Ok(op) => {
            let op = with_geometry(op, IMAGE, IMAGE);
            // RapidMind's fixed work-group must be valid on the device.
            let _ = RAPIDMIND_CONFIG;
            estimate_cell(&op, target, mode, !tex)
        }
    }
}

/// Generate the bilateral table for one target (Tables II–VII).
pub fn bilateral_table(target: &Target, table_no: u32) -> Table {
    let columns = bilateral_columns();
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    let opencl = target.backend == Backend::OpenCl;

    // Manual rows (no-mask first, like the paper).
    let manual_variants = [
        ManualVariant {
            tex: TexVariant::None,
            mask: false,
        },
        ManualVariant {
            tex: TexVariant::Linear,
            mask: false,
        },
        ManualVariant {
            tex: TexVariant::Hw2D,
            mask: false,
        },
        ManualVariant {
            tex: TexVariant::None,
            mask: true,
        },
        ManualVariant {
            tex: TexVariant::Linear,
            mask: true,
        },
        ManualVariant {
            tex: TexVariant::Hw2D,
            mask: true,
        },
    ];
    for v in manual_variants {
        let label = if v == manual_variants[0] {
            "Manual".to_string()
        } else {
            format!("  {}", v.label(opencl))
        };
        let cells = columns
            .iter()
            .map(|(_, m)| manual_row(v, *m, target))
            .collect();
        rows.push((label, cells));
    }

    // Generated rows.
    let gen_variants = [
        (
            GenVariant {
                tex: false,
                mask: false,
            },
            "Generated",
        ),
        (
            GenVariant {
                tex: true,
                mask: false,
            },
            if opencl { "  +Img" } else { "  +Tex" },
        ),
        (
            GenVariant {
                tex: false,
                mask: true,
            },
            "  +Mask",
        ),
        (
            GenVariant {
                tex: true,
                mask: true,
            },
            if opencl { "  +Mask+Img" } else { "  +Mask+Tex" },
        ),
    ];
    for (v, label) in gen_variants {
        let cells = columns
            .iter()
            .map(|(_, m)| generated_row(v, *m, target))
            .collect();
        rows.push((label.to_string(), cells));
    }

    // RapidMind rows exist only in the CUDA tables (Tables II and IV).
    if target.backend == Backend::Cuda {
        for (tex, label) in [(false, "RapidMind"), (true, "  +Tex")] {
            let cells = columns
                .iter()
                .map(|(_, m)| rapidmind_row(tex, *m, target))
                .collect();
            rows.push((label.to_string(), cells));
        }
    }

    Table {
        title: format!(
            "Table {}: Bilateral filter on {} ({}), {}x{} pixels, 13x13 window (sigma_d = 3), config 128x1 [times in ms]",
            roman(table_no),
            target.device.name,
            target.backend.name(),
            IMAGE,
            IMAGE
        ),
        columns: columns.into_iter().map(|(l, _)| l).collect(),
        rows,
    }
}

/// The Gaussian-table boundary columns (no Undefined column).
pub fn gaussian_columns() -> Vec<(String, BoundaryMode)> {
    vec![
        ("Clamp".into(), BoundaryMode::Clamp),
        ("Repeat".into(), BoundaryMode::Repeat),
        ("Mirror".into(), BoundaryMode::Mirror),
        ("Const.".into(), BoundaryMode::Constant(0.0)),
    ]
}

fn gaussian_gen_cell(
    size: u32,
    mode: BoundaryMode,
    target: &Target,
    variant: hipacc_codegen::MemVariant,
) -> Cell {
    let op = gaussian_operator(size, default_sigma(size), mode).with_options(PipelineOptions {
        variant,
        ..PipelineOptions::default()
    });
    // Automatic configuration (the paper: "automatic kernel configuration
    // as determined by our framework").
    match op.compile(target, IMAGE, IMAGE) {
        Ok(compiled) => Cell::Time(op.estimate(&compiled, target).total_ms),
        Err(_) => Cell::NotAvailable,
    }
}

/// Generate one Gaussian table section (Tables VIII/IX, one window size).
pub fn gaussian_table(device_target: &Target, size: u32, table_no: u32) -> Table {
    use hipacc_codegen::MemVariant as MV;
    let columns = gaussian_columns();
    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();

    // OpenCV rows (CUDA backend, as in the paper).
    for (ppt, label) in [(8u32, "OpenCV: PPT=8"), (1, "OpenCV: PPT=1")] {
        let cells = columns
            .iter()
            .map(|(_, m)| {
                let cv = OpencvSeparable {
                    size,
                    sigma: default_sigma(size),
                    ppt,
                    mode: *m,
                };
                Cell::Time(cv.estimate(device_target, IMAGE, IMAGE).total_ms)
            })
            .collect();
        rows.push((label.to_string(), cells));
    }

    // Our generated rows, CUDA then OpenCL.
    let cuda = Target::cuda(device_target.device.clone());
    let ocl = Target::opencl(device_target.device.clone());
    let variants: [(MV, &str); 3] = [
        (MV::Global, "Gen"),
        (MV::Texture, "+Tex"),
        (MV::Scratchpad, "+Smem"),
    ];
    for (backend_target, backend_label, img_label, smem_label) in [
        (&cuda, "CUDA", "+Tex", "+Smem"),
        (&ocl, "OpenCL", "+Img", "+Lmem"),
    ] {
        for (mv, label) in variants {
            let label = match label {
                "Gen" => format!("{backend_label}(Gen)"),
                "+Tex" => format!("{backend_label}({img_label})"),
                _ => format!("{backend_label}({smem_label})"),
            };
            let cells = columns
                .iter()
                .map(|(_, m)| gaussian_gen_cell(size, *m, backend_target, mv))
                .collect();
            rows.push((label, cells));
        }
    }

    Table {
        title: format!(
            "Table {}: Gaussian {}x{} on {}, {}x{} pixels [times in ms]",
            roman(table_no),
            size,
            size,
            device_target.device.name,
            IMAGE,
            IMAGE
        ),
        columns: columns.into_iter().map(|(l, _)| l).collect(),
        rows,
    }
}

fn roman(n: u32) -> &'static str {
    match n {
        2 => "II",
        3 => "III",
        4 => "IV",
        5 => "V",
        6 => "VI",
        7 => "VII",
        8 => "VIII",
        9 => "IX",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::tesla_c2050;

    #[test]
    fn table2_shape_and_crash_cells() {
        let t = bilateral_table(&Target::cuda(tesla_c2050()), 2);
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.rows.len(), 12); // 6 manual + 4 generated + 2 RapidMind
                                      // Tesla CUDA: global-path Undefined crashes …
        assert_eq!(t.cell("Manual", "Undef."), Some(Cell::Crash));
        assert_eq!(t.cell("  +Mask", "Undef."), Some(Cell::Crash));
        // … but texture paths survive.
        assert!(t.cell("  +Tex", "Undef.").unwrap().time().is_some());
        // 2D textures have no Mirror/Const hardware modes on CUDA.
        assert_eq!(t.cell("  +2DTex", "Mirror"), Some(Cell::NotAvailable));
        assert_eq!(t.cell("  +2DTex", "Const."), Some(Cell::NotAvailable));
        // RapidMind: Repeat crashes on Fermi, Mirror is n/a.
        assert_eq!(t.cell("RapidMind", "Repeat"), Some(Cell::Crash));
        assert_eq!(t.cell("RapidMind", "Mirror"), Some(Cell::NotAvailable));
        assert!(t.cell("RapidMind", "Clamp").unwrap().time().is_some());
    }

    #[test]
    fn generated_times_are_mode_insensitive() {
        // The paper's headline property: generated code has (nearly)
        // constant performance across boundary modes.
        let t = bilateral_table(&Target::cuda(tesla_c2050()), 2);
        // Row 9 is the *generated* +Mask+Tex (rows 0-5 are manual, which
        // share labels with the generated section, as in the paper).
        assert_eq!(t.rows[9].0, "  +Mask+Tex");
        let times: Vec<f64> = t.rows[9].1[1..5].iter().filter_map(|x| x.time()).collect();
        assert_eq!(times.len(), 4);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.10, "generated times vary too much: {times:?}");
    }

    #[test]
    fn mask_rows_beat_no_mask_rows() {
        let t = bilateral_table(&Target::cuda(tesla_c2050()), 2);
        let gen = t.cell("Generated", "Clamp").unwrap().time().unwrap();
        let gen_mask = t.cell("  +Mask", "Clamp").unwrap().time();
        // "  +Mask" row label collides between manual and generated rows;
        // use row order instead: generated +Mask is row index 8.
        let gen_mask = t.rows[8].1[1].time().or(gen_mask).unwrap();
        assert!(
            gen_mask < gen,
            "constant-memory masks must pay off: {gen_mask} vs {gen}"
        );
    }
}
