//! The text the `reproduce` binary prints for the paper's tables and
//! figures, model first and the paper's numbers beside it.
//! [`render_all`] is the `--all` report; EXPERIMENTS.md quotes it byte
//! for byte and `tests/reproduction_guard.rs` holds it there.

use crate::ablation;
use crate::figures::{figure3, figure4, loc_metric};
use crate::paper;
use crate::render::{paired_times, render_comparison, spearman};
use crate::tables::{bilateral_table, gaussian_table};
use hipacc_core::Target;
use hipacc_hwmodel::device::{quadro_fx_5800, tesla_c2050};
use std::fmt::Write;

/// One model table beside the paper's (`n` in `2..=9`), with the rank
/// correlation of their times; `None` for any other `n`.
pub fn table(n: u32) -> Option<String> {
    let mut out = String::new();
    let mut compare = |model, paper| {
        out.push_str(&render_comparison(&model, paper));
        let (m, p) = paired_times(&model, paper);
        if m.len() > 2 {
            let _ = writeln!(
                out,
                "rank correlation (Spearman): {:.2}\n",
                spearman(&m, &p)
            );
        }
    };
    match n {
        2..=7 => {
            let target = &Target::evaluation_targets()[(n - 2) as usize];
            compare(
                bilateral_table(target, n),
                paper::bilateral_tables()[(n - 2) as usize],
            );
        }
        8 | 9 => {
            let dev = if n == 8 {
                tesla_c2050()
            } else {
                quadro_fx_5800()
            };
            for (size, pt) in [(3u32, 0usize), (5, 1)] {
                let model = gaussian_table(&Target::cuda(dev.clone()), size, n);
                compare(
                    model,
                    paper::gaussian_tables()[if n == 8 { pt } else { 2 + pt }].2,
                );
            }
        }
        _ => return None,
    }
    Some(out)
}

/// Figure 3 (block-to-region assignment) or Figure 4 (configuration
/// exploration); `None` for any other `n`.
pub fn figure(n: u32) -> Option<String> {
    let mut out = String::new();
    match n {
        3 => {
            out.push_str(
                "Figure 3: block-to-region assignment (256x96 image, 32x6 blocks, 13x13 window)\n",
            );
            for row in figure3(256, 96, (32, 6)) {
                let _ = writeln!(out, "  {row}");
            }
            out.push('\n');
        }
        4 => {
            let e = figure4();
            out.push_str(
                "Figure 4: configuration exploration, bilateral 13x13, 4096^2, Tesla C2050 (CUDA)\n",
            );
            let _ = writeln!(
                out,
                "  {:>6} {:>9} {:>10} {:>10}",
                "config", "threads", "occupancy", "time_ms"
            );
            let mut pts = e.points.clone();
            pts.sort_by_key(|p| (p.threads, p.by));
            for p in &pts {
                let _ = writeln!(
                    out,
                    "  {:>3}x{:<3} {:>8} {:>10.3} {:>10.2}",
                    p.bx, p.by, p.threads, p.occupancy, p.time_ms
                );
            }
            let _ = writeln!(
                out,
                "  heuristic choice: {} -> {:.2} ms",
                e.heuristic_choice, e.heuristic_time_ms
            );
            let _ = writeln!(
                out,
                "  sweep optimum:    {}x{} -> {:.2} ms",
                e.optimum.bx, e.optimum.by, e.optimum.time_ms
            );
            let (bx, by, ms) = paper::FIG4_OPTIMUM;
            let _ = writeln!(out, "  paper optimum:    {bx}x{by} -> {ms:.2} ms\n");
        }
        _ => return None,
    }
    Some(out)
}

/// The §VI-C lines-of-code metric beside the paper's.
pub fn loc() -> String {
    let (dsl, generated) = loc_metric();
    let (paper_dsl, paper_generated) = paper::LOC_METRIC;
    format!(
        "Lines of code (SVI-C): DSL kernel {dsl} lines -> generated CUDA {generated} lines\n\
         Paper reported: {paper_dsl} -> {paper_generated}\n\n"
    )
}

/// What each design choice is worth, at the paper's scale.
pub fn ablations() -> String {
    let mut out =
        String::from("Ablations: what each design choice is worth (bilateral 13x13, 4096^2)\n");
    let _ = writeln!(
        out,
        "  {:<58} {:>10} {:>10} {:>8}",
        "feature", "with ms", "without", "factor"
    );
    for a in ablation::all_ablations() {
        let _ = writeln!(
            out,
            "  {:<58} {:>10.2} {:>10.2} {:>7.2}x",
            a.name,
            a.baseline_ms,
            a.ablated_ms,
            a.factor()
        );
    }
    let (g, s) = ablation::sobel_equals_gaussian();
    let _ = writeln!(
        out,
        "  Sobel vs Gaussian 3x3 (paper: identical): {g:.2} vs {s:.2} ms\n"
    );
    out
}

/// Every table, both figures, the LoC metric and the ablations: the
/// `reproduce --all` report.
pub fn render_all() -> String {
    let mut out: String = (2..=9).filter_map(table).collect();
    out.extend([3, 4].into_iter().filter_map(figure));
    out.push_str(&loc());
    out.push_str(&ablations());
    out
}
