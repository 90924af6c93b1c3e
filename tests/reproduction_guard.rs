//! Regression guard over the reproduction quality itself: if a future
//! change to the compiler, the counters or the device models degrades the
//! paper-vs-model agreement, these tests fail before EXPERIMENTS.md can
//! silently rot.
//!
//! Thresholds are set looser than the current results (geo-mean 0.85–1.02,
//! Spearman up to 0.92) so legitimate refactors have headroom, but tight
//! enough that a broken model cannot pass.

use hipacc_bench::paper;
use hipacc_bench::render::{geometric_mean, paired_times, spearman};
use hipacc_bench::tables::bilateral_table;
use hipacc_core::Target;

fn table_stats(index: usize, number: u32) -> (f64, f64, usize) {
    let target = &Target::evaluation_targets()[index];
    let model = bilateral_table(target, number);
    let paper = paper::bilateral_tables()[index];
    let (m, p) = paired_times(&model, paper);
    let ratios: Vec<f64> = m.iter().zip(&p).map(|(a, b)| a / b).collect();
    (geometric_mean(&ratios), spearman(&m, &p), m.len())
}

#[test]
fn table2_reproduction_quality_holds() {
    let (gm, rho, n) = table_stats(0, 2);
    assert!(n >= 45, "cells missing: {n}");
    assert!(
        (0.75..=1.30).contains(&gm),
        "Table II geo-mean drifted: {gm:.2}"
    );
    assert!(rho >= 0.80, "Table II rank correlation fell: {rho:.2}");
}

#[test]
fn table4_reproduction_quality_holds() {
    let (gm, rho, n) = table_stats(2, 4);
    assert!(n >= 50, "cells missing: {n}");
    assert!(
        (0.75..=1.30).contains(&gm),
        "Table IV geo-mean drifted: {gm:.2}"
    );
    assert!(rho >= 0.75, "Table IV rank correlation fell: {rho:.2}");
}

#[test]
fn amd_tables_stay_in_band() {
    for (index, number) in [(4usize, 6u32), (5, 7)] {
        let (gm, _, n) = table_stats(index, number);
        assert!(n >= 45);
        assert!(
            (0.70..=1.45).contains(&gm),
            "Table {number} geo-mean drifted: {gm:.2}"
        );
    }
}

#[test]
fn crash_and_na_cells_stay_reproduced() {
    use hipacc_bench::cells::Cell;
    let t = bilateral_table(&Target::evaluation_targets()[0], 2);
    // The qualitative cells of Table II that must never regress.
    assert_eq!(t.cell("Manual", "Undef."), Some(Cell::Crash));
    assert_eq!(t.cell("  +2DTex", "Mirror"), Some(Cell::NotAvailable));
    assert_eq!(t.cell("RapidMind", "Repeat"), Some(Cell::Crash));
    assert_eq!(t.cell("RapidMind", "Mirror"), Some(Cell::NotAvailable));
}

#[test]
fn heuristic_still_picks_the_papers_configuration() {
    use hipacc_filters::bilateral::bilateral_operator;
    use hipacc_image::BoundaryMode;
    let op = bilateral_operator(3, 5, true, BoundaryMode::Clamp);
    let c = op
        .compile(
            &Target::cuda(hipacc_hwmodel::device::tesla_c2050()),
            4096,
            4096,
        )
        .unwrap();
    assert_eq!((c.config.bx, c.config.by), (32, 6), "Figure 4's optimum");
}

/// EXPERIMENTS.md quotes `reproduce --all` byte for byte: a change that
/// moves a modelled time, a table cell or the LoC count fails here,
/// naming the first line that differs.
#[test]
fn experiments_md_quotes_the_full_report() {
    let doc = include_str!("../EXPERIMENTS.md");
    let head = doc
        .find("## Full paper-vs-model tables")
        .expect("EXPERIMENTS.md has the full-tables section");
    let open = head + doc[head..].find("```text\n").expect("fenced block") + "```text\n".len();
    let close = open + doc[open..].find("```").expect("closing fence");
    let quoted = &doc[open..close];
    let first_line = doc[..open].lines().count() + 1;

    let rendered = hipacc_bench::report::render_all();
    let (q, r): (Vec<&str>, Vec<&str>) = (quoted.lines().collect(), rendered.lines().collect());
    if let Some(i) = (0..q.len().max(r.len())).find(|&i| q.get(i) != r.get(i)) {
        panic!(
            "EXPERIMENTS.md:{}: quoted {:?}, `reproduce --all` prints {:?}",
            first_line + i,
            q.get(i),
            r.get(i)
        );
    }
    assert_eq!(quoted, rendered, "the report's trailing blank lines differ");
}
