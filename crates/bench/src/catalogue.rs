//! The compile catalogue: one line per compiled case of the `cold_sweep`
//! operator set, pinning what the compiler produces.
//!
//! The cases are the 9 sweep operators × 4 border modes × 6 evaluation
//! targets at 16² and 256² with `opt_level` 1, plus 256² with `opt_level`
//! 0. Each line holds FNV-1a 64-bit digests of the device and host
//! sources, the launch configuration, the grid, the region grid, the
//! optimizer report and the warning codes, so a change to the compiler
//! that moves any generated artifact moves a line. `tests/compile_catalogue.rs`
//! regenerates the text and compares it with [`PATH`];
//! `reproduce --bless` rewrites that file.

use hipacc_core::{Operator, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::boxf::box_operator;
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::median::median3_operator;
use hipacc_filters::sobel::{sobel_magnitude_operator, sobel_operator};
use hipacc_image::BoundaryMode;
use std::fmt::Write;

/// The committed catalogue, relative to this crate's manifest.
pub const PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/compile_catalogue.txt"
);

/// The sweep's border modes.
const MODES: [BoundaryMode; 4] = [
    BoundaryMode::Clamp,
    BoundaryMode::Repeat,
    BoundaryMode::Mirror,
    BoundaryMode::Constant(0.25),
];

/// Builds one sweep operator for a border mode.
type Build = fn(BoundaryMode) -> Operator;

/// The sweep's nine operators, by name.
fn operators() -> Vec<(&'static str, Build)> {
    vec![
        ("gauss3", |m| gaussian_operator(3, 0.8, m)),
        ("gauss5", |m| gaussian_operator(5, 1.1, m)),
        ("box7", |m| box_operator(7, 7, m)),
        ("sobel_x", |m| sobel_operator(true, m)),
        ("sobel_mag", sobel_magnitude_operator),
        ("laplace", laplacian_operator),
        ("median3", median3_operator),
        ("bilateral13", |m| bilateral_operator(3, 5, true, m)),
        ("bilateral5", |m| bilateral_operator(1, 5, false, m)),
    ]
}

/// `(size, opt_level)` of each catalogue section.
const SECTIONS: [(u32, u8); 3] = [(16, 1), (256, 1), (256, 0)];

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One catalogue line for one compile.
fn line(
    (name, build): (&str, Build),
    mode: BoundaryMode,
    target: &Target,
    size: u32,
    opt: u8,
) -> String {
    let mut op = build(mode);
    op.options.opt_level = opt;
    let mut out = format!(
        "{name} {mode:?} | {} | {size}x{size} opt{opt} | ",
        target.label()
    );
    match op.compile(target, size, size) {
        Err(e) => write!(out, "error {e}").unwrap(),
        Ok(c) => {
            let codes: Vec<&str> = c.diagnostics.iter().map(|d| d.code).collect();
            write!(
                out,
                "dev {:016x} host {:016x} | config {}x{} grid {}x{} | regions {:?} | {:?} | diags [{}]",
                fnv64(c.source.as_bytes()),
                fnv64(c.host_source.as_bytes()),
                c.config.bx,
                c.config.by,
                c.grid.0,
                c.grid.1,
                c.region_grid,
                c.opt,
                codes.join(",")
            )
            .unwrap();
        }
    }
    out
}

/// The whole catalogue text, one line per case, in section, operator,
/// mode, target order.
pub fn render() -> String {
    let targets = Target::evaluation_targets();
    let mut text = String::new();
    for (size, opt) in SECTIONS {
        for op in operators() {
            for mode in MODES {
                for target in &targets {
                    text.push_str(&line(op, mode, target, size, opt));
                    text.push('\n');
                }
            }
        }
    }
    text
}
