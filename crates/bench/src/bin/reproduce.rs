//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce --all            # every table and figure, with paper comparison
//! reproduce --table 2        # one table
//! reproduce --figure 4       # one figure
//! reproduce --loc            # the §VI-C lines-of-code metric
//! reproduce --inject 42      # seeded fault-injection drill under the supervisor
//! reproduce --explain A0301  # describe one diagnostic code (or `all`)
//! reproduce --replay PATH    # re-execute recorded stream failures, assert their codes
//! reproduce --bless          # rewrite tests/compile_catalogue.txt from the compiler
//! ```
//!
//! A missing or malformed option value prints the usage line and exits 2.

use hipacc_bench::render::{render_csv, render_text};
use hipacc_bench::report;
use hipacc_bench::tables::{bilateral_table, gaussian_table};
use hipacc_core::Target;
use hipacc_hwmodel::device::{quadro_fx_5800, tesla_c2050};

const USAGE: &str = "usage: reproduce [--all] [--table N] [--figure N] [--loc] [--ablation] [--csv DIR] [--raw N] [--profile [TRACE]] [--inject SEED] [--explain CODE] [--replay PATH] [--bless]";

/// Report a command-line mistake with the usage line and exit 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("reproduce: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `args[*i]`, parsed; advances `i` past it. A missing or
/// malformed value is a [`usage_error`].
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i) {
        None => usage_error(&format!("{flag} needs a value")),
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag}: bad value {v:?}"))),
    }
}

/// Profile representative launches (Gaussian 5x5 and bilateral 13x13 on
/// the Tesla C2050) and write the combined Chrome trace to `path`.
fn print_profile(path: &str) {
    use hipacc_filters::bilateral::bilateral_operator;
    use hipacc_filters::gaussian::gaussian_operator;
    use hipacc_image::{phantom, BoundaryMode};

    let image = phantom::vessel_tree(512, 512, &phantom::VesselParams::default());
    let target = Target::cuda(tesla_c2050());
    let mut spans = Vec::new();
    for (label, op) in [
        (
            "gaussian 5x5",
            gaussian_operator(5, 1.1, BoundaryMode::Clamp),
        ),
        (
            "bilateral 13x13",
            bilateral_operator(3, 5, true, BoundaryMode::Clamp),
        ),
    ] {
        let (_, profile) = op
            .execute_profiled(
                &[("Input", &image)],
                &target,
                hipacc_core::Engine::default(),
            )
            .expect("profiled launch");
        profile.cross_check().expect("region cross-check");
        println!("--- {label} ---");
        println!("{}", profile.render_text());
        spans.extend(profile.spans);
    }
    let trace = hipacc_profile::chrome::trace_json(&spans);
    let n = hipacc_profile::chrome::validate(&trace).expect("trace must validate");
    std::fs::write(path, &trace).expect("write trace");
    println!("wrote {n} trace events to {path}\n");
}

/// Run representative filters under the launch supervisor with a seeded
/// fault plan arming every fault class, and print each recovery log.
/// Exits non-zero on silent corruption (a recovered output that is not
/// bit-identical to the fault-free reference).
fn print_inject(seed: u64) {
    use hipacc_core::{Engine, FaultPlan, SupervisorConfig};
    use hipacc_filters::bilateral::bilateral_operator;
    use hipacc_filters::gaussian::gaussian_operator;
    use hipacc_filters::sobel::sobel_operator;
    use hipacc_image::{phantom, BoundaryMode};

    let image = phantom::vessel_tree(256, 256, &phantom::VesselParams::default());
    let target = Target::cuda(tesla_c2050());
    let engine = Engine::default();
    let cfg = SupervisorConfig::default();
    println!("Fault injection drill, seed {seed} (Tesla C2050, CUDA)");
    for (i, (label, op)) in [
        (
            "gaussian 5x5",
            gaussian_operator(5, 1.1, BoundaryMode::Clamp),
        ),
        (
            "bilateral 13x13",
            bilateral_operator(3, 5, true, BoundaryMode::Clamp),
        ),
        ("sobel-x 3x3", sobel_operator(true, BoundaryMode::Clamp)),
    ]
    .into_iter()
    .enumerate()
    {
        // Store and latency faults only: a hang would dominate every run
        // on a grid this size (the hung-worker drill lives in
        // `examples/fault_drill.rs`).
        let plan = FaultPlan {
            seed: seed.wrapping_add(i as u64),
            global_flip_rate: 0.01,
            drop_rate: 0.01,
            poison_boundary_rate: 0.02,
            stall_rate: 0.05,
            stall_us: 20,
            deadline_us: Some(50_000),
            ..FaultPlan::default()
        };
        let reference = op
            .execute_with(&[("Input", &image)], &target, engine)
            .expect("fault-free reference");
        println!("--- {label} ---");
        match op.execute_supervised(&[("Input", &image)], &target, engine, &plan, &cfg) {
            Ok(sup) => {
                if reference.output.max_abs_diff(&sup.execution.output) != 0.0 {
                    eprintln!("SILENT CORRUPTION under {plan}");
                    std::process::exit(1);
                }
                print!("{}", sup.recovery.render_text());
                println!("validated: output bit-identical to fault-free reference\n");
            }
            Err(e) => {
                print!("{}", e.report.render_text());
                println!("surfaced typed error: {}\n", e.error.diagnostic());
            }
        }
    }
}

/// Re-execute the failing launch(es) a replay file describes — either a
/// single `ReplayBundle` JSON or a stream report carrying a `replay`
/// array — against the canonical streaming chain, and assert each one
/// reproduces exactly the diagnostic code it recorded. Exits non-zero
/// on any mismatch, so CI can gate on bit-deterministic replay, and on a
/// file it cannot read, parse or accept as bundles.
fn print_replay(path: &str) {
    use hipacc_filters::gaussian::gaussian_operator;
    use hipacc_filters::laplacian::laplacian_operator;
    use hipacc_filters::sobel::sobel_operator;
    use hipacc_image::BoundaryMode;
    use hipacc_runtime::{replay, Stream};

    let bundles = read_bundles(path).unwrap_or_else(|e| {
        eprintln!("reproduce --replay: {e}");
        std::process::exit(1);
    });
    if bundles.is_empty() {
        println!("no replay bundles in {path}: nothing failed, nothing to reproduce\n");
        return;
    }
    // The canonical chain of the streaming examples; the bundle's stage
    // names are validated against it by `replay`.
    let m = BoundaryMode::Clamp;
    let chain = Stream::new("replay", Target::cuda(tesla_c2050()))
        .stage("gauss5", gaussian_operator(5, 1.1, m))
        .stage("sobel", sobel_operator(true, m))
        .stage("laplace", laplacian_operator(m));
    let target = Target::cuda(tesla_c2050());
    let mut mismatches = 0u32;
    for b in &bundles {
        match replay(b, chain.stages(), &target) {
            Ok(code) if code == b.expected_code => {
                println!(
                    "replayed frame {} at `{}` (rung `{}`, attempt {}): reproduced {code}",
                    b.seq, b.stage, b.rung, b.attempt
                );
            }
            Ok(code) => {
                eprintln!(
                    "replayed frame {} at `{}`: got {code}, bundle expected {}",
                    b.seq, b.stage, b.expected_code
                );
                mismatches += 1;
            }
            Err(e) => {
                eprintln!("replay of frame {} at `{}` failed: {e}", b.seq, b.stage);
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} bundle(s) did not reproduce their recorded code");
        std::process::exit(1);
    }
    println!(
        "ok: {} replay bundle(s) reproduced their diagnostic codes\n",
        bundles.len()
    );
}

/// The bundles of a replay file: its `replay` array, or the whole
/// document as one bundle.
fn read_bundles(path: &str) -> Result<Vec<hipacc_runtime::ReplayBundle>, String> {
    use hipacc_profile::json::{self, Value};
    use hipacc_runtime::ReplayBundle;

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc
        .as_object()
        .and_then(|o| o.get("replay"))
        .and_then(Value::as_array)
    {
        Some(arr) => arr
            .iter()
            .enumerate()
            .map(|(i, v)| {
                ReplayBundle::from_value(v).map_err(|e| format!("{path}: replay[{i}]: {e}"))
            })
            .collect(),
        None => Ok(vec![
            ReplayBundle::from_value(&doc).map_err(|e| format!("{path}: {e}"))?
        ]),
    }
}

/// Describe one diagnostic code from the stable registry, or the whole
/// registry for `all`. Unknown codes list the valid ones and exit 2.
fn print_explain(code: &str) {
    use hipacc_core::{diagnostic_registry, explain};

    let render = |info: &hipacc_core::CodeInfo| {
        println!("{}  [{}]", info.code, info.origin);
        println!("  {}", info.summary);
        println!("  {}\n", info.advice);
    };
    if code.eq_ignore_ascii_case("all") {
        for info in diagnostic_registry() {
            render(info);
        }
        return;
    }
    match explain(code) {
        Some(info) => render(info),
        None => {
            let known: Vec<&str> = diagnostic_registry().iter().map(|c| c.code).collect();
            eprintln!(
                "unknown diagnostic code {code:?}; known codes: {}",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut did_anything = false;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => {
                print!("{}", report::render_all());
                did_anything = true;
            }
            "--table" => {
                let n = value(&args, &mut i);
                let text = report::table(n)
                    .unwrap_or_else(|| usage_error(&format!("unknown table {n} (valid: 2..9)")));
                print!("{text}");
                did_anything = true;
            }
            "--figure" => {
                let n = value(&args, &mut i);
                let text = report::figure(n)
                    .unwrap_or_else(|| usage_error(&format!("unknown figure {n} (valid: 3, 4)")));
                print!("{text}");
                did_anything = true;
            }
            "--loc" => {
                print!("{}", report::loc());
                did_anything = true;
            }
            "--ablation" => {
                print!("{}", report::ablations());
                did_anything = true;
            }
            "--csv" => {
                // Write every model table as CSV into a directory.
                let dir: std::path::PathBuf = value(&args, &mut i);
                std::fs::create_dir_all(&dir).expect("create csv dir");
                let targets = Target::evaluation_targets();
                for n in 2u32..=7 {
                    let model = bilateral_table(&targets[(n - 2) as usize], n);
                    std::fs::write(dir.join(format!("table{n}.csv")), render_csv(&model))
                        .expect("write csv");
                }
                for (n, dev) in [(8u32, tesla_c2050()), (9, quadro_fx_5800())] {
                    for size in [3u32, 5] {
                        let model = gaussian_table(&Target::cuda(dev.clone()), size, n);
                        std::fs::write(
                            dir.join(format!("table{n}_{size}x{size}.csv")),
                            render_csv(&model),
                        )
                        .expect("write csv");
                    }
                }
                println!("wrote CSVs to {}", dir.display());
                did_anything = true;
            }
            "--profile" => {
                // Optional trace path; the next flag is not consumed.
                let path = match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "target/reproduce_profile.json".to_string(),
                };
                print_profile(&path);
                did_anything = true;
            }
            "--explain" => {
                i += 1;
                print_explain(args.get(i).map(String::as_str).unwrap_or("all"));
                did_anything = true;
            }
            "--replay" => {
                print_replay(&value::<String>(&args, &mut i));
                did_anything = true;
            }
            "--bless" => {
                let text = hipacc_bench::catalogue::render();
                std::fs::write(hipacc_bench::catalogue::PATH, &text).expect("write catalogue");
                println!(
                    "wrote {} catalogue rows to {}",
                    text.lines().count(),
                    hipacc_bench::catalogue::PATH
                );
                did_anything = true;
            }
            "--inject" => {
                print_inject(value(&args, &mut i));
                did_anything = true;
            }
            "--raw" => {
                // Raw model tables without paper comparison.
                let n: u32 = value(&args, &mut i);
                if !(2..=7).contains(&n) {
                    usage_error(&format!("--raw covers tables 2..7, not {n}"));
                }
                let targets = Target::evaluation_targets();
                let model = bilateral_table(&targets[(n - 2) as usize], n);
                print!("{}", render_text(&model));
                did_anything = true;
            }
            other => usage_error(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if !did_anything {
        usage_error("nothing to do");
    }
}
