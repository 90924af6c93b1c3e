//! The repository's host-time benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hipacc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of stdout is the result
//! hipacc-benchmark [--seed N] [--seconds S] [--out FILE]
//!     the whole set, untraced and traced, every metric printed
//! hipacc-benchmark --noise [--seed N] [--seconds S]
//!     the set twice, compared with itself
//! hipacc-benchmark --compare BASE.json NEW.json
//!     judge two sets by the bounds of BENCHMARK.json
//! ```

mod catalog;
mod inputs;
mod layers;
mod reference;
mod run;
#[cfg(test)]
mod selftest;
mod set;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    noise: bool,
    out: String,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        noise: false,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.json").to_string(),
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if catalog::workload(&name).is_none() {
                    let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}`; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--quick" => args.quick = true,
            "--noise" => args.noise = true,
            "--out" => args.out = value(&mut it, flag)?,
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The `HIPACC_*` variables among `names`. They silently change engine,
/// thread counts, queue sizes, deadlines or the optimizer; the benchmark
/// passes all of these explicitly and refuses to run under any of them.
fn hipacc_vars(names: impl Iterator<Item = String>) -> Vec<String> {
    let mut set: Vec<String> = names.filter(|k| k.starts_with("HIPACC_")).collect();
    set.sort();
    set
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((base, new)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (report, pass) = set::compare(&read(base)?, &read(new)?)?;
        print!("{report}");
        return Ok(pass);
    }
    let env = hipacc_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !env.is_empty() {
        return Err(format!(
            "refusing to measure with {} set: unset it, the benchmark names engine, threads, workers and optimizer level itself",
            env.join(", ")
        ));
    }
    if let Some(workload) = args.workload {
        let run_args = run::RunArgs {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
        };
        println!(
            "{} seed {} seconds {} trace {}{}; {}",
            run_args.workload,
            run_args.seed,
            run_args.seconds,
            u8::from(run_args.trace),
            if run_args.quick { " quick" } else { "" },
            set::Env::record().to_text()
        );
        let result = run::run(&run_args)?;
        print!("{}", result.to_text());
        println!("{}", result.to_json());
        return Ok(true);
    }
    let first = set::run_set(args.seed, args.seconds, args.quick)?;
    let write = |path: &str, doc: &str| -> Result<(), String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))
    };
    write(&args.out, &first)?;
    println!("\nset written to {}", args.out);
    if !args.noise {
        return Ok(true);
    }
    println!("\n--noise: the same set once more");
    let second = set::run_set(args.seed, args.seconds, args.quick)?;
    write(&format!("{}.second", args.out), &second)?;
    let (report, pass) = set::compare(&first, &second)?;
    print!("\n{report}");
    Ok(pass)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hipacc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
