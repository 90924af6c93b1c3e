//! The whole set in one command, and the tools that judge two sets:
//! `--compare` and `--noise`.
//!
//! Each workload runs in a fresh child process — one at a time, so only
//! one load generator exists — which makes `peak_rss_mb` per workload.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{metrics_json, unit_of};
use hipacc_profile::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// Where the driver's contract lives; `--compare` takes its bounds from it.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The machine and build a set was measured on.
pub struct Env {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Env {
    pub fn record() -> Env {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        Env {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: rustc.unwrap_or_else(|| "unknown".into()),
            commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_text(&self) -> String {
        format!(
            "nproc {}, {}, commit {}",
            self.nproc, self.rustc, self.commit
        )
    }
}

/// The checked-out commit, read from the repository's `.git` without
/// running git. `None` outside a git checkout (the driver's, for one).
fn git_head() -> Option<String> {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = std::fs::read_to_string(format!("{git}/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!("{git}/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(format!("{git}/packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}

/// One workload's two runs, as parsed from the children's result lines.
#[derive(Default)]
pub struct WorkloadRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
}

/// Run one workload in a child process and parse its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

/// The `{"name":{"value":…,"unit":…},…}` table under `key`, by name.
fn metrics_of(record: &Value, key: &str) -> BTreeMap<String, f64> {
    let table = record.as_object().and_then(|o| o.get(key)?.as_object());
    table
        .into_iter()
        .flatten()
        .filter_map(|(name, m)| Some((name.clone(), m.as_object()?.get("value")?.as_number()?)))
        .collect()
}

fn is_correct(record: &Value) -> bool {
    matches!(
        record.as_object().and_then(|o| o.get("correct")),
        Some(Value::Bool(true))
    )
}

fn count_of(result: &Value, key: &str) -> u64 {
    result
        .as_object()
        .and_then(|o| o.get(key)?.as_number())
        .map_or(0, |n| n as u64)
}

/// Run every workload untraced then traced, print every metric, and
/// return the set as a JSON document.
pub fn run_set(seed: u64, seconds: f64, quick: bool) -> Result<String, String> {
    let env = Env::record();
    println!(
        "hipacc-benchmark: seed {seed}, {seconds} s per run, {}",
        env.to_text()
    );
    let mut records = BTreeMap::new();
    for w in WORKLOADS {
        let plain = child(w.name, seed, seconds, false, quick)?;
        let traced = child(w.name, seed, seconds, true, quick)?;
        let rec = WorkloadRecord {
            correct: is_correct(&plain) && is_correct(&traced),
            attempted: count_of(&plain, "attempted") + count_of(&traced, "attempted"),
            failed: count_of(&plain, "failed") + count_of(&traced, "failed"),
            end_to_end: metrics_of(&plain, "metrics"),
            per_layer: metrics_of(&traced, "metrics"),
        };
        println!(
            "\n{} ({})\n  {} of {} frames verified{}",
            w.name,
            w.why,
            rec.attempted - rec.failed,
            rec.attempted,
            if rec.correct { "" } else { "  ** INCORRECT **" }
        );
        for (name, v) in rec.end_to_end.iter().chain(&rec.per_layer) {
            println!("  {name:<36} {v:>16.6} {}", unit_of(name));
        }
        records.insert(w.name, rec);
    }
    Ok(set_json(seed, seconds, &env, &records))
}

fn set_json(
    seed: u64,
    seconds: f64,
    env: &Env,
    records: &BTreeMap<&str, WorkloadRecord>,
) -> String {
    let workloads: Vec<String> = records
        .iter()
        .map(|(name, r)| {
            format!(
                "\"{name}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
                r.correct,
                r.attempted,
                r.failed,
                metrics_json(&r.end_to_end),
                metrics_json(&r.per_layer)
            )
        })
        .collect();
    format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"env\":{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}},\"workloads\":{{{}}}}}",
        env.nproc,
        json::escape(&env.rustc),
        json::escape(&env.commit),
        workloads.join(",")
    )
}

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .as_object()
        .and_then(|o| o.get("end_to_end")?.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_number()?,
            ))
        })
        .collect())
}

fn parse_set(doc: &str) -> Result<BTreeMap<String, WorkloadRecord>, String> {
    let doc = json::parse(doc).map_err(|e| e.to_string())?;
    let workloads = doc
        .as_object()
        .and_then(|o| o.get("workloads")?.as_object())
        .ok_or("not a benchmark set: no `workloads`")?;
    Ok(workloads
        .iter()
        .map(|(name, w)| {
            let rec = WorkloadRecord {
                correct: is_correct(w),
                attempted: count_of(w, "attempted"),
                failed: count_of(w, "failed"),
                end_to_end: metrics_of(w, "end_to_end"),
                per_layer: metrics_of(w, "per_layer"),
            };
            (name.clone(), rec)
        })
        .collect())
}

/// Compare two sets: one row per (workload, end-to-end metric) with
/// base, new, ratio and verdict; then every exact metric that changed.
/// Returns the report and whether the new set passes (no regression, no
/// change of an exact metric, no new failure).
pub fn compare(base: &str, new: &str) -> Result<(String, bool), String> {
    let bounds = bounds()?;
    let (base, new) = (parse_set(base)?, parse_set(new)?);
    let mut out = format!(
        "{:<26} {:<14} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut pass = true;
    for (name, b) in &base {
        let Some(n) = new.get(name) else {
            out.push_str(&format!("{name}: missing from the new set\n"));
            pass = false;
            continue;
        };
        let spread = |r: &WorkloadRecord| {
            r.per_layer
                .get("harness.rep_spread")
                .copied()
                .unwrap_or(0.0)
        };
        let spread = spread(b).max(spread(n));
        for m in END_TO_END {
            let (Some(&bv), Some(&nv)) = (b.end_to_end.get(m.name), n.end_to_end.get(m.name))
            else {
                continue;
            };
            let bound = bounds.get(m.name).copied().unwrap_or(m.bound);
            // Positive = worse, as a share of the base.
            let worse = match m.better {
                Better::Lower => (nv - bv) / bv,
                Better::Higher => (bv - nv) / bv,
            };
            // Only the timing metrics vary with the repetition spread.
            let noisy = matches!(m.name, "frames_per_s" | "frame_ms_p10") && spread > bound;
            let verdict = if worse > bound {
                pass = false;
                "regressed"
            } else if worse < -bound {
                "improved"
            } else if noisy {
                "unresolved"
            } else {
                "unchanged"
            };
            out.push_str(&format!(
                "{name:<26} {:<14} {bv:>14.4} {nv:>14.4} {:>8.3}  {verdict}\n",
                m.name,
                nv / bv
            ));
        }
        if n.failed > b.failed || (b.correct && !n.correct) {
            pass = false;
            out.push_str(&format!(
                "{name:<26} failed frames rose from {} to {}\n",
                b.failed, n.failed
            ));
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (bv, nv) = (b.per_layer.get(m.name), n.per_layer.get(m.name));
            if bv != nv {
                pass = false;
                out.push_str(&format!(
                    "{name:<26} exact metric {} changed: {bv:?} -> {nv:?}\n",
                    m.name
                ));
            }
        }
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(fps: f64, loads: f64, spread: f64, failed: u64) -> String {
        let env = Env {
            nproc: 2,
            rustc: "rustc \"x\"".into(),
            commit: "abc".into(),
        };
        let rec = WorkloadRecord {
            correct: failed == 0,
            attempted: 10,
            failed,
            end_to_end: BTreeMap::from([
                ("frames_per_s".to_string(), fps),
                ("setup_s".to_string(), 1.0),
            ]),
            per_layer: BTreeMap::from([
                ("sim.global_loads".to_string(), loads),
                ("harness.rep_spread".to_string(), spread),
            ]),
        };
        set_json(1, 10.0, &env, &BTreeMap::from([("stream_256", rec)]))
    }

    #[test]
    fn compare_verdicts() {
        let base = set(100.0, 5.0, 0.01, 0);
        let verdict = |new: &str| {
            let (report, pass) = compare(&base, new).unwrap();
            let row = report
                .lines()
                .find(|l| l.contains("frames_per_s"))
                .unwrap()
                .to_string();
            (row, pass, report)
        };
        let (row, pass, _) = verdict(&set(101.0, 5.0, 0.01, 0));
        assert!(row.ends_with("unchanged") && pass, "{row}");
        let (row, pass, _) = verdict(&set(150.0, 5.0, 0.01, 0));
        assert!(row.ends_with("improved") && pass, "{row}");
        let (row, pass, _) = verdict(&set(50.0, 5.0, 0.01, 0));
        assert!(row.ends_with("regressed") && !pass, "{row}");
        let (row, pass, _) = verdict(&set(101.0, 5.0, 0.9, 0));
        assert!(row.ends_with("unresolved") && pass, "{row}");
        let (_, pass, report) = verdict(&set(100.0, 6.0, 0.01, 0));
        assert!(!pass && report.contains("exact metric sim.global_loads changed"));
        let (_, pass, report) = verdict(&set(100.0, 5.0, 0.01, 1));
        assert!(!pass && report.contains("failed frames rose"));
    }
}
