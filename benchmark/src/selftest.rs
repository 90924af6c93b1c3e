//! Self-tests of the benchmark: the catalogue and `BENCHMARK.json` say
//! the same, and every workload runs at the quick size, verifies its
//! outputs and prints exactly the catalogue's metrics.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run, RunArgs};
use hipacc_profile::json::{self, Value};
use std::collections::BTreeMap;

fn benchmark_json() -> BTreeMap<String, Value> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.as_object().expect("an object").clone()
}

/// `(name, other string fields...)` of every entry of one list.
fn entries(doc: &BTreeMap<String, Value>, list: &str, fields: &[&str]) -> Vec<Vec<String>> {
    doc[list]
        .as_array()
        .unwrap_or_else(|| panic!("`{list}` is a list"))
        .iter()
        .map(|e| {
            let e = e.as_object().expect("an object");
            assert_eq!(
                e.len(),
                fields.len(),
                "`{list}` entries have exactly {fields:?}"
            );
            fields
                .iter()
                .map(|f| match &e[*f] {
                    Value::String(s) => s.clone(),
                    other => other.as_number().expect("string or number").to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn catalogue_and_benchmark_json_agree() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let ours: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![w.name.to_string(), w.why.to_string()])
        .collect();
    assert_eq!(entries(&doc, "workloads", &["name", "why"]), ours);
    let ours: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                m.bound.to_string(),
            ]
        })
        .collect();
    assert_eq!(
        entries(&doc, "end_to_end", &["name", "unit", "better", "bound"]),
        ours
    );
    let ours: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            ]
        })
        .collect();
    assert_eq!(
        entries(&doc, "per_layer", &["name", "unit", "better"]),
        ours
    );
    assert_eq!(
        doc["run_seconds"].as_number(),
        Some(crate::DEFAULT_SECONDS),
        "the set's default run length is the driver's"
    );
    let paths: Vec<&str> = doc["paths"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

#[test]
fn names_units_and_counts_fit_the_contract() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END {
        assert!(unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for m in PER_LAYER {
        assert!(unit_ok(m.unit), "{}", m.name);
        names.push(m.name);
    }
    for n in &names {
        assert!(name_ok(n), "bad name `{n}`");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

/// One quick run, checked the way the driver checks a result line.
fn quick(workload: &str, trace: bool) -> BTreeMap<String, f64> {
    let result = run(&RunArgs {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.05,
        trace,
        quick: true,
    })
    .unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
    assert!(
        result.correct,
        "{workload} trace {trace}: {:?}",
        result.errors
    );
    assert!(result.attempted >= 1 && result.failed == 0);

    let doc = json::parse(&result.to_json()).expect("the result line parses");
    let doc = doc.as_object().unwrap();
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let printed = doc["metrics"].as_object().unwrap();
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert_eq!(printed.len(), expected.len(), "{workload} trace {trace}");
    for (name, unit) in expected {
        let m = printed[name]
            .as_object()
            .unwrap_or_else(|| panic!("{name} is printed"));
        assert_eq!(m["unit"].as_str(), Some(unit), "{name}");
        assert!(m["value"].as_number().is_some_and(f64::is_finite), "{name}");
        assert!(result.to_text().contains(name));
    }
    result.metrics
}

#[test]
fn single_operator_workloads_run_quick() {
    for w in ["cold_sweep", "steady_gauss512", "steady_bilateral_border"] {
        let e2e = quick(w, false);
        assert!(
            e2e.values().all(|v| *v > 0.0),
            "{w}: an end-to-end metric is 0"
        );
        // The traced run fails its frames when the stepped launch is not
        // bit-identical to `Operator::execute`.
        let layers = quick(w, true);
        assert!(layers["sim.execute_ms_p50"] > 0.0);
        assert!(layers["sim.modelled_frame_ms"] > 0.0);
        assert_eq!(layers["harness.fail_share"], 0.0);
        assert_eq!(layers["runtime.wall_ms_p50"], 0.0, "{w} crosses no runtime");
    }
}

#[test]
fn stream_workloads_run_quick() {
    for w in [
        "stream_tiny",
        "stream_256",
        "stream_fused_256",
        "stream_faulted",
    ] {
        let e2e = quick(w, false);
        assert!(
            e2e.values().all(|v| *v > 0.0),
            "{w}: an end-to-end metric is 0"
        );
        let layers = quick(w, true);
        assert!(layers["runtime.wall_ms_p50"] > 0.0);
        assert_eq!(layers["runtime.frames_failed"], 0.0);
        assert_eq!(
            layers["runtime.fused_groups"],
            f64::from(u8::from(w == "stream_fused_256"))
        );
        assert_eq!(
            layers["runtime.frames_recovered"] > 0.0,
            w == "stream_faulted"
        );
        let trace = format!("{}/out/{w}.trace.json", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(trace).expect("the traced run wrote its trace");
        assert!(hipacc_profile::chrome::validate(&trace).expect("a valid Chrome trace") > 0);
    }
}

#[test]
fn same_seed_same_exact_metrics() {
    let exact = |seed| {
        let r = run(&RunArgs {
            workload: "cold_sweep".into(),
            seed,
            seconds: 0.05,
            trace: true,
            quick: true,
        })
        .unwrap();
        PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name, r.metrics[m.name].to_bits()))
            .collect::<Vec<_>>()
    };
    // Counts and model outputs repeat bit for bit on the same seed.
    assert_eq!(exact(5), exact(5));
}

#[test]
fn hipacc_variables_are_refused() {
    let vars = ["PATH", "HIPACC_SIM_ENGINE", "HOME", "HIPACC_OPT_LEVEL"].map(String::from);
    assert_eq!(
        crate::hipacc_vars(vars.into_iter()),
        ["HIPACC_OPT_LEVEL", "HIPACC_SIM_ENGINE"]
    );
    assert!(crate::hipacc_vars(["PATH".to_string()].into_iter()).is_empty());
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        crate::parse_args(&argv)
    };
    let a = parse("--workload stream_256 --seed 9 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_deref(), a.seed, a.seconds, a.trace),
        (Some("stream_256"), 9, 2.5, true)
    );
    assert_eq!(parse("").unwrap().seed, 1, "the default seed is 1");
    for bad in [
        "--workload nope",
        "--seconds 0",
        "--seconds x",
        "--trace 2",
        "--seed",
        "--frobnicate",
    ] {
        assert!(parse(bad).is_err(), "`{bad}` must be rejected");
    }
}
