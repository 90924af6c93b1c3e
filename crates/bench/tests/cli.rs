//! The `reproduce` command line: a missing or malformed option value is a
//! usage error (the usage line on stderr, exit status 2), never a panic.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn assert_usage_error(args: &[&str]) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn missing_values_are_usage_errors() {
    for flag in [
        "--table", "--figure", "--csv", "--raw", "--inject", "--replay",
    ] {
        assert_usage_error(&[flag]);
    }
}

#[test]
fn malformed_and_out_of_range_values_are_usage_errors() {
    assert_usage_error(&["--inject", "abc"]);
    assert_usage_error(&["--table", "two"]);
    assert_usage_error(&["--table", "42"]);
    assert_usage_error(&["--figure", "-1"]);
    assert_usage_error(&["--raw", "9"]);
}

#[test]
fn unknown_options_and_no_options_are_usage_errors() {
    assert_usage_error(&["--no-such-option"]);
    assert_usage_error(&[]);
}

#[test]
fn a_valid_value_runs() {
    let out = reproduce(&["--explain", "A0301"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("A0301"));
}

/// A replay file that cannot be read, parsed or accepted is reported on
/// stderr with a non-zero exit, never a panic.
#[test]
fn bad_replay_files_fail_without_panicking() {
    let dir = std::env::temp_dir().join(format!("reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle = |workers: &str| {
        format!(
            r#"{{"stream":"s","seq":0,"stage":"gauss5","stage_index":0,"engine":"simd",
            "opt_level":1,"rung":"initial","attempt":1,"pinned":null,"deadline_us":null,
            "frame_budget_us":null,"spent_before_us":0,"stream_check":[2,1],
            "fault":{{"seed":"1","global_flip_rate":0,"shared_flip_rate":0,"flip_bits":1,
            "const_flips":0,"drop_rate":0,"poison_boundary_rate":0,"stall_rate":0,
            "stall_us":0,"hang_rate":0,"panic_rate":0,"base_block_us":1,"deadline_us":null,
            "faulty_attempts":1,"target_block":null}},
            "supervisor":{{"max_attempts":1,"backoff_base_us":0,"fallback":false}},
            "workers":{workers},"width":16,"height":16,"trail":[],"expected_code":"R0603"}}"#
        )
    };
    let files = [
        ("truncated.json", "{".to_string(), "JSON parse error"),
        ("zero_workers.json", bundle("0"), "`workers`"),
        ("fractional_workers.json", bundle("2.5"), "`workers`"),
    ];
    let mut cases = vec![(
        dir.join("missing.json").display().to_string(),
        "cannot read",
    )];
    for (name, text, named) in &files {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write replay file");
        cases.push((path.display().to_string(), named));
    }
    for (path, named) in &cases {
        let out = reproduce(&["--replay", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
        assert!(stderr.contains(named), "{path}: {stderr}");
        assert!(!stderr.contains("panicked"), "{path}: {stderr}");
    }
    // The same bundle with a valid pool size replays (a stream-budget trip
    // is pure arithmetic, no launch).
    let good = dir.join("good.json");
    std::fs::write(&good, bundle("1")).expect("write replay file");
    let out = reproduce(&["--replay", &good.display().to_string()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
