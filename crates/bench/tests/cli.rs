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
