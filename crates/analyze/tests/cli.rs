//! The `avfs-analyze` exit-code contract: 0 clean, 1 violations, 2 usage
//! error — so a gate can tell "the code is broken" from "the invocation
//! is broken".

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_avfs-analyze"))
        .args(args)
        .output()
        .expect("avfs-analyze starts")
        .status
        .code()
}

#[test]
fn a_clean_gate_exits_zero() {
    assert_eq!(exit_code(&["invariants"]), Some(0));
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(exit_code(&[]), Some(2));
    assert_eq!(exit_code(&["bogus"]), Some(2));
    assert_eq!(exit_code(&["invariants", "--format", "json"]), Some(2));
}
