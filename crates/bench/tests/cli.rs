//! The `experiments` binary's contract: exit 0 when every claim of the
//! selected experiments holds, exit 2 with a one-line usage message — and
//! nothing run — on an argument that is not an experiment id.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn holding_claims_exit_zero() {
    let out = experiments(&["e10", "e1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Table order, whatever the argument order; nothing else ran.
    let (e1, e10) = (
        stdout.find("### E1 ").unwrap(),
        stdout.find("### E10 ").unwrap(),
    );
    assert!(e1 < e10 && !stdout.contains("### E2 "));
    assert!(out.stderr.is_empty());
}

#[test]
fn unknown_arguments_exit_two_without_running() {
    for bad in ["--fast", "e99", "--help"] {
        let out = experiments(&["e1", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}: {out:?}");
        assert!(out.stdout.is_empty(), "{bad}: nothing may run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(bad) && stderr.contains("usage"), "{stderr}");
    }
}
