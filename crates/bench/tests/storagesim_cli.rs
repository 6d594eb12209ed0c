//! `storagesim` rejects out-of-range numeric flags at the command line:
//! exit code 2 with an error and the usage, never a panic from deep in the
//! workload or power models.

use std::process::Command;

fn storagesim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_storagesim"))
        .args(args)
        .output()
        .expect("storagesim runs")
}

#[test]
fn bad_numeric_flags_exit_with_usage_not_a_panic() {
    let cases: &[&[&str]] = &[
        &["--rate", "0"],
        &["--rate", "-5"],
        &["--rate", "nan"],
        &["--rate", "inf"],
        &["--scale", "0", "--workload", "cello"],
        &["--scale", "-1"],
        &["--idle-timeout", "-1"],
        &["--idle-timeout", "nan"],
    ];
    for args in cases {
        let out = storagesim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("invalid"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: storagesim"), "{args:?}: {stderr}");
    }
}

#[test]
fn boundary_values_are_accepted() {
    // An idle timeout of zero is legal (spin down at once).
    let out = storagesim(&[
        "--requests",
        "200",
        "--warmup",
        "0",
        "--rate",
        "500",
        "--idle-timeout",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
