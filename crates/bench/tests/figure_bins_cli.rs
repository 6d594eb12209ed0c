//! The figure binaries reject a bad positional count at the command line:
//! exit code 2 with an error and the usage, before any work, never a
//! silent fall-back to the default run and never a panic.

use std::process::Command;

/// `(name, executable, argument name)` of one binary.
macro_rules! bin {
    ($name:literal, $arg:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)), $arg)
    };
}

/// Each binary with an optional count argument.
const BINS: &[(&str, &str, &str)] = &[
    bin!("ablation_mpl", "REQUESTS"),
    bin!("fig05_disk_sched", "REQUESTS"),
    bin!("fig06_mems_sched", "REQUESTS"),
    bin!("fig07_traces", "REQUESTS"),
    bin!("fig08_settling", "REQUESTS"),
    bin!("fig09_subregions", "REQUESTS"),
    bin!("fig11_layouts", "REQUESTS"),
    bin!("obs_report", "REQUESTS"),
    bin!("overload_sweep", "SCALE"),
];

#[test]
fn bad_counts_exit_with_usage_not_a_default_run() {
    let cases: &[&[&str]] = &[&["abc"], &["0"], &["-5"], &["1.5"], &["100", "100"]];
    for (name, exe, arg) in BINS {
        for args in cases {
            let out = Command::new(exe).args(*args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name} [{arg}]")),
                "{name} {args:?}: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{name} {args:?}: ran before rejecting"
            );
        }
    }
}
