//! `perf_smoke` rejects bad request counts at the command line: exit code
//! 2 with an error and the usage, never a silent fall-back to the default
//! (a long run) and never a panic.

use std::process::Command;

#[test]
fn bad_request_counts_exit_with_usage_not_a_panic() {
    let cases: &[&[&str]] = &[
        &["abc"],
        &["0"],
        &["-5"],
        &["1.5"],
        &["--streaming-requests"],
        &["1500", "--streaming-requests"],
        &["--streaming-requests", "abc"],
        &["--streaming-requests", "0"],
        &["1500", "--streaming-requests", "0"],
        &["--bogus"],
        &["1500", "1500"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
            .args(*args)
            .output()
            .expect("perf_smoke runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf_smoke"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}
