//! `serve` turns a deployment flag the engine would assert on into a
//! usage error, like every other bad flag.

use std::process::Command;

#[test]
fn zero_valued_deployment_flags_are_usage_errors_not_panics() {
    for flag in ["--queue", "--shards", "--docs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, "0"])
            .output()
            .expect("spawning serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(flag), "{flag} 0 not named: {stderr}");
        assert!(stderr.contains("usage: serve"), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
}
