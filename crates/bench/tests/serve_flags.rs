//! `serve` turns a deployment flag the engine would assert on into a
//! usage error, like every other bad flag, and a snapshot or port it
//! cannot have into a one-line error; `snapshot` does the same for a
//! directory it cannot read or write.

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

#[test]
fn a_missing_snapshot_or_a_busy_port_is_an_error_message_not_a_panic() {
    let busy = std::net::TcpListener::bind("127.0.0.1:0").expect("binding a port to occupy");
    let port = busy.local_addr().unwrap().port().to_string();
    for (flag, operand) in [
        ("--snapshot", "/nonexistent/divtopk.snapshot"),
        ("--port", port.as_str()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, operand, "--docs", "50", "--shards", "1"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawning serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {operand}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("serve: ") && l.contains(operand)),
            "{flag} {operand} not named: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {operand}: {stderr}");
    }
}

#[test]
fn a_missing_or_unwritable_snapshot_directory_is_an_error_message_not_a_panic() {
    for (command, flag, operand) in [
        ("check", "--in", "/nonexistent/divtopk.snapshot"),
        ("save", "--out", "/proc/nope/divtopk.snapshot"),
        ("incremental", "--dir", "/proc/nope/divtopk.incremental"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snapshot"))
            .args([command, flag, operand])
            .output()
            .expect("spawning snapshot");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {operand}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("snapshot: ") && l.contains(operand)),
            "{command} {operand} not named: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{command} {operand}: {stderr}"
        );
    }
}
