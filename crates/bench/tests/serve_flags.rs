//! `serve` answers typed requests over TCP and exits 0 when its stdin
//! reaches EOF; it turns a deployment flag the engine would assert on
//! into a usage error, like every other bad flag, and a snapshot or port
//! it cannot have into a one-line error; `snapshot` does the same for a
//! directory it cannot read or write; `quality_gate` exits 2 with its
//! usage line on a flag it does not know or an `--out` without a path,
//! and with one line naming the path on an `--out` it cannot write.

use divtopk_engine::engine::Query;
use divtopk_engine::proto::{self, Request, Response};
use divtopk_text::mode::DiversifyMode;
use divtopk_text::query::KeywordQuery;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Long enough for a debug build to generate and index the corpus.
const PATIENCE: Duration = Duration::from_secs(60);

#[test]
fn serve_answers_over_tcp_and_stops_on_stdin_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--port", "0", "--shards", "4", "--docs", "2000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning serve");

    // The reader drains stdout to EOF, so the server never writes into a
    // closed pipe; the channel bounds the wait for the ready line.
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (lines, ready) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            let _ = lines.send(line.expect("reading serve's stdout"));
        }
    });
    let line = ready
        .recv_timeout(PATIENCE)
        .expect("serve printed no LISTENING line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_owned();

    let nonempty_hits: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u32)
            .map(|client| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connecting to serve");
                    stream.set_read_timeout(Some(PATIENCE)).unwrap();
                    stream.set_nodelay(true).unwrap();
                    let mut call = |request: &Request| {
                        proto::call(&mut stream, request).expect("round trip to serve")
                    };
                    assert_eq!(call(&Request::Ping), Response::Pong);
                    let Response::Stats(stats) = call(&Request::Stats) else {
                        panic!("a stats request must draw a stats response");
                    };
                    assert!(stats.num_terms > 0, "serve reports an empty vocabulary");
                    let term = |i: u32| (client * 31 + i * 7) % stats.num_terms;
                    let mut nonempty = 0;
                    for i in 0..12 {
                        let query = if i % 4 == 3 {
                            Query::Keywords(KeywordQuery {
                                terms: vec![term(i), term(i + 1)],
                            })
                        } else {
                            Query::Scan(term(i))
                        };
                        let request = Request::Search {
                            query,
                            k: 5,
                            tau: 0.5,
                            bound_decay: 0.005,
                            mode: DiversifyMode::exact(),
                        };
                        match call(&request) {
                            Response::Hits(hits) => nonempty += usize::from(!hits.hits.is_empty()),
                            Response::Overloaded { .. } => {}
                            other => panic!("search {i} of client {client} drew {other:?}"),
                        }
                    }
                    nonempty
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert!(nonempty_hits > 0, "no search returned a hit");

    // Closing stdin is the stop signal.
    drop(child.stdin.take());
    let deadline = Instant::now() + PATIENCE;
    let status = loop {
        if let Some(status) = child.try_wait().expect("polling serve") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("serve still running {PATIENCE:?} after its stdin closed");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    reader.join().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "serve exited {status}: {stderr}");
    assert!(stderr.contains("shut down cleanly"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

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

#[test]
fn quality_gate_rejects_bad_flags_and_an_unwritable_out_without_a_panic() {
    for args in [&["--pack", "x"][..], &["--out"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_quality_gate"))
            .args(args)
            .output()
            .expect("spawning quality_gate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: quality_gate"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    let path = "/proc/nope/ev.md";
    let out = Command::new(env!("CARGO_BIN_EXE_quality_gate"))
        .args(["--out", path])
        .output()
        .expect("spawning quality_gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--out {path}: {stderr}");
    let writing: Vec<_> = stderr
        .lines()
        .filter(|l| l.starts_with("quality_gate: writing "))
        .collect();
    assert_eq!(writing.len(), 1, "{stderr}");
    assert!(writing[0].contains(path), "{stderr}");
    assert!(!stderr.contains("panicked"), "--out {path}: {stderr}");
}
