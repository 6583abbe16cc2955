//! Idle wake-ups: a server with nothing to do must sleep in the
//! kernel, not on a timer. Counts the voluntary context switches of
//! the server's own threads (named `benes-serve-*` and
//! `benes-engine-*`) from `/proc/self/task/*/status` over one second
//! while a client holds a connection open and sends nothing. A thread
//! that polls wakes hundreds or thousands of times a second; one that
//! blocks on the event it waits for does not wake at all.
//!
//! This binary holds a single test so no other server shares the
//! process while it counts.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use benes_engine::EngineConfig;
use benes_serve::{ServeConfig, Server};

/// Voluntary context switches per live thread whose name starts with
/// one of `prefixes`, keyed by thread id.
fn switches(prefixes: &[&str]) -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let comm = comm.trim().to_string();
        if !prefixes.iter().any(|p| comm.starts_with(p)) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let count = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        out.insert(task.file_name().to_string_lossy().into_owned(), (comm, count));
    }
    out
}

#[test]
fn idle_server_with_a_silent_client_does_not_poll() {
    let config = ServeConfig {
        threads: 1,
        engine: EngineConfig { workers: 1, ..EngineConfig::default() },
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("start");
    let silent = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // Let the acceptor hand the connection over and its reader start.
    std::thread::sleep(Duration::from_millis(200));

    let prefixes = ["benes-serve", "benes-engine"];
    let before = switches(&prefixes);
    let names: Vec<&str> = before.values().map(|(name, _)| name.as_str()).collect();
    for expected in
        ["benes-serve-acc", "benes-serve-rd-", "benes-serve-wr-", "benes-engine-0"]
    {
        assert!(names.contains(&expected), "no {expected} thread among {names:?}");
    }
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let after = switches(&prefixes);
    let elapsed = started.elapsed().as_secs_f64();

    let wakes: u64 =
        after.iter().filter_map(|(tid, (_, n))| before.get(tid).map(|(_, m)| n - m)).sum();
    let per_second = wakes as f64 / elapsed;
    assert!(
        per_second < 20.0,
        "idle server woke {wakes} times in {elapsed:.2}s: {before:?} -> {after:?}"
    );

    drop(silent);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}
