//! Idle wake-ups of a connected `RemoteShard`: with no units to route,
//! its threads (named `benes-remote-*`) must wake only for the
//! heartbeat — the I/O thread on its timer, the reader on the answer —
//! so at most twice per probe interval. Counts voluntary context
//! switches from `/proc/self/task/*/status` over one second.
//!
//! This binary holds a single test so no other shard shares the
//! process while it counts.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::EngineConfig;
use benes_serve::{ServeConfig, Server};
use benes_shard::{Backend, RemoteConfig, RemoteShard};

/// Voluntary context switches per live thread whose name starts with
/// `prefix`, keyed by thread id.
fn switches(prefix: &str) -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let comm = comm.trim().to_string();
        if !comm.starts_with(prefix) {
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
fn idle_connected_shard_wakes_only_for_its_heartbeat() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            threads: 1,
            engine: EngineConfig { workers: 1, ..EngineConfig::default() },
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let probe_interval = Duration::from_millis(100);
    let shard = RemoteShard::new(
        RemoteConfig {
            probe_interval,
            ..RemoteConfig::new(server.local_addr().to_string())
        },
        0,
    );
    // One unit proves the connection is up; then let it go idle.
    let unit = random_permutation(&mut Rng64::new(9), 1 << 5);
    assert!(shard.submit(unit, None).wait().result.is_ok());
    std::thread::sleep(Duration::from_millis(300));

    let before = switches("benes-remote");
    let names: Vec<&str> = before.values().map(|(name, _)| name.as_str()).collect();
    for expected in ["benes-remote-io", "benes-remote-rd"] {
        assert!(names.contains(&expected), "no {expected} thread among {names:?}");
    }
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let after = switches("benes-remote");
    let elapsed = started.elapsed();

    let wakes: u64 =
        after.iter().filter_map(|(tid, (_, n))| before.get(tid).map(|(_, m)| n - m)).sum();
    // Heartbeats the window can hold, counting one at each edge.
    let beats = elapsed.as_nanos().div_ceil(probe_interval.as_nanos()) as u64;
    assert!(
        wakes <= 2 * beats,
        "idle shard woke {wakes} times in {elapsed:?} ({beats} heartbeats): \
         {before:?} -> {after:?}"
    );
    assert!(shard.healthy(), "heartbeats answered, so the gauge stays green");

    drop(shard);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}
