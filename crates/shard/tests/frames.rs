//! Frames per round: a coordinator round sends each remote shard its
//! whole share as `RouteBatch` frames — exactly one frame when the
//! share fits in `MAX_FRAME_LEN`, more only when it does not — and
//! still verifies. The frames are counted by a fake daemon: a plain
//! `TcpListener` that answers every `RouteBatch` with one all-`Ok`
//! `RouteBatchReply` and every `Stats` heartbeat with an empty
//! `StatsReply`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::EngineConfig;
use benes_serve::proto::{decode, Frame, ReplyItem, Status, MAX_FRAME_LEN};
use benes_serve::{ServeConfig, Server};
use benes_shard::{Backend, RemoteConfig, RemoteShard, ShardConfig, ShardCoordinator};

/// The item count of every `RouteBatch` frame a fake daemon received,
/// in arrival order.
type Batches = Arc<Mutex<Vec<usize>>>;

/// Starts a fake daemon; returns its address and its frame log.
fn fake_daemon() -> (String, Batches) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log = Batches::default();
    let seen = Arc::clone(&log);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || serve(stream, &seen));
        }
    });
    (addr, log)
}

fn serve(mut stream: TcpStream, seen: &Mutex<Vec<usize>>) {
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        while let Ok(Some((frame, used))) = decode(&buf) {
            buf.drain(..used);
            let reply = match frame {
                Frame::RouteBatch { items, .. } => {
                    seen.lock().unwrap().push(items.len());
                    let items = items
                        .iter()
                        .map(|i| ReplyItem {
                            req_id: i.req_id,
                            status: Status::Ok,
                            tier: Some(1),
                            latency_ns: 1,
                        })
                        .collect();
                    Frame::RouteBatchReply { items }
                }
                _ => Frame::StatsReply { rows: Vec::new() },
            };
            if stream.write_all(&reply.to_bytes()).is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// A remote backend with room for a debug build's slow units.
fn remote(addr: &str, shard: usize) -> Box<dyn Backend> {
    let config = RemoteConfig {
        request_timeout: Duration::from_secs(30),
        ..RemoteConfig::new(addr)
    };
    Box::new(RemoteShard::new(config, shard))
}

fn fleet(addrs: &[String]) -> ShardCoordinator {
    let backends = addrs.iter().enumerate().map(|(i, a)| remote(a, i)).collect();
    ShardCoordinator::with_backends(ShardConfig::default(), backends)
}

#[test]
fn a_round_sends_each_shard_exactly_one_frame() {
    let daemons: Vec<(String, Batches)> = (0..2).map(|_| fake_daemon()).collect();
    let addrs: Vec<String> = daemons.iter().map(|(a, _)| a.clone()).collect();
    let coord = fleet(&addrs);
    for seed in 1..=3u64 {
        let pi = random_permutation(&mut Rng64::new(seed), 1 << 12);
        let out = coord.route(&pi).unwrap();
        assert!(out.verified, "{}", out.summary());
        assert_eq!(out.units.len(), 192);
        for (shard, (_, log)) in daemons.iter().enumerate() {
            let log = log.lock().unwrap();
            assert_eq!(
                *log,
                vec![96; seed as usize],
                "shard {shard}: one 96-unit frame per round"
            );
        }
    }
}

#[test]
fn a_share_over_the_frame_cap_splits_and_verifies() {
    // 2^18 on two shards: 768 units of 2^9 elements per shard, 2064
    // wire bytes each — about 1.5 MiB, so two frames per shard.
    let pi = random_permutation(&mut Rng64::new(18), 1 << 18);
    let daemons: Vec<(String, Batches)> = (0..2).map(|_| fake_daemon()).collect();
    let addrs: Vec<String> = daemons.iter().map(|(a, _)| a.clone()).collect();
    let out = fleet(&addrs).route(&pi).unwrap();
    assert!(out.verified, "{}", out.summary());
    for (_, log) in &daemons {
        let log = log.lock().unwrap();
        assert_eq!(log.iter().sum::<usize>(), 768);
        assert_eq!(log.len(), 2, "{log:?}");
        let per_frame = (MAX_FRAME_LEN as usize - 14) / (16 + 4 * 512);
        assert!(log.iter().all(|&items| items <= per_frame), "{log:?}");
    }

    // The same round through two real daemons routes and verifies.
    let config = ServeConfig {
        threads: 1,
        engine: EngineConfig { workers: 2, ..EngineConfig::default() },
        ..ServeConfig::default()
    };
    let servers: Vec<Server> =
        (0..2).map(|_| Server::start("127.0.0.1:0", config.clone()).unwrap()).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = fleet(&addrs);
    let out = coord.route(&pi).unwrap();
    assert!(out.verified, "{}", out.summary());
    assert!(coord.fleet_stats().conserves_requests());
    drop(coord);
    for server in servers {
        server.shutdown(Instant::now() + Duration::from_secs(5));
    }
}
