//! Remote-fleet integration: real benes-serve servers on ephemeral
//! ports, a coordinator scattering over the wire, and the failure
//! drills the tentpole promises — a shard killed mid-soak degrades its
//! own units element-exactly (zero contamination, conservation per
//! shard), a dead primary fails over to its spare, a slow primary gets
//! hedged, and a fleet drain returns even when a shard is already gone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use benes_engine::chaos::ChaosConfig;
use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::{BreakerConfig, Engine, EngineConfig};
use benes_serve::{ServeConfig, Server};
use benes_shard::{
    run_fleet_soak, Backend, FleetSoakConfig, LocalShard, RemoteConfig, RemoteShard,
    ShardConfig, ShardCoordinator,
};

/// A server a test can kill abruptly: zero drain grace, so shutdown at
/// a now() deadline is as close to `kill -9` as in-process gets.
fn spawn_server() -> Server {
    let config = ServeConfig {
        threads: 2,
        engine: EngineConfig { workers: 2, ..EngineConfig::default() },
        read_timeout: Duration::from_secs(5),
        drain_grace: Duration::ZERO,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
}

fn kill(server: Server) {
    server.shutdown(Instant::now());
}

/// A remote backend tuned for tests: tight timeouts so dead-endpoint
/// paths resolve in tens of milliseconds, not wall-clock seconds.
fn remote_cfg(addr: String) -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(250),
        request_timeout: Duration::from_millis(1500),
        attempts: 2,
        breaker: BreakerConfig {
            failure_threshold: 3,
            base_backoff: Duration::from_millis(50),
            ..BreakerConfig::default()
        },
        reconnect_base: Duration::from_millis(5),
        reconnect_max: Duration::from_millis(50),
        probe_interval: Duration::from_millis(50),
        ..RemoteConfig::new(addr)
    }
}

fn remote_fleet(addrs: &[String]) -> ShardCoordinator {
    let backends = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            Box::new(RemoteShard::new(remote_cfg(a.clone()), i)) as Box<dyn Backend>
        })
        .collect();
    ShardCoordinator::with_backends(ShardConfig::default(), backends)
}

#[test]
fn remote_fleet_routes_and_verifies() {
    let servers: Vec<Server> = (0..3).map(|_| spawn_server()).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = remote_fleet(&addrs);

    for n in [4u32, 6, 8] {
        let pi = random_permutation(&mut Rng64::new(u64::from(n)), 1usize << n);
        let out = coord.route(&pi).expect("decomposes");
        assert!(out.verified, "n={n}: {}", out.summary());
        assert_eq!(out.routed_elements, out.total_elements);
    }

    let fleet = coord.fleet_stats();
    assert!(fleet.conserves_requests(), "{}", fleet.report());
    assert_eq!(fleet.failovers(), 0);
    for (i, (desc, ledger)) in fleet.per_shard().iter().enumerate() {
        assert_eq!(ledger.kind, "remote");
        assert!(desc.contains("remote"), "shard {i} desc: {desc}");
        assert!(ledger.requests.completed > 0, "shard {i} never served a unit");
    }
    drop(coord);
    for s in servers {
        kill(s);
    }
}

#[test]
fn mixed_local_and_remote_fleet_routes() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let engines: Vec<_> = (0..2)
        .map(|_| {
            Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }))
        })
        .collect();
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(LocalShard::new(Arc::clone(&engines[0]))),
        Box::new(RemoteShard::new(remote_cfg(addr), 1)),
        Box::new(LocalShard::new(Arc::clone(&engines[1]))),
    ];
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);
    assert_eq!(coord.shard_count(), 3);

    let pi = random_permutation(&mut Rng64::new(7), 1 << 8);
    let out = coord.route(&pi).expect("decomposes");
    assert!(out.verified, "{}", out.summary());

    // One ledger per shard, whatever its kind; a local shard's is
    // exactly its engine's.
    let fleet = coord.fleet_stats();
    assert!(fleet.conserves_requests(), "{}", fleet.report());
    let kinds: Vec<_> = fleet.per_shard().iter().map(|(_, l)| l.kind).collect();
    assert_eq!(kinds, ["local", "remote", "local"]);
    assert_eq!(fleet.per_shard()[0].1.requests, engines[0].stats().ledger());
    assert_eq!(fleet.per_shard()[2].1.requests, engines[1].stats().ledger());
    drop(coord);
    kill(server);
}

#[test]
fn killed_shard_degrades_without_contamination() {
    let mut servers: Vec<Option<Server>> = (0..3).map(|_| Some(spawn_server())).collect();
    let addrs: Vec<String> =
        servers.iter().map(|s| s.as_ref().unwrap().local_addr().to_string()).collect();
    let coord = remote_fleet(&addrs);

    // Warm round: everything up, everything verified.
    let pi = random_permutation(&mut Rng64::new(1), 1 << 8);
    assert!(coord.route(&pi).expect("decomposes").verified);

    // Kill shard 1's process mid-soak via a side thread: the soak's
    // round pause gives the killer a window, so the death lands between
    // (or inside) wire exchanges, not at a cooperative point.
    let victim = servers[1].take().expect("still running");
    let killed_at_round = 2;
    let round_counter = std::sync::Arc::new(AtomicUsize::new(0));
    let (kill_tx, kill_rx) = mpsc::channel::<Server>();
    let watcher = round_counter.clone();
    let killer = std::thread::spawn(move || {
        let server = kill_rx.recv().expect("victim handed over");
        while watcher.load(Ordering::Acquire) < killed_at_round {
            std::thread::sleep(Duration::from_millis(5));
        }
        kill(server);
    });
    kill_tx.send(victim).expect("hand victim to killer");

    let soak_cfg = FleetSoakConfig {
        n: 8,
        rounds: 6,
        round_pause: Duration::from_millis(30),
        killable: vec![1],
        ..FleetSoakConfig::new(42)
    };
    let counter = round_counter.clone();
    let report = run_fleet_soak(&coord, &soak_cfg, |round, _| {
        counter.store(round + 1, Ordering::Release);
    });
    killer.join().expect("killer thread");

    // The gate scripts/fleet.sh enforces, in-process: degraded not
    // contaminated, conserved everywhere, resilience counters lit.
    assert!(report.healthy(), "{}", report.render());
    assert!(report.degraded_rounds > 0, "kill never landed:\n{}", report.render());
    assert!(report.killable_failures > 0, "{}", report.render());
    assert_eq!(report.contaminated_units, 0);
    assert_eq!(report.recombine_mismatches, 0);
    assert!(report.fleet.retries() > 0, "{}", report.fleet.report());
    assert!(report.fleet.conserves_requests());

    // The heartbeat must have noticed the corpse.
    let deadline = Instant::now() + Duration::from_secs(3);
    while coord.backend(1).healthy() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!coord.backend(1).healthy(), "health gauge never went red");
    assert!(coord.backend(0).healthy());
    assert_eq!(coord.fleet_stats().unhealthy_shards(), vec![1]);

    drop(coord);
    for s in servers.into_iter().flatten() {
        kill(s);
    }
}

#[test]
fn dead_primary_fails_over_to_spare_and_round_still_verifies() {
    let live: Vec<Server> = (0..2).map(|_| spawn_server()).collect();
    let spare = spawn_server();
    // A primary that was never started: connection refused instantly.
    let dead_addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = probe.local_addr().expect("addr").to_string();
        drop(probe);
        addr
    };
    let mut cfg = remote_cfg(dead_addr);
    cfg.spare = Some(spare.local_addr().to_string());
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(RemoteShard::new(remote_cfg(live[0].local_addr().to_string()), 0)),
        Box::new(RemoteShard::new(cfg, 1)),
        Box::new(RemoteShard::new(remote_cfg(live[1].local_addr().to_string()), 2)),
    ];
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);

    let pi = random_permutation(&mut Rng64::new(5), 1 << 8);
    let out = coord.route(&pi).expect("decomposes");
    assert!(out.verified, "failover should keep the round complete: {}", out.summary());
    let fleet = coord.fleet_stats();
    assert!(fleet.failovers() > 0, "no failover recorded:\n{}", fleet.report());
    assert!(fleet.conserves_requests(), "{}", fleet.report());

    drop(coord);
    for s in live {
        kill(s);
    }
    kill(spare);
}

#[test]
fn hedging_races_a_slow_primary_against_the_spare() {
    let primary = spawn_server();
    let spare = spawn_server();
    // Make the primary pathologically slow (every unit +150ms) and arm
    // a 20ms hedge: the spare should win most races.
    primary.engine().set_chaos(ChaosConfig {
        delay_per_1024: 1024,
        delay: Duration::from_millis(150),
        ..ChaosConfig::default()
    });
    let mut cfg = remote_cfg(primary.local_addr().to_string());
    cfg.spare = Some(spare.local_addr().to_string());
    cfg.hedge = Some(Duration::from_millis(20));
    cfg.request_timeout = Duration::from_secs(3);
    let shard = RemoteShard::new(cfg, 0);

    let perms: Vec<_> =
        (0..4).map(|i| random_permutation(&mut Rng64::new(100 + i), 1 << 5)).collect();
    let tickets: Vec<_> = perms.into_iter().map(|p| shard.submit(p, None)).collect();
    for t in tickets {
        assert!(t.wait().result.is_ok(), "hedged unit must still complete");
    }
    let ledger = shard.ledger();
    assert!(ledger.hedges > 0, "no hedge fired: {ledger:?}");
    assert!(ledger.requests.conserves_requests(), "{ledger:?}");

    drop(shard);
    kill(primary);
    kill(spare);
}

#[test]
fn fleet_drain_returns_even_with_a_dead_shard() {
    let alive = spawn_server();
    let corpse = spawn_server();
    let corpse_addr = corpse.local_addr().to_string();
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(RemoteShard::new(remote_cfg(alive.local_addr().to_string()), 0)),
        Box::new(RemoteShard::new(remote_cfg(corpse_addr), 1)),
    ];
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);
    let pi = random_permutation(&mut Rng64::new(3), 1 << 6);
    assert!(coord.route(&pi).expect("decomposes").verified);

    kill(corpse); // shard 1 is now a closed port

    let started = Instant::now();
    let reports = coord.drain_all(Instant::now() + Duration::from_secs(2));
    assert_eq!(reports.len(), 2);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain hung on the dead shard: {:?}",
        started.elapsed()
    );
    assert!(reports[1].unreachable || reports[1].timed_out, "{:?}", reports[1]);

    // Post-drain submits resolve instantly as canceled — no hang, and
    // the ledger still balances.
    let post =
        coord.backend(0).submit(random_permutation(&mut Rng64::new(4), 1 << 5), None);
    assert!(post.wait().result.is_err());
    let fleet = coord.fleet_stats();
    assert!(fleet.conserves_requests(), "{}", fleet.report());

    drop(coord);
    kill(alive);
}

#[test]
fn health_gauge_follows_the_primary_across_a_restart() {
    let server = spawn_server();
    let addr = server.local_addr().to_string();
    let cfg = remote_cfg(addr.clone());
    let red_within = cfg.probe_interval + cfg.request_timeout;
    let shard = RemoteShard::new(cfg, 0);
    let unit = || random_permutation(&mut Rng64::new(11), 1 << 5);
    assert!(shard.submit(unit(), None).wait().result.is_ok());
    assert!(shard.healthy());

    // The primary goes away: red within one heartbeat plus its timeout.
    kill(server);
    let killed = Instant::now();
    while shard.healthy() && killed.elapsed() < red_within {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!shard.healthy(), "gauge still green {:?} after the kill", killed.elapsed());

    // A new server on the same port: the heartbeat timer reconnects and
    // the gauge goes green again, with no unit to trigger it.
    let config = ServeConfig {
        threads: 1,
        engine: EngineConfig { workers: 1, ..EngineConfig::default() },
        ..ServeConfig::default()
    };
    let revived = Server::start(&addr, config).expect("rebind the same port");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !shard.healthy() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(shard.healthy(), "gauge never went green after the restart");
    assert!(shard.submit(unit(), None).wait().result.is_ok());
    assert!(shard.ledger().requests.conserves_requests(), "{:?}", shard.ledger());

    drop(shard);
    kill(revived);
}

#[test]
fn unanswered_heartbeat_turns_the_gauge_red() {
    // A primary that accepts connections but never answers a frame.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = RemoteConfig {
        request_timeout: Duration::from_millis(300),
        ..remote_cfg(mute.local_addr().expect("addr").to_string())
    };
    let red_within = cfg.probe_interval + cfg.request_timeout;
    let shard = RemoteShard::new(cfg, 0);
    let (conn, _) = mute.accept().expect("the shard connects at once");
    let connected = Instant::now();
    // Allow one heartbeat interval for the first probe to go out.
    let deadline = connected + red_within + Duration::from_millis(100);
    while shard.healthy() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!shard.healthy(), "gauge still green {:?} after connect", connected.elapsed());
    drop(shard);
    drop(conn);
}
