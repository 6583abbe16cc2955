//! End-to-end tests over real sockets: request round-trips, pipelined
//! replies, tenant fairness under a flood, per-tenant conservation
//! when connections are killed mid-flight, read-timeout reaping, and
//! client-triggered drain.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use benes_engine::EngineConfig;
use benes_serve::proto::{Frame, Status, TenantRow};
use benes_serve::server::{ServeConfig, Server};
use benes_serve::Client;

/// A small config: one handler thread (deterministic scheduling), two
/// engine workers, bounded queue.
fn small_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        engine: EngineConfig {
            workers: 2,
            max_queue_depth: 256,
            ..EngineConfig::default()
        },
        read_timeout: Duration::from_secs(5),
        quota: 1024,
        quantum: 64,
        allow_drain: false,
        drain_grace: Duration::from_secs(5),
    }
}

/// A valid n=3 permutation cycling by `k`.
fn perm(k: u32) -> Vec<u32> {
    (0..8u32).map(|i| (i + k) % 8).collect()
}

/// Polls the server's Stats frame until tenant `t`'s ledger conserves
/// (all admitted requests terminal) or the deadline passes.
fn await_conservation(client: &mut Client, tenant: u64, deadline: Instant) -> TenantRow {
    loop {
        client.send(&Frame::Stats).expect("send stats");
        let Frame::StatsReply { rows } = client.recv().expect("stats reply") else {
            panic!("expected StatsReply");
        };
        let row = rows.iter().find(|r| r.tenant == tenant).copied().unwrap_or_default();
        if row.conserves_requests() && row.submitted > 0 {
            return row;
        }
        assert!(Instant::now() < deadline, "tenant {tenant} never conserved: {row:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn pipelined_routes_reply_with_matching_request_ids() {
    let server = Server::start("127.0.0.1:0", small_config()).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    const K: u64 = 100;
    let frames: Vec<Frame> = (0..K)
        .map(|i| Frame::Route {
            req_id: 1000 + i,
            tenant: 1,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    client.send_all(&frames).expect("pipeline requests");

    let mut seen = std::collections::HashSet::new();
    for _ in 0..K {
        match client.recv().expect("reply") {
            Frame::RouteReply { req_id, status, tier, latency_ns } => {
                assert_eq!(status, Status::Ok, "req {req_id}");
                assert!(tier.is_some());
                assert!(latency_ns > 0);
                assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                assert!((1000..1000 + K).contains(&req_id));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let row = await_conservation(&mut client, 1, Instant::now() + Duration::from_secs(10));
    assert_eq!(row.submitted, K);
    assert_eq!(row.completed, K);
    drop(client);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn invalid_permutation_gets_bad_request_not_a_closed_conn() {
    let server = Server::start("127.0.0.1:0", small_config()).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Not a permutation: duplicate destination.
    client
        .send(&Frame::Route {
            req_id: 1,
            tenant: 2,
            deadline_ms: 0,
            destinations: vec![0, 0, 1, 2],
        })
        .unwrap();
    match client.recv().unwrap() {
        Frame::RouteReply { req_id, status, .. } => {
            assert_eq!((req_id, status), (1, Status::BadRequest));
        }
        other => panic!("unexpected {other:?}"),
    }
    // The connection survives and serves a valid request next.
    client
        .send(&Frame::Route { req_id: 2, tenant: 2, deadline_ms: 0, destinations: perm(1) })
        .unwrap();
    match client.recv().unwrap() {
        Frame::RouteReply { req_id, status, .. } => {
            assert_eq!((req_id, status), (2, Status::Ok));
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(client);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn malformed_bytes_get_an_error_reply_then_close() {
    let server = Server::start("127.0.0.1:0", small_config()).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A frame with a bogus version byte.
    let mut bytes = Frame::Stats.to_bytes();
    bytes[4] = 99;
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&bytes).unwrap();
        let mut back = Vec::new();
        use std::io::Read;
        raw.read_to_end(&mut back).expect("server replies then closes");
        let (frame, _) = benes_serve::decode(&back).unwrap().expect("one error frame");
        match frame {
            Frame::ErrorReply { code, message, .. } => {
                assert_eq!(code, Status::BadRequest);
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // The well-behaved client is unaffected.
    client.send(&Frame::Stats).unwrap();
    assert!(matches!(client.recv().unwrap(), Frame::StatsReply { .. }));
    assert_eq!(server.counters().protocol_errors.load(Ordering::Relaxed), 1);
    drop(client);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn flooding_tenant_cannot_starve_the_steady_one() {
    // The fairness satellite: tenant 1 floods far past its quota;
    // tenant 2's modest stream must still be fully served — its
    // "quota share" — while the flood soaks up QuotaExceeded.
    let mut config = small_config();
    config.quota = 32; // small, so the flood visibly overflows
    let server = Server::start("127.0.0.1:0", config).expect("start");

    let mut flood = Client::connect(server.local_addr()).expect("connect flood");
    flood.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut steady = Client::connect(server.local_addr()).expect("connect steady");
    steady.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    const FLOOD: u64 = 600;
    const STEADY: u64 = 20;
    let flood_frames: Vec<Frame> = (0..FLOOD)
        .map(|i| Frame::Route {
            req_id: i,
            tenant: 1,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    flood.send_all(&flood_frames).expect("flood");
    let steady_frames: Vec<Frame> = (0..STEADY)
        .map(|i| Frame::Route {
            req_id: i,
            tenant: 2,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    steady.send_all(&steady_frames).expect("steady");

    let mut steady_ok = 0;
    for _ in 0..STEADY {
        match steady.recv().expect("steady reply") {
            Frame::RouteReply { status: Status::Ok, .. } => steady_ok += 1,
            Frame::RouteReply { status, req_id, .. } => {
                panic!("steady req {req_id} got {status:?} under the flood")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(steady_ok, STEADY, "every steady request served despite the flood");

    let mut flood_ok = 0;
    let mut flood_refused = 0;
    for _ in 0..FLOOD {
        match flood.recv().expect("flood reply") {
            Frame::RouteReply { status: Status::Ok, .. } => flood_ok += 1,
            Frame::RouteReply { status: Status::QuotaExceeded, .. } => flood_refused += 1,
            Frame::RouteReply { status, .. } => panic!("unexpected status {status:?}"),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(flood_ok > 0, "the flood still gets its own share");
    assert!(
        flood_refused > 0,
        "a 600-deep burst against quota 32 must overflow (got {flood_ok} ok)"
    );

    // Both ledgers conserve; the refused flood never reached the
    // engine (quota refusals are server-side, not engine rejections).
    let row1 = await_conservation(&mut flood, 1, Instant::now() + Duration::from_secs(15));
    let row2 = await_conservation(&mut flood, 2, Instant::now() + Duration::from_secs(15));
    assert_eq!(row1.submitted, flood_ok, "engine saw only the admitted flood");
    assert_eq!(row2.completed, STEADY);
    drop(flood);
    drop(steady);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn killed_connections_preserve_tenant_conservation() {
    // The chaos satellite: kill connections with requests in flight;
    // every admitted request must still reach a terminal state in the
    // tenant's ledger (replies are lost, accounting is not).
    let server = Server::start("127.0.0.1:0", small_config()).expect("start");
    const PER_CONN: u64 = 50;
    let mut victims = Vec::new();
    for c in 0..2 {
        let mut v = Client::connect(server.local_addr()).expect("connect victim");
        let frames: Vec<Frame> = (0..PER_CONN)
            .map(|i| Frame::Route {
                req_id: c * PER_CONN + i,
                tenant: 9,
                deadline_ms: 0,
                destinations: perm((i % 7) as u32),
            })
            .collect();
        v.send_all(&frames).expect("send");
        victims.push(v);
    }
    // Let the server ingest the burst (an RST can discard unread
    // bytes), then kill both mid-flight: no reads, hard shutdown.
    std::thread::sleep(Duration::from_millis(200));
    for v in victims {
        v.kill();
    }
    // A surviving observer checks the ledger reaches quiescent
    // conservation; how many were admitted depends on the race, but
    // whatever was admitted must be terminal.
    let mut observer = Client::connect(server.local_addr()).expect("connect observer");
    observer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let row =
        await_conservation(&mut observer, 9, Instant::now() + Duration::from_secs(15));
    assert!(row.submitted >= 1, "at least some of the kill burst was admitted");
    drop(observer);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn silent_connection_is_reaped_by_the_read_timeout() {
    let mut config = small_config();
    config.read_timeout = Duration::from_millis(100);
    let server = Server::start("127.0.0.1:0", config).expect("start");
    let silent = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.counters().timed_out.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "silent conn never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(silent);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn client_drain_stops_the_server_when_allowed() {
    let mut config = small_config();
    config.allow_drain = true;
    let server = Server::start("127.0.0.1:0", config).expect("start");
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || server.wait());

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    client
        .send(&Frame::Route { req_id: 5, tenant: 3, deadline_ms: 0, destinations: perm(2) })
        .unwrap();
    assert!(matches!(client.recv().unwrap(), Frame::RouteReply { status: Status::Ok, .. }));
    client.send(&Frame::Drain).unwrap();
    match client.recv().unwrap() {
        Frame::StatsReply { rows } => {
            let row = rows.iter().find(|r| r.tenant == 3).expect("tenant 3 row");
            assert_eq!(row.submitted, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The waiter unblocks: handlers exited and the engine drained.
    let report = waiter.join().expect("server wait");
    assert!(!report.timed_out);
}

#[test]
fn drain_is_refused_without_allow_drain() {
    let server = Server::start("127.0.0.1:0", small_config()).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    client.send(&Frame::Drain).unwrap();
    match client.recv().unwrap() {
        Frame::ErrorReply { code, message, .. } => {
            assert_eq!(code, Status::BadRequest);
            assert!(message.contains("allow-drain"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(!server.is_stopping());
    drop(client);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_client_that_stops_reading_stalls_no_one_else() {
    // One handler and one engine worker: the flood and the steady
    // tenant share every server thread but the per-connection reader
    // and writer. The flood pipelines requests and never reads a reply,
    // so its replies back up through both socket buffers into its
    // outbox until the server cuts it off; the steady tenant's round
    // trips must go on meanwhile.
    let mut config = small_config();
    config.engine.workers = 1;
    config.engine.max_queue_depth = 4096;
    config.read_timeout = Duration::from_secs(10);
    let server = Server::start("127.0.0.1:0", config).expect("start");
    let flood_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    let flood = {
        let addr = server.local_addr();
        let done = std::sync::Arc::clone(&flood_done);
        std::thread::spawn(move || {
            use std::io::{ErrorKind, Write};
            let mut stream = std::net::TcpStream::connect(addr).expect("connect flood");
            stream.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
            let mut batch = Vec::new();
            for i in 0..512u64 {
                Frame::Route {
                    req_id: i,
                    tenant: 7,
                    deadline_ms: 0,
                    destinations: perm(1),
                }
                .encode(&mut batch);
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            // Whole batches only, so a timed-out write never tears a
            // frame: the only way out before the deadline is the cut.
            let mut cut = false;
            'flood: while Instant::now() < deadline {
                let mut off = 0;
                while off < batch.len() {
                    match stream.write(&batch[off..]) {
                        Ok(0) => {
                            cut = true;
                            break 'flood;
                        }
                        Ok(n) => off += n,
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock | ErrorKind::TimedOut
                            ) =>
                        {
                            if Instant::now() >= deadline {
                                break 'flood;
                            }
                        }
                        Err(_) => {
                            cut = true;
                            break 'flood;
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
            cut
        })
    };

    let mut steady = Client::connect(server.local_addr()).expect("connect steady");
    steady.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut worst = Duration::ZERO;
    let mut trips = 0u64;
    while !flood_done.load(Ordering::Acquire) {
        let sent = Instant::now();
        steady
            .send(&Frame::Route {
                req_id: trips,
                tenant: 8,
                deadline_ms: 0,
                destinations: perm(3),
            })
            .expect("steady send");
        match steady.recv() {
            Ok(Frame::RouteReply { req_id, status: Status::Ok, .. }) => {
                assert_eq!(req_id, trips);
            }
            other => panic!("steady trip {trips} after {:?}: {other:?}", sent.elapsed()),
        }
        worst = worst.max(sent.elapsed());
        trips += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        flood.join().expect("flood thread"),
        "the non-reading client was never cut off"
    );
    assert!(trips > 0);
    assert!(worst < Duration::from_secs(1), "a steady round trip took {worst:?}");

    // Whatever the flood got admitted still reaches a terminal state.
    await_conservation(&mut steady, 7, Instant::now() + Duration::from_secs(15));
    let row = await_conservation(&mut steady, 8, Instant::now() + Duration::from_secs(15));
    assert_eq!(row.completed, trips);
    drop(steady);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_backlog_behind_another_handlers_flood_still_drains() {
    // Two handlers share one engine whose queue holds two requests, so
    // each handler's share is one. The flood on handler 0 keeps its own
    // share full but cannot take handler 1's: the burst on handler 1
    // goes in one request at a time, each admitted when the last one's
    // completion wakes its handler, and neither handler is ever refused
    // by the engine.
    let mut config = small_config();
    config.threads = 2;
    config.engine.workers = 1;
    config.engine.max_queue_depth = 2;
    let server = Server::start("127.0.0.1:0", config).expect("start");

    // Connections are dealt round-robin in accept order: make sure
    // the flood's is accepted first.
    let mut flood = Client::connect(server.local_addr()).expect("connect flood");
    flood.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    flood.send(&Frame::Stats).unwrap();
    assert!(matches!(flood.recv().unwrap(), Frame::StatsReply { .. }));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            const WINDOW: u64 = 256;
            let mut sent = 0u64;
            while !stop.load(Ordering::Acquire) {
                let frames: Vec<Frame> = (sent..sent + WINDOW)
                    .map(|i| Frame::Route {
                        req_id: i,
                        tenant: 1,
                        deadline_ms: 0,
                        destinations: perm((i % 7) as u32),
                    })
                    .collect();
                flood.send_all(&frames).expect("flood");
                for _ in 0..WINDOW {
                    assert!(matches!(
                        flood.recv().expect("flood reply"),
                        Frame::RouteReply { .. }
                    ));
                }
                sent += WINDOW;
            }
            flood
        })
    };
    // Let the flood fill the engine queue before the burst arrives.
    std::thread::sleep(Duration::from_millis(100));

    const BURST: u64 = 100;
    let mut burst = Client::connect(server.local_addr()).expect("connect burst");
    burst.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frames: Vec<Frame> = (0..BURST)
        .map(|i| Frame::Route {
            req_id: i,
            tenant: 2,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    burst.send_all(&frames).expect("burst");
    for _ in 0..BURST {
        match burst.recv().expect("burst reply") {
            Frame::RouteReply { status: Status::Ok, .. } => {}
            other => panic!("burst got {other:?}"),
        }
    }
    stop.store(true, Ordering::Release);
    let mut flood = flooder.join().expect("flood thread");

    let row2 = await_conservation(&mut burst, 2, Instant::now() + Duration::from_secs(15));
    assert_eq!(row2.completed, BURST);
    assert_eq!(row2.rejected, 0, "{row2:?}");
    let row1 = await_conservation(&mut flood, 1, Instant::now() + Duration::from_secs(15));
    assert_eq!(row1.rejected, 0, "{row1:?}");
    drop(flood);
    drop(burst);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_queue_depth_below_the_handler_count_is_refused_at_start() {
    let mut config = small_config();
    config.threads = 2;
    config.engine.max_queue_depth = 1;
    let err = Server::start("127.0.0.1:0", config).err().expect("no share for handler 1");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}

#[test]
fn drain_with_a_queued_backlog_answers_every_item_once() {
    // Two shards whose share of the engine queue is one request each:
    // a connection on each, one with 100 pipelined Routes and one with
    // a 96-item RouteBatch, and a Drain that arrives while both
    // backlogs wait in the shards' schedulers. Completions keep pumping
    // the backlogs through the drain; every request is answered exactly
    // once, both ledgers conserve, and the server exits by quiescence,
    // well within its grace.
    let mut config = small_config();
    config.threads = 2;
    config.engine.workers = 1;
    config.engine.max_queue_depth = 2;
    config.allow_drain = true;
    config.drain_grace = Duration::from_secs(10);
    let grace = config.drain_grace;
    let server = Server::start("127.0.0.1:0", config).expect("start");
    let (addr, engine) = (server.local_addr(), server.engine_arc());
    let waiter = std::thread::spawn(move || server.wait());

    // Accepted first, so dealt to shard 0.
    let mut routes = Client::connect(addr).expect("connect routes");
    routes.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    routes.send(&Frame::Stats).unwrap();
    assert!(matches!(routes.recv().unwrap(), Frame::StatsReply { .. }));
    let mut batch = Client::connect(addr).expect("connect batch");
    batch.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // The batch and a Stats behind it: the Stats reply means the
    // batch's items are in shard 1's scheduler.
    const ITEMS: u64 = 96;
    let items = (0..ITEMS)
        .map(|i| benes_serve::proto::BatchItem {
            req_id: 500 + i,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    batch.send_all(&[Frame::RouteBatch { tenant: 2, items }, Frame::Stats]).unwrap();
    let mut batch_frames = Vec::new();
    loop {
        match batch.recv().expect("batch connection reply") {
            Frame::StatsReply { .. } => break,
            other => batch_frames.push(other),
        }
    }

    // 100 Routes and the Drain in one write: one read hands shard 0
    // all of them, so the Drain finds 99 Routes still queued.
    const ROUTES: u64 = 100;
    let mut frames: Vec<Frame> = (0..ROUTES)
        .map(|i| Frame::Route {
            req_id: i,
            tenant: 1,
            deadline_ms: 0,
            destinations: perm((i % 7) as u32),
        })
        .collect();
    frames.push(Frame::Drain);
    let drained_at = Instant::now();
    routes.send_all(&frames).unwrap();

    // Each connection's replies up to the server closing it.
    let until_closed = |client: &mut Client, frames: &mut Vec<Frame>| loop {
        match client.recv() {
            Ok(frame) => frames.push(frame),
            Err(benes_serve::RecvError::Closed) => break,
            Err(err) => panic!("expected the server to close the connection: {err:?}"),
        }
    };
    let mut route_frames = Vec::new();
    until_closed(&mut routes, &mut route_frames);
    until_closed(&mut batch, &mut batch_frames);
    let report = waiter.join().expect("server wait");
    assert!(drained_at.elapsed() < grace, "drain took {:?}", drained_at.elapsed());
    assert!(!report.timed_out);

    let mut answered = std::collections::HashSet::new();
    let mut acks = 0;
    for frame in route_frames {
        match frame {
            Frame::RouteReply { req_id, status, .. } => {
                assert_eq!(status, Status::Ok, "route {req_id}");
                assert!(answered.insert(req_id), "route {req_id} answered twice");
            }
            Frame::StatsReply { .. } => acks += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!((answered.len() as u64, acks), (ROUTES, 1));
    let [Frame::RouteBatchReply { items }] = batch_frames.as_slice() else {
        panic!("expected one RouteBatchReply, got {batch_frames:?}");
    };
    let ids: Vec<u64> = items.iter().map(|i| i.req_id).collect();
    assert_eq!(ids, (500..500 + ITEMS).collect::<Vec<_>>());
    assert!(items.iter().all(|i| i.status == Status::Ok), "{items:?}");

    let rows = engine.stats().tenants;
    for (tenant, count) in [(1, ROUTES), (2, ITEMS)] {
        let row = TenantRow::from(
            rows.iter().find(|(t, _)| *t == tenant).cloned().expect("tenant row"),
        );
        assert!(row.conserves_requests(), "{row:?}");
        assert_eq!((row.submitted, row.completed), (count, count), "{row:?}");
    }
}
