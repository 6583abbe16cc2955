//! `RouteBatch` end to end over real sockets: one `RouteBatchReply`
//! per batch with exactly one status per item, in item order, whatever
//! each item's fate — served after waiting for room in the handler's
//! share of the engine queue, refused as a non-permutation, over its
//! tenant's quota, or refused by a draining server — and per-tenant
//! conservation when the connection dies mid-batch.

use std::time::{Duration, Instant};

use benes_engine::chaos::ChaosConfig;
use benes_engine::EngineConfig;
use benes_serve::proto::{BatchItem, Frame, ReplyItem, Status, TenantRow};
use benes_serve::server::{ServeConfig, Server};
use benes_serve::Client;

/// One handler thread (deterministic scheduling), one engine worker.
fn config(max_queue_depth: usize) -> ServeConfig {
    ServeConfig {
        threads: 1,
        engine: EngineConfig { workers: 1, max_queue_depth, ..EngineConfig::default() },
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// A valid n=3 permutation cycling by `k`.
fn perm(k: u32) -> Vec<u32> {
    (0..8u32).map(|i| (i + k) % 8).collect()
}

/// A batch of `count` valid units with request ids `100..`.
fn items(count: u32) -> Vec<BatchItem> {
    (0..count)
        .map(|k| BatchItem {
            req_id: 100 + u64::from(k),
            deadline_ms: 0,
            destinations: perm(k),
        })
        .collect()
}

/// Sends one batch and returns its reply's items, checking that they
/// answer the batch's request ids one for one, in order.
fn round_trip(client: &mut Client, tenant: u64, batch: Vec<BatchItem>) -> Vec<ReplyItem> {
    let ids: Vec<u64> = batch.iter().map(|i| i.req_id).collect();
    client.send(&Frame::RouteBatch { tenant, items: batch }).expect("send batch");
    let Frame::RouteBatchReply { items } = client.recv().expect("batch reply") else {
        panic!("expected one RouteBatchReply");
    };
    assert_eq!(items.iter().map(|i| i.req_id).collect::<Vec<_>>(), ids);
    items
}

fn statuses(items: &[ReplyItem]) -> Vec<Status> {
    items.iter().map(|i| i.status).collect()
}

/// Polls the server's Stats frame until tenant `t`'s ledger conserves
/// with `submitted` admitted, or the deadline passes.
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
fn a_batch_deeper_than_the_engine_queue_completes_in_one_reply() {
    // 20 items against a handler share of 8: the 12 past the share wait
    // in the scheduler and are admitted as the worker finishes the
    // first ones — no refusal, one reply, one status per item.
    let server = Server::start("127.0.0.1:0", config(8)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = round_trip(&mut client, 1, items(20));
    assert_eq!(statuses(&reply), vec![Status::Ok; 20]);
    assert!(reply.iter().all(|i| i.tier.is_some() && i.latency_ns > 0));
    let row = await_conservation(&mut client, 1, Instant::now() + Duration::from_secs(5));
    assert_eq!(row.completed, 20);
    assert_eq!(row.rejected, 0, "the items past the share waited, never refused: {row:?}");
    assert_eq!(server.counters().replies.load(std::sync::atomic::Ordering::Relaxed), 20);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn one_bad_item_is_refused_alone() {
    let server = Server::start("127.0.0.1:0", config(64)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut batch = items(3);
    batch[1].destinations = vec![0, 0, 1, 2]; // not a permutation
    let reply = round_trip(&mut client, 1, batch);
    assert_eq!(statuses(&reply), vec![Status::Ok, Status::BadRequest, Status::Ok]);
    // An empty batch is answered at once, with no items.
    assert!(round_trip(&mut client, 1, Vec::new()).is_empty());
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn items_over_the_tenant_quota_are_refused_per_item() {
    let server =
        Server::start("127.0.0.1:0", ServeConfig { quota: 2, ..config(64) }).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = round_trip(&mut client, 9, items(5));
    assert_eq!(
        statuses(&reply),
        [[Status::Ok; 2].as_slice(), &[Status::QuotaExceeded; 3]].concat()
    );
    let row = await_conservation(&mut client, 9, Instant::now() + Duration::from_secs(5));
    assert_eq!(row.submitted, 2, "refused items never reach the engine");
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_draining_server_refuses_every_item() {
    // Stopping handler: a slow request keeps it in its drain grace, so
    // the batch arriving meanwhile is refused item by item.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            allow_drain: true,
            drain_grace: Duration::from_secs(10),
            ..config(64)
        },
    )
    .unwrap();
    server.engine().set_chaos(ChaosConfig {
        delay_per_1024: 1024,
        delay: Duration::from_millis(400),
        ..ChaosConfig::default()
    });
    let mut slow = Client::connect(server.local_addr()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.send(&Frame::Route {
        req_id: 1,
        tenant: 1,
        deadline_ms: 0,
        destinations: perm(1),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.send(&Frame::Drain).unwrap();
    assert!(matches!(client.recv().unwrap(), Frame::StatsReply { .. }));
    std::thread::sleep(Duration::from_millis(50));
    let reply = round_trip(&mut client, 1, items(4));
    assert_eq!(statuses(&reply), vec![Status::Draining; 4]);
    server.wait();
}

#[test]
fn a_drained_engine_refuses_every_queued_item() {
    // The engine itself refuses admission: the pump answers the whole
    // queued batch Draining, in one reply.
    let server = Server::start("127.0.0.1:0", config(64)).unwrap();
    server.engine().drain(Instant::now());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = round_trip(&mut client, 1, items(6));
    assert_eq!(statuses(&reply), vec![Status::Draining; 6]);
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_queue_filled_around_the_server_answers_rejected() {
    // The handlers' shares never fill the engine queue, but requests
    // submitted straight to the engine can: the pump then answers each
    // refused item `Rejected` and puts none of them back.
    let server = Server::start("127.0.0.1:0", config(2)).unwrap();
    server.engine().set_chaos(ChaosConfig {
        delay_per_1024: 1024,
        delay: Duration::from_millis(400),
        ..ChaosConfig::default()
    });
    // Fill the queue, let the worker take those and stall on them, then
    // fill the queue again behind it.
    let mut tickets = Vec::new();
    let mut fill = || {
        let direct = |k| benes_perm::Permutation::from_destinations(perm(k)).unwrap();
        while let Ok(ticket) = server.engine().try_submit(direct(tickets.len() as u32)) {
            tickets.push(ticket);
        }
    };
    fill();
    std::thread::sleep(Duration::from_millis(100));
    fill();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = round_trip(&mut client, 3, items(3));
    assert_eq!(statuses(&reply), vec![Status::Rejected; 3]);
    server.engine().set_chaos(ChaosConfig::default());
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }
    let reply = round_trip(&mut client, 3, items(3));
    assert_eq!(statuses(&reply), vec![Status::Ok; 3]);
    let row = await_conservation(&mut client, 3, Instant::now() + Duration::from_secs(5));
    assert_eq!((row.completed, row.rejected), (3, 3), "{row:?}");
    server.shutdown(Instant::now() + Duration::from_secs(5));
}

#[test]
fn a_connection_killed_mid_batch_leaves_ledgers_conserving() {
    let server = Server::start("127.0.0.1:0", config(32)).unwrap();
    for round in 0..5u64 {
        let mut doomed = Client::connect(server.local_addr()).unwrap();
        let batch: Vec<BatchItem> = (0..200u32)
            .map(|k| BatchItem {
                req_id: u64::from(k),
                deadline_ms: 0,
                destinations: (0..256u32).map(|i| (i * 5 + k) % 256).collect(),
            })
            .collect();
        doomed.send(&Frame::RouteBatch { tenant: 40 + round, items: batch }).unwrap();
        doomed.kill();
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for tenant in 40..45 {
        let row = await_conservation(
            &mut client,
            tenant,
            Instant::now() + Duration::from_secs(10),
        );
        assert!(row.submitted <= 200, "{row:?}");
    }
    server.shutdown(Instant::now() + Duration::from_secs(5));
}
