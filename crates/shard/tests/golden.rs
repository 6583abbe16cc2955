//! Scrape golden test: pins the byte-exact operator-facing output of
//! every request ledger in the stack — the engine's Prometheus text
//! (with tenants, sheds and breaker activity), the `FleetStats`
//! exposition plus `report()` (which `scripts/fleet.sh` greps), and
//! the wire bytes of a `StatsReply`.
//!
//! Every input is fixed, so any change to a metric name, a label, the
//! sample order, a report line or the wire encoding shows up here as a
//! diff against the files under `tests/golden/`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_engine::{BreakerState, Engine, EngineConfig, EngineStats, Tier};
use benes_obs::{Histogram, HistogramSnapshot};
use benes_perm::Permutation;
use benes_serve::{Frame, TenantRow};
use benes_shard::{Backend, FleetStats, LocalShard};

fn hist(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// An engine snapshot with every optional section populated.
fn engine_stats(scale: u64) -> EngineStats {
    let mut s = EngineStats {
        submitted: 40 * scale,
        completed: 30 * scale,
        failed: 3 * scale,
        shed: 5 * scale,
        canceled: 2 * scale,
        rejected: 4 * scale,
        cached: 10 * scale,
        self_route: 12 * scale,
        omega_bit: 3 * scale,
        factored: 2 * scale,
        waksman: 3 * scale,
        cache_hits: 10 * scale,
        cache_misses: 20 * scale,
        queue_high_water: 9,
        latency: hist(&[900, 1_200, 5_000, 70_000]),
        tier_latency: Tier::ALL
            .iter()
            .map(|&t| match t {
                Tier::SelfRoute => (t, hist(&[900, 1_200])),
                Tier::Waksman => (t, hist(&[70_000])),
                _ => (t, HistogramSnapshot::default()),
            })
            .collect(),
        failed_latency: hist(&[5_000]),
        faults_injected: 1,
        faults_detected: 2,
        reroutes_succeeded: 1,
        reroutes_failed: 1,
        fault_retries: 1,
        static_validated: 3,
        deadline_exceeded: 3 * scale,
        breaker_shed: 2 * scale,
        breaker_opened: 2,
        breaker_reclosed: 1,
        breaker_probes: 3,
        shed_latency: hist(&[400, 800]),
        queue_wait: hist(&[100, 300]),
        service: hist(&[700, 4_000]),
        breaker_states: vec![(3, BreakerState::Closed), (4, BreakerState::Open)],
        queue_depth: 2,
        tenants: vec![(7, Default::default()), (9, Default::default())],
    };
    let t7 = &mut s.tenants[0].1;
    t7.submitted = 25 * scale;
    t7.completed = 20 * scale;
    t7.failed = 2 * scale;
    t7.shed = 3 * scale;
    t7.rejected = 4 * scale;
    let t9 = &mut s.tenants[1].1;
    t9.submitted = 15 * scale;
    t9.completed = 10 * scale;
    t9.failed = scale;
    t9.shed = 2 * scale;
    t9.canceled = 2 * scale;
    s
}

/// A fleet of two local shards driven through a fixed unit sequence,
/// with the transport half of each ledger pinned by hand.
fn fleet_stats() -> FleetStats {
    let config = EngineConfig { workers: 1, ..EngineConfig::default() };
    let past = Instant::now() - Duration::from_millis(1);
    let per_shard = (0..2u64)
        .map(|i| {
            let shard = LocalShard::new(Arc::new(Engine::new(config.clone())));
            let mut tickets = Vec::new();
            for _ in 0..3 + i {
                tickets.push(shard.submit(Permutation::identity(8), None));
            }
            // An unsupported length fails; an expired deadline sheds.
            tickets.push(shard.submit(Permutation::identity(3), None));
            for _ in 0..=i {
                tickets.push(shard.submit(Permutation::identity(8), Some(past)));
            }
            for t in tickets {
                let _ = t.wait();
            }
            let mut l = shard.ledger();
            l.kind = "remote";
            l.retries = 2 + i;
            l.failovers = i;
            l.hedges = 1;
            l.reconnects = 3 * i;
            l.healthy = i == 0;
            (format!("remote 127.0.0.1:920{i}"), l)
        })
        .collect();
    FleetStats::new(per_shard)
}

fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden file {path}: {e}"));
    assert!(
        actual == expected,
        "{name} drifted from its golden file.\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn engine_prometheus_text_is_pinned() {
    golden("engine.prom", &engine_stats(1).exposition().to_prometheus());
}

#[test]
fn fleet_stats_exposition_and_report_are_pinned() {
    let fleet = fleet_stats();
    golden("fleet.prom", &fleet.exposition().to_prometheus());
    golden("fleet_report.txt", &fleet.report());
}

#[test]
fn stats_reply_wire_bytes_are_pinned() {
    let rows = vec![
        TenantRow {
            tenant: 1,
            submitted: 5,
            completed: 3,
            failed: 1,
            shed: 1,
            canceled: 0,
            rejected: 9,
        },
        TenantRow {
            tenant: u64::MAX,
            submitted: 1 << 40,
            completed: (1 << 40) - 2,
            failed: 0,
            shed: 0,
            canceled: 2,
            rejected: 0,
        },
    ];
    let bytes = Frame::StatsReply { rows }.to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    golden("stats_reply.hex", &format!("{hex}\n"));
}
