//! Integration tests for the engine's run queue: conservation under
//! a submit storm, drain-with-deadline, the deadline-after-chaos-delay
//! shed, and the queue-depth / queue-wait observability surface.

use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_engine::workload::mixed_workload;
use benes_engine::{ChaosConfig, Engine, EngineConfig, EngineError, Ticket};
use benes_perm::bpc::Bpc;
use benes_perm::Permutation;

fn small() -> Permutation {
    Bpc::bit_reversal(3).to_permutation()
}

/// Named-bug regression (worker.rs): the deadline was only checked
/// *before* the chaos delay, so a request whose injected delay carried
/// it past its deadline was planned, executed, and handed back a
/// success the engine had promised to shed. The worker must re-check
/// after waking.
#[test]
fn chaos_delay_past_deadline_sheds_after_wake() {
    let engine =
        Engine::new(EngineConfig { workers: 1, batch_size: 1, ..EngineConfig::default() });
    engine.set_chaos(ChaosConfig {
        seed: 9,
        fail_per_1024: 0,
        delay_per_1024: 1024, // every request sleeps…
        delay: Duration::from_millis(200),
    });
    // …and the deadline expires mid-sleep: dequeue happens well within
    // 50ms, the 200ms injected delay then overshoots the deadline.
    let outcome = engine
        .submit_with_deadline(small(), Instant::now() + Duration::from_millis(50))
        .wait();
    assert_eq!(
        outcome.result,
        Err(EngineError::DeadlineExceeded),
        "a delay past the deadline must shed, not serve"
    );
    let stats = engine.stats();
    assert_eq!(stats.completed, 0, "the expired request must never execute");
    assert_eq!(stats.deadline_exceeded, 1);
    assert!(stats.conserves_requests());
}

/// Many submitters hammering a multi-worker engine whose batch size
/// makes every take contend for the queue lock. Every request must
/// land in exactly one terminal state.
#[test]
fn submit_storm_conserves_requests() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 4,
        batch_size: 1, // one job per take: maximal lock interleaving
        ..EngineConfig::default()
    }));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let tickets: Vec<_> = mixed_workload(3, 50, t)
                    .into_iter()
                    .map(|d| engine.submit(d))
                    .collect();
                tickets.into_iter().map(Ticket::wait).all(|o| o.is_ok())
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap(), "every stormed request must succeed");
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, 8 * 50);
    assert_eq!(stats.completed, 8 * 50);
    assert!(
        stats.conserves_requests(),
        "the storm must not lose or double-count:\n{stats}"
    );
}

/// Drain with a deadline while strands sit queued behind busy workers:
/// the timed-out drain must cancel all of them.
#[test]
fn drain_deadline_cancels_everything_queued() {
    let engine =
        Engine::new(EngineConfig { workers: 4, batch_size: 1, ..EngineConfig::default() });
    engine.set_chaos(ChaosConfig {
        seed: 3,
        fail_per_1024: 0,
        delay_per_1024: 1024,
        delay: Duration::from_millis(250),
    });
    // Four in-flight jobs put every worker to sleep…
    let in_flight = engine.submit_all((0..4).map(|_| small()));
    std::thread::sleep(Duration::from_millis(60));
    // …then twelve strands queue behind them.
    let strands = engine.submit_all(mixed_workload(3, 12, 42));
    let report = engine.drain(Instant::now() + Duration::from_millis(10));
    assert!(report.timed_out, "deadline shorter than the in-flight sleeps");
    assert_eq!(report.canceled, 12, "every queued strand is canceled");
    for t in in_flight {
        assert!(t.wait().is_ok(), "in-flight jobs finish during join");
    }
    for t in strands {
        assert_eq!(t.wait().result, Err(EngineError::Canceled));
    }
    assert!(engine.stats().conserves_requests());
}

/// The observability surface: the current queue depth, and end-to-end
/// latency decomposed into queue wait + service time, all visible in
/// the stats report and the exposition.
#[test]
fn depth_and_latency_split_are_visible() {
    let engine = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
    for t in engine.submit_all(mixed_workload(3, 30, 7)) {
        assert!(t.wait().is_ok());
    }
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, 0, "all served: the queue drained");
    assert!(stats.queue_high_water >= 1, "the submits were seen queued");
    assert_eq!(stats.queue_wait.count(), 30, "every served job records its wait");
    assert_eq!(stats.service.count(), 30, "every served job records its service time");
    let text = stats.exposition().to_prometheus();
    for needle in [
        "benes_queue_depth 0\n",
        "benes_queue_wait_ns{quantile=\"0.5\"}",
        "benes_service_ns{quantile=\"0.99\"}",
        "benes_queue_wait_ns_count",
        "benes_service_ns_count",
    ] {
        assert!(text.contains(needle), "exposition missing {needle}:\n{text}");
    }
    let human = stats.report();
    assert!(human.contains("queue wait (ns)"), "{human}");
    assert!(human.contains("service time (ns)"), "{human}");
    assert!(human.contains("queue depth: 0 (high-water mark"), "{human}");
}
