//! Concurrency and end-to-end acceptance tests for the engine:
//! cache behaviour under contention, and a large mixed-workload batch
//! run on a multi-worker pool. Every test that expects a cache replay
//! runs at [`CACHE_MIN_ORDER`], the smallest order whose fresh plans
//! the engine caches.

use benes_engine::workload::{self, Rng64};
use benes_engine::{Engine, EngineConfig, Fallback, Tier, CACHE_MIN_ORDER};
use std::sync::{Arc, Barrier};
use std::thread;

/// Two threads submitting the **same** permutation concurrently must
/// both succeed, and the cache must end with exactly one entry.
#[test]
fn concurrent_same_permutation_one_cache_entry() {
    let mut rng = Rng64::new(0x00c0_ffee);
    let hard = workload::hard_permutation(&mut rng, CACHE_MIN_ORDER);

    // Repeat the race a few times: a single interleaving proves little.
    for round in 0..8 {
        let engine =
            Arc::new(Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() }));
        let start = Arc::new(Barrier::new(2));

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let start = Arc::clone(&start);
                let d = hard.clone();
                thread::spawn(move || {
                    start.wait();
                    engine.submit(d).wait()
                })
            })
            .collect();

        for handle in handles {
            let outcome = handle.join().expect("submitter thread panicked");
            assert!(outcome.is_ok(), "round {round}: {:?}", outcome.result);
        }
        assert_eq!(
            engine.cache_len(),
            1,
            "round {round}: duplicate submissions must collapse to one cache entry"
        );

        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }
}

/// Many threads hammering a small set of permutations: every request
/// succeeds and the cache holds at most one entry per distinct
/// cacheable permutation.
#[test]
fn many_threads_small_keyspace() {
    let mut rng = Rng64::new(77);
    let perms: Vec<_> =
        (0..4).map(|_| workload::hard_permutation(&mut rng, CACHE_MIN_ORDER)).collect();

    let engine =
        Arc::new(Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() }));
    let start = Arc::new(Barrier::new(8));

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let start = Arc::clone(&start);
            let perms = perms.clone();
            thread::spawn(move || {
                start.wait();
                for i in 0..16 {
                    let outcome =
                        engine.submit(perms[(t + i) % perms.len()].clone()).wait();
                    assert!(outcome.is_ok(), "misroute under contention: {outcome:?}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("submitter thread panicked");
    }

    let stats = engine.stats();
    assert_eq!(stats.completed, 8 * 16);
    assert_eq!(stats.failed, 0);
    assert!(engine.cache_len() <= perms.len());
    assert!(stats.cache_hits > 0, "repeats across threads must hit the cache");
}

/// Acceptance (b) + (c): a 4-worker batched run over ≥1000 mixed
/// requests returns a correct outcome for every request, and the stats
/// report non-zero counts for at least the self-route, Waksman, and
/// cache tiers.
#[test]
fn mixed_workload_1000_requests_on_four_workers() {
    let engine =
        Engine::new(EngineConfig { workers: 4, batch_size: 16, ..EngineConfig::default() });
    let stream = workload::mixed_workload(CACHE_MIN_ORDER, 1000, 0xbe5e);

    let outcomes = engine.run_batch(stream);
    assert_eq!(outcomes.len(), 1000);
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(outcome.is_ok(), "request {i} failed: {:?}", outcome.result);
    }

    let stats = engine.stats();
    assert_eq!(stats.submitted, 1000);
    assert_eq!(stats.completed, 1000);
    assert_eq!(stats.failed, 0);
    assert!(stats.self_route > 0, "Table I BPC members must self-route:\n{stats}");
    assert!(stats.waksman > 0, "hard permutations must reach the Waksman tier:\n{stats}");
    assert!(
        stats.cached > 0,
        "repeated hard permutations must replay from cache:\n{stats}"
    );
    assert_eq!(
        stats.self_route + stats.omega_bit + stats.factored + stats.waksman + stats.cached,
        1000,
        "every request lands in exactly one tier"
    );
    assert!(stats.latency_max_ns() >= stats.latency_min_ns());
    assert_eq!(stats.latency.count(), 1000, "every request lands in the histogram");
    assert!(stats.queue_high_water > 0);
}

/// The same mixed workload through the factored fallback: still fully
/// correct, and the expensive tier is the two-pass factorization
/// instead of Waksman.
#[test]
fn mixed_workload_factored_fallback() {
    let engine = Engine::new(EngineConfig {
        workers: 4,
        fallback: Fallback::Factored,
        ..EngineConfig::default()
    });
    let stream = workload::mixed_workload(CACHE_MIN_ORDER, 400, 0xfac7);

    let outcomes = engine.run_batch(stream);
    assert!(outcomes.iter().all(benes_engine::RequestOutcome::is_ok));

    let stats = engine.stats();
    assert_eq!(stats.completed, 400);
    assert_eq!(stats.waksman, 0, "factored fallback must never call the Waksman set-up");
    assert!(stats.factored > 0);
    assert!(stats.cached > 0, "two-pass plans are cacheable and must replay");
}

/// Tier bookkeeping is visible per request, not only in aggregate.
#[test]
fn outcomes_expose_their_tier() {
    let engine = Engine::new(EngineConfig::default());
    let mut rng = Rng64::new(11);
    let hard = workload::hard_permutation(&mut rng, CACHE_MIN_ORDER);
    let bpc = workload::table1_permutations(CACHE_MIN_ORDER).remove(0).1;

    assert_eq!(engine.submit(bpc).wait().tier(), Some(Tier::SelfRoute));
    assert_eq!(engine.submit(hard.clone()).wait().tier(), Some(Tier::Waksman));
    assert_eq!(engine.submit(hard).wait().tier(), Some(Tier::Cached));
}
