//! Engine service demo: a batched, cached, multi-threaded routing
//! engine fed a mixed workload — the paper's Table I BPC permutations
//! (zero set-up), random `Ω(n)` members, and hard permutations that
//! force a full Waksman set-up — once, from `CACHE_MIN_ORDER` up, where
//! a repeat replays the cached plan.
//!
//! Run with: `cargo run --example engine_service`

use std::time::{Duration, Instant};

use benes::engine::workload::{
    hard_permutation, mixed_workload, table1_permutations, Rng64,
};
use benes::engine::{
    run_soak, Engine, EngineConfig, Fallback, SoakConfig, CACHE_MIN_ORDER,
};

fn main() {
    // --- 1. Single requests: watch the tier ladder fire. ---
    let engine = Engine::new(EngineConfig::default());
    println!(
        "engine up: {} workers, batch size {}, cache capacity {}\n",
        engine.config().workers,
        engine.config().batch_size,
        engine.config().cache_capacity
    );

    for (name, d) in table1_permutations(4) {
        let outcome = engine.submit(d).wait();
        println!(
            "  {name:<20} tier = {:<10} ({} ns)",
            outcome.tier().expect("Table I routes").name(),
            outcome.latency.as_nanos()
        );
    }

    let mut rng = Rng64::new(7);
    let hard = hard_permutation(&mut rng, CACHE_MIN_ORDER);
    let first = engine.submit(hard.clone()).wait();
    let second = engine.submit(hard).wait();
    println!(
        "\n  a hard permutation on B({CACHE_MIN_ORDER}):  first = {} ({} ns), repeat = {} ({} ns)\n",
        first.tier().expect("routes").name(),
        first.latency.as_nanos(),
        second.tier().expect("routes").name(),
        second.latency.as_nanos()
    );

    // --- 2. A batched mixed workload across the worker pool. ---
    let stream = mixed_workload(5, 2000, 0xbe25);
    let outcomes = engine.run_batch(stream);
    let failures = outcomes.iter().filter(|o| !o.is_ok()).count();
    println!("batched 2000 mixed requests on B(5): {failures} failures\n");
    println!("{}", engine.stats().report());

    // --- 3. The same stream under the Ω⁻¹·Ω factored fallback: no
    //        Waksman set-up at all, two zero-set-up passes instead. ---
    let factored = Engine::new(EngineConfig {
        fallback: Fallback::Factored,
        ..EngineConfig::default()
    });
    let outcomes = factored.run_batch(mixed_workload(5, 2000, 0xbe25));
    assert!(outcomes.iter().all(benes::engine::RequestOutcome::is_ok));
    let stats = factored.stats();
    println!(
        "factored fallback: waksman = {}, factored = {}, zero-set-up share = {:.0}%",
        stats.waksman,
        stats.factored,
        stats.zero_setup_rate() * 100.0
    );
    assert_eq!(stats.waksman, 0);

    // --- 4. Operating under load: bounded admission, deadlines, a
    //        non-blocking poll, and a graceful drain. ---
    let bounded = Engine::new(EngineConfig {
        workers: 2,
        max_queue_depth: 64,
        ..EngineConfig::default()
    });
    let victim = hard_permutation(&mut rng, 4);
    let expired = bounded.submit_with_deadline(victim.clone(), Instant::now()).wait();
    println!("\nan expired deadline is shed, never planned: {:?}", expired.result);

    let mut ticket = bounded.submit(victim);
    while ticket.try_result().is_none() {
        std::thread::yield_now(); // poll instead of blocking
    }
    let drained = bounded.drain(Instant::now() + Duration::from_secs(5));
    println!(
        "drained: {} canceled, timed out: {}; admission now refuses: {:?}",
        drained.canceled,
        drained.timed_out,
        bounded.try_submit(table1_permutations(4).remove(0).1).unwrap_err()
    );

    // --- 5. The deterministic chaos soak: the whole lifecycle under a
    //        seeded schedule of failure bursts and recoveries. ---
    let soak = run_soak(&SoakConfig::new(3962, 150));
    print!("\n{}", soak.render());
    assert!(soak.healthy());
}
