//! Acceptance test for the headline claim: a permutation of
//! `N = 2^20` elements — far beyond what one engine request carries —
//! routed across a fleet of 4 engine shards with bitwise-verified
//! recombination.

use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::EngineConfig;
use benes_shard::{ShardConfig, ShardCoordinator, Stage};

#[test]
fn two_to_the_twenty_routes_across_four_shards_bitwise() {
    let n = 20u32;
    let pi = random_permutation(&mut Rng64::new(0x5eed), 1usize << n);
    let coord = ShardCoordinator::new(ShardConfig {
        shards: 4,
        engine: EngineConfig { workers: 2, ..EngineConfig::default() },
        ..ShardConfig::default()
    });

    let outcome = coord.route(&pi).unwrap();

    // Balanced split: r = 10, so 2^10 blocks of 2^10 elements and
    // 2 * 1024 + 1024 = 3072 routing units.
    assert_eq!(outcome.block_bits, 10);
    assert_eq!(outcome.units.len(), 3072);
    assert!(outcome.is_complete(), "{}", outcome.summary());
    assert_eq!(outcome.routed_elements, 1 << 20);

    // The claim itself: recombining the three scattered stages
    // reproduces pi element by element (`verified` is that bitwise
    // comparison, it is never inferred from unit success alone).
    assert!(outcome.verified, "{}", outcome.summary());

    // All four shards actually participated, on every stage.
    for shard in 0..4 {
        for stage in [Stage::SourceBlock, Stage::Between, Stage::DestBlock] {
            assert!(
                outcome.units.iter().any(|u| u.shard == shard && u.stage == stage),
                "shard {shard} saw no {} units",
                stage.as_str(),
            );
        }
    }

    // Fleet ledgers: 3072 requests admitted, all completed, conserved
    // on every shard.
    let fleet = coord.fleet_stats();
    let sum = |f: fn(&benes_obs::Ledger) -> u64| -> u64 {
        fleet.per_shard().iter().map(|(_, l)| f(&l.requests)).sum()
    };
    assert_eq!(sum(|l| l.submitted), 3072);
    assert_eq!(sum(|l| l.completed), 3072);
    assert!(fleet.conserves_requests(), "{}", fleet.report());
}
