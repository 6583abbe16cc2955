//! The decomposition is `B(n)`'s own recursion cut at depth `r`, so its
//! outer units land in the zero-set-up classes: every stage-1 unit is in
//! `Ω⁻¹(r) ⊆ F(r)` and every stage-3 unit in `Ω(r)`. These tests pin that
//! property, check that the planner still picks the tier the paper's
//! oracle ladder picks for every unit, and count the tiers a fleet
//! actually serves a round on.

use benes_core::class_f::is_in_f;
use benes_engine::plan::{plan, Fallback, Tier};
use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::EngineConfig;
use benes_perm::bpc::Bpc;
use benes_perm::omega::{is_inverse_omega, is_omega};
use benes_perm::Permutation;
use benes_shard::{decompose, Decomposition, ShardConfig, ShardCoordinator};
use proptest::prelude::*;

/// Decomposes `pi` at block width `r` and checks that it recombines and
/// that its outer units are in the omega classes.
fn assert_outer_units_in_omega_classes(pi: &Permutation, r: u32) -> Decomposition {
    let d = decompose(pi, r).expect("power-of-two permutations decompose");
    assert!(d.recombines_to(pi), "r={r} pi={pi}");
    for (b, unit) in d.stage1().iter().enumerate() {
        assert!(is_inverse_omega(unit), "stage-1 unit {b} = {unit} ∉ Ω⁻¹, r={r} pi={pi}");
    }
    for (b, unit) in d.stage3().iter().enumerate() {
        assert!(is_omega(unit), "stage-3 unit {b} = {unit} ∉ Ω, r={r} pi={pi}");
    }
    d
}

/// Every permutation of `0..len`, by Heap's algorithm.
fn all_permutations(len: usize) -> Vec<Permutation> {
    let mut dest: Vec<u32> = (0..len as u32).collect();
    let mut c = vec![0usize; len];
    let mut out = vec![Permutation::from_destinations(dest.clone()).unwrap()];
    let mut i = 0;
    while i < len {
        if c[i] < i {
            dest.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            out.push(Permutation::from_destinations(dest.clone()).unwrap());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

#[test]
fn outer_units_are_omega_class_for_every_permutation_n3() {
    let all = all_permutations(8);
    assert_eq!(all.len(), 40_320);
    for pi in &all {
        for r in 1..3 {
            assert_outer_units_in_omega_classes(pi, r);
        }
    }
}

#[test]
fn outer_units_are_omega_class_n4() {
    // 16! permutations are out of reach; every BPC permutation of 4 bits
    // (the paper's structured class) plus a seeded random sample covers
    // every block width.
    let n = 4;
    let mut perms: Vec<Permutation> = Vec::new();
    for order in all_permutations(4) {
        for signs in 0..16u32 {
            let pairs = (0..n)
                .map(|i| (order.destination(i as usize), (signs >> i) & 1 == 1))
                .collect();
            perms.push(Bpc::from_pairs(pairs).unwrap().to_permutation());
        }
    }
    let mut rng = Rng64::new(0x4b10c);
    perms.extend((0..4000).map(|_| random_permutation(&mut rng, 16)));
    for pi in &perms {
        for r in 1..n {
            assert_outer_units_in_omega_classes(pi, r);
        }
    }
}

#[test]
fn color_numbering_is_pinned() {
    // The class property depends on the numbering: colour bit k is the
    // sub-network chosen at depth k. Reversing the colour bits keeps the
    // decomposition valid but moves stage-1 units out of Ω⁻¹, so pin it.
    let pi = Permutation::from_destinations(vec![2, 5, 3, 7, 1, 6, 4, 0]).unwrap();
    let d = assert_outer_units_in_omega_classes(&pi, 2);
    let stage1: Vec<&[u32]> = d.stage1().iter().map(Permutation::destinations).collect();
    assert_eq!(stage1, [[0, 1, 3, 2], [2, 3, 0, 1]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outer_units_are_omega_class_up_to_n12(
        (n, r, seed) in (3u32..=12).prop_flat_map(|n| (Just(n), 1..n, any::<u64>()))
    ) {
        let pi = random_permutation(&mut Rng64::new(seed), 1usize << n);
        assert_outer_units_in_omega_classes(&pi, r);
    }
}

/// The tier the paper's oracle ladder picks: Theorem 1, then `Ω(n)`,
/// then the fallback.
fn oracle_tier(d: &Permutation, fallback: Fallback) -> Tier {
    if is_in_f(d) {
        Tier::SelfRoute
    } else if is_omega(d) {
        Tier::OmegaBit
    } else {
        match fallback {
            Fallback::Waksman => Tier::Waksman,
            Fallback::Factored => Tier::Factored,
        }
    }
}

#[test]
fn planner_matches_the_oracle_ladder_on_every_unit_of_a_round() {
    let n = 12;
    let mut rng = Rng64::new(0x7e5);
    for _ in 0..4 {
        let pi = random_permutation(&mut rng, 1 << n);
        let d = decompose(&pi, n / 2).unwrap();
        for unit in d.stage1().iter().chain(d.between()).chain(d.stage3()) {
            for fallback in [Fallback::Waksman, Fallback::Factored] {
                let tier = plan(unit, fallback).unwrap().tier();
                assert_eq!(tier, oracle_tier(unit, fallback), "unit {unit}");
            }
        }
    }
}

#[test]
fn fleet_serves_the_outer_units_on_zero_setup_tiers() {
    let coord = ShardCoordinator::new(ShardConfig {
        shards: 2,
        engine: EngineConfig { workers: 1, ..EngineConfig::default() },
        ..ShardConfig::default()
    });
    let pi = random_permutation(&mut Rng64::new(12), 1 << 12);
    let outcome = coord.route(&pi).unwrap();
    assert!(outcome.verified, "{}", outcome.summary());
    assert_eq!(outcome.units.len(), 192);
    let zero_setup = (outcome.units.iter())
        .filter(|u| matches!(u.result, Ok(Tier::SelfRoute | Tier::OmegaBit)))
        .count();
    assert!(zero_setup >= 128, "only {zero_setup} of 192 units on zero-set-up tiers");
}
