//! Property-based tests tying the paper's theorems to the network model.

use benes_core::class_f::{is_in_f, is_in_f_by_simulation};
use benes_core::{waksman, Benes};
use benes_perm::bpc::{Bpc, SignedBit};
use benes_perm::omega::{is_inverse_omega, p_ordering_shift, segment_cyclic_shift};
use benes_perm::partition::{between_blocks, within_blocks, JPartition};
use benes_perm::Permutation;
use proptest::prelude::*;

fn arb_permutation(len: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |(), mut rng| {
        let mut dest: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            dest.swap(i, j);
        }
        Permutation::from_destinations(dest).expect("shuffle is a bijection")
    })
}

fn arb_bpc(n: u32) -> impl Strategy<Value = Bpc> {
    (arb_permutation(n as usize), proptest::collection::vec(any::<bool>(), n as usize))
        .prop_map(move |(positions, signs)| {
            let entries = positions
                .destinations()
                .iter()
                .zip(signs)
                .map(|(&p, c)| if c { SignedBit::minus(p) } else { SignedBit::plus(p) })
                .collect();
            Bpc::from_entries(entries).expect("valid BPC vector")
        })
}

proptest! {
    /// Theorem 1's recursion and the flattened-circuit simulation are the
    /// same predicate.
    #[test]
    fn recursion_equals_simulation(p in arb_permutation(16)) {
        prop_assert_eq!(is_in_f(&p), is_in_f_by_simulation(&p));
    }

    /// Theorem 2: BPC(n) ⊆ F(n), at a size beyond the exhaustive tests.
    #[test]
    fn random_bpc_in_f(b in arb_bpc(6)) {
        prop_assert!(is_in_f(&b.to_permutation()));
    }

    /// Theorem 2 via hardware: random BPC permutations self-route on B(6).
    #[test]
    fn random_bpc_self_routes(b in arb_bpc(6)) {
        let net = Benes::new(6);
        prop_assert!(net.self_route(&b.to_permutation()).is_success());
    }

    /// Theorem 3: random affine (inverse-omega) permutations self-route.
    #[test]
    fn affine_self_routes(pmul in (0u64..128).prop_map(|v| 2 * v + 1), k in -200i64..200) {
        let d = p_ordering_shift(6, pmul, k);
        prop_assert!(is_inverse_omega(&d));
        prop_assert!(is_in_f(&d));
        prop_assert!(Benes::new(6).self_route(&d).is_success());
    }

    /// Segment shifts (FUB δ) self-route at any segment width.
    #[test]
    fn segment_shift_self_routes(j in 1u32..=6, k in -70i64..70) {
        let d = segment_cyclic_shift(6, j, k);
        prop_assert!(is_in_f(&d));
    }

    /// Waksman external set-up realizes arbitrary permutations.
    #[test]
    fn waksman_realizes_random_permutations(p in arb_permutation(32)) {
        let net = Benes::new(5);
        let settings = waksman::setup(&p).unwrap();
        let data: Vec<u32> = (0..32).collect();
        let out = net.route_with(&settings, &data).unwrap();
        for (i, &dest) in p.destinations().iter().enumerate() {
            prop_assert_eq!(out[dest as usize], i as u32);
        }
    }

    /// Self-routing never loses or duplicates tags, in or out of F.
    #[test]
    fn self_route_is_always_a_bijection(p in arb_permutation(32)) {
        let net = Benes::new(5);
        let mut out = net.self_route(&p).outputs().to_vec();
        out.sort_unstable();
        let expected: Vec<u32> = (0..32).collect();
        prop_assert_eq!(out, expected);
    }

    /// If self-routing succeeds, the settings replayed externally realize
    /// the same permutation.
    #[test]
    fn successful_settings_replay(b in arb_bpc(5)) {
        let net = Benes::new(5);
        let perm = b.to_permutation();
        let outcome = net.self_route(&perm);
        prop_assert!(outcome.is_success());
        let data: Vec<u32> = (0..32).collect();
        let replay = net.route_with(outcome.settings(), &data).unwrap();
        for (i, &dest) in perm.destinations().iter().enumerate() {
            prop_assert_eq!(replay[dest as usize], i as u32);
        }
    }

    /// Theorem 4 with random F-members inside random-size blocks.
    #[test]
    fn theorem4_random(j_mask in 1u64..15, seed in any::<u64>()) {
        // n = 4; choose a nonempty proper J.
        let positions: Vec<u32> = (0..4).filter(|&b| (j_mask >> b) & 1 == 1).collect();
        prop_assume!(!positions.is_empty() && positions.len() < 4);
        let j = JPartition::new(4, positions).unwrap();
        let size = j.block_size();
        // Deterministic per-block F members derived from the seed: use
        // cyclic shifts, which are always in F.
        let g = within_blocks(&j, |b| {
            benes_perm::omega::cyclic_shift(
                size.trailing_zeros(),
                (seed.wrapping_add(b) % size as u64) as i64,
            )
        }).unwrap();
        prop_assert!(is_in_f(&g));
    }

    /// Theorem 5 with a block-level F permutation.
    #[test]
    fn theorem5_random(seed in any::<u64>()) {
        let j = JPartition::new(4, [0, 1]).unwrap(); // 4 blocks of 4
        let block_map = benes_perm::omega::cyclic_shift(2, (seed % 4) as i64);
        let g = between_blocks(&j, &block_map, |b| {
            benes_perm::omega::cyclic_shift(2, ((seed >> 8).wrapping_add(b) % 4) as i64)
        }).unwrap();
        prop_assert!(is_in_f(&g));
    }

    /// The omega-bit mode succeeds exactly on Ω(n) permutations.
    #[test]
    fn omega_bit_iff_omega(p in arb_permutation(16)) {
        let net = Benes::new(4);
        prop_assert_eq!(
            net.self_route_omega(&p).is_success(),
            benes_perm::omega::is_omega(&p)
        );
    }

    /// Pipelined and unpipelined routing agree on random BPC wavefronts.
    #[test]
    fn pipeline_agrees_with_direct(b in arb_bpc(4)) {
        use benes_core::pipeline::Pipeline;
        let perm = b.to_permutation();
        let records: Vec<(u32, u32)> = perm
            .destinations()
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let mut pipe: Pipeline<u32> = Pipeline::new(4);
        pipe.clock(Some(records.clone()));
        let waves = pipe.drain();
        prop_assert_eq!(waves.len(), 1);
        let (direct, _) = Benes::new(4).self_route_records(records).unwrap();
        prop_assert_eq!(waves.into_iter().next().unwrap(), direct);
    }
}

proptest! {
    /// The sequential (Waksman) and parallel (pointer-jumping) set-ups
    /// both realize arbitrary permutations, and both respect the
    /// reduced-network fixed switches.
    #[test]
    fn setups_agree_on_random_permutations(p in arb_permutation(64)) {
        use benes_core::parallel_setup::setup_parallel;
        let net = Benes::new(6);
        let data: Vec<u32> = (0..64).collect();

        let seq = waksman::setup(&p).unwrap();
        let (par, cost) = setup_parallel(&p).unwrap();
        prop_assert!(cost.rounds > 0);

        let out_seq = net.route_with(&seq, &data).unwrap();
        let out_par = net.route_with(&par, &data).unwrap();
        prop_assert_eq!(&out_seq, &out_par);
        prop_assert_eq!(out_seq, p.apply(&data));

        for &(stage, row) in &waksman::reduced_fixed_switches(6) {
            prop_assert_eq!(seq.get(stage, row), benes_core::SwitchState::Straight);
            prop_assert_eq!(par.get(stage, row), benes_core::SwitchState::Straight);
        }
    }
}

proptest! {
    /// Word kernel vs scalar oracle across B(4..10), for every control
    /// mode on the healthy fabric and on a random stuck fabric: success
    /// flag, arrival tags and applied settings must be bit-identical, and
    /// a settings replay must land where `route_with_faults` puts it. A
    /// second permutation replayed through the first one's settings
    /// arrives exactly where `route_with` puts it.
    #[test]
    fn word_kernel_agrees_with_scalar(
        n in 4u32..=10,
        seed in any::<u64>(),
        other in any::<u64>(),
        fault_count in 1usize..=5,
        fault_seed in any::<u64>(),
    ) {
        use benes_core::faults::{realized_with_faults, route_with_faults, FaultSet};
        use benes_core::trace::RouteTrace;
        use benes_core::{word, Control};

        let net = Benes::new(n);
        let p = seeded_permutation(1usize << n, seed);
        let fs = FaultSet::random_stuck(n, fault_count, fault_seed);
        let settings = waksman::setup(&p).unwrap();
        for faults in [None, Some(&fs)] {
            for control in [Control::SelfRoute, Control::OmegaBit, Control::Settings(&settings)] {
                let word = word::route(n, &p, control, faults).unwrap();
                let scalar = RouteTrace::capture(&net, &p, control, faults).unwrap();
                prop_assert_eq!(word.is_success(), scalar.is_success());
                prop_assert_eq!(word.outputs(), scalar.outputs());
                prop_assert_eq!(word.settings(), scalar.settings());
            }
            let replay = word::route(n, &p, Control::Settings(&settings), faults).unwrap();
            let healthy = FaultSet::new(n);
            let fabric = faults.unwrap_or(&healthy);
            prop_assert_eq!(
                replay.outputs(),
                route_with_faults(&net, &settings, fabric, p.destinations()).unwrap()
            );
            prop_assert_eq!(
                replay.is_success(),
                realized_with_faults(&net, &settings, fabric).unwrap() == p
            );
            prop_assert_eq!(replay.settings(), &fabric.apply_to(&settings));
        }
        prop_assert!(word::route(n, &p, Control::Settings(&settings), None).unwrap().is_success());
        let q = seeded_permutation(1usize << n, other);
        let replay = word::route(n, &q, Control::Settings(&settings), None).unwrap();
        prop_assert_eq!(replay.outputs(), net.route_with(&settings, q.destinations()).unwrap());
        prop_assert_eq!(replay.is_success(), net.realized_permutation(&settings).unwrap() == q);
    }
}

/// Fisher–Yates from a splitmix64 stream, so the permutation is a pure
/// function of (len, seed) and failures minimize cleanly.
fn seeded_permutation(len: usize, seed: u64) -> Permutation {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut dest: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        dest.swap(i, j);
    }
    Permutation::from_destinations(dest).expect("shuffle is a bijection")
}
