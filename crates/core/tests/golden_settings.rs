//! Settings golden test: pins the exact switch assignment the set-up
//! algorithms emit, in the physical stage-major `to_bits()` order.
//!
//! `waksman::setup` runs on seeded random permutations at n = 1..10 and
//! `faults::setup_avoiding` under seeded stuck-at fault sets (one to six faults) at n = 3..6.
//! Any change to which loop seeds first, which side a loop takes, or how
//! a stage column maps onto physical switches shows up as a diff against
//! `tests/golden/settings.txt`.

use benes_core::faults::{setup_avoiding, FaultSet};
use benes_core::{waksman, SwitchSettings};
use benes_perm::Permutation;

/// Deterministic Fisher–Yates driven by a 64-bit LCG.
fn lcg_perm(n: u32, seed: u64) -> Permutation {
    let size = 1usize << n;
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut dest: Vec<u32> = (0..size as u32).collect();
    for i in (1..size).rev() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        dest.swap(i, j);
    }
    Permutation::from_destinations(dest).unwrap()
}

/// The settings bits, four to a hex digit (first bit most significant).
fn hex(settings: &SwitchSettings) -> String {
    settings
        .to_bits()
        .chunks(4)
        .map(|nib| {
            let v = nib.iter().enumerate().fold(0u64, |acc, (k, &b)| acc | b << (3 - k));
            char::from_digit(v as u32, 16).unwrap()
        })
        .collect()
}

fn render() -> String {
    let mut out = String::new();
    for n in 1..=10u32 {
        for seed in 0..4u64 {
            let d = lcg_perm(n, seed ^ (u64::from(n) << 8));
            let s = waksman::setup(&d).unwrap();
            out.push_str(&format!("waksman n={n} seed={seed} {}\n", hex(&s)));
        }
    }
    for n in 3..=6u32 {
        for count in [1usize, 2, 3, 6] {
            for seed in 0..4u64 {
                let faults = FaultSet::random_stuck(n, count, seed ^ (u64::from(n) << 16));
                let d = lcg_perm(n, seed ^ 0xfa17);
                let verdict = match setup_avoiding(&d, &faults) {
                    Ok(s) => hex(&s),
                    Err(e) => format!("error: {e}"),
                };
                out.push_str(&format!("avoiding n={n} seed={seed} {faults} {verdict}\n"));
            }
        }
    }
    out
}

#[test]
fn setup_emits_the_pinned_settings() {
    let expected = include_str!("golden/settings.txt");
    let actual = render();
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "line count differs");
}
