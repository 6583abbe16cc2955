//! Experiment EXP-WORD: scalar vs word-parallel routing kernels.
//!
//! Routes the same seeded stream of `F(n)` members through both forms
//! of the self-routing kernel — the scalar per-tag oracle
//! (`Benes::self_route`) and the bitmask-word kernel
//! (`Benes::self_route_fast`), which advances whole switch columns as
//! `u64` masks — and reports single-thread routes/s and the speed-up.
//! The omega-bit kernel pair is measured the same way. Every word
//! outcome is checked against the scalar oracle's success verdict, so
//! the numbers can't come from a kernel that routes wrong.
//!
//! The Settings tier gets its own table: arbitrary random permutations
//! are set up by `waksman::setup` and executed either by the scalar
//! circuit walk (`Benes::realized_permutation`) or by the word kernel
//! replaying the settings' control columns (`word::route` with
//! `Control::Settings`), which is
//! how the engine serves a Waksman plan. Every word replay is
//! cross-checked against the scalar walk before timing.
//!
//! Each cell is the median of five timed rounds. A row's routes run
//! back to back in every round, in alternating order, and a speed-up
//! is the median of its per-round ratios, so a host stall slows both
//! sides of a round instead of one side of the comparison.
//!
//! Usage: `word_kernel [--perms N] [--assert-speedup FACTOR]`
//!
//! `--assert-speedup` fails the process unless the word kernel beats
//! the scalar kernel by the given factor at `n = 8` (the engine
//! benchmark's largest order). The Settings table always fails the
//! process unless set-up plus word execution beats set-up plus scalar
//! execution by [`SETTINGS_SPEEDUP_AT_6`] at `n = 6` (the fleet's unit
//! order).

use benes_bench::{random_f_member, random_permutation, Table};
use benes_core::{waksman, word, Benes, Control};
use benes_perm::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn parse_args() -> (usize, Option<f64>) {
    let mut perms = 2000usize;
    let mut assert_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--perms" => {
                let v = args.next().expect("--perms needs a value");
                perms = v.parse().expect("--perms must be a positive integer");
                assert!(perms > 0, "--perms must be a positive integer");
            }
            "--assert-speedup" => {
                let v = args.next().expect("--assert-speedup needs a factor");
                let f: f64 = v.parse().expect("--assert-speedup must be a number");
                assert!(f > 0.0, "--assert-speedup factor must be positive");
                assert_speedup = Some(f);
            }
            other => {
                panic!("unknown argument `{other}` (try --perms N / --assert-speedup F)")
            }
        }
    }
    (perms, assert_speedup)
}

/// Timed rounds per table cell; a cell reports their median.
const PASSES: usize = 5;

/// A timed route; it gets each permutation's index in the stream too.
type Route<'a> = &'a mut dyn FnMut(usize, &Permutation) -> bool;

/// One route's timed rounds: (seconds, successes) of each pass.
type Rounds = [(f64, usize); PASSES];

/// Times each of `routes` over the whole stream in [`PASSES`] rounds,
/// one pass of each per round, in reverse order in odd rounds.
fn time_rounds<const K: usize>(
    stream: &[Permutation],
    mut routes: [Route; K],
) -> [Rounds; K] {
    let mut rounds = [[(0.0, 0); PASSES]; K];
    for round in 0..PASSES {
        for k in 0..K {
            let k = if round % 2 == 0 { k } else { K - 1 - k };
            let start = Instant::now();
            let ok = stream.iter().enumerate().filter(|&(i, d)| routes[k](i, d)).count();
            rounds[k][round] = (start.elapsed().as_secs_f64(), ok);
        }
    }
    rounds
}

/// The median over the rounds of `of(round)`.
fn median(of: impl FnMut(usize) -> f64) -> f64 {
    let mut xs: [f64; PASSES] = std::array::from_fn(of);
    xs.sort_by(f64::total_cmp);
    xs[PASSES / 2]
}

/// Required Settings-tier speed-up (set-up + execute) at `n = 6`.
const SETTINGS_SPEEDUP_AT_6: f64 = 2.0;

/// The Settings table: Waksman set-up followed by scalar or word
/// execution, on arbitrary random permutations. Returns the speed-up at
/// `n = 6`.
fn settings_table(perms: usize, rng: &mut StdRng) -> f64 {
    let mut table = Table::new(vec![
        "n",
        "N",
        "perms",
        "set-up us",
        "scalar exec us",
        "word exec us",
        "scalar plans/s",
        "word plans/s",
        "speed-up",
    ]);
    let mut speedup_at_6 = 0.0f64;
    for n in 4u32..=10 {
        let net = Benes::new(n);
        let stream: Vec<Permutation> =
            (0..perms).map(|_| random_permutation(rng, 1 << n)).collect();
        let plans: Vec<_> = stream.iter().map(|d| waksman::setup(d).unwrap()).collect();

        // Cross-check first (untimed): every replay succeeds on its own
        // permutation, with the scalar walk's arrivals, and a replay for
        // the wrong permutation fails exactly when the walk says it must.
        for (i, (d, s)) in stream.iter().zip(&plans).enumerate() {
            let fast = word::route(n, d, Control::Settings(s), None).unwrap();
            assert!(fast.is_success(), "word replay missed its permutation at n = {n}");
            assert_eq!(fast.outputs(), net.route_with(s, d.destinations()).unwrap());
            let other = &stream[(i + 1) % stream.len()];
            assert_eq!(
                word::route(n, other, Control::Settings(s), None).unwrap().is_success(),
                net.realized_permutation(s).unwrap() == *other,
                "word/scalar replay disagreement at n = {n}"
            );
        }

        // The last two are the compared pair, adjacent in either order.
        let [setup, scalar_exec, word_exec, scalar, word] = time_rounds(
            &stream,
            [
                &mut |_, d| waksman::setup(d).is_ok(),
                &mut |i, d| net.realized_permutation(&plans[i]).unwrap() == *d,
                &mut |i, d| {
                    word::route(n, d, Control::Settings(&plans[i]), None)
                        .unwrap()
                        .is_success()
                },
                &mut |_, d| {
                    net.realized_permutation(&waksman::setup(d).unwrap()).unwrap() == *d
                },
                &mut |_, d| {
                    word::route(n, d, Control::Settings(&waksman::setup(d).unwrap()), None)
                        .unwrap()
                        .is_success()
                },
            ],
        );
        assert!(scalar.iter().chain(&word).all(|&(_, ok)| ok == perms));

        let speedup = median(|r| scalar[r].0 / word[r].0);
        if n == 6 {
            speedup_at_6 = speedup;
        }
        let us = |secs: f64| format!("{:.2}", secs * 1e6 / perms as f64);
        table.row(vec![
            n.to_string(),
            (1u64 << n).to_string(),
            perms.to_string(),
            us(median(|r| setup[r].0)),
            us(median(|r| scalar_exec[r].0)),
            us(median(|r| word_exec[r].0)),
            format!("{:.0}", perms as f64 / median(|r| scalar[r].0)),
            format!("{:.0}", perms as f64 / median(|r| word[r].0)),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{}", table.render());
    speedup_at_6
}

fn main() {
    let (perms, assert_speedup) = parse_args();
    println!("== EXP-WORD: scalar vs word-parallel kernel throughput ==\n");

    let mut rng = StdRng::seed_from_u64(0x30bd);
    let mut table = Table::new(vec![
        "n",
        "N",
        "perms",
        "scalar routes/s",
        "word routes/s",
        "speed-up",
        "omega scalar/s",
        "omega word/s",
        "omega speed-up",
    ]);

    let grid = [4u32, 6, 8, 10];
    let mut speedup_at_8 = 0.0f64;
    for n in grid {
        let net = Benes::new(n);
        let stream: Vec<Permutation> =
            (0..perms).map(|_| random_f_member(&mut rng, n)).collect();

        // Cross-check first (untimed): the word kernel must agree with
        // the scalar oracle on every permutation in the stream.
        for d in &stream {
            assert_eq!(
                net.self_route_fast(d).unwrap().is_success(),
                net.self_route(d).is_success(),
                "word/scalar disagreement at n = {n}"
            );
        }

        // Each compared pair is adjacent in either order.
        let [scalar, word, oscalar, oword] = time_rounds(
            &stream,
            [
                &mut |_, d| net.self_route(d).is_success(),
                &mut |_, d| net.self_route_fast(d).unwrap().is_success(),
                &mut |_, d| net.self_route_omega(d).is_success(),
                &mut |_, d| net.self_route_omega_fast(d).unwrap().is_success(),
            ],
        );
        assert_eq!(scalar.map(|r| r.1), word.map(|r| r.1));

        let speedup = median(|r| scalar[r].0 / word[r].0);
        if n == 8 {
            speedup_at_8 = speedup;
        }
        table.row(vec![
            n.to_string(),
            (1u64 << n).to_string(),
            perms.to_string(),
            format!("{:.0}", perms as f64 / median(|r| scalar[r].0)),
            format!("{:.0}", perms as f64 / median(|r| word[r].0)),
            format!("{speedup:.1}x"),
            format!("{:.0}", perms as f64 / median(|r| oscalar[r].0)),
            format!("{:.0}", perms as f64 / median(|r| oword[r].0)),
            format!("{:.1}x", median(|r| oscalar[r].0 / oword[r].0)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "observation: the word kernel advances a whole switch column per mask\n\
         operation (delta-swaps below word width, word-pair swaps above), so its\n\
         advantage grows with N — the scalar kernel touches every tag at every\n\
         stage, the word kernel touches N/64 words per bit-plane."
    );

    println!(
        "\n== EXP-WORD: Settings tier, Waksman set-up + scalar vs word execution ==\n"
    );
    let settings_speedup = settings_table(perms, &mut rng);
    println!(
        "observation: set-up emits the control columns the word kernel applies,\n\
         so a Settings plan executes as 2n-1 masked delta-swaps per bit-plane;\n\
         the scalar walk moves every record through every switch and link."
    );
    assert!(
        settings_speedup >= SETTINGS_SPEEDUP_AT_6,
        "Settings-tier speed-up regressed at n = 6: {settings_speedup:.1}x < \
         required {SETTINGS_SPEEDUP_AT_6:.1}x"
    );
    println!(
        "\nsettings speed-up check: {settings_speedup:.1}x at n = 6 (required >= \
         {SETTINGS_SPEEDUP_AT_6:.1}x)"
    );

    if let Some(factor) = assert_speedup {
        assert!(
            speedup_at_8 >= factor,
            "word-kernel speed-up regressed at n = 8: {speedup_at_8:.1}x < \
             required {factor:.1}x"
        );
        println!(
            "\nspeed-up check: {speedup_at_8:.1}x at n = 8 (required >= {factor:.1}x)"
        );
    }
}
