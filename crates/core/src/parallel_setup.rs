//! Parallel Benes set-up by pointer jumping — the state of the art the
//! self-routing scheme renders unnecessary.
//!
//! §I of the paper frames the problem: even with the parallel set-up
//! algorithms of Nassimi & Sahni \[7\] (`O(log² N)` on an `N`-PE CIC or
//! cube), "the time needed to perform an arbitrary permutation on the
//! Benes network is dominated by the setup time". This module implements
//! a set-up of that complexity class so the claim can be *measured*
//! rather than quoted.
//!
//! The sequential looping algorithm ([`crate::waksman`]) walks each
//! constraint loop one element at a time. The parallel version resolves
//! every loop simultaneously by **pointer jumping**: each input holds a
//! successor pointer (`succ(x) = inv[perm[x]⊕1]⊕1`, which *preserves* the
//! side, so each succ-cycle is monochrome and is paired with the opposite
//! -side cycle holding the partners); `⌈log₂ L⌉` doubling rounds elect
//! each cycle's minimum as leader, and a cycle goes to the upper
//! subnetwork iff its leader beats its partner cycle's. One such phase
//! per recursion level gives `Σ O(log 2^m) = O(log² N)` parallel rounds
//! on a machine where every PE can read any other PE's registers in one
//! step (the paper's CIC model).
//!
//! The output is bit-for-bit a valid [`SwitchSettings`] (verified against
//! actual routing), and [`ParallelCost`] reports the parallel rounds
//! consumed — the number the `route_counts`-style experiments compare
//! with the **zero** set-up of self-routing.

use benes_perm::Permutation;

use crate::network::SwitchSettings;
#[cfg(test)]
use crate::network::SwitchState;
use crate::topology;
use crate::waksman::{uppers, Looper, SetupError};

/// Parallel-cost accounting for one set-up run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelCost {
    /// Pointer-jumping rounds executed (each is one CIC step for all PEs
    /// in lockstep).
    pub rounds: u64,
    /// Recursion levels processed (`log N` of them, two half-size
    /// problems handled in parallel per level).
    pub levels: u64,
}

/// Computes Benes switch settings for an arbitrary permutation with the
/// parallel looping algorithm, returning the settings and the parallel
/// cost.
///
/// The settings are interchangeable with [`crate::waksman::setup`]'s
/// (both realize `d`; the loop seeds differ, so the exact bit patterns
/// may differ — but see the tests: both leave Waksman's removable
/// switches straight).
///
/// # Errors
///
/// Returns an error if the length is not a power of two (or exceeds the
/// supported maximum), exactly like the sequential set-up.
pub fn setup_parallel(
    d: &Permutation,
) -> Result<(SwitchSettings, ParallelCost), SetupError> {
    let n = d
        .log2_len()
        .filter(|&n| n >= 1)
        .ok_or(SetupError::NotPowerOfTwo { len: d.len() })?;
    if n > topology::MAX_N {
        return Err(SetupError::TooLarge { n });
    }
    let size = d.len();
    let last = 2 * n as usize - 2;
    let mut settings = SwitchSettings::all_straight(n);
    let mut cost = ParallelCost::default();
    // All sub-problems of one level sit side by side in the looper's
    // flattened positions and are processed "in parallel": the model
    // charges the rounds of one block's pointer jump.
    let mut looper = Looper::new(n, d);
    looper.index(0, 0);
    for k in 0..n - 1 {
        let pair = 1usize << k;
        let (dest, src) = (&looper.dest, &looper.src);
        // succ(x) = src[dest[x] ^ pair] ^ pair: x's output's partner forces
        // an input whose partner continues. One step preserves the side,
        // so each succ-cycle is one colour, paired with the cycle of its
        // partners; comparing cycle leaders (minima) picks each pair's
        // sides. (One parallel round computes succ in every PE.)
        let mut next: Vec<usize> =
            (0..size).map(|x| src[dest[x] as usize ^ pair] as usize ^ pair).collect();
        let mut rounds = 1u64;
        // Pointer jumping: leader[x] = minimum position on x's succ-cycle,
        // in ⌈log₂ 2^(n−k)⌉ doubling rounds (each one parallel CIC step).
        let mut leader: Vec<usize> = (0..size).collect();
        let mut hops = 1usize;
        while hops < size >> k {
            let (snapshot_leader, snapshot_next) = (leader.clone(), next.clone());
            for x in 0..size {
                let nx = snapshot_next[x];
                leader[x] = snapshot_leader[x].min(snapshot_leader[nx]);
                next[x] = snapshot_next[nx];
            }
            rounds += 1;
            hops *= 2;
        }
        // x goes down iff its cycle leader loses to its partner's; each
        // block's smallest input leads its cycle and goes up, keeping the
        // Waksman-removable switches straight. (One round to read the
        // partner's leader, one for every switch to act locally.)
        let down = |x: usize| leader[x] > leader[x ^ pair];
        for f in uppers(n, 0, 0, k) {
            settings.put_at(k as usize, f, down(f));
            settings.put_at(last - k as usize, f, down(src[f] as usize));
        }
        cost.rounds += rounds + 2;
        cost.levels += 1;
        looper.split(k, 0, 0, settings.column(k as usize));
    }
    // Setting each B(1) switch from a local register: one parallel step.
    looper.last_level(0, 0, &mut settings);
    cost.rounds += 1;
    cost.levels += 1;
    Ok((settings, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Benes;

    fn assert_realizes(net: &Benes, d: &Permutation) -> ParallelCost {
        let (settings, cost) = setup_parallel(d).expect("setup succeeds");
        let data: Vec<u32> = (0..net.terminal_count() as u32).collect();
        let out = net.route_with(&settings, &data).unwrap();
        for (i, &dest) in d.destinations().iter().enumerate() {
            assert_eq!(out[dest as usize], i as u32, "input {i} missed {dest}");
        }
        cost
    }

    #[test]
    fn realizes_all_permutations_n2_exhaustively() {
        let net = Benes::new(2);
        for d in all_perms(4) {
            assert_realizes(&net, &d);
        }
    }

    #[test]
    fn realizes_all_permutations_n3_exhaustively() {
        let net = Benes::new(3);
        for d in all_perms(8) {
            assert_realizes(&net, &d);
        }
    }

    #[test]
    fn realizes_structured_and_random_style_large() {
        use benes_perm::bpc::Bpc;
        for n in [4u32, 6, 9] {
            let net = Benes::new(n);
            assert_realizes(&net, &Bpc::bit_reversal(n).to_permutation());
            assert_realizes(&net, &benes_perm::omega::cyclic_shift(n, 3));
            // Pseudo-random.
            let len = 1usize << n;
            let mut dest: Vec<u32> = (0..len as u32).collect();
            let mut state = 7u64;
            for i in (1..len).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                dest.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert_realizes(&net, &Permutation::from_destinations(dest).unwrap());
        }
    }

    #[test]
    fn parallel_rounds_grow_as_log_squared() {
        // rounds(n) ≈ Σ_{m=2..n} (log 2^m + 2) + 1 = O(n²); crucially
        // rounds(2n) ≈ 4·rounds(n) for large n, and rounds ≪ N.
        let net = Benes::new(4);
        let d = benes_perm::omega::cyclic_shift(4, 5);
        let cost = assert_realizes(&net, &d);
        assert_eq!(cost.levels, 4);
        let mut prev = 0u64;
        let mut measured = Vec::new();
        for n in [2u32, 4, 8, 16] {
            let d = benes_perm::omega::cyclic_shift(n, 1);
            let (_, cost) = setup_parallel(&d).unwrap();
            assert!(cost.rounds > prev, "rounds must grow with n");
            if n >= 8 {
                // O(log² N) ≪ N once N outgrows the constants.
                assert!(
                    u128::from(cost.rounds) < (1u128 << n),
                    "rounds must be far below N = 2^{n}"
                );
            }
            prev = cost.rounds;
            measured.push((n, cost.rounds));
        }
        // Quadratic-ish growth in n: rounds(16)/rounds(8) ≈ 4 within
        // generous slack (low-order terms).
        let r8 = measured[2].1 as f64;
        let r16 = measured[3].1 as f64;
        assert!(r16 / r8 > 2.5 && r16 / r8 < 5.0, "ratio {}", r16 / r8);
    }

    #[test]
    fn parallel_and_sequential_settings_both_respect_reduction() {
        // Both set-ups seed loops at the minimum with side 0, so both
        // leave the Waksman-removable switches straight.
        let fixed = crate::waksman::reduced_fixed_switches(3);
        for d in all_perms(8) {
            let (settings, _) = setup_parallel(&d).unwrap();
            for &(stage, row) in &fixed {
                assert_eq!(settings.get(stage, row), SwitchState::Straight, "D = {d}");
            }
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(setup_parallel(&Permutation::identity(6)).is_err());
        assert!(setup_parallel(&Permutation::identity(1)).is_err());
    }

    fn all_perms(len: u32) -> Vec<Permutation> {
        fn rec(rem: &mut Vec<u32>, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if rem.is_empty() {
                out.push(cur.clone());
                return;
            }
            for idx in 0..rem.len() {
                let v = rem.remove(idx);
                cur.push(v);
                rec(rem, cur, out);
                cur.pop();
                rem.insert(idx, v);
            }
        }
        let mut out = Vec::new();
        rec(&mut (0..len).collect(), &mut Vec::new(), &mut out);
        out.into_iter().map(|d| Permutation::from_destinations(d).unwrap()).collect()
    }
}
