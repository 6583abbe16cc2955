//! The classical external set-up algorithm for the Benes network
//! (Waksman, *A permutation network*, 1968 — the paper's reference \[10\]).
//!
//! This is the baseline the paper improves on: given an **arbitrary**
//! permutation `D`, compute a complete switch-state assignment in
//! `O(N log N)` sequential time, then route. The self-routing scheme of
//! [`crate::selfroute`] eliminates this set-up entirely — but only for
//! permutations in `F(n)`; with external set-up the Benes network realizes
//! all `N!` permutations ("if we allow the added capability of disabling
//! the self-setting logic … the network can realize all N! permutations",
//! §I).
//!
//! The algorithm is the standard looping 2-colouring: at each recursion
//! level, inputs `2i/2i+1` must split across the two subnetworks, and so
//! must outputs `2j/2j+1`; following the constraint chains around their
//! cycles assigns every terminal to the upper (0) or lower (1) subnetwork,
//! fixing the outer stages and inducing one half-size permutation per
//! subnetwork.
//!
//! # Examples
//!
//! ```
//! use benes_core::{Benes, waksman};
//! use benes_perm::Permutation;
//!
//! // Fig. 5's permutation is NOT self-routable — but external set-up
//! // handles it.
//! let net = Benes::new(2);
//! let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
//! let settings = waksman::setup(&d)?;
//! let out = net.route_with(&settings, &[0u32, 1, 2, 3]).unwrap();
//! assert_eq!(out, vec![3, 0, 2, 1]); // output D_i holds input i
//! # Ok::<(), benes_core::waksman::SetupError>(())
//! ```

use std::fmt;

use benes_perm::Permutation;

use crate::network::SwitchSettings;
#[cfg(test)]
use crate::network::SwitchState;
use crate::topology;

/// Error produced by [`setup`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SetupError {
    /// The permutation length is not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The permutation is larger than the largest supported network.
    TooLarge {
        /// The required order `n`.
        n: u32,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { len } => {
                write!(f, "permutation length {len} is not a power of two")
            }
            Self::TooLarge { n } => write!(
                f,
                "network order {n} exceeds the supported maximum {}",
                topology::MAX_N
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// Computes switch settings realizing the arbitrary permutation `d` on
/// `B(n)` — the paper's baseline `O(N log N)` set-up.
///
/// The returned settings route input `i` to output `d[i]` via
/// [`crate::network::Benes::route_with`] or [`crate::word::route`].
///
/// # Errors
///
/// Returns an error if the length is not a power of two or exceeds the
/// supported maximum. Lengths of 1 (`n = 0`) are rejected as well: the
/// smallest Benes network is `B(1)`.
pub fn setup(d: &Permutation) -> Result<SwitchSettings, SetupError> {
    let n = d
        .log2_len()
        .filter(|&n| n >= 1)
        .ok_or(SetupError::NotPowerOfTwo { len: d.len() })?;
    if n > topology::MAX_N {
        return Err(SetupError::TooLarge { n });
    }
    let mut settings = SwitchSettings::all_straight(n);
    Looper::new(n, d).greedy(0, 0, &mut settings);
    Ok(settings)
}

/// Colours the elements of `d` by `B(n)`'s own recursion cut at depth
/// `r`: the looping step of [`setup`] runs for depths `0..r`, and element
/// `x`'s colour is the low `r` bits of its position after depth `r − 1`,
/// which name the middle sub-network `B(n − r)` it enters.
///
/// Depths `0..r` move only bits `0..r` of a position, so an element never
/// leaves its contiguous block of `2^r` inputs, and its destination never
/// leaves its block of `2^r` outputs: every source block and every
/// destination block sees each colour exactly once. Read per block, the
/// first `r` stages form an inverse omega network and the last `r` an
/// omega network (§II), so within a block `rank → colour` is in `Ω⁻¹(r)`
/// and `colour → destination rank` is in `Ω(r)`.
///
/// # Panics
///
/// Panics unless `d.len() = 2^n` with `r < n`.
#[must_use]
pub fn block_colors(d: &Permutation, r: u32) -> Vec<u32> {
    let n = d.log2_len().filter(|&n| r < n).expect("block_colors: need len 2^n, r < n");
    let mut column = vec![0u64; d.len().div_ceil(64)];
    // at[p]: the element at position p, moved as the switches move it.
    let mut at: Vec<u32> = (0..d.len() as u32).collect(); // analyze:allow(truncating-cast): len <= 2^32
    let mut looper = Looper::new(n, d);
    looper.index(0, 0);
    for k in 0..r {
        looper.loops(k, 0, 0, |x, cross, _, _| put(&mut column, x, cross));
        looper.split(k, 0, 0, &column);
        // The same branch-free conditional swaps `split` makes, in one
        // sequential pass.
        for f in uppers(n, 0, 0, k) {
            let g = f | 1 << k;
            let t = (at[f] ^ at[g]) & u32::from(bit(&column, f)).wrapping_neg();
            (at[f], at[g]) = (at[f] ^ t, at[g] ^ t);
        }
    }
    let low = (1u32 << r) - 1;
    let mut colors = vec![0; d.len()];
    for (p, &x) in (0u32..).zip(&at) {
        colors[x as usize] = p & low;
    }
    colors
}

/// The looping step over flattened positions, in the style of
/// SNIPPETS.md snippet 1 (`benes_step`): each recursion depth is one pass
/// over a flat array, and the induced sub-permutations stay in place.
///
/// At depth `k` (pairing bit `d = 2^k`) the block of residue `r < 2^k`
/// owns the positions `(j << k) | r`; its local switch `i` has its upper
/// input at `(2i << k) | r`, which is exactly where
/// [`SwitchSettings`]' control columns keep the bit of that switch in
/// stages `k` and `2n − 2 − k`. A block's two sub-networks are the blocks
/// of residues `r` and `r | d` at depth `k + 1`. Scratch is allocated once
/// per set-up; [`crate::faults::setup_avoiding`] drives the same step block
/// by block.
pub(crate) struct Looper {
    n: u32,
    /// `dest[f]`: the output position the element at input position `f`
    /// must reach within its block at the current depth.
    pub(crate) dest: Vec<u32>,
    /// The inverse of `dest` over the positions last indexed.
    pub(crate) src: Vec<u32>,
    /// Input pairs, by upper position, whose sub-networks are assigned at
    /// the current depth.
    pub(crate) done: Vec<u64>,
}

/// The positions of the depth-`k0` block of residue `r0` in `B(n)`,
/// ascending.
pub(crate) fn span(n: u32, k0: u32, r0: usize) -> impl Iterator<Item = usize> {
    (0..1usize << (n - k0)).map(move |j| (j << k0) | r0)
}

/// The upper positions of depth `k` within the depth-`k0` block `r0`
/// (`k ≥ k0`): its positions with bit `k` clear, ascending.
pub(crate) fn uppers(n: u32, k0: u32, r0: usize, k: u32) -> impl Iterator<Item = usize> {
    let low = (1usize << (k - k0)) - 1;
    (0..1usize << (n - k0 - 1)).map(move |j| ((((j & !low) << 1) | (j & low)) << k0) | r0)
}

/// Whether bit `pos` of a control column is set.
pub(crate) fn bit(column: &[u64], pos: usize) -> bool {
    (column[pos >> 6] >> (pos & 63)) & 1 == 1
}

/// Sets bit `pos` of a control column to `cross`.
pub(crate) fn put(column: &mut [u64], pos: usize, cross: bool) {
    let word = &mut column[pos >> 6];
    *word = (*word & !(1 << (pos & 63))) | (u64::from(cross) << (pos & 63));
}

impl Looper {
    pub(crate) fn new(n: u32, d: &Permutation) -> Self {
        let size = d.len();
        Self {
            n,
            dest: d.destinations().to_vec(),
            src: vec![0; size],
            done: vec![0; size.div_ceil(64)],
        }
    }

    /// Inverts `dest` and clears `done` over the depth-`k0` block `r0`.
    pub(crate) fn index(&mut self, k0: u32, r0: usize) {
        for f in span(self.n, k0, r0) {
            self.src[self.dest[f] as usize] = f as u32; // analyze:allow(truncating-cast): f < 2^MAX_N
            put(&mut self.done, f, false);
        }
    }

    /// Walks the constraint loop seeded at the unassigned upper input
    /// `seed`, which goes to the upper sub-network. Every step assigns one
    /// more input pair and one more output pair of the depth-`k` block and
    /// reports them as `emit(in_pos, in_cross, out_pos, out_cross)`: the
    /// upper positions of the first- and last-stage switches and whether
    /// each crosses.
    pub(crate) fn trace(
        &mut self,
        k: u32,
        seed: usize,
        mut emit: impl FnMut(usize, bool, usize, bool),
    ) {
        let d = 1usize << k;
        let mut x = seed;
        put(&mut self.done, x, true);
        loop {
            // x goes up, so its output o is fed from above and o's partner
            // from below, by xp; xp's partner then goes up. The loop
            // closes when xp's pair is the seed's.
            let o = self.dest[x] as usize;
            let xp = self.src[o ^ d] as usize;
            emit(xp & !d, xp & d == 0, o & !d, o & d != 0);
            if xp & !d == seed {
                break;
            }
            put(&mut self.done, xp & !d, true);
            x = xp ^ d;
        }
    }

    /// Walks every loop of depth `k` under the depth-`k0` block `r0` that
    /// is still unassigned, each seeded from its smallest input (see
    /// [`Looper::trace`]).
    pub(crate) fn loops(
        &mut self,
        k: u32,
        k0: u32,
        r0: usize,
        mut emit: impl FnMut(usize, bool, usize, bool),
    ) {
        for seed in uppers(self.n, k0, r0, k) {
            if !bit(&self.done, seed) {
                self.trace(k, seed, &mut emit);
            }
        }
    }

    /// Applies stage `k`'s control column over the depth-`k0` block `r0`:
    /// every element moves to the sub-network its switch sends it to, and
    /// its destination becomes a position of that sub-network. Leaves the
    /// block indexed for depth `k + 1`.
    pub(crate) fn split(&mut self, k: u32, k0: u32, r0: usize, column: &[u64]) {
        let d = 1u32 << k;
        for f in uppers(self.n, k0, r0, k) {
            let g = f | d as usize;
            // Branch-free conditional swap: the column bit is a coin flip.
            let t =
                (self.dest[f] ^ self.dest[g]) & u32::from(bit(column, f)).wrapping_neg();
            let (a, b) = ((self.dest[f] ^ t) & !d, (self.dest[g] ^ t) | d);
            (self.dest[f], self.dest[g]) = (a, b);
            self.src[a as usize] = f as u32; // analyze:allow(truncating-cast): f < 2^MAX_N
            self.src[b as usize] = g as u32; // analyze:allow(truncating-cast): g < 2^MAX_N
            put(&mut self.done, f, false);
        }
    }

    /// The classical set-up of the depth-`k0` block `r0` and everything
    /// below it: every loop seeded from its smallest input, sent up.
    pub(crate) fn greedy(&mut self, k0: u32, r0: usize, settings: &mut SwitchSettings) {
        let n = self.n;
        self.index(k0, r0);
        for k in k0..n - 1 {
            let (first, last) = settings.outer_columns_mut(k as usize);
            self.loops(k, k0, r0, |x, cross_in, o, cross_out| {
                put(first, x, cross_in);
                put(last, o, cross_out);
            });
            self.split(k, k0, r0, first);
        }
        self.last_level(k0, r0, settings);
    }

    /// Depth `n − 1` under the depth-`k0` block `r0`: each block is one
    /// switch, crossed iff its two elements must trade places.
    pub(crate) fn last_level(&self, k0: u32, r0: usize, settings: &mut SwitchSettings) {
        for f in uppers(self.n, k0, r0, self.n - 1) {
            settings.put_at(self.n as usize - 1, f, self.dest[f] as usize != f);
        }
    }
}

/// The switches Waksman's *reduced* network `A(n)` removes: switch 0 of
/// the **first** stage of every recursive block can be fixed straight
/// without losing rearrangeability, because each constraint loop can be
/// seeded with its block-0 input sent to the upper subnetwork.
///
/// Returns `(stage, row)` pairs, `N/2 − 1` of them; removing them leaves
/// `N·log N − N + 1` switches — Waksman's optimal count.
///
/// [`setup`] is *compatible with the reduction by construction*: it seeds
/// every loop from the smallest unassigned input with side 0, so the
/// returned settings always leave these switches straight (tested
/// exhaustively).
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn reduced_fixed_switches(n: u32) -> Vec<(usize, usize)> {
    topology::validate_n(n);
    let mut fixed = Vec::new();
    collect_fixed(n, 0, 0, &mut fixed);
    fixed
}

fn collect_fixed(
    m: u32,
    stage_base: usize,
    row_base: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if m == 1 {
        return; // the single switch of B(1) is essential
    }
    out.push((stage_base, row_base));
    let half_rows = 1usize << (m - 2);
    collect_fixed(m - 1, stage_base + 1, row_base, out);
    collect_fixed(m - 1, stage_base + 1, row_base + half_rows, out);
}

/// The switch count of Waksman's reduced network `A(n)`:
/// `N·log N − N + 1`.
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn reduced_switch_count(n: u32) -> usize {
    topology::switch_count(n) - reduced_fixed_switches(n).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Benes;

    #[test]
    fn reduced_fixed_switch_count_is_half_n_minus_1() {
        for n in 1..10u32 {
            let nn = 1usize << n;
            assert_eq!(reduced_fixed_switches(n).len(), nn / 2 - 1, "n = {n}");
            // Waksman's bound: N·log N − N + 1 switches suffice.
            assert_eq!(reduced_switch_count(n), nn * n as usize - nn + 1);
        }
    }

    #[test]
    fn fixed_switches_are_distinct_and_in_range() {
        let n = 5;
        let fixed = reduced_fixed_switches(n);
        let mut seen = std::collections::HashSet::new();
        for &(stage, row) in &fixed {
            assert!(stage < topology::stage_count(n));
            assert!(row < topology::switches_per_stage(n));
            // Only first-half stages host fixed switches (each block's
            // FIRST stage).
            assert!(stage < topology::stage_count(n) / 2 + 1);
            assert!(seen.insert((stage, row)), "duplicate fixed switch");
        }
    }

    #[test]
    fn setup_never_crosses_fixed_switches_exhaustive() {
        // The reduction is realized by this implementation for every
        // permutation of 8 elements: the returned settings are a valid
        // configuration of Waksman's A(3).
        let fixed = reduced_fixed_switches(3);
        for d in all_perms(8) {
            let settings = setup(&d).unwrap();
            for &(stage, row) in &fixed {
                assert_eq!(
                    settings.get(stage, row),
                    SwitchState::Straight,
                    "D = {d}: fixed switch ({stage},{row}) crossed"
                );
            }
        }
    }

    #[test]
    fn setup_never_crosses_fixed_switches_large_random_style() {
        let n = 7;
        let fixed = reduced_fixed_switches(n);
        let len = 1usize << n;
        let mut state = 99u64;
        for _ in 0..25 {
            let mut dest: Vec<u32> = (0..len as u32).collect();
            for i in (1..len).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                dest.swap(i, j);
            }
            let d = Permutation::from_destinations(dest).unwrap();
            let settings = setup(&d).unwrap();
            for &(stage, row) in &fixed {
                assert_eq!(settings.get(stage, row), SwitchState::Straight);
            }
        }
    }

    fn assert_realizes(net: &Benes, d: &Permutation) {
        let settings = setup(d).expect("setup succeeds");
        // Route the terminal indices; output D_i must hold input i,
        // i.e. output o holds inv[o].
        let data: Vec<u32> = (0..net.terminal_count() as u32).collect();
        let out = net.route_with(&settings, &data).unwrap();
        for (i, &dest) in d.destinations().iter().enumerate() {
            assert_eq!(out[dest as usize], i as u32, "input {i} missed output {dest}");
        }
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
    fn realizes_structured_permutations_large() {
        use benes_perm::bpc::Bpc;
        use benes_perm::omega::cyclic_shift;
        for n in [4u32, 6, 8] {
            let net = Benes::new(n);
            assert_realizes(&net, &Bpc::bit_reversal(n).to_permutation());
            assert_realizes(&net, &Bpc::vector_reversal(n).to_permutation());
            assert_realizes(&net, &cyclic_shift(n, 3));
            assert_realizes(&net, &Permutation::identity(1 << n));
        }
    }

    #[test]
    fn realizes_worst_case_style_permutation() {
        // A permutation engineered to be far from F: reverse pairs within
        // a bit-reversal composed with a shift.
        let n = 5;
        let net = Benes::new(n);
        let d = benes_perm::bpc::Bpc::bit_reversal(n)
            .to_permutation()
            .then(&benes_perm::omega::cyclic_shift(n, 11));
        assert_realizes(&net, &d);
    }

    #[test]
    fn identity_setup_is_all_straight_equivalent() {
        // The identity must route correctly (states need not all be
        // straight — loop seeding may cross pairs of switches — but the
        // realized mapping must be the identity).
        let net = Benes::new(3);
        let id = Permutation::identity(8);
        let settings = setup(&id).unwrap();
        let data: Vec<u32> = (0..8).collect();
        assert_eq!(net.route_with(&settings, &data).unwrap(), data);
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(
            setup(&Permutation::identity(6)),
            Err(SetupError::NotPowerOfTwo { len: 6 })
        );
        assert_eq!(
            setup(&Permutation::identity(1)),
            Err(SetupError::NotPowerOfTwo { len: 1 })
        );
    }

    #[test]
    fn setup_handles_permutations_outside_f() {
        // The whole point of external set-up: Fig. 5's permutation.
        let net = Benes::new(2);
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        assert!(!net.self_route(&d).is_success());
        assert_realizes(&net, &d);
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
