//! Three-stage block decomposition of an arbitrary permutation.
//!
//! The paper's Theorems 4–6 prove that block-structured composites of
//! `F`-permutations stay in `F`; this module runs that machinery in
//! reverse for *serving*: it takes an arbitrary `π` on `N = 2^n`
//! elements, fixes the `J`-partition with `J` = the high `n − r` bits
//! (so blocks are the `2^{n−r}` contiguous runs of `2^r` elements),
//! and factors
//!
//! ```text
//! π = W1 ∘ M ∘ W3
//! ```
//!
//! where `W1` permutes *within* each source block (a Theorem-4
//! composite on `J`), `M` permutes *between* blocks independently per
//! in-block coordinate (a Theorem-4 composite on the complement `J′` —
//! the complement swaps the block/rank roles, so "same rank, shuffle
//! the blocks" is again within-blocks structure), and `W3` permutes
//! within each destination block. This is exactly the three-stage Clos
//! factorization: the middle stage needs every per-coordinate `M_c` to
//! be a permutation of the blocks, which requires a *coloring* of the
//! elements such that each source block and each destination block
//! sees every color exactly once.
//!
//! The coloring is `B(n)`'s own looping recursion cut at depth `r`
//! ([`waksman::block_colors`]): depths `0..r` of the Waksman set-up move
//! only the low `r` bits of a position, so each element stays inside its
//! source block, and the low `r` bits of its position after depth `r − 1`
//! name the middle sub-network `B(n − r)` it enters — its color. The
//! paper's §II remark that the first `n` stages of `B(n)` are an inverse
//! omega network and the last `n` an omega network then holds block by
//! block: every stage-1 unit is in `Ω⁻¹(r) ⊆ F(r)` (Theorem 3) and every
//! stage-3 unit in `Ω(r)`, so both outer stages route with zero set-up
//! (two thirds of the units at even `n`). Cost `O(N · r)`: a Waksman
//! set-up cut short.
//!
//! The factorization is what lets a fleet of small `B(r)` / `B(n−r)`
//! engine shards serve a permutation no single fabric reaches: each
//! `W1_b`, `M_c`, `W3_b` is an independent sub-permutation routed on
//! its own network.

use std::fmt;

use benes_core::waksman;
use benes_perm::partition::JPartition;
use benes_perm::Permutation;

/// Error produced by [`decompose`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecomposeError {
    /// The permutation's length is not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The permutation needs `n >= 2` index bits to split into a
    /// non-trivial block stage and between stage.
    TooSmall {
        /// The offending length.
        len: usize,
    },
    /// The requested block width `r` leaves no bits for one of the
    /// stages (`r` must satisfy `1 <= r <= n − 1`).
    BadBlockBits {
        /// The requested block width.
        r: u32,
        /// The index width of the permutation.
        n: u32,
    },
}

impl fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { len } => {
                write!(f, "length {len} is not a power of two")
            }
            Self::TooSmall { len } => {
                write!(f, "length {len} < 4 cannot be block-decomposed")
            }
            Self::BadBlockBits { r, n } => {
                write!(f, "block bits r={r} outside 1..={} for n={n}", n - 1)
            }
        }
    }
}

impl std::error::Error for DecomposeError {}

/// The three-stage factorization `π = W1 ∘ M ∘ W3` of one permutation,
/// ready to scatter across engine shards.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The partition used: `J` = the high `n − r` bits, so block `b`
    /// holds elements `b·2^r .. (b+1)·2^r`.
    j: JPartition,
    /// Stage 1, one permutation of length `2^r` per source block:
    /// `stage1[b][rank] = color`.
    stage1: Vec<Permutation>,
    /// Stage 2, one permutation of length `2^{n−r}` per color:
    /// `between[c][src_block] = dst_block`.
    between: Vec<Permutation>,
    /// Stage 3, one permutation of length `2^r` per destination block:
    /// `stage3[b'][color] = dst_rank`.
    stage3: Vec<Permutation>,
}

impl Decomposition {
    /// The index width `n` of the decomposed permutation.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.j.n()
    }

    /// The block width `r`: blocks have `2^r` elements.
    #[must_use]
    pub fn block_bits(&self) -> u32 {
        self.n() - self.j.j_mask().count_ones()
    }

    /// The number of blocks, `2^{n−r}`.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.j.block_count()
    }

    /// The number of elements per block (= the number of colors),
    /// `2^r`.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.j.block_size()
    }

    /// The partition the decomposition is built on.
    #[must_use]
    pub fn partition(&self) -> &JPartition {
        &self.j
    }

    /// Stage-1 sub-permutations (`rank → color`, one per source block).
    #[must_use]
    pub fn stage1(&self) -> &[Permutation] {
        &self.stage1
    }

    /// Stage-2 sub-permutations (`src block → dst block`, one per
    /// color).
    #[must_use]
    pub fn between(&self) -> &[Permutation] {
        &self.between
    }

    /// Stage-3 sub-permutations (`color → dst rank`, one per
    /// destination block).
    #[must_use]
    pub fn stage3(&self) -> &[Permutation] {
        &self.stage3
    }

    /// The total number of independent routing units the decomposition
    /// scatters (`2 · block_count + block_size`).
    #[must_use]
    pub fn unit_count(&self) -> usize {
        2 * self.block_count() + self.block_size()
    }

    /// Recombines the three stages element-wise: where the composite
    /// sends `x`. This is the gather-side inverse of the scatter — it
    /// only reads the small stage tables, never materializes a fused
    /// permutation.
    #[must_use]
    pub fn recombined_destination(&self, x: u64) -> u64 {
        let r = self.block_bits();
        let b = x >> r;
        let rank = x & ((1u64 << r) - 1);
        let color = u64::from(self.stage1[b as usize].destination(rank as usize));
        let dst_block = u64::from(self.between[color as usize].destination(b as usize));
        let dst_rank =
            u64::from(self.stage3[dst_block as usize].destination(color as usize));
        (dst_block << r) | dst_rank
    }

    /// Bitwise recombination check: `true` iff applying stage 1, the
    /// between stage, then stage 3 reproduces `pi` exactly, element by
    /// element.
    #[must_use]
    pub fn recombines_to(&self, pi: &Permutation) -> bool {
        if pi.len() != 1usize << self.n() {
            return false;
        }
        (0..pi.len())
            .all(|x| self.recombined_destination(x as u64) == u64::from(pi.destination(x)))
    }
}

/// Picks the balanced block width for [`decompose`]: `r = ⌈n/2⌉`, so
/// stage networks are `B(⌈n/2⌉)` and `B(⌊n/2⌋)` — the split that
/// minimizes the largest sub-network.
#[must_use]
pub fn balanced_block_bits(n: u32) -> u32 {
    n.div_ceil(2)
}

/// Factors `pi` into the three-stage form `π = W1 ∘ M ∘ W3` over the
/// contiguous-block partition with `2^r`-element blocks.
///
/// # Errors
///
/// Returns an error if `pi.len()` is not a power of two, is smaller
/// than 4 (there is nothing to split), or `r ∉ 1..=n−1`.
pub fn decompose(pi: &Permutation, r: u32) -> Result<Decomposition, DecomposeError> {
    let len = pi.len();
    let Some(n) = pi.log2_len() else {
        return Err(DecomposeError::NotPowerOfTwo { len });
    };
    if n < 2 {
        return Err(DecomposeError::TooSmall { len });
    }
    if r == 0 || r >= n {
        return Err(DecomposeError::BadBlockBits { r, n });
    }
    let blocks = 1usize << (n - r); // B source (and destination) blocks
    let size = 1usize << r; // S elements per block = S colors
    let j = JPartition::from_mask(n, ((1u64 << (n - r)) - 1) << r)
        .expect("high-bit mask is valid for n");

    let colors = waksman::block_colors(pi, r);

    // Extract the three stage tables from the coloring. Every write
    // below is a bijection by construction of the coloring: each
    // (source block, color) and (destination block, color) pair names
    // exactly one element.
    let mut stage1 = vec![vec![0u32; size]; blocks];
    let mut between = vec![vec![0u32; blocks]; size];
    let mut stage3 = vec![vec![0u32; size]; blocks];
    let rank_mask = (size - 1) as u64;
    for x in 0..len {
        let dst = u64::from(pi.destination(x));
        let sb = x >> r;
        let db = (dst >> r) as usize;
        let c = colors[x] as usize;
        stage1[sb][x & (size - 1)] = colors[x];
        // analyze:allow(truncating-cast): db < 2^(n-r) <= 2^30
        between[c][sb] = db as u32;
        // analyze:allow(truncating-cast): rank < 2^r <= 2^30
        stage3[db][c] = (dst & rank_mask) as u32;
    }
    let lift = |tables: Vec<Vec<u32>>| -> Vec<Permutation> {
        tables
            .into_iter()
            .map(|t| {
                Permutation::from_destinations(t)
                    .expect("stage table of a proper coloring is a bijection")
            })
            .collect()
    };
    Ok(Decomposition {
        j,
        stage1: lift(stage1),
        between: lift(between),
        stage3: lift(stage3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_perm::partition::within_blocks;

    use benes_engine::workload::{random_permutation, Rng64};

    fn shuffled(n: u32, seed: u64) -> Permutation {
        random_permutation(&mut Rng64::new(seed), 1usize << n)
    }

    #[test]
    fn rejects_bad_inputs() {
        let three = Permutation::from_destinations(vec![1, 2, 0]).unwrap();
        assert_eq!(
            decompose(&three, 1).unwrap_err(),
            DecomposeError::NotPowerOfTwo { len: 3 }
        );
        let two = Permutation::identity(2);
        assert_eq!(decompose(&two, 1).unwrap_err(), DecomposeError::TooSmall { len: 2 });
        let four = Permutation::identity(4);
        assert_eq!(
            decompose(&four, 0).unwrap_err(),
            DecomposeError::BadBlockBits { r: 0, n: 2 }
        );
        assert_eq!(
            decompose(&four, 2).unwrap_err(),
            DecomposeError::BadBlockBits { r: 2, n: 2 }
        );
    }

    #[test]
    fn identity_decomposes_and_recombines() {
        for n in 2..=8 {
            let id = Permutation::identity(1 << n);
            for r in 1..n {
                let d = decompose(&id, r).unwrap();
                assert!(d.recombines_to(&id), "identity n={n} r={r}");
                assert_eq!(d.unit_count(), 2 * d.block_count() + d.block_size());
            }
        }
    }

    #[test]
    fn random_permutations_recombine_exactly_for_every_r() {
        for n in 2..=9 {
            for seed in 0..4u64 {
                let pi = shuffled(n, 1000 * u64::from(n) + seed);
                for r in 1..n {
                    let d = decompose(&pi, r).unwrap();
                    assert_eq!(d.block_bits(), r);
                    assert!(d.recombines_to(&pi), "n={n} r={r} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn coloring_is_bijective_per_source_and_destination_block() {
        let n = 8;
        let pi = shuffled(n, 42);
        for r in [2u32, 4, 6] {
            let d = decompose(&pi, r).unwrap();
            // stage1[b] bijective rank→color and stage3[b'] bijective
            // color→rank already hold by Permutation's invariant; check
            // the cross-stage consistency instead: following the three
            // tables reproduces pi (recombines_to) and every between
            // table is a permutation of the blocks.
            assert_eq!(d.between().len(), d.block_size());
            for m in d.between() {
                assert_eq!(m.len(), d.block_count());
            }
            assert!(d.recombines_to(&pi));
        }
    }

    #[test]
    fn stages_match_theorem4_composites() {
        // The decomposition must agree with the paper's own composite
        // builders: stage 1 and stage 3 are within-blocks composites on
        // J, the between stage is a within-blocks composite on the
        // complement J′ (blocks and ranks swap roles). Their `then`
        // composition is π.
        let n = 6;
        let pi = shuffled(n, 7);
        let r = 3;
        let d = decompose(&pi, r).unwrap();
        let j = d.partition().clone();
        let s1 = within_blocks(&j, |b| d.stage1()[b as usize].clone()).unwrap();
        let s2 =
            within_blocks(&j.complement(), |c| d.between()[c as usize].clone()).unwrap();
        let s3 = within_blocks(&j, |b| d.stage3()[b as usize].clone()).unwrap();
        assert_eq!(s1.then(&s2).then(&s3), pi);
    }

    #[test]
    fn balanced_block_bits_splits_evenly() {
        assert_eq!(balanced_block_bits(2), 1);
        assert_eq!(balanced_block_bits(5), 3);
        assert_eq!(balanced_block_bits(20), 10);
        assert_eq!(balanced_block_bits(21), 11);
    }

    #[test]
    fn large_permutation_decomposes_quickly() {
        // N = 2^16 keeps the debug-mode test fast while exercising the
        // same code path the coordinator uses at 2^20+.
        let n = 16;
        let pi = shuffled(n, 99);
        let d = decompose(&pi, balanced_block_bits(n)).unwrap();
        assert!(d.recombines_to(&pi));
    }

    #[test]
    fn random_permutation_helper_also_recombines() {
        // Use the engine's own workload generator once, to tie the
        // crates together.
        let pi = random_permutation(&mut Rng64::new(5), 1 << 10);
        let d = decompose(&pi, 5).unwrap();
        assert!(d.recombines_to(&pi));
    }
}
