//! The static structure of the Benes network `B(n)` (Fig. 1 of the paper).
//!
//! `B(n)` consists of a stage of `N/2` binary switches, followed by two
//! copies of `B(n−1)` (the *upper* and *lower* subnetworks), followed by
//! another stage of `N/2` switches; `B(1)` is a single switch. Flattening
//! the recursion gives `2n − 1` stages of `N/2` switches each, for
//! `N·log N − N/2` switches in total.
//!
//! This module computes the flattened representation honestly from the
//! recursion:
//!
//! * [`build_links`] — for each of the `2n − 2` inter-stage gaps, the
//!   wiring permutation taking an output port of one stage to an input
//!   port of the next;
//! * [`control_bit`] — the destination-tag bit examined by the switches of
//!   each stage under the paper's self-routing rule (stage `b` and stage
//!   `2n−2−b` both use bit `b`, Fig. 3);
//! * the closed-form size accessors ([`stage_count`], [`switch_count`]).
//!
//! Port numbering: in every stage, switch `i` owns input ports `2i`
//! (upper) and `2i+1` (lower), and output ports `2i` and `2i+1` likewise.
//! Terminal `i` of the network is input port `i` of stage 0 and output
//! port `i` of the last stage.

/// Maximum supported `n`. `B(20)` already has one million terminals and
/// ~20 M switches; larger networks exhaust memory long before correctness
/// is at risk, so the bound is practical rather than fundamental.
pub const MAX_N: u32 = 24;

/// Validates `n` for network construction.
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_N` — the paper defines `B(n)` for
/// `n ≥ 1`.
pub(crate) fn validate_n(n: u32) {
    assert!(n >= 1, "B(n) requires n >= 1 (B(1) is a single switch)");
    assert!(n <= MAX_N, "n = {n} exceeds the supported maximum {MAX_N}");
}

/// The number of terminals `N = 2^n`.
///
/// # Panics
///
/// Panics if `n` is out of range (see [`MAX_N`]).
#[must_use]
pub fn terminal_count(n: u32) -> usize {
    validate_n(n);
    1usize << n
}

/// The number of switch stages, `2n − 1`.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::stage_count;
/// assert_eq!(stage_count(1), 1);
/// assert_eq!(stage_count(3), 5);
/// ```
#[must_use]
pub fn stage_count(n: u32) -> usize {
    validate_n(n);
    2 * n as usize - 1
}

/// The number of switches per stage, `N/2`.
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn switches_per_stage(n: u32) -> usize {
    terminal_count(n) / 2
}

/// The total number of binary switches, `N·log N − N/2`.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::switch_count;
/// assert_eq!(switch_count(3), 8 * 3 - 4); // 20 switches in B(3)
/// ```
#[must_use]
pub fn switch_count(n: u32) -> usize {
    stage_count(n) * switches_per_stage(n)
}

/// The destination-tag bit examined by the switches of `stage` in `B(n)`
/// under the self-routing rule of Fig. 3: stage `b` and stage `2n−2−b`
/// both use bit `b`, so `control_bit = min(stage, 2n−2−stage)`.
///
/// # Panics
///
/// Panics if `n` is out of range or `stage >= 2n−1`.
///
/// # Examples
///
/// ```
/// use benes_core::topology::control_bit;
/// // B(3): stages 0,1,2,3,4 use bits 0,1,2,1,0.
/// assert_eq!((0..5).map(|s| control_bit(3, s)).collect::<Vec<_>>(),
///            vec![0, 1, 2, 1, 0]);
/// ```
#[must_use]
pub fn control_bit(n: u32, stage: usize) -> u32 {
    validate_n(n);
    let stages = stage_count(n);
    assert!(stage < stages, "stage {stage} out of range (B({n}) has {stages} stages)");
    (stage.min(stages - 1 - stage)) as u32 // analyze:allow(truncating-cast): stage < 2n−1 ≤ 47
}

/// The low `bits` bits of `x`, in reverse order (`x < 2^bits`).
#[inline]
pub(crate) fn reverse_low_bits(x: usize, bits: u32) -> usize {
    x.reverse_bits().checked_shr(usize::BITS - bits).unwrap_or(0)
}

/// The flattened (butterfly) position of physical port `port` at
/// `stage`: where the element on that port sits once the network is
/// conjugated by the composed [`build_links`] permutations (see
/// [`crate::word`]).
///
/// The opening links are unshuffles of ever shorter low-bit fields, and
/// the closing links undo them in mirror order, so with `t =`
/// [`control_bit`]`(n, stage)` the map is closed-form: the low `n − t`
/// port bits move up by `t`, and the high `t` bits (the port's block at
/// recursion depth `t`) land reversed in the low `t` bits. Switch `i`'s
/// upper port `2i` therefore always has bit `t` clear, and its lower
/// port sits at the same position with bit `t` set.
///
/// # Panics
///
/// Panics if `n` or `stage` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::flat_port;
/// // B(3): stage 0 is the identity; the middle stage reverses all bits.
/// assert_eq!(flat_port(3, 0, 6), 6);
/// assert_eq!(flat_port(3, 2, 0b110), 0b011);
/// ```
#[must_use]
pub fn flat_port(n: u32, stage: usize, port: usize) -> usize {
    flatten(n, control_bit(n, stage), port)
}

/// [`flat_port`] for a stage with control bit `t`, unchecked.
#[inline]
pub(crate) fn flatten(n: u32, t: u32, port: usize) -> usize {
    let low = n - t;
    ((port & ((1 << low) - 1)) << t) | reverse_low_bits(port >> low, t)
}

/// Builds the inter-stage wiring of `B(n)` by the recursion of Fig. 1.
///
/// The result has `2n − 2` entries; entry `s` maps each output port `p` of
/// stage `s` to the input port `links[s][p]` of stage `s + 1`. Each entry
/// is a permutation of `0..N`.
///
/// The recursion: the first link sends stage-0 switch `i`'s upper output
/// to input `i` of the upper `B(n−1)` copy and its lower output to input
/// `i` of the lower copy; the two copies sit block-diagonally in the
/// middle stages (upper copy on ports `0..N/2`); the last link brings
/// output `j` of the upper copy to the upper input of final-stage switch
/// `j` and output `j` of the lower copy to its lower input.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::build_links;
/// // B(2): both links interleave the halves.
/// assert_eq!(build_links(2), vec![vec![0, 2, 1, 3], vec![0, 2, 1, 3]]);
/// ```
#[must_use]
pub fn build_links(n: u32) -> Vec<Vec<u32>> {
    validate_n(n);
    if n == 1 {
        return Vec::new();
    }
    let nn = terminal_count(n);
    let half = (nn / 2) as u32; // analyze:allow(truncating-cast): nn = 2^n ≤ 2^MAX_N

    // First link: stage-0 output port 2i → upper-copy input i (port i);
    // port 2i+1 → lower-copy input i (port half + i).
    let mut first = vec![0u32; nn];
    for i in 0..half {
        first[(2 * i) as usize] = i;
        first[(2 * i + 1) as usize] = half + i;
    }

    // Middle links: block-diagonal composition of the two B(n−1) copies.
    let sub = build_links(n - 1);
    let mut links = Vec::with_capacity(2 * n as usize - 2);
    links.push(first);
    for sub_link in &sub {
        let mut combined = vec![0u32; nn];
        for (p, &q) in sub_link.iter().enumerate() {
            combined[p] = q; // upper copy: ports 0..N/2
            combined[p + half as usize] = q + half; // lower copy
        }
        links.push(combined);
    }

    // Last link: upper-copy output j (port j) → final-stage port 2j;
    // lower-copy output j (port half + j) → final-stage port 2j+1.
    let mut last = vec![0u32; nn];
    for j in 0..half {
        last[j as usize] = 2 * j;
        last[(half + j) as usize] = 2 * j + 1;
    }
    links.push(last);
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_formulas() {
        for n in 1..10u32 {
            let nn = 1usize << n;
            assert_eq!(terminal_count(n), nn);
            assert_eq!(stage_count(n), 2 * n as usize - 1);
            assert_eq!(switches_per_stage(n), nn / 2);
            // Paper: N·log N − N/2 switches.
            assert_eq!(switch_count(n), nn * n as usize - nn / 2);
        }
    }

    #[test]
    fn b1_has_no_links() {
        assert!(build_links(1).is_empty());
        assert_eq!(stage_count(1), 1);
        assert_eq!(switch_count(1), 1);
    }

    #[test]
    fn link_count_is_stages_minus_one() {
        for n in 1..8u32 {
            assert_eq!(build_links(n).len(), stage_count(n) - 1);
        }
    }

    #[test]
    fn links_are_permutations() {
        for n in 1..8u32 {
            let nn = terminal_count(n);
            for (s, link) in build_links(n).iter().enumerate() {
                assert_eq!(link.len(), nn);
                let mut seen = vec![false; nn];
                for &q in link {
                    assert!(!seen[q as usize], "n={n}, link {s}: duplicate port {q}");
                    seen[q as usize] = true;
                }
            }
        }
    }

    /// The closed-form map equals the physical→flattened map obtained by
    /// walking the links, and it pairs every switch's ports on bit
    /// `control_bit(s)` with the upper port on the clear side. The
    /// opening and closing links compose to the identity, so the last
    /// stage's flattened positions are the physical output terminals.
    #[test]
    fn flat_port_matches_the_composed_links() {
        for n in 1..=10u32 {
            let size = terminal_count(n);
            let links = build_links(n);
            let mut p2f: Vec<usize> = (0..size).collect();
            for s in 0..stage_count(n) {
                let c = control_bit(n, s);
                for (port, &f) in p2f.iter().enumerate() {
                    assert_eq!(flat_port(n, s, port), f, "B({n}) stage {s} port {port}");
                    assert_eq!(f >> c & 1, port & 1, "B({n}) stage {s} port {port}");
                    assert_eq!(f ^ p2f[port ^ 1], 1 << c, "B({n}) stage {s} port {port}");
                }
                if let Some(link) = links.get(s) {
                    let mut next = vec![0usize; size];
                    for (p, &q) in link.iter().enumerate() {
                        next[q as usize] = p2f[p];
                    }
                    p2f = next;
                }
            }
            assert!(p2f.iter().enumerate().all(|(p, &f)| p == f), "B({n})");
        }
    }

    #[test]
    fn b2_links_interleave() {
        assert_eq!(build_links(2), vec![vec![0, 2, 1, 3], vec![0, 2, 1, 3]]);
    }

    #[test]
    fn b3_first_link_splits_into_halves() {
        let links = build_links(3);
        assert_eq!(links.len(), 4);
        // Upper outputs of stage 0 go to ports 0..4 (upper copy),
        // lower outputs to ports 4..8.
        assert_eq!(links[0], vec![0, 4, 1, 5, 2, 6, 3, 7]);
        // Last link mirrors the first.
        assert_eq!(links[3], vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn middle_links_are_block_diagonal() {
        let links = build_links(3);
        // Links 1 and 2 embed two copies of B(2)'s single link pattern
        // [0,2,1,3] in each half.
        let expected = vec![0, 2, 1, 3, 4, 6, 5, 7];
        assert_eq!(links[1], expected);
        assert_eq!(links[2], expected);
    }

    #[test]
    fn control_bits_are_symmetric() {
        for n in 1..10u32 {
            let stages = stage_count(n);
            for s in 0..stages {
                assert_eq!(control_bit(n, s), control_bit(n, stages - 1 - s));
            }
            // Middle stage uses the highest bit.
            assert_eq!(control_bit(n, stages / 2), n - 1);
            // Outer stages use bit 0.
            assert_eq!(control_bit(n, 0), 0);
            assert_eq!(control_bit(n, stages - 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn rejects_n_zero() {
        let _ = stage_count(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_stage_out_of_range() {
        let _ = control_bit(2, 3);
    }
}
