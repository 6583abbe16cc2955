//! Word-parallel (bit-sliced) routing kernels: self-routing and the
//! replay of external settings.
//!
//! The scalar kernels in [`crate::selfroute`] and [`Benes::route_with`]
//! walk the network one switch at a time. This module applies **whole
//! switch columns at once** as `u64` masks, in the style of SNIPPETS.md
//! snippet 1's `benes_step`: a column is a handful of shifts/XORs per
//! destination-bit plane instead of `N/2` branches.
//!
//! # Flattened coordinates
//!
//! Conjugating the network by the composed inter-stage links "flattens"
//! it into a butterfly: tracked through the links alone, stage `s` pairs
//! flattened positions that differ in exactly bit `δ(s) = control_bit(s) =
//! min(s, 2n−2−s)`, the physical **upper** input of each switch at the
//! position with bit `δ(s)` *clear* ([`topology::flat_port`] gives the map
//! in closed form). All links compose to the identity, so after the last
//! column the flattened positions *are* the physical output terminals, and
//! the kernel needs **no link permutations at all** — one masked delta-swap
//! per stage per bit plane. The `flat_port_matches_the_composed_links`
//! test checks this against [`Benes::link`] up to `B(10)`.
//!
//! # Representation
//!
//! A routing state is `n` **bit planes** of `N = 2^n` bits each, packed into
//! `W = max(1, N/64)` words per plane: bit `p` of plane `b` holds bit `b` of
//! the destination tag currently at flattened position `p`. Stage `s` with
//! pairing distance `d = 2^{δ(s)}` takes its cross-mask either from plane
//! `δ(s)` (self-routing: the upper input's control bit, for every switch at
//! once) or from the commanded control column of a [`SwitchSettings`]
//! ([`replay`]: settings *are* these columns), overlays any stuck/dead
//! fault masks, and applies the column with [`benes_bits::delta_swap`]
//! (intra-word for `d < 64`, word-pair XOR otherwise).
//!
//! The scalar kernels remain the **oracle**: exhaustive `B(2)`/`B(3)` and
//! property-based `B(4..10)` tests assert output- and settings-level
//! agreement on healthy and faulty fabrics, and `analyze word` proves it
//! symbolically for every `n ≤ 8`.
//!
//! # Examples
//!
//! ```
//! use benes_core::word;
//! use benes_perm::bpc::Bpc;
//!
//! // Fig. 4 of the paper: bit reversal self-routes on B(3).
//! let d = Bpc::bit_reversal(3).to_permutation();
//! let outcome = word::self_route(3, &d).unwrap();
//! assert!(outcome.is_success());
//! assert_eq!(outcome.outputs(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! ```

use benes_perm::Permutation;

use crate::faults::{FaultKind, FaultSet};
use crate::network::{Benes, NetworkError, SwitchSettings, SwitchState};
use crate::topology;

/// Words per bit plane for an order-`n` network.
#[inline]
fn word_count(n: u32) -> usize {
    let size = 1usize << n;
    size.div_ceil(64)
}

/// The identity pattern for plane `b`, word `w`: bit `p` set iff bit `b` of
/// the global position `64·w + p` is set. Tags sitting at their own index
/// produce exactly these planes.
#[inline]
fn identity_plane_word(n: u32, b: u32, w: usize) -> u64 {
    let pattern = if b < 6 {
        !benes_bits::delta_mask(b)
    } else if (w >> (b - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    };
    if n < 6 {
        pattern & benes_bits::mask(1 << n)
    } else {
        pattern
    }
}

/// The result of a word-parallel routing pass.
///
/// Holds the final bit planes (in flattened coordinates, which after the
/// last stage coincide with physical output terminals) plus the control
/// columns actually applied, which are exactly a [`SwitchSettings`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordOutcome {
    n: u32,
    words: usize,
    planes: Vec<u64>,
    applied: SwitchSettings,
}

impl WordOutcome {
    /// The network order `n` this outcome was computed for.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `true` iff every destination tag arrived at its own output terminal.
    ///
    /// Checked directly against the constant identity bit patterns — no
    /// unpacking, `n · W` word compares.
    #[must_use]
    pub fn is_success(&self) -> bool {
        for b in 0..self.n {
            let base = b as usize * self.words;
            for w in 0..self.words {
                if self.planes[base + w] != identity_plane_word(self.n, b, w) {
                    return false;
                }
            }
        }
        true
    }

    /// Unpacks the planes: `outputs()[terminal]` is the destination tag that
    /// arrived at that output terminal.
    #[must_use]
    pub fn outputs(&self) -> Vec<u32> {
        let size = 1usize << self.n;
        let mut out = vec![0u32; size];
        for b in 0..self.n {
            let base = b as usize * self.words;
            for w in 0..self.words {
                let mut word = self.planes[base + w];
                while word != 0 {
                    let p = word.trailing_zeros() as usize;
                    out[(w << 6) | p] |= 1 << b;
                    word &= word - 1;
                }
            }
        }
        out
    }

    /// The switch states the pass actually applied, faults included.
    #[must_use]
    pub fn settings(&self) -> &SwitchSettings {
        &self.applied
    }
}

/// A fault set as three overlays in control-column form: the switches
/// that ignore their command (stuck either way), those stuck at Cross,
/// and the dead ones that invert it.
fn fault_masks(faults: &FaultSet) -> [SwitchSettings; 3] {
    let mut masks = std::array::from_fn(|_| SwitchSettings::all_straight(faults.n()));
    for (stage, switch, kind) in faults.iter() {
        let hits = match kind {
            FaultKind::StuckStraight => [true, false, false],
            FaultKind::StuckCross => [true, true, false],
            FaultKind::Dead => [false, false, true],
        };
        for (mask, hit) in masks.iter_mut().zip(hits) {
            if hit {
                mask.set(stage, switch, SwitchState::Cross);
            }
        }
    }
    masks
}

/// Packs one `≤ 64`-position chunk of destination tags into per-plane
/// accumulators. Branch-free — a data-dependent branch per position-bit
/// mispredicts ~half the time on permutation data and dominates the
/// whole kernel — and monomorphized per order so the plane loop unrolls.
#[inline]
fn pack_chunk<const NB: usize>(chunk: &[u32], acc: &mut [u64; MAX_PLANES]) {
    for (p, &v) in chunk.iter().enumerate() {
        let v = u64::from(v);
        for b in 0..NB {
            acc[b] |= ((v >> b) & 1) << p;
        }
    }
}

/// Upper bound on `n` for the unrolled packer (planes per accumulator
/// block); orders beyond it take the generic loop.
const MAX_PLANES: usize = 16;

/// Packs a destination permutation into `n` bit planes.
fn pack(n: u32, d: &Permutation) -> Vec<u64> {
    let words = word_count(n);
    let mut planes = vec![0u64; n as usize * words];
    let dests = d.destinations();
    for w in 0..words {
        let start = w << 6;
        let chunk = &dests[start..dests.len().min(start + 64)];
        let mut acc = [0u64; MAX_PLANES];
        if n <= 8 && chunk.len() == 64 {
            // Byte-gather fast path: tags fit in a byte, so eight of
            // them pack into one word and a mask-multiply-shift gathers
            // bit `b` of all eight at once (⌈5⌉ ops per position instead
            // of `n`).
            for g in 0..8usize {
                let mut eight = 0u64;
                for (k, &v) in chunk[g * 8..(g + 1) * 8].iter().enumerate() {
                    eight |= u64::from(v & 0xff) << (8 * k);
                }
                for (b, slot) in acc.iter_mut().enumerate().take(n as usize) {
                    let t = (eight >> b) & 0x0101_0101_0101_0101;
                    *slot |= (t.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
                }
            }
            for (b, &a) in acc.iter().enumerate().take(n as usize) {
                planes[b * words + w] = a;
            }
            continue;
        }
        match n {
            1 => pack_chunk::<1>(chunk, &mut acc),
            2 => pack_chunk::<2>(chunk, &mut acc),
            3 => pack_chunk::<3>(chunk, &mut acc),
            4 => pack_chunk::<4>(chunk, &mut acc),
            5 => pack_chunk::<5>(chunk, &mut acc),
            6 => pack_chunk::<6>(chunk, &mut acc),
            7 => pack_chunk::<7>(chunk, &mut acc),
            8 => pack_chunk::<8>(chunk, &mut acc),
            9 => pack_chunk::<9>(chunk, &mut acc),
            10 => pack_chunk::<10>(chunk, &mut acc),
            11 => pack_chunk::<11>(chunk, &mut acc),
            12 => pack_chunk::<12>(chunk, &mut acc),
            13 => pack_chunk::<13>(chunk, &mut acc),
            14 => pack_chunk::<14>(chunk, &mut acc),
            15 => pack_chunk::<15>(chunk, &mut acc),
            16 => pack_chunk::<16>(chunk, &mut acc),
            _ => {
                for (p, &v) in chunk.iter().enumerate() {
                    let v = u64::from(v);
                    for (b, slot) in acc.iter_mut().enumerate().take(n as usize) {
                        *slot |= ((v >> b) & 1) << p;
                    }
                }
            }
        }
        for b in 0..(n as usize).min(MAX_PLANES) {
            planes[b * words + w] = acc[b];
        }
        // Orders past the accumulator width spill plane-by-plane.
        for b in MAX_PLANES..n as usize {
            let mut word = 0u64;
            for (p, &v) in chunk.iter().enumerate() {
                word |= ((u64::from(v) >> b) & 1) << p;
            }
            planes[b * words + w] = word;
        }
    }
    planes
}

/// Where each stage's commanded cross mask comes from.
#[derive(Clone, Copy)]
enum Command<'a> {
    /// The Fig. 3 tag rule; with the omega bit, stages `0..n−1` forced
    /// straight (§II after Theorem 3).
    Tags { omega: bool },
    /// An external assignment's control columns.
    Columns(&'a SwitchSettings),
}

/// The shared column-at-a-time routing pass.
fn route(
    n: u32,
    d: &Permutation,
    command: Command<'_>,
    faults: Option<&[SwitchSettings; 3]>,
) -> Result<WordOutcome, NetworkError> {
    assert!(n >= 1, "word kernels require n >= 1");
    let size = 1usize << n;
    if d.len() != size {
        return Err(NetworkError::PermutationLength { expected: size, actual: d.len() });
    }
    let words = word_count(n);
    let mut planes = pack(n, d);
    let stages = 2 * n as usize - 1;
    let forced_below = n as usize - 1;
    let mut applied = SwitchSettings::all_straight(n);
    for s in 0..stages {
        let c = topology::control_bit(n, s);
        // This stage's overlay columns, if any switch in it is faulty.
        let sf = faults
            .map(|[stuck, stuck_cross, dead]| {
                (stuck.column(s), stuck_cross.column(s), dead.column(s))
            })
            .filter(|(stuck, _, dead)| stuck.iter().chain(*dead).any(|&w| w != 0));
        let cross = applied.column_mut(s);
        match command {
            Command::Tags { omega } if omega && s < forced_below => {
                if sf.is_none() {
                    // A healthy forced-straight column moves nothing: skip it.
                    continue;
                }
            }
            Command::Tags { .. } => {
                // Commanded mask: control bit of the upper input of every
                // pair, read for the whole column from plane δ(s).
                let plane_c = &planes[c as usize * words..(c as usize + 1) * words];
                if c < 6 {
                    let m = benes_bits::delta_mask(c);
                    for (cw, &pw) in cross.iter_mut().zip(plane_c) {
                        *cw = pw & m;
                    }
                } else {
                    for (w, (cw, &pw)) in cross.iter_mut().zip(plane_c).enumerate() {
                        *cw = if (w >> (c - 6)) & 1 == 0 { pw } else { 0 };
                    }
                }
            }
            Command::Columns(settings) => cross.copy_from_slice(settings.column(s)),
        }
        if let Some((stuck, stuck_cross, dead)) = sf {
            // Stuck switches ignore the command, dead ones invert it.
            for (w, cw) in cross.iter_mut().enumerate() {
                *cw = ((*cw & !stuck[w]) | stuck_cross[w]) ^ dead[w];
            }
        }
        // Apply the column to every plane: one delta-swap per plane word.
        if c < 6 {
            let shift = 1u32 << c;
            for b in 0..n as usize {
                let base = b * words;
                for w in 0..words {
                    planes[base + w] =
                        benes_bits::delta_swap(planes[base + w], cross[w], shift);
                }
            }
        } else {
            // Pairs span words: partner word sits 2^(c-6) words higher.
            let half = 1usize << (c - 6);
            for b in 0..n as usize {
                let base = b * words;
                for wa in 0..words {
                    if (wa >> (c - 6)) & 1 == 0 {
                        let wb = wa + half;
                        let t = (planes[base + wa] ^ planes[base + wb]) & cross[wa];
                        planes[base + wa] ^= t;
                        planes[base + wb] ^= t;
                    }
                }
            }
        }
    }
    Ok(WordOutcome { n, words, planes, applied })
}

/// Word-parallel self-routing of `d` through a healthy `B(n)`
/// (the fast form of [`Benes::try_self_route`](crate::network::Benes)).
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`.
///
/// # Examples
///
/// ```
/// use benes_core::word;
/// use benes_perm::Permutation;
///
/// // Fig. 5 of the paper: D = (1, 3, 2, 0) does NOT self-route on B(2)…
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// assert!(!word::self_route(2, &d).unwrap().is_success());
/// // …but it does with the omega bit asserted.
/// assert!(word::self_route_omega(2, &d).unwrap().is_success());
/// ```
pub fn self_route(n: u32, d: &Permutation) -> Result<WordOutcome, NetworkError> {
    route(n, d, Command::Tags { omega: false }, None)
}

/// Word-parallel omega-bit self-routing: stages `0..n−1` forced straight,
/// the trailing omega half self-routes (realizes all of `Ω(n)`).
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`.
pub fn self_route_omega(n: u32, d: &Permutation) -> Result<WordOutcome, NetworkError> {
    route(n, d, Command::Tags { omega: true }, None)
}

/// Word-parallel self-routing over a faulty fabric: stuck/dead switches are
/// overlaid per stage as flattened masks (the word form of
/// [`crate::faults::self_route_with_faults`]).
///
/// # Panics
///
/// Panics if `faults` was built for a different order than `net`.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len()` is not `net`'s terminal
/// count.
pub fn self_route_with_faults(
    net: &Benes,
    d: &Permutation,
    faults: &FaultSet,
) -> Result<WordOutcome, NetworkError> {
    assert_eq!(net.n(), faults.n(), "fault set order must match the network");
    route(net.n(), d, Command::Tags { omega: false }, Some(&fault_masks(faults)))
}

/// Word-parallel omega-bit self-routing over a faulty fabric.
///
/// Note that faults fire even in the forced-straight stages: a dead or
/// stuck-cross switch there still disturbs the column, exactly as in the
/// scalar [`crate::faults::self_route_omega_with_faults`].
///
/// # Panics
///
/// Panics if `faults` was built for a different order than `net`.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len()` is not `net`'s terminal
/// count.
pub fn self_route_omega_with_faults(
    net: &Benes,
    d: &Permutation,
    faults: &FaultSet,
) -> Result<WordOutcome, NetworkError> {
    assert_eq!(net.n(), faults.n(), "fault set order must match the network");
    route(net.n(), d, Command::Tags { omega: true }, Some(&fault_masks(faults)))
}

/// Word-parallel replay of an external switch assignment (the fast form
/// of [`Benes::realized_permutation`]): the tags of `d` are routed through
/// `settings`' control columns, so the outcome succeeds iff the settings
/// realize exactly `d`.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n` for the
/// settings' order `n`.
///
/// # Examples
///
/// ```
/// use benes_core::{waksman, word};
/// use benes_perm::Permutation;
///
/// // Fig. 5's permutation is not self-routable, but external set-up
/// // realizes it, and the replay confirms it on the word kernel.
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// let settings = waksman::setup(&d).unwrap();
/// assert!(word::replay(&settings, &d).unwrap().is_success());
/// ```
pub fn replay(
    settings: &SwitchSettings,
    d: &Permutation,
) -> Result<WordOutcome, NetworkError> {
    route(settings.n(), d, Command::Columns(settings), None)
}

/// Word-parallel replay of `settings` over a faulty fabric: the commanded
/// columns with the stuck/dead overlay of `faults` (the word form of
/// [`crate::faults::realized_with_faults`]).
///
/// # Panics
///
/// Panics if `faults` was built for a different order than `settings`.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`.
pub fn replay_with_faults(
    settings: &SwitchSettings,
    d: &Permutation,
    faults: &FaultSet,
) -> Result<WordOutcome, NetworkError> {
    assert_eq!(settings.n(), faults.n(), "fault set order must match the settings");
    route(settings.n(), d, Command::Columns(settings), Some(&fault_masks(faults)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, FaultKind};

    #[test]
    fn identity_plane_word_matches_definition() {
        for n in 1..=8u32 {
            let words = word_count(n);
            for b in 0..n {
                for w in 0..words {
                    let mut expected = 0u64;
                    for p in 0..64usize {
                        let pos = (w << 6) | p;
                        if pos < (1 << n) && (pos >> b) & 1 == 1 {
                            expected |= 1 << p;
                        }
                    }
                    assert_eq!(identity_plane_word(n, b, w), expected, "n={n} b={b} w={w}");
                }
            }
        }
    }

    #[test]
    fn pack_then_unpack_round_trips() {
        for n in [1u32, 3, 6, 7, 8] {
            let d = lcg_perm(n, 0x5eed ^ u64::from(n));
            let outcome = WordOutcome {
                n,
                words: word_count(n),
                planes: pack(n, &d),
                applied: SwitchSettings::all_straight(n),
            };
            assert_eq!(outcome.outputs(), d.destinations());
        }
    }

    #[test]
    fn rejects_length_mismatch() {
        let d = Permutation::identity(4);
        assert_eq!(
            self_route(3, &d),
            Err(NetworkError::PermutationLength { expected: 8, actual: 4 })
        );
    }

    /// Exhaustive agreement with the scalar oracle on B(2) and B(3):
    /// success flag, arrival tags, and recovered settings, for both the
    /// plain and the omega-bit kernels.
    #[test]
    fn exhaustive_agreement_with_scalar_oracle() {
        for n in [2u32, 3] {
            let net = Benes::new(n);
            for d in all_perms(1 << n) {
                let scalar = net.self_route(&d);
                let word = self_route(n, &d).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "B({n}) {d:?}");
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) {d:?}");
                assert_eq!(word.settings(), scalar.settings(), "B({n}) {d:?}");

                let scalar_o = net.self_route_omega(&d);
                let word_o = self_route_omega(n, &d).unwrap();
                assert_eq!(
                    word_o.is_success(),
                    scalar_o.is_success(),
                    "B({n}) omega {d:?}"
                );
                assert_eq!(word_o.outputs(), scalar_o.outputs(), "B({n}) omega {d:?}");
                assert_eq!(word_o.settings(), scalar_o.settings(), "B({n}) omega {d:?}");
            }
        }
    }

    /// Same exhaustive comparison over faulty fabrics, including a dead
    /// switch and faults inside the omega-forced stages.
    #[test]
    fn exhaustive_faulty_agreement_with_scalar_oracle() {
        let n = 3u32;
        let net = Benes::new(n);
        let fault_sets = [
            fault_set(n, &[(0, 1, FaultKind::StuckCross)]),
            fault_set(n, &[(2, 0, FaultKind::StuckStraight), (4, 3, FaultKind::Dead)]),
            fault_set(
                n,
                &[
                    (0, 0, FaultKind::Dead),
                    (1, 2, FaultKind::StuckCross),
                    (3, 1, FaultKind::StuckStraight),
                ],
            ),
        ];
        for fs in &fault_sets {
            for d in all_perms(1 << n) {
                let scalar = faults::self_route_with_faults(&net, &d, fs);
                let word = self_route_with_faults(&net, &d, fs).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "{fs:?} {d:?}");
                assert_eq!(word.outputs(), scalar.outputs(), "{fs:?} {d:?}");
                assert_eq!(word.settings(), scalar.settings(), "{fs:?} {d:?}");

                let scalar_o = faults::self_route_omega_with_faults(&net, &d, fs);
                let word_o = self_route_omega_with_faults(&net, &d, fs).unwrap();
                assert_eq!(
                    word_o.is_success(),
                    scalar_o.is_success(),
                    "omega {fs:?} {d:?}"
                );
                assert_eq!(word_o.outputs(), scalar_o.outputs(), "omega {fs:?} {d:?}");
                assert_eq!(word_o.settings(), scalar_o.settings(), "omega {fs:?} {d:?}");
            }
        }
    }

    /// Multi-word orders exercise the cross-word (`δ(s) ≥ 6`) column path:
    /// B(7) pairs words at distance 1 and B(8) at distances 1 and 2.
    #[test]
    fn multiword_orders_agree_with_scalar_oracle() {
        for n in [6u32, 7, 8] {
            let net = Benes::new(n);
            for seed in 0..8u64 {
                let d = lcg_perm(n, seed.wrapping_mul(0x9e37_79b9) ^ u64::from(n));
                let scalar = net.self_route(&d);
                let word = self_route(n, &d).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "B({n}) seed {seed}");
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) seed {seed}");
                assert_eq!(word.settings(), scalar.settings(), "B({n}) seed {seed}");
            }
            // Random stuck/dead fabric at the same orders.
            let fs = FaultSet::random_stuck(n, 4, 0xfab ^ u64::from(n));
            for seed in 0..4u64 {
                let d = lcg_perm(n, seed ^ 0xabcd);
                let scalar = faults::self_route_with_faults(&net, &d, &fs);
                let word = self_route_with_faults(&net, &d, &fs).unwrap();
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) faulty seed {seed}");
            }
        }
    }

    /// The paper's Fig. 5 example, traced by hand in flattened form.
    #[test]
    fn fig5_word_trace() {
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let outcome = self_route(2, &d).unwrap();
        assert!(!outcome.is_success());
        assert_eq!(outcome.outputs(), vec![2, 1, 0, 3]);
        assert!(self_route_omega(2, &d).unwrap().is_success());
    }

    /// Exhaustive replay agreement with the scalar circuit walk on B(2)
    /// and B(3): for every permutation, its Waksman settings replay to
    /// success with the same arrivals as `route_with`, and replaying them
    /// under the wrong permutation fails exactly as the walk does. Then
    /// every fault kind on every single switch, against
    /// `route_with_faults` and the overlaid settings.
    #[test]
    fn exhaustive_replay_agreement_with_scalar_oracle() {
        for n in [2u32, 3] {
            let net = Benes::new(n);
            let perms = all_perms(1 << n);
            for (idx, d) in perms.iter().enumerate() {
                let settings = crate::waksman::setup(d).unwrap();
                let word = replay(&settings, d).unwrap();
                assert!(word.is_success(), "B({n}) {d:?}");
                assert_eq!(
                    word.outputs(),
                    net.route_with(&settings, d.destinations()).unwrap()
                );
                assert_eq!(word.settings(), &settings);
                let other = &perms[(idx * 7 + 3) % perms.len()];
                let scalar = net.route_with(&settings, other.destinations()).unwrap();
                let word = replay(&settings, other).unwrap();
                assert_eq!(word.outputs(), scalar, "B({n}) {d:?} replayed for {other:?}");
                assert_eq!(
                    word.is_success(),
                    net.realized_permutation(&settings).unwrap() == *other
                );

                if n == 3 && idx % 13 != 0 {
                    continue;
                }
                for stage in 0..net.stage_count() {
                    for switch in 0..net.switches_per_stage() {
                        for kind in [
                            FaultKind::StuckStraight,
                            FaultKind::StuckCross,
                            FaultKind::Dead,
                        ] {
                            let fs = fault_set(n, &[(stage, switch, kind)]);
                            let word = replay_with_faults(&settings, d, &fs).unwrap();
                            let scalar = faults::route_with_faults(
                                &net,
                                &settings,
                                &fs,
                                d.destinations(),
                            )
                            .unwrap();
                            assert_eq!(word.outputs(), scalar, "B({n}) {d:?} {fs}");
                            assert_eq!(
                                word.settings(),
                                &fs.apply_to(&settings),
                                "B({n}) {fs}"
                            );
                            assert_eq!(
                                word.is_success(),
                                faults::realized_with_faults(&net, &settings, &fs).unwrap()
                                    == *d,
                                "B({n}) {d:?} {fs}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn replay_rejects_length_mismatch() {
        let settings = SwitchSettings::all_straight(3);
        assert_eq!(
            replay(&settings, &Permutation::identity(4)),
            Err(NetworkError::PermutationLength { expected: 8, actual: 4 })
        );
    }

    fn fault_set(n: u32, entries: &[(usize, usize, FaultKind)]) -> FaultSet {
        let mut fs = FaultSet::new(n);
        for &(s, i, k) in entries {
            fs.insert(s, i, k).unwrap();
        }
        fs
    }

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

    fn all_perms(len: usize) -> Vec<Permutation> {
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
        let mut raw = Vec::new();
        rec(&mut (0..len as u32).collect(), &mut Vec::new(), &mut raw);
        raw.into_iter().map(|d| Permutation::from_destinations(d).unwrap()).collect()
    }
}
