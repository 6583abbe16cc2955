//! The word-parallel (bit-sliced) routing kernel: one entry point,
//! [`route`], for all three [`Control`] modes — self-routing, the omega
//! bit and the replay of external settings — on a healthy or faulty
//! fabric.
//!
//! The scalar oracle ([`crate::trace::RouteTrace::capture`]) walks the
//! network one switch at a time. This module applies **whole
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
//! test checks this against [`Benes::link`](crate::Benes::link) up to
//! `B(10)`.
//!
//! # Representation
//!
//! A routing state is `n` **bit planes** of `N = 2^n` bits each, packed into
//! `W = max(1, N/64)` words per plane: bit `p` of plane `b` holds bit `b` of
//! the destination tag currently at flattened position `p`. Stage `s` with
//! pairing distance `d = 2^{δ(s)}` takes its cross-mask either from plane
//! `δ(s)` (self-routing: the upper input's control bit, for every switch at
//! once) or from the commanded control column of a [`SwitchSettings`]
//! ([`Control::Settings`]: settings *are* these columns), overlays any stuck/dead
//! fault masks, and applies the column with [`benes_bits::delta_swap`]
//! (intra-word for `d < 64`, word-pair XOR otherwise).
//!
//! The scalar walk remains the **oracle**: exhaustive `B(2)`/`B(3)` and
//! property-based `B(4..10)` tests assert output- and settings-level
//! agreement for every control mode on healthy and faulty fabrics, and
//! `analyze word` proves it symbolically for every `n ≤ 8`.
//!
//! # Examples
//!
//! ```
//! use benes_core::{word, Control};
//! use benes_perm::bpc::Bpc;
//!
//! // Fig. 4 of the paper: bit reversal self-routes on B(3).
//! let d = Bpc::bit_reversal(3).to_permutation();
//! let outcome = word::route(3, &d, Control::SelfRoute, None).unwrap();
//! assert!(outcome.is_success());
//! assert_eq!(outcome.outputs(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! ```

use benes_perm::Permutation;

use crate::faults::{FaultKind, FaultSet};
use crate::network::{Control, NetworkError, SwitchSettings, SwitchState};
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

/// Word-parallel routing of `d`'s destination tags through `B(n)` under
/// `control`, one switch column at a time: the fast form of
/// [`RouteTrace::capture`](crate::trace::RouteTrace::capture), the
/// scalar oracle it is held to. With `faults`, every stuck or dead
/// switch overrides its commanded state, even in the omega bit's
/// forced-straight stages.
///
/// The outcome succeeds iff every tag reached its own output: for
/// [`Control::SelfRoute`] iff `d ∈ F(n)`, for [`Control::OmegaBit`] iff
/// `d ∈ Ω(n)`, and for [`Control::Settings`] iff the settings realize
/// exactly `d` on the (faulty) fabric.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`;
/// [`NetworkError::SettingsOrder`] if external settings were built for
/// another order.
///
/// # Panics
///
/// Panics if `n == 0` or `faults` was built for another order.
///
/// # Examples
///
/// ```
/// use benes_core::{waksman, word, Control};
/// use benes_perm::Permutation;
///
/// // Fig. 5 of the paper: D = (1, 3, 2, 0) does NOT self-route on B(2)…
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// assert!(!word::route(2, &d, Control::SelfRoute, None).unwrap().is_success());
/// // …but it does with the omega bit asserted…
/// assert!(word::route(2, &d, Control::OmegaBit, None).unwrap().is_success());
/// // …and by replaying an external set-up.
/// let settings = waksman::setup(&d).unwrap();
/// assert!(word::route(2, &d, Control::Settings(&settings), None).unwrap().is_success());
/// ```
pub fn route(
    n: u32,
    d: &Permutation,
    control: Control<'_>,
    faults: Option<&FaultSet>,
) -> Result<WordOutcome, NetworkError> {
    if let Control::Settings(settings) = control {
        if settings.n() != n {
            return Err(NetworkError::SettingsOrder {
                network_n: n,
                settings_n: settings.n(),
            });
        }
    }
    match faults {
        None => route_columns(n, d, control, None),
        Some(f) => {
            assert_eq!(f.n(), n, "fault set order must match the network");
            route_columns(n, d, control, Some(&fault_masks(f)))
        }
    }
}

/// [`route`]'s column-at-a-time pass, with the fault set already in
/// mask form.
fn route_columns(
    n: u32,
    d: &Permutation,
    control: Control<'_>,
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
        match control {
            Control::OmegaBit if s < forced_below => {
                if sf.is_none() {
                    // A healthy forced-straight column moves nothing: skip it.
                    continue;
                }
            }
            Control::SelfRoute | Control::OmegaBit => {
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
            Control::Settings(settings) => cross.copy_from_slice(settings.column(s)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Benes;
    use crate::trace::RouteTrace;

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
    fn rejects_mismatched_inputs() {
        let d = Permutation::identity(4);
        assert_eq!(
            route(3, &d, Control::SelfRoute, None),
            Err(NetworkError::PermutationLength { expected: 8, actual: 4 })
        );
        let settings = SwitchSettings::all_straight(3);
        assert_eq!(
            route(3, &d, Control::Settings(&settings), None),
            Err(NetworkError::PermutationLength { expected: 8, actual: 4 })
        );
        assert_eq!(
            route(2, &d, Control::Settings(&settings), None),
            Err(NetworkError::SettingsOrder { network_n: 2, settings_n: 3 })
        );
    }

    /// One pass on both kernels: the word outcome must match the scalar
    /// oracle's success flag, arrival tags and applied settings, and a
    /// settings replay must match `route_with` over the overlaid settings.
    fn assert_agrees(
        net: &Benes,
        d: &Permutation,
        control: Control<'_>,
        faults: Option<&FaultSet>,
    ) {
        let word = route(net.n(), d, control, faults).unwrap();
        let scalar = RouteTrace::capture(net, d, control, faults).unwrap();
        let case = || format!("B({}) {:?} {d:?} {faults:?}", net.n(), control.mode());
        assert_eq!(word.is_success(), scalar.is_success(), "{}", case());
        assert_eq!(word.outputs(), scalar.outputs(), "{}", case());
        assert_eq!(word.settings(), scalar.settings(), "{}", case());
        if let Control::Settings(settings) = control {
            let overlaid =
                faults.map_or_else(|| settings.clone(), |f| f.apply_to(settings));
            let walked = net.route_with(&overlaid, d.destinations()).unwrap();
            assert_eq!(word.outputs(), walked, "{}", case());
        }
    }

    /// Every control mode on B(2) and B(3), over each fabric `fabrics`
    /// returns: each permutation self-routes, routes with the omega bit
    /// and replays its own Waksman settings, and another permutation is
    /// replayed through those settings on the healthy fabric. All of S₄;
    /// every `stride`-th permutation of S₈.
    fn sweep(stride: usize, fabrics: impl Fn(&Benes) -> Vec<Option<FaultSet>>) {
        for n in [2u32, 3] {
            let net = Benes::new(n);
            let fabrics = fabrics(&net);
            let perms = all_perms(1 << n);
            let stride = if n == 2 { 1 } else { stride };
            for (idx, d) in perms.iter().enumerate().step_by(stride) {
                let settings = crate::waksman::setup(d).unwrap();
                assert!(route(n, d, Control::Settings(&settings), None)
                    .unwrap()
                    .is_success());
                let other = &perms[(idx * 7 + 3) % perms.len()];
                assert_agrees(&net, other, Control::Settings(&settings), None);
                for faults in &fabrics {
                    for control in [
                        Control::SelfRoute,
                        Control::OmegaBit,
                        Control::Settings(&settings),
                    ] {
                        assert_agrees(&net, d, control, faults.as_ref());
                    }
                }
            }
        }
    }

    /// The healthy fabric and, on B(3), three multi-fault fabrics (a dead
    /// switch, faults inside the omega-forced stages): every permutation.
    #[test]
    fn exhaustive_agreement_with_scalar_oracle() {
        sweep(1, |net| {
            let multi = [
                &[(0, 1, FaultKind::StuckCross)][..],
                &[(2, 0, FaultKind::StuckStraight), (4, 3, FaultKind::Dead)],
                &[
                    (0, 0, FaultKind::Dead),
                    (1, 2, FaultKind::StuckCross),
                    (3, 1, FaultKind::StuckStraight),
                ],
            ];
            let multi = multi.iter().filter(|_| net.n() == 3);
            std::iter::once(None).chain(multi.map(|e| Some(fault_set(3, e)))).collect()
        });
    }

    /// Each fault kind on each single switch: all of S₄, every 13th
    /// permutation of S₈.
    #[test]
    fn exhaustive_single_fault_agreement_with_scalar_oracle() {
        sweep(13, |net| {
            let mut singles = Vec::new();
            for stage in 0..net.stage_count() {
                for switch in 0..net.switches_per_stage() {
                    for kind in
                        [FaultKind::StuckStraight, FaultKind::StuckCross, FaultKind::Dead]
                    {
                        singles.push(Some(fault_set(net.n(), &[(stage, switch, kind)])));
                    }
                }
            }
            singles
        });
    }

    /// Multi-word orders exercise the cross-word (`δ(s) ≥ 6`) column path:
    /// B(7) pairs words at distance 1 and B(8) at distances 1 and 2.
    #[test]
    fn multiword_orders_agree_with_scalar_oracle() {
        for n in [6u32, 7, 8] {
            let net = Benes::new(n);
            let fs = FaultSet::random_stuck(n, 4, 0xfab ^ u64::from(n));
            for seed in 0..8u64 {
                let d = lcg_perm(n, seed.wrapping_mul(0x9e37_79b9) ^ u64::from(n));
                let settings = crate::waksman::setup(&d).unwrap();
                for control in
                    [Control::SelfRoute, Control::OmegaBit, Control::Settings(&settings)]
                {
                    assert_agrees(&net, &d, control, None);
                    if seed < 4 {
                        assert_agrees(&net, &d, control, Some(&fs));
                    }
                }
            }
        }
    }

    /// The paper's Fig. 5 example, traced by hand in flattened form.
    #[test]
    fn fig5_word_trace() {
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let outcome = route(2, &d, Control::SelfRoute, None).unwrap();
        assert!(!outcome.is_success());
        assert_eq!(outcome.outputs(), vec![2, 1, 0, 3]);
        assert!(route(2, &d, Control::OmegaBit, None).unwrap().is_success());
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
