//! Fault injection and fault-tolerant routing.
//!
//! The Benes network's rearrangeability gives it intrinsic path
//! diversity: for most permutations many distinct switch assignments
//! realize the same mapping, because every constraint loop of the
//! looping set-up ([`crate::waksman`]) may be seeded into either
//! subnetwork. This module turns that freedom into a robustness layer:
//!
//! * [`FaultSet`] — a per-switch fault overlay for one `B(n)` network
//!   (stuck-at-straight, stuck-at-cross, or dead switches);
//! * fault-aware execution — [`FaultSet::apply_to`] distorts any
//!   [`SwitchSettings`] the way the broken hardware would, and every
//!   routing kernel ([`crate::trace::RouteTrace::capture`],
//!   [`crate::word::route`]) takes a fault set to overlay on whatever
//!   its [`crate::network::Control`] commands;
//! * [`setup_avoiding`] — a fault-avoiding Waksman set-up that searches
//!   the free seeding choices of the looping decomposition for a switch
//!   assignment **agreeing with every stuck switch**, so the settings
//!   route correctly on the faulty hardware (and, because they agree,
//!   on healthy hardware too). When no agreeing assignment exists the
//!   typed [`FaultSetupError::Unavoidable`] is returned.
//!
//! Fault semantics:
//!
//! * a **stuck** switch ignores its commanded state and always applies
//!   the stuck one — the classical stuck-at model of
//!   [`crate::diagnose`], extended to whole fault sets;
//! * a **dead** switch is adversarial: it applies the *opposite* of
//!   whatever is commanded. Since every terminal's path crosses every
//!   stage, and a permutation determines each switch's required state
//!   exactly, a dead switch can never be planned around — any fault set
//!   containing one is unavoidable for every permutation.

use std::collections::BTreeMap;
use std::fmt;

use benes_perm::Permutation;

use crate::network::{Benes, NetworkError, SwitchSettings, SwitchState};
use crate::topology;
use crate::waksman::{bit, span, uppers, Looper, SetupError};

/// The failure mode of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The switch always passes straight, whatever is commanded.
    StuckStraight,
    /// The switch always crosses, whatever is commanded.
    StuckCross,
    /// The switch is adversarial: it applies the opposite of the
    /// commanded state. No set-up can agree with it.
    Dead,
}

impl FaultKind {
    /// The state a stuck switch holds, or `None` for a dead switch.
    #[must_use]
    pub fn stuck_state(self) -> Option<SwitchState> {
        match self {
            Self::StuckStraight => Some(SwitchState::Straight),
            Self::StuckCross => Some(SwitchState::Cross),
            Self::Dead => None,
        }
    }

    /// The state the faulty switch actually applies when `commanded` is
    /// requested.
    #[must_use]
    pub fn effective(self, commanded: SwitchState) -> SwitchState {
        match self {
            Self::StuckStraight => SwitchState::Straight,
            Self::StuckCross => SwitchState::Cross,
            Self::Dead => commanded.toggled(),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StuckStraight => write!(f, "stuck-at-straight"),
            Self::StuckCross => write!(f, "stuck-at-cross"),
            Self::Dead => write!(f, "dead"),
        }
    }
}

/// A set of per-switch faults for one `B(n)` network.
///
/// Stored as an ordered map keyed by `(stage, switch)` so iteration,
/// display and the fault-avoiding planner are fully deterministic.
///
/// # Examples
///
/// ```
/// use benes_core::faults::{FaultKind, FaultSet};
/// use benes_core::{SwitchSettings, SwitchState};
///
/// let mut faults = FaultSet::new(2);
/// faults.insert(1, 0, FaultKind::StuckCross).unwrap();
/// let healthy = SwitchSettings::all_straight(2);
/// let effective = faults.apply_to(&healthy);
/// assert_eq!(effective.get(1, 0), SwitchState::Cross);
/// assert_eq!(effective.cross_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSet {
    n: u32,
    faults: BTreeMap<(usize, usize), FaultKind>,
}

/// Error produced when registering a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// The `(stage, switch)` coordinates are outside the `B(n)` fabric.
    OutOfRange {
        /// The offending stage.
        stage: usize,
        /// The offending switch row.
        switch: usize,
        /// The network order the fault set was built for.
        n: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange { stage, switch, n } => write!(
                f,
                "switch ({stage}, {switch}) does not exist in B({n}) \
                 ({} stages of {} switches)",
                topology::stage_count(*n),
                topology::switches_per_stage(*n)
            ),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultSet {
    /// An empty fault set for `B(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (see [`topology::MAX_N`]).
    #[must_use]
    pub fn new(n: u32) -> Self {
        topology::validate_n(n);
        Self { n, faults: BTreeMap::new() }
    }

    /// The network order `n` this fault set describes.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Registers (or replaces) a fault at `(stage, switch)`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::OutOfRange`] if the coordinates do not name
    /// a switch of `B(n)`.
    pub fn insert(
        &mut self,
        stage: usize,
        switch: usize,
        kind: FaultKind,
    ) -> Result<(), FaultError> {
        if stage >= topology::stage_count(self.n)
            || switch >= topology::switches_per_stage(self.n)
        {
            return Err(FaultError::OutOfRange { stage, switch, n: self.n });
        }
        self.faults.insert((stage, switch), kind);
        Ok(())
    }

    /// Removes the fault at `(stage, switch)`, returning it if present.
    pub fn remove(&mut self, stage: usize, switch: usize) -> Option<FaultKind> {
        self.faults.remove(&(stage, switch))
    }

    /// Removes every fault.
    pub fn clear(&mut self) {
        self.faults.clear();
    }

    /// The fault at `(stage, switch)`, if any.
    #[must_use]
    pub fn get(&self, stage: usize, switch: usize) -> Option<FaultKind> {
        self.faults.get(&(stage, switch)).copied()
    }

    /// The number of faulty switches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the fabric is healthy (no registered faults).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether any registered fault is [`FaultKind::Dead`].
    #[must_use]
    pub fn has_dead(&self) -> bool {
        self.faults.values().any(|&k| k == FaultKind::Dead)
    }

    /// Iterates the faults in deterministic `(stage, switch)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&(stage, switch), &kind)| (stage, switch, kind))
    }

    /// The state switch `(stage, switch)` actually takes when
    /// `commanded` is requested, under this fault overlay.
    #[must_use]
    pub fn effective_state(
        &self,
        stage: usize,
        switch: usize,
        commanded: SwitchState,
    ) -> SwitchState {
        match self.get(stage, switch) {
            Some(kind) => kind.effective(commanded),
            None => commanded,
        }
    }

    /// The settings the faulty fabric *actually applies* when `settings`
    /// is commanded: every healthy switch obeys, every faulty switch
    /// follows its fault.
    ///
    /// # Panics
    ///
    /// Panics if `settings` was built for a different network order.
    #[must_use]
    pub fn apply_to(&self, settings: &SwitchSettings) -> SwitchSettings {
        assert_eq!(
            settings.n(),
            self.n,
            "fault set is for B({}), settings are for B({})",
            self.n,
            settings.n()
        );
        let mut effective = settings.clone();
        for (&(stage, switch), &kind) in &self.faults {
            effective.set(stage, switch, kind.effective(settings.get(stage, switch)));
        }
        effective
    }

    /// Whether `settings` **agrees** with every fault: each stuck switch
    /// is commanded exactly its stuck state (so the overlay is a no-op).
    /// Always `false` when a dead switch is registered and the set is
    /// non-trivially consulted — a dead switch agrees with nothing.
    #[must_use]
    pub fn agrees_with(&self, settings: &SwitchSettings) -> bool {
        self.disagreements(settings).is_empty()
    }

    /// Itemizes [`Self::agrees_with`]: every fault whose forced state
    /// differs from the commanded one, as
    /// `(stage, switch, commanded, forced)` where `forced` is `None`
    /// for a dead switch (which disagrees with any command). Empty
    /// exactly when `agrees_with` holds.
    #[must_use]
    pub fn disagreements(
        &self,
        settings: &SwitchSettings,
    ) -> Vec<(usize, usize, SwitchState, Option<SwitchState>)> {
        self.faults
            .iter()
            .filter_map(|(&(stage, switch), &kind)| {
                let commanded = settings.get(stage, switch);
                (kind.stuck_state() != Some(commanded))
                    .then(|| (stage, switch, commanded, kind.stuck_state()))
            })
            .collect()
    }

    /// `count` random stuck-at faults (never dead) on distinct switches,
    /// derived deterministically from `seed` with a splitmix64 stream —
    /// the standard campaign generator for tests, the CLI and EXP-FAULTS.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the switch count of `B(n)`.
    #[must_use]
    pub fn random_stuck(n: u32, count: usize, seed: u64) -> Self {
        topology::validate_n(n);
        assert!(
            count <= topology::switch_count(n),
            "cannot place {count} faults on {} switches",
            topology::switch_count(n)
        );
        let mut set = Self::new(n);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        while set.len() < count {
            let stage = (next() % topology::stage_count(n) as u64) as usize;
            let switch = (next() % topology::switches_per_stage(n) as u64) as usize;
            if set.get(stage, switch).is_some() {
                continue;
            }
            let kind = if next() & 1 == 0 {
                FaultKind::StuckStraight
            } else {
                FaultKind::StuckCross
            };
            set.insert(stage, switch, kind).expect("coordinates drawn in range");
        }
        set
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "B({}): healthy", self.n);
        }
        write!(f, "B({}):", self.n)?;
        for (stage, switch, kind) in self.iter() {
            write!(f, " ({stage},{switch})={kind}")?;
        }
        Ok(())
    }
}

/// Routes `inputs` through `net` with `settings` commanded and the fault
/// overlay applied — what the broken hardware would actually do.
///
/// # Errors
///
/// Returns the usual [`NetworkError`]s for length/order mismatches.
///
/// # Panics
///
/// Panics if `faults.n() != settings.n()`.
pub fn route_with_faults<T: Clone>(
    net: &Benes,
    settings: &SwitchSettings,
    faults: &FaultSet,
    inputs: &[T],
) -> Result<Vec<T>, NetworkError> {
    net.route_with(&faults.apply_to(settings), inputs)
}

/// The permutation the faulty fabric realizes when `settings` is
/// commanded.
///
/// # Errors
///
/// Returns [`NetworkError::SettingsOrder`] on an order mismatch.
///
/// # Panics
///
/// Panics if `faults.n() != settings.n()`.
pub fn realized_with_faults(
    net: &Benes,
    settings: &SwitchSettings,
    faults: &FaultSet,
) -> Result<Permutation, NetworkError> {
    net.realized_permutation(&faults.apply_to(settings))
}

/// Error produced by [`setup_avoiding`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSetupError {
    /// The permutation itself cannot be set up (bad length / too large).
    Setup(SetupError),
    /// The fault set was built for a different network order.
    OrderMismatch {
        /// The order the permutation requires.
        required: u32,
        /// The order the fault set describes.
        faults: u32,
    },
    /// No switch assignment realizing the permutation agrees with every
    /// fault: either a dead switch is present (nothing agrees with one),
    /// or the seeding search exhausted every consistent choice (proof of
    /// unavoidability for the search space explored; the search is
    /// budgeted, so on very large fault sets this is "not found within
    /// budget").
    Unavoidable,
}

impl fmt::Display for FaultSetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Setup(e) => write!(f, "set-up failed: {e}"),
            Self::OrderMismatch { required, faults } => write!(
                f,
                "permutation needs B({required}) but the fault set describes B({faults})"
            ),
            Self::Unavoidable => {
                write!(f, "no set-up realizing the permutation agrees with the fault set")
            }
        }
    }
}

impl std::error::Error for FaultSetupError {}

impl From<SetupError> for FaultSetupError {
    fn from(e: SetupError) -> Self {
        Self::Setup(e)
    }
}

/// Node budget for the seeding search: far above anything `k ≤ 2` fault
/// campaigns need on the orders the engine serves, while bounding the
/// worst case (the number of free seeding bits grows with `N log N`).
const SEARCH_BUDGET: usize = 200_000;

/// Computes switch settings realizing `d` that **agree with every stuck
/// switch** in `faults` — the fault-avoiding Waksman set-up.
///
/// The looping decomposition leaves one free binary choice per
/// constraint loop (which subnetwork the loop's seed routes through).
/// This function searches those free choices depth-first, pruning
/// seedings that contradict a stuck switch in the current block's outer
/// stages, and recursing into the induced sub-permutations. Blocks whose
/// switch range contains no fault are set up greedily (seed 0, the
/// classical algorithm) without branching, so the search is cheap
/// whenever the fault set is small.
///
/// Because the returned settings agree with every stuck switch, the
/// fault overlay is a **no-op** on them: they realize `d` on the faulty
/// fabric *and* on healthy hardware — safe to cache and replay after a
/// repair.
///
/// # Errors
///
/// * [`FaultSetupError::Setup`] — `d` has an unroutable length;
/// * [`FaultSetupError::OrderMismatch`] — `faults` describes another
///   order;
/// * [`FaultSetupError::Unavoidable`] — no agreeing assignment exists
///   (always the case when `faults` contains a dead switch).
///
/// # Examples
///
/// ```
/// use benes_core::faults::{setup_avoiding, FaultKind, FaultSet};
/// use benes_core::{Benes, SwitchState};
/// use benes_perm::Permutation;
///
/// let net = Benes::new(2);
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// let mut faults = FaultSet::new(2);
/// faults.insert(0, 0, FaultKind::StuckStraight).unwrap();
/// let settings = setup_avoiding(&d, &faults).unwrap();
/// assert_eq!(settings.get(0, 0), SwitchState::Straight); // agrees
/// assert_eq!(net.realized_permutation(&settings).unwrap(), d);
/// ```
pub fn setup_avoiding(
    d: &Permutation,
    faults: &FaultSet,
) -> Result<SwitchSettings, FaultSetupError> {
    let n = d
        .log2_len()
        .filter(|&n| n >= 1)
        .ok_or(SetupError::NotPowerOfTwo { len: d.len() })?;
    if n > topology::MAX_N {
        return Err(FaultSetupError::Setup(SetupError::TooLarge { n }));
    }
    if faults.n() != n {
        return Err(FaultSetupError::OrderMismatch { required: n, faults: faults.n() });
    }
    // A dead switch applies the opposite of any commanded state, and the
    // permutation determines every switch's required state exactly, so
    // no assignment can agree with it.
    if faults.has_dead() {
        return Err(FaultSetupError::Unavoidable);
    }
    let mut settings = SwitchSettings::all_straight(n);
    let mut looper = Looper::new(n, d);
    let mut budget = SEARCH_BUDGET;
    if solve(&mut looper, 0, 0, &mut settings, faults, &mut budget) {
        debug_assert!(faults.agrees_with(&settings));
        debug_assert_eq!(
            Benes::new(n).realized_permutation(&faults.apply_to(&settings)).unwrap(),
            *d,
            "fault-avoiding set-up must realize d through the faulty fabric"
        );
        Ok(settings)
    } else {
        Err(FaultSetupError::Unavoidable)
    }
}

/// Whether the half-open switch rectangle of the `B(m)` block based at
/// `(stage_base, row_base)` contains any registered fault.
fn block_has_fault(faults: &FaultSet, m: u32, stage_base: usize, row_base: usize) -> bool {
    let stages = 2 * m as usize - 1;
    let rows = 1usize << (m - 1);
    faults.iter().any(|(stage, switch, _)| {
        (stage_base..stage_base + stages).contains(&stage)
            && (row_base..row_base + rows).contains(&switch)
    })
}

/// Recursively assigns the switches of the depth-`k` block of residue `r`
/// (see [`Looper`]) so it realizes the block's part of `looper.dest`
/// while agreeing with every stuck switch inside the block. Returns
/// `false` when no agreeing assignment exists (or the budget ran out).
fn solve(
    looper: &mut Looper,
    k: u32,
    r: usize,
    settings: &mut SwitchSettings,
    faults: &FaultSet,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let n = faults.n();
    let m = n - k;
    let stage_base = k as usize;
    // The block's first physical row: its index at depth k is r reversed.
    let row_base = topology::reverse_low_bits(r, k) << (m - 1);

    if m == 1 {
        let cross = looper.dest[r] as usize != r;
        let required = SwitchState::from_bit(u64::from(cross));
        let fault = faults.get(stage_base, row_base);
        settings.put_at(stage_base, r, cross);
        return fault.is_none_or(|kind| kind.stuck_state() == Some(required));
    }

    // Fault-free blocks never fail: the classical greedy set-up applies.
    if !block_has_fault(faults, m, stage_base, row_base) {
        looper.greedy(k, r, settings);
        return true;
    }

    // Trace the constraint loops once (under seeding 0), remembering the
    // block's destinations so every seeding attempt starts from them.
    let saved: Vec<u32> = span(n, k, r).map(|f| looper.dest[f]).collect();
    looper.index(k, r);
    let half = 1usize << (m - 1);
    let last_stage = 2 * n as usize - 2 - stage_base;
    // Each loop's steps as `Looper::trace` reports them under seeding 0;
    // seeding 1 flips both switches of every step.
    let mut loops: Vec<Vec<(usize, bool, usize, bool)>> = Vec::new();
    // Per local switch i (upper position (2i << k) | r): its owning loop
    // and its state under seeding 0, first and last stage.
    let mut in_switch = vec![(usize::MAX, false); half];
    let mut out_switch = vec![(usize::MAX, false); half];
    for seed in uppers(n, k, r, k) {
        if bit(&looper.done, seed) {
            continue;
        }
        let id = loops.len();
        let mut steps = Vec::new();
        looper.trace(k, seed, |x, cross_in, o, cross_out| {
            in_switch[x >> (k + 1)] = (id, cross_in);
            out_switch[o >> (k + 1)] = (id, cross_out);
            steps.push((x, cross_in, o, cross_out));
        });
        loops.push(steps);
    }

    // Per-loop allowed seedings, pruned by the stuck switches of this
    // block's outer stages: under seeding s a switch crosses iff its
    // seeding-0 state XOR s does.
    let mut allowed: Vec<[bool; 2]> = vec![[true, true]; loops.len()];
    for i in 0..half {
        for (stage, (loop_id, base_cross)) in
            [(stage_base, in_switch[i]), (last_stage, out_switch[i])]
        {
            if let Some(kind) = faults.get(stage, row_base + i) {
                let stuck = kind.stuck_state().expect("dead sets rejected up front");
                allowed[loop_id]
                    [usize::from(base_cross == (stuck == SwitchState::Cross))] = false;
            }
        }
    }
    if allowed.iter().any(|a| !a[0] && !a[1]) {
        return false;
    }

    // Only loops that can influence a deeper fault (or are themselves
    // constrained) need branching; everything else takes its first
    // allowed seeding. Both children are affected by every loop, so any
    // deeper fault makes all loops branch-worthy — the budget bounds it.
    let upper_fault = block_has_fault(faults, m - 1, stage_base + 1, row_base);
    let lower_fault = block_has_fault(faults, m - 1, stage_base + 1, row_base + half / 2);
    let deep_fault = upper_fault || lower_fault;

    let mut seeding: Vec<bool> = allowed.iter().map(|a| !a[0]).collect();
    let branch: Vec<usize> = (0..loops.len())
        .filter(|&i| allowed[i][0] && allowed[i][1] && deep_fault)
        .collect();

    // Depth-first over the branching loops' seedings.
    let mut choice = vec![false; branch.len()];
    loop {
        for (bi, &li) in branch.iter().enumerate() {
            seeding[li] = choice[bi];
        }
        if try_seeding(looper, k, r, &saved, settings, faults, budget, &loops, &seeding) {
            return true;
        }
        if *budget == 0 {
            return false;
        }
        // Next combination (binary counter over the branching loops).
        let mut bi = 0;
        loop {
            if bi == branch.len() {
                return false;
            }
            if !choice[bi] {
                choice[bi] = true;
                break;
            }
            choice[bi] = false;
            bi += 1;
        }
    }
}

/// Applies one complete seeding vector: fixes the block's outer stages,
/// restores the block's destinations and splits them into the two
/// sub-networks, and recurses into both. Returns `false` (leaving
/// `settings` dirty for the caller to overwrite on the next attempt) if
/// either child fails.
#[allow(clippy::too_many_arguments)]
fn try_seeding(
    looper: &mut Looper,
    k: u32,
    r: usize,
    saved: &[u32],
    settings: &mut SwitchSettings,
    faults: &FaultSet,
    budget: &mut usize,
    loops: &[Vec<(usize, bool, usize, bool)>],
    seeding: &[bool],
) -> bool {
    let n = faults.n();
    let last_stage = 2 * n as usize - 2 - k as usize;
    for (steps, &flip) in loops.iter().zip(seeding) {
        for &(x, cross_in, o, cross_out) in steps {
            settings.put_at(k as usize, x, cross_in ^ flip);
            settings.put_at(last_stage, o, cross_out ^ flip);
        }
    }
    for (f, &dest) in span(n, k, r).zip(saved) {
        looper.dest[f] = dest;
    }
    looper.split(k, k, r, settings.column(k as usize));
    let d = 1usize << k;
    solve(looper, k + 1, r, settings, faults, budget)
        && solve(looper, k + 1, r | d, settings, faults, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Control;
    use crate::trace::RouteTrace;
    use crate::waksman;
    use benes_perm::bpc::Bpc;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
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

    #[test]
    fn fault_set_validates_coordinates() {
        let mut f = FaultSet::new(2);
        assert!(f.insert(0, 0, FaultKind::StuckCross).is_ok());
        assert!(f.insert(3, 0, FaultKind::StuckCross).is_err()); // 3 stages in B(2)
        assert!(f.insert(0, 2, FaultKind::StuckCross).is_err()); // 2 rows in B(2)
        assert_eq!(f.len(), 1);
        assert_eq!(f.remove(0, 0), Some(FaultKind::StuckCross));
        assert!(f.is_empty());
    }

    #[test]
    fn overlay_distorts_only_faulty_switches() {
        let mut f = FaultSet::new(2);
        f.insert(1, 1, FaultKind::StuckCross).unwrap();
        f.insert(2, 0, FaultKind::Dead).unwrap();
        let mut commanded = SwitchSettings::all_straight(2);
        commanded.set(2, 0, SwitchState::Cross);
        let effective = f.apply_to(&commanded);
        assert_eq!(effective.get(1, 1), SwitchState::Cross); // stuck
        assert_eq!(effective.get(2, 0), SwitchState::Straight); // dead: toggled
        assert_eq!(effective.get(0, 0), SwitchState::Straight); // healthy
    }

    #[test]
    fn agreeing_settings_see_noop_overlay() {
        let d = p(&[2, 5, 3, 7, 1, 6, 4, 0]);
        let settings = waksman::setup(&d).unwrap();
        let mut f = FaultSet::new(3);
        // Register a fault stuck at exactly the state the set-up chose.
        f.insert(
            2,
            1,
            match settings.get(2, 1) {
                SwitchState::Straight => FaultKind::StuckStraight,
                SwitchState::Cross => FaultKind::StuckCross,
            },
        )
        .unwrap();
        assert!(f.agrees_with(&settings));
        assert_eq!(f.apply_to(&settings), settings);
    }

    #[test]
    fn self_route_with_empty_faults_matches_healthy() {
        let net = Benes::new(3);
        let f = FaultSet::new(3);
        let d = Bpc::bit_reversal(3).to_permutation();
        let faulty = RouteTrace::capture(&net, &d, Control::SelfRoute, Some(&f)).unwrap();
        let healthy = net.self_route(&d);
        assert_eq!(
            (faulty.outputs(), faulty.settings()),
            (healthy.outputs(), healthy.settings())
        );
        let fig5 = p(&[1, 3, 2, 0]);
        let net2 = Benes::new(2);
        let f2 = FaultSet::new(2);
        let faulty =
            RouteTrace::capture(&net2, &fig5, Control::OmegaBit, Some(&f2)).unwrap();
        let healthy = net2.self_route_omega(&fig5);
        assert_eq!(
            (faulty.outputs(), faulty.settings()),
            (healthy.outputs(), healthy.settings())
        );
    }

    #[test]
    fn stuck_switch_breaks_self_route_when_it_matters() {
        let net = Benes::new(3);
        let d = Bpc::bit_reversal(3).to_permutation();
        let healthy = net.self_route(&d);
        // Stage 0 of Fig. 4 is [=, =, x, x]; stick switch 2 at straight.
        let mut f = FaultSet::new(3);
        f.insert(0, 2, FaultKind::StuckStraight).unwrap();
        let outcome = RouteTrace::capture(&net, &d, Control::SelfRoute, Some(&f)).unwrap();
        assert!(!outcome.is_success());
        assert_ne!(outcome.outputs(), healthy.outputs());
    }

    #[test]
    fn setup_avoiding_without_faults_matches_classical_behaviour() {
        let net = Benes::new(3);
        let f = FaultSet::new(3);
        for d in [
            p(&[2, 5, 3, 7, 1, 6, 4, 0]),
            Bpc::bit_reversal(3).to_permutation(),
            Permutation::identity(8),
        ] {
            let s = setup_avoiding(&d, &f).unwrap();
            assert_eq!(net.realized_permutation(&s).unwrap(), d);
        }
    }

    #[test]
    fn setup_avoiding_agrees_with_single_stuck_switch_exhaustively() {
        // Every permutation of S_4, every switch, both stuck states:
        // whenever the planner claims success the settings agree with the
        // fault and realize D through the faulty fabric.
        let net = Benes::new(2);
        let mut avoidable = 0usize;
        let mut unavoidable = 0usize;
        for d in all_perms(4) {
            for stage in 0..net.stage_count() {
                for switch in 0..net.switches_per_stage() {
                    for kind in [FaultKind::StuckStraight, FaultKind::StuckCross] {
                        let mut f = FaultSet::new(2);
                        f.insert(stage, switch, kind).unwrap();
                        match setup_avoiding(&d, &f) {
                            Ok(s) => {
                                assert!(f.agrees_with(&s), "D={d} fault {f}");
                                assert_eq!(
                                    realized_with_faults(&net, &s, &f).unwrap(),
                                    d,
                                    "D={d} fault {f}"
                                );
                                avoidable += 1;
                            }
                            Err(FaultSetupError::Unavoidable) => {
                                // Cross-check by brute force: no agreeing
                                // settings realize d.
                                assert!(
                                    !brute_force_avoidable(&net, &d, &f),
                                    "planner missed an agreeing set-up for D={d}, {f}"
                                );
                                unavoidable += 1;
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
        }
        assert!(avoidable > 0);
        // Middle-stage B(1) blocks are forced, so some single stuck
        // switches really are unavoidable for some permutations.
        assert!(unavoidable > 0);
    }

    /// Exhaustively checks whether ANY full switch assignment both
    /// agrees with the fault set and realizes `d` (B(2): 6 switches).
    fn brute_force_avoidable(net: &Benes, d: &Permutation, f: &FaultSet) -> bool {
        let stages = net.stage_count();
        let rows = net.switches_per_stage();
        let bits = stages * rows;
        for mask in 0u32..(1 << bits) {
            let mut s = SwitchSettings::all_straight(net.n());
            for b in 0..bits {
                if mask & (1 << b) != 0 {
                    s.set(b / rows, b % rows, SwitchState::Cross);
                }
            }
            if f.agrees_with(&s) && net.realized_permutation(&s).unwrap() == *d {
                return true;
            }
        }
        false
    }

    #[test]
    fn setup_avoiding_handles_double_faults_on_b3() {
        // A deterministic sweep of two-fault sets on B(3): success must
        // be verified end-to-end; failure must at least be consistent
        // (reporting Unavoidable, never panicking).
        let net = Benes::new(3);
        let d = p(&[2, 5, 3, 7, 1, 6, 4, 0]);
        let mut ok = 0usize;
        let mut unavoidable = 0usize;
        for seed in 0..64u64 {
            let f = FaultSet::random_stuck(3, 2, seed);
            match setup_avoiding(&d, &f) {
                Ok(s) => {
                    assert!(f.agrees_with(&s));
                    assert_eq!(realized_with_faults(&net, &s, &f).unwrap(), d);
                    ok += 1;
                }
                Err(FaultSetupError::Unavoidable) => unavoidable += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 0, "double faults should often be avoidable ({unavoidable} not)");
    }

    #[test]
    fn dead_switch_is_always_unavoidable() {
        let mut f = FaultSet::new(3);
        f.insert(2, 0, FaultKind::Dead).unwrap();
        assert!(f.has_dead());
        let d = Bpc::bit_reversal(3).to_permutation();
        assert_eq!(setup_avoiding(&d, &f), Err(FaultSetupError::Unavoidable));
    }

    #[test]
    fn setup_avoiding_validates_inputs() {
        let f = FaultSet::new(3);
        assert!(matches!(
            setup_avoiding(&Permutation::identity(6), &f),
            Err(FaultSetupError::Setup(SetupError::NotPowerOfTwo { len: 6 }))
        ));
        assert_eq!(
            setup_avoiding(&Permutation::identity(16), &f),
            Err(FaultSetupError::OrderMismatch { required: 4, faults: 3 })
        );
    }

    #[test]
    fn random_stuck_is_deterministic_and_in_range() {
        let a = FaultSet::random_stuck(4, 3, 7);
        let b = FaultSet::random_stuck(4, 3, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.has_dead());
        for (stage, switch, _) in a.iter() {
            assert!(stage < topology::stage_count(4));
            assert!(switch < topology::switches_per_stage(4));
        }
        assert_ne!(a, FaultSet::random_stuck(4, 3, 8));
    }

    #[test]
    fn display_formats() {
        let mut f = FaultSet::new(2);
        assert_eq!(f.to_string(), "B(2): healthy");
        f.insert(0, 1, FaultKind::StuckCross).unwrap();
        assert_eq!(f.to_string(), "B(2): (0,1)=stuck-at-cross");
    }
}
