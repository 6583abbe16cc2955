//! The circuit model of the Benes network: an immutable topology
//! ([`Benes`]) plus a separate switch-state assignment
//! ([`SwitchSettings`]).
//!
//! Keeping states separate from structure mirrors the hardware reality the
//! paper discusses: the wiring is fixed; what varies per permutation (and,
//! in pipelined mode, per clock) is the vector of switch states. It also
//! lets the external set-up path ([`crate::waksman`]) and the self-routing
//! path ([`crate::selfroute`]) share one routing engine.

use std::fmt;

use crate::faults::FaultSet;
use crate::topology;
use crate::trace::TraceMode;

/// The state of a binary switch (Fig. 2 of the paper).
///
/// * `Straight` (the paper's state **0**): upper input → upper output,
///   lower input → lower output.
/// * `Cross` (state **1**): upper input → lower output, lower input →
///   upper output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchState {
    /// State 0: pass-through.
    #[default]
    Straight,
    /// State 1: exchange.
    Cross,
}

impl SwitchState {
    /// The state selected by a destination-tag bit (Fig. 3): bit 0 ⇒
    /// straight, bit 1 ⇒ cross.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 1`.
    #[must_use]
    pub fn from_bit(bit: u64) -> Self {
        match bit {
            0 => Self::Straight,
            1 => Self::Cross,
            _ => panic!("switch control bit must be 0 or 1 (got {bit})"),
        }
    }

    /// The paper's numeric encoding: 0 for straight, 1 for cross.
    #[must_use]
    pub fn as_bit(self) -> u64 {
        match self {
            Self::Straight => 0,
            Self::Cross => 1,
        }
    }

    /// The opposite state.
    #[must_use]
    pub fn toggled(self) -> Self {
        match self {
            Self::Straight => Self::Cross,
            Self::Cross => Self::Straight,
        }
    }
}

impl fmt::Display for SwitchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Straight => write!(f, "="),
            Self::Cross => write!(f, "x"),
        }
    }
}

/// A complete switch-state assignment for a `B(n)` network, stored as
/// the `2n − 1` bit-packed control columns the word kernel applies.
///
/// Column `s` is `⌈N/64⌉` words in flattened coordinates (see
/// [`crate::word`] and [`topology::flat_port`]): bit `u` is set iff the
/// switch whose upper input sits at flattened position `u` crosses. Only
/// upper positions (bit [`topology::control_bit`]`(n, s)` clear) are ever
/// set, so each column is exactly the cross mask of one delta-swap.
/// [`SwitchSettings::get`] and [`SwitchSettings::set`] address physical
/// switches through the closed-form port map; [`SwitchSettings::to_bits`]
/// and the serde form keep the physical stage-major order.
///
/// # Examples
///
/// ```
/// use benes_core::{SwitchSettings, SwitchState};
///
/// let mut s = SwitchSettings::all_straight(2);
/// s.set(1, 0, SwitchState::Cross);
/// assert_eq!(s.get(1, 0), SwitchState::Cross);
/// assert_eq!(s.cross_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwitchSettings {
    n: u32,
    columns: Vec<u64>,
}

impl SwitchSettings {
    /// All switches in state 0 (straight) for a `B(n)` network.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (see [`topology::MAX_N`]).
    #[must_use]
    pub fn all_straight(n: u32) -> Self {
        let words = topology::terminal_count(n).div_ceil(64);
        Self { n, columns: vec![0; topology::stage_count(n) * words] }
    }

    /// The network order `n` these settings belong to.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Words per control column, `⌈N/64⌉`.
    fn words(&self) -> usize {
        (1usize << self.n).div_ceil(64)
    }

    /// The flattened upper position of physical switch `switch` at
    /// `stage`.
    fn upper(&self, stage: usize, switch: usize) -> usize {
        let stages = 2 * self.n as usize - 1;
        assert!(
            stage < stages && switch < 1 << (self.n - 1),
            "switch ({stage}, {switch}) does not exist in B({})",
            self.n
        );
        // analyze:allow(truncating-cast): stage < 2n − 1 ≤ 47
        let t = stage.min(stages - 1 - stage) as u32;
        topology::flatten(self.n, t, 2 * switch)
    }

    /// Sets the switch with upper input at flattened position `pos` of
    /// `stage`.
    pub(crate) fn put_at(&mut self, stage: usize, pos: usize, cross: bool) {
        crate::waksman::put(self.column_mut(stage), pos, cross);
    }

    /// The state of switch `switch` in stage `stage`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, stage: usize, switch: usize) -> SwitchState {
        let pos = self.upper(stage, switch);
        SwitchState::from_bit(u64::from(crate::waksman::bit(self.column(stage), pos)))
    }

    /// Sets the state of switch `switch` in stage `stage`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, stage: usize, switch: usize, state: SwitchState) {
        let pos = self.upper(stage, switch);
        self.put_at(stage, pos, state == SwitchState::Cross);
    }

    /// The states of one stage, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn stage(&self, stage: usize) -> Vec<SwitchState> {
        (0..topology::switches_per_stage(self.n)).map(|i| self.get(stage, i)).collect()
    }

    /// The control column of `stage`: `⌈N/64⌉` words, bit `u` set iff the
    /// switch with upper input at flattened position `u` crosses.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn column(&self, stage: usize) -> &[u64] {
        let words = self.words();
        &self.columns[stage * words..(stage + 1) * words]
    }

    /// Mutable access to the control column of `stage`.
    pub(crate) fn column_mut(&mut self, stage: usize) -> &mut [u64] {
        let words = self.words();
        &mut self.columns[stage * words..(stage + 1) * words]
    }

    /// The control columns of stages `k` and `2n − 2 − k`, for `k < n − 1`.
    pub(crate) fn outer_columns_mut(&mut self, k: usize) -> (&mut [u64], &mut [u64]) {
        let words = self.words();
        let (head, tail) = self.columns.split_at_mut((2 * self.n as usize - 2 - k) * words);
        (&mut head[k * words..(k + 1) * words], &mut tail[..words])
    }

    /// The number of stages (`2n − 1`).
    #[must_use]
    pub fn stage_count(&self) -> usize {
        topology::stage_count(self.n)
    }

    /// The number of switches currently in the cross state.
    #[must_use]
    pub fn cross_count(&self) -> usize {
        self.columns.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The state bits of every switch, physical stage-major — the
    /// `N·log N − N/2` bits an SIMD set-up computation would return (§I
    /// of the paper).
    #[must_use]
    pub fn to_bits(&self) -> Vec<u64> {
        (0..self.stage_count())
            .flat_map(|s| self.stage(s))
            .map(SwitchState::as_bit)
            .collect()
    }
}

/// Error produced when routing through a [`Benes`] network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The input vector length did not match the terminal count.
    InputLength {
        /// Expected `N = 2^n`.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// The settings were built for a different network order.
    SettingsOrder {
        /// The network's `n`.
        network_n: u32,
        /// The settings' `n`.
        settings_n: u32,
    },
    /// The permutation length did not match the terminal count.
    PermutationLength {
        /// Expected `N = 2^n`.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InputLength { expected, actual } => {
                write!(f, "input vector has length {actual}, network expects {expected}")
            }
            Self::SettingsOrder { network_n, settings_n } => {
                write!(f, "settings are for B({settings_n}), network is B({network_n})")
            }
            Self::PermutationLength { expected, actual } => {
                write!(f, "permutation has length {actual}, network expects {expected}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// How the switches of `B(n)` get their state: the paper's three control
/// modes. Every routing kernel takes one, with an optional
/// [`FaultSet`] overlaid on whatever it commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control<'a> {
    /// The Fig. 3 tag rule: a switch in stage `b` or `2n−2−b` takes bit
    /// `b` of its upper input's destination tag (§II).
    SelfRoute,
    /// The tag rule with the omega bit asserted: stages `0..n−1` forced
    /// straight, the trailing omega half self-routes (§II, after
    /// Theorem 3).
    OmegaBit,
    /// An external set-up (Waksman, the paper's reference \[10\]).
    Settings(&'a SwitchSettings),
}

impl Control<'_> {
    /// The data-free discriminant, as traces report it.
    #[must_use]
    pub fn mode(self) -> TraceMode {
        match self {
            Self::SelfRoute => TraceMode::SelfRouting,
            Self::OmegaBit => TraceMode::OmegaBit,
            Self::Settings(_) => TraceMode::External,
        }
    }

    /// The state switch `(stage, switch)` of `net` applies when its upper
    /// input carries tag `upper`: the commanded state, with the fault
    /// overlay of `faults` when present. The one scalar statement of the
    /// switch rule.
    pub(crate) fn state(
        self,
        net: &Benes,
        faults: Option<&FaultSet>,
        (stage, switch): (usize, usize),
        upper: u32,
    ) -> SwitchState {
        let commanded = match self {
            Self::Settings(settings) => settings.get(stage, switch),
            Self::OmegaBit if stage + 1 < net.n() as usize => SwitchState::Straight,
            _ => SwitchState::from_bit(benes_bits::bit(
                u64::from(upper),
                net.control_bit(stage),
            )),
        };
        match faults {
            Some(f) => f.effective_state(stage, switch, commanded),
            None => commanded,
        }
    }
}

/// An `N = 2^n` input/output Benes network: the immutable wiring of
/// Fig. 1, flattened to `2n − 1` stages.
///
/// Routing entry points:
///
/// * [`Benes::route_with`] — externally supplied [`SwitchSettings`]
///   (e.g. from [`crate::waksman::setup`]); realizes **all** `N!`
///   permutations;
/// * [`Benes::self_route`] (in [`crate::selfroute`]) — the paper's
///   destination-tag self-routing; realizes exactly the class `F(n)`;
/// * [`Benes::self_route_omega`] — the "omega bit" variant for `Ω(n)`.
///
/// # Examples
///
/// ```
/// use benes_core::Benes;
///
/// let net = Benes::new(4);
/// assert_eq!(net.terminal_count(), 16);
/// assert_eq!(net.stage_count(), 7);
/// assert_eq!(net.switch_count(), 16 * 4 - 8);
/// ```
#[derive(Debug, Clone)]
pub struct Benes {
    n: u32,
    links: Vec<Vec<u32>>,
}

impl Benes {
    /// Builds `B(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > ` [`topology::MAX_N`].
    #[must_use]
    pub fn new(n: u32) -> Self {
        topology::validate_n(n);
        Self { n, links: topology::build_links(n) }
    }

    /// The network order `n`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The number of input (and output) terminals, `N = 2^n`.
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        topology::terminal_count(self.n)
    }

    /// The number of switch stages, `2n − 1`.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        topology::stage_count(self.n)
    }

    /// The number of switches per stage, `N/2`.
    #[must_use]
    pub fn switches_per_stage(&self) -> usize {
        topology::switches_per_stage(self.n)
    }

    /// The total number of binary switches, `N·log N − N/2`.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        topology::switch_count(self.n)
    }

    /// The destination-tag bit controlling `stage` under self-routing.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn control_bit(&self, stage: usize) -> u32 {
        topology::control_bit(self.n, stage)
    }

    /// The wiring permutation between `stage` and `stage + 1`: output port
    /// `p` of `stage` drives input port `link(stage)[p]` of the next
    /// stage.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= stage_count() − 1`.
    #[must_use]
    pub fn link(&self, stage: usize) -> &[u32] {
        &self.links[stage]
    }

    /// Routes `inputs` through the network with externally supplied switch
    /// settings; element `i` enters at terminal `i`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input length or settings order mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_core::{Benes, SwitchSettings, SwitchState};
    ///
    /// let net = Benes::new(1); // single switch
    /// let mut s = SwitchSettings::all_straight(1);
    /// assert_eq!(net.route_with(&s, &[10, 20])?, vec![10, 20]);
    /// s.set(0, 0, SwitchState::Cross);
    /// assert_eq!(net.route_with(&s, &[10, 20])?, vec![20, 10]);
    /// # Ok::<(), benes_core::network::NetworkError>(())
    /// ```
    pub fn route_with<T>(
        &self,
        settings: &SwitchSettings,
        inputs: &[T],
    ) -> Result<Vec<T>, NetworkError>
    where
        T: Clone,
    {
        if settings.n() != self.n {
            return Err(NetworkError::SettingsOrder {
                network_n: self.n,
                settings_n: settings.n(),
            });
        }
        if inputs.len() != self.terminal_count() {
            return Err(NetworkError::InputLength {
                expected: self.terminal_count(),
                actual: inputs.len(),
            });
        }
        let (out, _) = self.propagate(inputs.to_vec(), |s, i, _, _| settings.get(s, i));
        Ok(out)
    }

    /// The shared routing engine: pushes `inputs` through all stages,
    /// asking `decide` for each switch's state (it receives the stage,
    /// switch index and references to the two inputs). Returns the output
    /// terminal values and the settings that were applied.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != terminal_count()`; public entry points
    /// validate first.
    pub(crate) fn propagate<T>(
        &self,
        inputs: Vec<T>,
        mut decide: impl FnMut(usize, usize, &T, &T) -> SwitchState,
    ) -> (Vec<T>, SwitchSettings) {
        assert_eq!(inputs.len(), self.terminal_count(), "propagate: bad input length");
        let mut settings = SwitchSettings::all_straight(self.n);
        let mut cur: Vec<Option<T>> = inputs.into_iter().map(Some).collect();
        for s in 0..self.stage_count() {
            let t = self.control_bit(s);
            cur = self.step(s, cur, |i, a, b| {
                let state = decide(s, i, a, b);
                settings.put_at(
                    s,
                    topology::flatten(self.n, t, 2 * i),
                    state == SwitchState::Cross,
                );
                state
            });
        }
        let outputs = cur.into_iter().map(|o| o.expect("every port filled")).collect();
        (outputs, settings)
    }

    /// One stage of [`Benes::propagate`]: sets every switch of stage `s`
    /// by `decide` (switch index, upper and lower input), exchanges the
    /// crossed pairs and applies the outgoing link (none after the last
    /// stage). The pipelined mode clocks the network through it one stage
    /// at a time.
    pub(crate) fn step<T>(
        &self,
        s: usize,
        mut cur: Vec<Option<T>>,
        mut decide: impl FnMut(usize, &T, &T) -> SwitchState,
    ) -> Vec<Option<T>> {
        let mut out: Vec<Option<T>> = (0..cur.len()).map(|_| None).collect();
        for i in 0..cur.len() / 2 {
            let state = {
                let a = cur[2 * i].as_ref().expect("port filled");
                let b = cur[2 * i + 1].as_ref().expect("port filled");
                decide(i, a, b)
            };
            let a = cur[2 * i].take().expect("port filled");
            let b = cur[2 * i + 1].take().expect("port filled");
            match state {
                SwitchState::Straight => {
                    out[2 * i] = Some(a);
                    out[2 * i + 1] = Some(b);
                }
                SwitchState::Cross => {
                    out[2 * i] = Some(b);
                    out[2 * i + 1] = Some(a);
                }
            }
        }
        if s + 1 == self.stage_count() {
            return out;
        }
        let link = &self.links[s];
        let mut next: Vec<Option<T>> = (0..out.len()).map(|_| None).collect();
        for (p, item) in out.into_iter().enumerate() {
            next[link[p] as usize] = item;
        }
        next
    }

    /// The gate-delay cost of one traversal: one switch delay per stage,
    /// `2·log N − 1` in total. With self-routing this **is** the full
    /// set-up-plus-transit time (the paper's headline `O(log N)` claim).
    #[must_use]
    pub fn transit_delay(&self) -> usize {
        self.stage_count()
    }

    /// Replays a switch-state assignment and reports the permutation the
    /// network realizes under it: input `i` emerges at output
    /// `realized[i]`.
    ///
    /// A [`SwitchSettings`] computed once (by [`crate::waksman::setup`], a
    /// self-routing pass, or deserialization) can be re-applied with
    /// **zero** set-up work; this scalar walk states exactly which
    /// permutation that replay performs. Serving layers check a replay on
    /// the word kernel instead ([`crate::word::route`] with
    /// [`Control::Settings`]); this walk is its oracle.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::SettingsOrder`] if the settings were built
    /// for a different network order.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_core::{waksman, Benes};
    /// use benes_perm::Permutation;
    ///
    /// let net = Benes::new(2);
    /// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
    /// let settings = waksman::setup(&d).unwrap();
    /// // Replaying the cached settings realizes exactly `d` again.
    /// assert_eq!(net.realized_permutation(&settings)?, d);
    /// # Ok::<(), benes_core::network::NetworkError>(())
    /// ```
    pub fn realized_permutation(
        &self,
        settings: &SwitchSettings,
    ) -> Result<benes_perm::Permutation, NetworkError> {
        // analyze:allow(truncating-cast): terminal_count = 2^n ≤ 2^MAX_N
        let ids: Vec<u32> = (0..self.terminal_count() as u32).collect();
        let arrived = self.route_with(settings, &ids)?;
        // arrived[o] = input record at output o; the realized permutation
        // sends input i to the output where i surfaced.
        let mut dest = vec![0u32; arrived.len()];
        for (o, &i) in arrived.iter().enumerate() {
            dest[i as usize] = o as u32; // analyze:allow(truncating-cast): o < 2^MAX_N terminals
        }
        Ok(benes_perm::Permutation::from_destinations(dest)
            .expect("any switch assignment permutes the inputs"))
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for SwitchState {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_bit().serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for SwitchState {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match u64::deserialize(deserializer)? {
            0 => Ok(Self::Straight),
            1 => Ok(Self::Cross),
            other => Err(serde::de::Error::custom(format!(
                "switch state must be 0 or 1 (got {other})"
            ))),
        }
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for SwitchSettings {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.n, self.to_bits()).serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for SwitchSettings {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let (n, states) = <(u32, Vec<SwitchState>)>::deserialize(deserializer)?;
        if n == 0 || n > crate::topology::MAX_N {
            return Err(D::Error::custom(format!("network order {n} out of range")));
        }
        let expected = crate::topology::switch_count(n);
        if states.len() != expected {
            return Err(D::Error::custom(format!(
                "expected {expected} switch bits for B({n}), got {}",
                states.len()
            )));
        }
        let mut settings = SwitchSettings::all_straight(n);
        let per = crate::topology::switches_per_stage(n);
        for (idx, state) in states.into_iter().enumerate() {
            settings.set(idx / per, idx % per, state);
        }
        Ok(settings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_state_encoding() {
        assert_eq!(SwitchState::from_bit(0), SwitchState::Straight);
        assert_eq!(SwitchState::from_bit(1), SwitchState::Cross);
        assert_eq!(SwitchState::Straight.as_bit(), 0);
        assert_eq!(SwitchState::Cross.as_bit(), 1);
        assert_eq!(SwitchState::Straight.toggled(), SwitchState::Cross);
        assert_eq!(SwitchState::default(), SwitchState::Straight);
    }

    #[test]
    #[should_panic(expected = "control bit")]
    fn switch_state_rejects_bad_bit() {
        let _ = SwitchState::from_bit(2);
    }

    #[test]
    fn settings_dimensions() {
        let s = SwitchSettings::all_straight(3);
        assert_eq!(s.stage_count(), 5);
        assert_eq!(s.stage(0).len(), 4);
        assert_eq!(s.cross_count(), 0);
        assert_eq!(s.to_bits().len(), 20);
    }

    /// Every physical switch owns its own control bit: crossing switches
    /// one at a time raises the cross count one at a time, each reads
    /// back, and `to_bits` reports it at its stage-major index.
    #[test]
    fn get_set_round_trip_over_every_switch() {
        for n in 1..=8u32 {
            let per = topology::switches_per_stage(n);
            let mut s = SwitchSettings::all_straight(n);
            for stage in 0..s.stage_count() {
                for i in 0..per {
                    assert_eq!(
                        s.get(stage, i),
                        SwitchState::Straight,
                        "B({n}) ({stage},{i})"
                    );
                    s.set(stage, i, SwitchState::Cross);
                    assert_eq!(s.get(stage, i), SwitchState::Cross, "B({n}) ({stage},{i})");
                    assert_eq!(
                        s.cross_count(),
                        stage * per + i + 1,
                        "B({n}) ({stage},{i})"
                    );
                    if n <= 5 {
                        let bits = s.to_bits();
                        assert!(bits[..=stage * per + i].iter().all(|&b| b == 1));
                        assert!(bits[stage * per + i + 1..].iter().all(|&b| b == 0));
                    }
                }
            }
            for stage in 0..s.stage_count() {
                for i in 0..per {
                    s.set(stage, i, SwitchState::Straight);
                }
            }
            assert_eq!(s, SwitchSettings::all_straight(n), "B({n})");
        }
    }

    #[test]
    fn all_straight_routes_identity() {
        for n in 1..6u32 {
            let net = Benes::new(n);
            let s = SwitchSettings::all_straight(n);
            let data: Vec<u32> = (0..net.terminal_count() as u32).collect();
            assert_eq!(net.route_with(&s, &data).unwrap(), data, "n = {n}");
        }
    }

    #[test]
    fn all_cross_routes_pair_swap_through_b1() {
        let net = Benes::new(1);
        let mut s = SwitchSettings::all_straight(1);
        s.set(0, 0, SwitchState::Cross);
        assert_eq!(net.route_with(&s, &['a', 'b']).unwrap(), vec!['b', 'a']);
    }

    #[test]
    fn single_cross_in_first_stage_of_b2() {
        // Crossing stage-0 switch 0 of B(2) swaps where inputs 0 and 1
        // travel; with all other switches straight the final outputs swap
        // exactly terminals 0 and... trace it: stage0 cross sends input 0
        // down the lower subnetwork and input 1 up.
        let net = Benes::new(2);
        let mut s = SwitchSettings::all_straight(2);
        s.set(0, 0, SwitchState::Cross);
        let out = net.route_with(&s, &[0u32, 1, 2, 3]).unwrap();
        // Input 0 → lower subnetwork input 0 → output port 1 of last
        // stage's switch 0... full trace gives [1, 0, 2, 3].
        assert_eq!(out, vec![1, 0, 2, 3]);
    }

    #[test]
    fn route_with_validates_lengths() {
        let net = Benes::new(2);
        let s = SwitchSettings::all_straight(2);
        assert_eq!(
            net.route_with(&s, &[1, 2, 3]),
            Err(NetworkError::InputLength { expected: 4, actual: 3 })
        );
        let wrong = SwitchSettings::all_straight(3);
        assert_eq!(
            net.route_with(&wrong, &[0, 1, 2, 3]),
            Err(NetworkError::SettingsOrder { network_n: 2, settings_n: 3 })
        );
    }

    #[test]
    fn routing_is_a_bijection_for_random_settings() {
        // Any switch assignment must permute the inputs (no loss, no dup).
        let net = Benes::new(4);
        let mut s = SwitchSettings::all_straight(4);
        // A deterministic "random" pattern.
        for stage in 0..s.stage_count() {
            for sw in 0..net.switches_per_stage() {
                if (stage * 7 + sw * 3) % 5 < 2 {
                    s.set(stage, sw, SwitchState::Cross);
                }
            }
        }
        let data: Vec<u32> = (0..16).collect();
        let mut out = net.route_with(&s, &data).unwrap();
        out.sort_unstable();
        assert_eq!(out, data);
    }

    #[test]
    fn realized_permutation_inverts_route_with() {
        // For a deterministic settings pattern, the realized permutation
        // must agree with what route_with actually does to the data.
        let net = Benes::new(3);
        let mut s = SwitchSettings::all_straight(3);
        for stage in 0..s.stage_count() {
            for sw in 0..net.switches_per_stage() {
                if (stage + 2 * sw) % 3 == 0 {
                    s.set(stage, sw, SwitchState::Cross);
                }
            }
        }
        let realized = net.realized_permutation(&s).unwrap();
        let data: Vec<u32> = (100..108).collect();
        let routed = net.route_with(&s, &data).unwrap();
        for (i, &d) in realized.destinations().iter().enumerate() {
            assert_eq!(routed[d as usize], data[i]);
        }
    }

    #[test]
    fn realized_permutation_checks_order() {
        let net = Benes::new(2);
        let s = SwitchSettings::all_straight(3);
        assert!(matches!(
            net.realized_permutation(&s),
            Err(NetworkError::SettingsOrder { network_n: 2, settings_n: 3 })
        ));
    }

    #[test]
    fn transit_delay_matches_stage_count() {
        for n in 1..8 {
            let net = Benes::new(n);
            assert_eq!(net.transit_delay(), 2 * n as usize - 1);
        }
    }
}
