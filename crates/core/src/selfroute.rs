//! The paper's self-routing scheme (§I, Fig. 3), including the "omega bit"
//! variant of §II and payload-carrying routing.
//!
//! Every input carries a `log N`-bit **destination tag**. A switch in stage
//! `b` or stage `2n−2−b` examines **bit `b` of the tag on its upper input**
//! and sets itself to that state: bit 0 ⇒ straight, bit 1 ⇒ cross. No
//! global set-up computation happens; the total delay is one switch delay
//! per stage, `2·log N − 1`.
//!
//! Not every permutation routes correctly this way — the class that does
//! is `F(n)` (see [`crate::class_f`]). [`SelfRouteOutcome`] reports both
//! the realized mapping and whether it matched the requested permutation.
//!
//! The **omega bit** extension (§II, after Theorem 3): when asserted, every
//! switch in stages `0..n−1` forces itself straight, and only the last `n`
//! stages (which form an omega network) self-route. This realizes every
//! `Ω(n)` permutation, including those outside `F(n)` such as the paper's
//! Fig. 5 example.
//!
//! Two forms of each kernel exist. The switch-at-a-time walk in this module
//! ([`Benes::self_route`], [`Benes::self_route_omega`]) materializes the
//! full [`SelfRouteOutcome`] (arrival tags **and** settings) and serves as
//! the reference oracle. The word-parallel form ([`Benes::self_route_fast`],
//! [`Benes::self_route_omega_fast`], backed by [`crate::word`]) computes
//! whole switch columns as `u64` masks and is what the engine's hot path
//! uses; exhaustive and property-based tests pin the two to bit-identical
//! agreement.

use benes_perm::Permutation;

use crate::network::{Benes, Control, NetworkError, SwitchSettings};

/// The result of a self-routing attempt.
///
/// # Examples
///
/// ```
/// use benes_core::Benes;
/// use benes_perm::Permutation;
///
/// let net = Benes::new(2);
/// // Fig. 5 of the paper: D = (1, 3, 2, 0) does NOT self-route.
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// let outcome = net.self_route(&d);
/// assert!(!outcome.is_success());
/// assert_eq!(outcome.misrouted(), vec![(0, 2), (2, 0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfRouteOutcome {
    outputs: Vec<u32>,
    settings: SwitchSettings,
}

impl SelfRouteOutcome {
    pub(crate) fn new(outputs: Vec<u32>, settings: SwitchSettings) -> Self {
        Self { outputs, settings }
    }

    /// The destination tag that arrived at each output terminal.
    ///
    /// Routing succeeded iff `outputs()[o] == o` for every terminal `o`.
    #[must_use]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// The switch states the network chose for itself.
    #[must_use]
    pub fn settings(&self) -> &SwitchSettings {
        &self.settings
    }

    /// Whether every tag reached the output terminal it names.
    #[must_use]
    pub fn is_success(&self) -> bool {
        // analyze:allow(truncating-cast): o indexes ≤ 2^MAX_N terminals
        self.outputs.iter().enumerate().all(|(o, &t)| o as u32 == t)
    }

    /// The misrouted terminals as `(output, arrived_tag)` pairs (empty on
    /// success).
    #[must_use]
    pub fn misrouted(&self) -> Vec<(usize, u32)> {
        self.outputs
            .iter()
            .enumerate()
            // analyze:allow(truncating-cast): o indexes ≤ 2^MAX_N terminals
            .filter(|&(o, &t)| o as u32 != t)
            .map(|(o, &t)| (o, t))
            .collect()
    }
}

impl Benes {
    /// Self-routes the permutation `perm`: input `i` carries tag
    /// `perm[i]`, every switch sets itself by the Fig. 3 rule, and the
    /// arrival tags are reported.
    ///
    /// Succeeds (tags arrive at their named outputs) iff `perm ∈ F(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != terminal_count()`; use
    /// [`Benes::try_self_route`] for a fallible version.
    #[must_use]
    pub fn self_route(&self, perm: &Permutation) -> SelfRouteOutcome {
        self.try_self_route(perm).expect("permutation length must match network")
    }

    /// Fallible [`Benes::self_route`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::PermutationLength`] on a length mismatch.
    pub fn try_self_route(
        &self,
        perm: &Permutation,
    ) -> Result<SelfRouteOutcome, NetworkError> {
        self.try_route_tags(perm, Control::SelfRoute)
    }

    /// Self-routes with the **omega bit** asserted: stages `0..n−1` are
    /// forced straight; the last `n` stages self-route as usual.
    ///
    /// Succeeds iff `perm ∈ Ω(n)` (Lawrie's omega class) — including
    /// permutations outside `F(n)` such as the paper's Fig. 5 example.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != terminal_count()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_core::Benes;
    /// use benes_perm::Permutation;
    ///
    /// let net = Benes::new(2);
    /// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
    /// assert!(!net.self_route(&d).is_success());     // not in F(2)
    /// assert!(net.self_route_omega(&d).is_success()); // but in Ω(2)
    /// ```
    #[must_use]
    pub fn self_route_omega(&self, perm: &Permutation) -> SelfRouteOutcome {
        self.try_self_route_omega(perm).expect("permutation length must match network")
    }

    /// Fallible [`Benes::self_route_omega`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::PermutationLength`] on a length mismatch.
    pub fn try_self_route_omega(
        &self,
        perm: &Permutation,
    ) -> Result<SelfRouteOutcome, NetworkError> {
        self.try_route_tags(perm, Control::OmegaBit)
    }

    /// The scalar walk behind both tag-controlled kernels.
    fn try_route_tags(
        &self,
        perm: &Permutation,
        control: Control<'_>,
    ) -> Result<SelfRouteOutcome, NetworkError> {
        if perm.len() != self.terminal_count() {
            return Err(NetworkError::PermutationLength {
                expected: self.terminal_count(),
                actual: perm.len(),
            });
        }
        let (outputs, settings) = self
            .propagate(perm.destinations().to_vec(), |s, i, upper, _| {
                control.state(self, None, (s, i), *upper)
            });
        Ok(SelfRouteOutcome::new(outputs, settings))
    }

    /// Word-parallel [`Benes::self_route`]: the same Fig. 3 rule evaluated
    /// one switch *column* at a time as `u64` masks (see [`crate::word`]).
    ///
    /// Roughly an order of magnitude faster than the scalar walk; returns
    /// the compact [`crate::word::WordOutcome`] instead of a
    /// [`SelfRouteOutcome`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::PermutationLength`] on a length mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_core::Benes;
    /// use benes_perm::bpc::Bpc;
    ///
    /// let net = Benes::new(3);
    /// let d = Bpc::bit_reversal(3).to_permutation();
    /// assert!(net.self_route_fast(&d).unwrap().is_success());
    /// ```
    pub fn self_route_fast(
        &self,
        perm: &Permutation,
    ) -> Result<crate::word::WordOutcome, NetworkError> {
        crate::word::route(self.n(), perm, Control::SelfRoute, None)
    }

    /// Word-parallel [`Benes::self_route_omega`] (see [`crate::word`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::PermutationLength`] on a length mismatch.
    pub fn self_route_omega_fast(
        &self,
        perm: &Permutation,
    ) -> Result<crate::word::WordOutcome, NetworkError> {
        crate::word::route(self.n(), perm, Control::OmegaBit, None)
    }

    /// Self-routes arbitrary records: each `(tag, payload)` pair enters at
    /// its position's terminal and is switched by the tag alone, exactly
    /// as hardware would move `(destination, data)` words.
    ///
    /// Returns the records in output-terminal order together with the
    /// settings chosen. If the tag vector is a permutation in `F(n)` the
    /// payloads arrive permuted accordingly; otherwise some records
    /// surface at the wrong terminals (their tags say so).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputLength`] if the record count is not
    /// `N`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_core::Benes;
    ///
    /// let net = Benes::new(1);
    /// let out = net.self_route_records(vec![(1u32, "a"), (0u32, "b")])?;
    /// assert_eq!(out.0, vec![(0, "b"), (1, "a")]);
    /// # Ok::<(), benes_core::network::NetworkError>(())
    /// ```
    pub fn self_route_records<T>(
        &self,
        records: Vec<(u32, T)>,
    ) -> Result<(Vec<(u32, T)>, SwitchSettings), NetworkError> {
        if records.len() != self.terminal_count() {
            return Err(NetworkError::InputLength {
                expected: self.terminal_count(),
                actual: records.len(),
            });
        }
        Ok(self.propagate(records, |s, i, upper, _| {
            Control::SelfRoute.state(self, None, (s, i), upper.0)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchState;
    use benes_perm::bpc::Bpc;
    use benes_perm::omega::{cyclic_shift, p_ordering, segment_cyclic_shift};

    #[test]
    fn identity_self_routes_with_all_straight() {
        for n in 1..7u32 {
            let net = Benes::new(n);
            let outcome = net.self_route(&Permutation::identity(net.terminal_count()));
            assert!(outcome.is_success());
            assert_eq!(outcome.settings().cross_count(), 0);
        }
    }

    #[test]
    fn fig4_bit_reversal_on_b3() {
        // The paper's Fig. 4: bit reversal self-routes on B(3).
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        assert_eq!(perm.destinations(), &[0, 4, 2, 6, 1, 5, 3, 7]);
        let outcome = net.self_route(&perm);
        assert!(outcome.is_success());
        // Stage 0 states are bit 0 of the upper input tags D_0, D_2, D_4,
        // D_6 = 0, 2, 1, 3 → straight, straight, cross, cross.
        use SwitchState::{Cross, Straight};
        assert_eq!(outcome.settings().stage(0), &[Straight, Straight, Cross, Cross]);
        // Last stage states are bit 0 of the upper input tag of each final
        // switch; success means outputs are sorted 0..8.
        assert_eq!(outcome.outputs(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn fig5_failure_on_b2() {
        // The paper's Fig. 5: D = (1, 3, 2, 0) cannot self-route on B(2).
        let net = Benes::new(2);
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let outcome = net.self_route(&d);
        assert!(!outcome.is_success());
        // Trace by hand: stage 0 takes bit 0 of D_0 = 1 (cross) and of
        // D_2 = 2 (straight). Tags after stage 0: [3, 1, 2, 0]. Link
        // [0,2,1,3] → middle inputs [3, 2, 1, 0]. Middle (bit 1): switch 0
        // sees 3 (bit 1 = 1, cross) → [2, 3]; switch 1 sees 1 (bit 1 = 0,
        // straight) → [1, 0]. Link → [2, 1, 3, 0]. Last stage (bit 0):
        // switch 0 sees 2 (straight) → [2, 1]; switch 1 sees 3 (cross) →
        // [0, 3]. Outputs: [2, 1, 0, 3].
        assert_eq!(outcome.outputs(), &[2, 1, 0, 3]);
        assert_eq!(outcome.misrouted(), vec![(0, 2), (2, 0)]);
    }

    #[test]
    fn all_table1_bpc_permutations_self_route() {
        for n in [2u32, 4, 6] {
            let net = Benes::new(n);
            for (name, b) in [
                ("transpose", Bpc::matrix_transpose(n)),
                ("bit reversal", Bpc::bit_reversal(n)),
                ("vector reversal", Bpc::vector_reversal(n)),
                ("perfect shuffle", Bpc::perfect_shuffle(n)),
                ("unshuffle", Bpc::unshuffle(n)),
                ("shuffled row major", Bpc::shuffled_row_major(n)),
                ("bit shuffle", Bpc::bit_shuffle(n)),
            ] {
                let outcome = net.self_route(&b.to_permutation());
                assert!(outcome.is_success(), "{name} failed on B({n})");
            }
        }
    }

    #[test]
    fn inverse_omega_permutations_self_route() {
        for n in 2..7u32 {
            let net = Benes::new(n);
            for d in [
                cyclic_shift(n, 3),
                cyclic_shift(n, -1),
                p_ordering(n, 3),
                segment_cyclic_shift(n, 1.max(n - 1), 2),
            ] {
                assert!(net.self_route(&d).is_success(), "n = {n}");
            }
        }
    }

    #[test]
    fn omega_bit_realizes_omega_permutations() {
        // Ω(2) = 16 permutations; all must route with the omega bit, and
        // exactly the Ω ones succeed.
        let net = Benes::new(2);
        let mut succeeded = 0;
        for d in all_perms(4) {
            let ok = net.self_route_omega(&d).is_success();
            assert_eq!(ok, benes_perm::omega::is_omega(&d), "D = {d}");
            if ok {
                succeeded += 1;
            }
        }
        assert_eq!(succeeded, 16);
    }

    #[test]
    fn omega_bit_forces_first_stages_straight() {
        let net = Benes::new(3);
        let d = cyclic_shift(3, 5);
        let outcome = net.self_route_omega(&d);
        for s in 0..2 {
            assert!(outcome
                .settings()
                .stage(s)
                .iter()
                .all(|&st| st == SwitchState::Straight));
        }
    }

    #[test]
    fn records_carry_payloads() {
        let net = Benes::new(3);
        let perm = Bpc::vector_reversal(3).to_permutation();
        let records: Vec<(u32, String)> = perm
            .destinations()
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, format!("payload-{i}")))
            .collect();
        let (out, _) = net.self_route_records(records).unwrap();
        for (o, (tag, payload)) in out.iter().enumerate() {
            assert_eq!(*tag, o as u32);
            // Vector reversal: output o receives input N−1−o.
            assert_eq!(payload, &format!("payload-{}", 7 - o));
        }
    }

    #[test]
    fn length_mismatch_is_reported() {
        let net = Benes::new(2);
        let d = Permutation::identity(8);
        assert_eq!(
            net.try_self_route(&d),
            Err(NetworkError::PermutationLength { expected: 4, actual: 8 })
        );
        assert!(net.self_route_records(vec![(0u32, ())]).is_err());
    }

    #[test]
    fn settings_follow_the_upper_input_rule() {
        // Re-derive every switch state from the trace invariant: the state
        // equals the control bit of the upper input's tag. We verify by
        // re-routing with the captured settings and getting identical
        // outputs.
        let net = Benes::new(4);
        let perm = Bpc::bit_reversal(4).to_permutation();
        let outcome = net.self_route(&perm);
        let replay = net.route_with(outcome.settings(), perm.destinations()).unwrap();
        assert_eq!(replay, outcome.outputs());
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
