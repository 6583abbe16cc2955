//! Fault location: which switch is broken?
//!
//! A deployed self-routing network can fail in the field — a switch stuck
//! at straight or cross no longer obeys the Fig. 3 rule. Because routing
//! is deterministic, the symptom (which outputs receive which tags) is a
//! strong fingerprint: this module enumerates every single-stuck-switch
//! hypothesis, replays the route under it, and returns the hypotheses
//! consistent with the observation.
//!
//! This is an engineering extension (the paper does not treat faults),
//! but it exercises the model in a way only an honest circuit-level
//! simulator supports. Two phenomena make the problem interesting:
//!
//! * **benign faults** — a switch stuck at the state it would take anyway
//!   is invisible for that permutation;
//! * **masked faults** — a wrong switch in the *first half* of the
//!   network swaps two records, but the last `n` stages route by tag and
//!   may re-sort the pair onto their correct outputs, hiding the fault
//!   entirely (late-stage faults can never hide — those stages commit
//!   positions). This is a genuine consequence of self-routing the paper
//!   never had occasion to mention.
//!
//! Consequently a single observation yields an *equivalence class* of
//! suspects; [`diagnose_with_probes`] intersects the classes over several
//! probe permutations to narrow the list.

use benes_perm::Permutation;

use crate::faults::{FaultKind, FaultSet};
use crate::network::{Benes, Control, SwitchState};
use crate::word;

/// A single-stuck-switch hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckSwitch {
    /// The stage of the suspect switch.
    pub stage: usize,
    /// The row of the suspect switch.
    pub switch: usize,
    /// The state the switch is stuck at.
    pub stuck_at: SwitchState,
}

/// Simulates a self-route of `perm` with one switch stuck at a fixed
/// state (every other switch self-sets normally): the one-fault case of
/// [`word::route`].
///
/// # Panics
///
/// Panics if `perm.len() != net.terminal_count()` or the fault location
/// is out of range.
#[must_use]
pub fn self_route_with_fault(
    net: &Benes,
    perm: &Permutation,
    fault: StuckSwitch,
) -> Vec<u32> {
    let kind = match fault.stuck_at {
        SwitchState::Straight => FaultKind::StuckStraight,
        SwitchState::Cross => FaultKind::StuckCross,
    };
    let mut faults = FaultSet::new(net.n());
    faults.insert(fault.stage, fault.switch, kind).expect("fault location out of range");
    word::route(net.n(), perm, Control::SelfRoute, Some(&faults))
        .expect("permutation length must match network")
        .outputs()
}

/// Returns every single-stuck-switch hypothesis consistent with an
/// observed output-tag vector for a self-routed `perm`.
///
/// An empty result means no single stuck switch explains the observation
/// (healthy network, multiple faults, or a non-fault cause). When the
/// observation matches the healthy route, the hypotheses returned are
/// exactly the *benign* ones (faults that coincide with the intended
/// states).
///
/// # Panics
///
/// Panics if `perm.len()` or `observed.len()` differ from the terminal
/// count.
#[must_use]
pub fn locate_stuck_switch(
    net: &Benes,
    perm: &Permutation,
    observed: &[u32],
) -> Vec<StuckSwitch> {
    assert_eq!(perm.len(), net.terminal_count(), "permutation length must be N");
    assert_eq!(observed.len(), net.terminal_count(), "observation length must be N");
    let mut consistent = Vec::new();
    for stage in 0..net.stage_count() {
        for switch in 0..net.switches_per_stage() {
            for stuck_at in [SwitchState::Straight, SwitchState::Cross] {
                let fault = StuckSwitch { stage, switch, stuck_at };
                if self_route_with_fault(net, perm, fault) == observed {
                    consistent.push(fault);
                }
            }
        }
    }
    consistent
}

/// Runs a *diagnostic campaign*: routes every permutation in `probes`
/// through the faulty network and intersects the per-probe hypothesis
/// sets, narrowing the suspect list. Returns the surviving hypotheses.
///
/// A good probe set distinguishes faults quickly; even two or three
/// structured permutations usually pin the fault to the benign-equivalent
/// class.
///
/// # Panics
///
/// Panics if any probe's length differs from the terminal count.
#[must_use]
pub fn diagnose_with_probes(
    net: &Benes,
    probes: &[Permutation],
    actual_fault: StuckSwitch,
) -> Vec<StuckSwitch> {
    let mut survivors: Option<Vec<StuckSwitch>> = None;
    for probe in probes {
        let observed = self_route_with_fault(net, probe, actual_fault);
        let hypotheses = locate_stuck_switch(net, probe, &observed);
        survivors = Some(match survivors {
            None => hypotheses,
            Some(prev) => prev.into_iter().filter(|h| hypotheses.contains(h)).collect(),
        });
    }
    survivors.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_perm::bpc::Bpc;
    use benes_perm::omega::cyclic_shift;

    #[test]
    fn healthy_route_is_explained_by_benign_and_masked_faults() {
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        let healthy = net.self_route(&perm);
        let hypotheses = locate_stuck_switch(&net, &perm, healthy.outputs());
        // Every benign hypothesis (stuck at the state the switch takes
        // anyway) must be present…
        for stage in 0..net.stage_count() {
            for switch in 0..net.switches_per_stage() {
                let benign = StuckSwitch {
                    stage,
                    switch,
                    stuck_at: healthy.settings().get(stage, switch),
                };
                assert!(hypotheses.contains(&benign), "missing benign {benign:?}");
            }
        }
        // …and some NON-benign ones may also appear: a wrong switch in
        // the first half swaps two records, but the last n stages
        // re-sort by tag, MASKING the fault. Verify every such masked
        // hypothesis truly reproduces the healthy outputs, and that
        // masking only happens before the middle stage (the last n
        // stages of B(n) route positionally by tag, so a late flip
        // always shows).
        let middle = net.stage_count() / 2;
        for h in &hypotheses {
            if h.stuck_at != healthy.settings().get(h.stage, h.switch) {
                assert!(h.stage <= middle, "late-stage fault {h:?} cannot be masked");
                assert_eq!(self_route_with_fault(&net, &perm, *h), healthy.outputs());
            }
        }
    }

    #[test]
    fn injected_fault_is_always_located() {
        let net = Benes::new(3);
        let perm = cyclic_shift(3, 3);
        let healthy = net.self_route(&perm);
        for stage in 0..net.stage_count() {
            for switch in 0..net.switches_per_stage() {
                let intended = healthy.settings().get(stage, switch);
                let fault = StuckSwitch { stage, switch, stuck_at: intended.toggled() };
                let observed = self_route_with_fault(&net, &perm, fault);
                let hypotheses = locate_stuck_switch(&net, &perm, &observed);
                assert!(
                    hypotheses.contains(&fault),
                    "true fault {fault:?} missing from hypotheses"
                );
            }
        }
    }

    #[test]
    fn disruptive_fault_changes_outputs() {
        let net = Benes::new(4);
        let perm = Bpc::matrix_transpose(4).to_permutation();
        let healthy = net.self_route(&perm);
        let intended = healthy.settings().get(3, 2);
        let fault = StuckSwitch { stage: 3, switch: 2, stuck_at: intended.toggled() };
        let observed = self_route_with_fault(&net, &perm, fault);
        assert_ne!(observed, healthy.outputs());
        // Exactly two tags displaced.
        let wrong = observed.iter().zip(healthy.outputs()).filter(|(a, b)| a != b).count();
        assert_eq!(wrong, 2);
    }

    #[test]
    fn probe_campaign_narrows_suspects() {
        let net = Benes::new(3);
        let probes = vec![
            Bpc::bit_reversal(3).to_permutation(),
            cyclic_shift(3, 1),
            Bpc::vector_reversal(3).to_permutation(),
            cyclic_shift(3, 5),
        ];
        // Pick a fault that disrupts at least one probe.
        let fault = StuckSwitch { stage: 2, switch: 1, stuck_at: SwitchState::Cross };
        let survivors = diagnose_with_probes(&net, &probes, fault);
        assert!(survivors.contains(&fault), "true fault eliminated");
        // The campaign must narrow things well below the single-probe
        // hypothesis count.
        let single = locate_stuck_switch(
            &net,
            &probes[0],
            &self_route_with_fault(&net, &probes[0], fault),
        );
        assert!(
            survivors.len() <= single.len(),
            "campaign ({}) should not widen the single-probe set ({})",
            survivors.len(),
            single.len()
        );
        // All survivors must behave identically to the true fault on
        // every probe (the natural equivalence class).
        for s in &survivors {
            for p in &probes {
                assert_eq!(
                    self_route_with_fault(&net, p, *s),
                    self_route_with_fault(&net, p, fault)
                );
            }
        }
    }

    #[test]
    fn multiple_faults_may_be_unexplainable() {
        // Corrupt the observation by hand so no single fault explains it:
        // swap two outputs that no single switch could swap alone at the
        // last stage while everything else is untouched... simplest:
        // a 3-cycle of tags.
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        let mut observed = net.self_route(&perm).outputs().to_vec();
        let tmp = observed[0];
        observed[0] = observed[3];
        observed[3] = observed[5];
        observed[5] = tmp;
        let hypotheses = locate_stuck_switch(&net, &perm, &observed);
        assert!(hypotheses.is_empty(), "a 3-cycle cannot be a single stuck switch");
    }
}
