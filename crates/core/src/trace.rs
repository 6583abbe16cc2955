//! Full route traces: the per-stage tag snapshots behind the paper's
//! Figs. 4 and 5.
//!
//! A [`RouteTrace`] records, for one routing attempt, the destination tag
//! sitting on every input port of every stage, the state every switch
//! assumed, and the tags that finally surfaced at the output terminals.
//! [`crate::render::render_trace`] turns it into the figure-style text.

use benes_perm::Permutation;

use crate::faults::FaultSet;
use crate::network::{Benes, Control, NetworkError, SwitchSettings};

/// How the switches were controlled during a traced route: the
/// data-free discriminant of [`Control`] ([`Control::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// The paper's self-routing rule (Fig. 3).
    SelfRouting,
    /// Self-routing with the omega bit asserted (first `n−1` stages forced
    /// straight).
    OmegaBit,
    /// Externally supplied settings.
    External,
}

/// A complete record of one pass through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTrace {
    n: u32,
    mode: TraceMode,
    stage_inputs: Vec<Vec<u32>>,
    settings: SwitchSettings,
    outputs: Vec<u32>,
}

impl RouteTrace {
    /// Traces one pass of `perm`'s tags through `net` under `control`,
    /// with the faulty switches of `faults` (when given) overriding
    /// their commanded state. This is the scalar oracle the word kernel
    /// ([`crate::word::route`]) is held to, and the engine's
    /// flight-recorder hook: it captures exactly what a failed request
    /// saw, stage by stage.
    ///
    /// # Errors
    ///
    /// [`NetworkError::PermutationLength`] on a length mismatch,
    /// [`NetworkError::SettingsOrder`] if external settings were built
    /// for another order.
    ///
    /// # Panics
    ///
    /// Panics if `faults` was built for another order than `net`.
    pub fn capture(
        net: &Benes,
        perm: &Permutation,
        control: Control<'_>,
        faults: Option<&FaultSet>,
    ) -> Result<Self, NetworkError> {
        if let Some(f) = faults {
            assert_eq!(f.n(), net.n(), "fault set order must match the network");
        }
        if let Control::Settings(settings) = control {
            if settings.n() != net.n() {
                return Err(NetworkError::SettingsOrder {
                    network_n: net.n(),
                    settings_n: settings.n(),
                });
            }
        }
        if perm.len() != net.terminal_count() {
            return Err(NetworkError::PermutationLength {
                expected: net.terminal_count(),
                actual: perm.len(),
            });
        }
        let mut stage_inputs: Vec<Vec<u32>> =
            vec![vec![0; net.terminal_count()]; net.stage_count()];
        let tags: Vec<u32> = perm.destinations().to_vec();
        let (outputs, settings) = net.propagate(tags, |s, i, upper, lower| {
            stage_inputs[s][2 * i] = *upper;
            stage_inputs[s][2 * i + 1] = *lower;
            control.state(net, faults, (s, i), *upper)
        });
        Ok(Self { n: net.n(), mode: control.mode(), stage_inputs, settings, outputs })
    }

    /// The network order `n`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// How the switches were controlled.
    #[must_use]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// The tags on the input ports of `stage` (port-major, i.e. switch
    /// `i`'s inputs are entries `2i` and `2i+1`).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn stage_input(&self, stage: usize) -> &[u32] {
        &self.stage_inputs[stage]
    }

    /// The states every switch assumed.
    #[must_use]
    pub fn settings(&self) -> &SwitchSettings {
        &self.settings
    }

    /// The tags that surfaced at the output terminals.
    #[must_use]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Whether every tag reached its named output.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.outputs.iter().enumerate().all(|(o, &t)| o as u32 == t)
    }

    /// The misrouted `(output, arrived_tag)` pairs.
    #[must_use]
    pub fn misrouted(&self) -> Vec<(usize, u32)> {
        self.outputs
            .iter()
            .enumerate()
            .filter(|&(o, &t)| o as u32 != t)
            .map(|(o, &t)| (o, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchState;
    use benes_perm::bpc::Bpc;

    #[test]
    fn trace_matches_plain_self_route() {
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        let trace = RouteTrace::capture(&net, &perm, Control::SelfRoute, None).unwrap();
        let outcome = net.self_route(&perm);
        assert_eq!(trace.outputs(), outcome.outputs());
        assert_eq!(trace.settings(), outcome.settings());
        assert!(trace.is_success());
    }

    #[test]
    fn fig4_stage0_tags_are_the_permutation() {
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        let trace = RouteTrace::capture(&net, &perm, Control::SelfRoute, None).unwrap();
        assert_eq!(trace.stage_input(0), perm.destinations());
    }

    #[test]
    fn fig5_trace_reproduces_failure() {
        let net = Benes::new(2);
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let trace = RouteTrace::capture(&net, &d, Control::SelfRoute, None).unwrap();
        assert!(!trace.is_success());
        assert_eq!(trace.stage_input(0), &[1, 3, 2, 0]);
        // After stage 0 (cross, straight) and the link: middle sees
        // [3, 2, 1, 0].
        assert_eq!(trace.stage_input(1), &[3, 2, 1, 0]);
        assert_eq!(trace.outputs(), &[2, 1, 0, 3]);
    }

    #[test]
    fn omega_trace_forces_straight_stages() {
        let net = Benes::new(3);
        let d = benes_perm::omega::cyclic_shift(3, 1);
        let trace = RouteTrace::capture(&net, &d, Control::OmegaBit, None).unwrap();
        assert_eq!(trace.mode(), TraceMode::OmegaBit);
        for s in 0..2 {
            assert!(trace
                .settings()
                .stage(s)
                .iter()
                .all(|&st| st == SwitchState::Straight));
        }
        assert!(trace.is_success());
    }

    #[test]
    fn external_trace_replays_waksman() {
        let net = Benes::new(3);
        let d = Permutation::from_destinations(vec![5, 2, 7, 0, 1, 6, 3, 4]).unwrap();
        let settings = crate::waksman::setup(&d).unwrap();
        let trace =
            RouteTrace::capture(&net, &d, Control::Settings(&settings), None).unwrap();
        assert!(trace.is_success());
        assert_eq!(trace.settings(), &settings);
    }

    #[test]
    fn length_mismatch_rejected() {
        let net = Benes::new(2);
        let d = Permutation::identity(8);
        assert!(RouteTrace::capture(&net, &d, Control::SelfRoute, None).is_err());
    }
}
