//! The tiered planner: classify a permutation and pick the cheapest
//! realization the network supports.
//!
//! The paper's economics (§I) are a ladder of set-up costs:
//!
//! | tier | applies to | set-up cost |
//! |---|---|---|
//! | self-route | `F(n)` (Theorem 1) | **zero** — tags set the switches |
//! | omega-bit | `Ω(n)` (§II) | **zero** — one control wire asserted |
//! | factored | any `D` | one `O(N log N)` factorization, then two zero-set-up passes |
//! | Waksman | any `D` | one `O(N log N)` looping set-up |
//!
//! A serving system should therefore *plan* per request: try the cheap
//! tiers first, fall back to an expensive one, and cache what the
//! expensive tiers computed so that, from [`crate::cache::CACHE_MIN_ORDER`]
//! up, a repeated permutation never pays set-up twice (the
//! [`crate::cache`] module). The planner here is the decision procedure;
//! [`execute`] carries a plan out on a network.
//!
//! The self-route rung tests `F(n)` membership by simulation: `F(n)` is
//! the set of permutations the self-routing network realizes, so a
//! successful word-kernel self-route attempt is the membership proof and,
//! with no faults registered, the engine's execution too. Theorem 1's
//! characterization ([`benes_core::class_f::is_in_f`]) stays the oracle
//! the tests hold the planner to.

use std::fmt;

use benes_core::faults::FaultSet;
use benes_core::waksman::{self, SetupError};
use benes_core::{factor, word, Benes, Control, SwitchSettings};
use benes_perm::omega::is_omega;
use benes_perm::Permutation;

/// The realization tier a request was served by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// A cached plan was replayed — zero set-up on this request.
    Cached,
    /// `D ∈ F(n)`: destination tags routed themselves (Theorem 1).
    SelfRoute,
    /// `D ∈ Ω(n) \ F(n)`: self-routed with the omega bit asserted (§II).
    OmegaBit,
    /// Arbitrary `D`, realized as `Ω⁻¹ · Ω` two-pass self-routing
    /// (the §II factorization; set-up paid once at planning time).
    Factored,
    /// Arbitrary `D`, realized by the classical `O(N log N)` external
    /// set-up (Waksman — the paper's reference \[10\]).
    Waksman,
}

impl Tier {
    /// All tiers, ladder order (cheapest first).
    pub const ALL: [Tier; 5] =
        [Tier::Cached, Tier::SelfRoute, Tier::OmegaBit, Tier::Factored, Tier::Waksman];

    /// A short stable name for reports and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Cached => "cached",
            Self::SelfRoute => "self-route",
            Self::OmegaBit => "omega-bit",
            Self::Factored => "factored",
            Self::Waksman => "waksman",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which expensive tier the planner falls back to for permutations
/// outside `F(n) ∪ Ω(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// Full Waksman set-up: one network pass per request (default).
    #[default]
    Waksman,
    /// The `Ω⁻¹ · Ω` factorization: two zero-set-up passes per request.
    /// Useful when switch state cannot be loaded externally (§I's
    /// "simple logic added to each switch" is the only control path).
    Factored,
}

/// A computed realization: everything needed to serve the permutation
/// without re-running classification or set-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Route by destination tags alone.
    SelfRoute,
    /// Route by destination tags with the omega bit asserted.
    OmegaBit,
    /// Replay an externally computed switch assignment.
    Settings(SwitchSettings),
    /// Two self-routing passes: `first ∈ Ω⁻¹(n) ⊆ F(n)` (plain
    /// self-route), then `second ∈ Ω(n)` (omega bit). Composition
    /// equals the planned permutation.
    TwoPass {
        /// The inverse-omega factor, routed by the plain self-route pass.
        first: Permutation,
        /// The omega factor, routed with the omega bit asserted.
        second: Permutation,
    },
}

impl Plan {
    /// The tier this plan realizes when it is executed fresh (a cache
    /// replay reports [`Tier::Cached`] instead).
    #[must_use]
    pub fn tier(&self) -> Tier {
        match self {
            Self::SelfRoute => Tier::SelfRoute,
            Self::OmegaBit => Tier::OmegaBit,
            Self::Settings(_) => Tier::Waksman,
            Self::TwoPass { .. } => Tier::Factored,
        }
    }

    /// Whether the plan embodies set-up work worth caching. The
    /// zero-set-up tiers re-plan for free, so caching them would only
    /// evict plans that are expensive to rebuild.
    #[must_use]
    pub fn is_cacheable(&self) -> bool {
        matches!(self, Self::Settings(_) | Self::TwoPass { .. })
    }
}

/// Error produced by [`plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The permutation length is not a power of two ≥ 2, so no `B(n)`
    /// serves it.
    UnsupportedLength {
        /// The offending length.
        len: usize,
    },
    /// The permutation needs a network larger than the supported maximum.
    TooLarge {
        /// The required order `n`.
        n: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedLength { len } => {
                write!(f, "no Benes network serves a permutation of length {len}")
            }
            Self::TooLarge { n } => {
                write!(f, "network order {n} exceeds the supported maximum")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SetupError> for PlanError {
    fn from(e: SetupError) -> Self {
        match e {
            SetupError::NotPowerOfTwo { len } => Self::UnsupportedLength { len },
            SetupError::TooLarge { n } => Self::TooLarge { n },
            // SetupError is non_exhaustive; any future variant is a
            // planning failure on size grounds as well.
            _ => Self::UnsupportedLength { len: 0 },
        }
    }
}

/// The network order required to serve `d`, or the planning error that
/// rules it out.
pub fn required_order(d: &Permutation) -> Result<u32, PlanError> {
    let n = d
        .log2_len()
        .filter(|&n| n >= 1)
        .ok_or(PlanError::UnsupportedLength { len: d.len() })?;
    if n > benes_core::topology::MAX_N {
        return Err(PlanError::TooLarge { n });
    }
    Ok(n)
}

/// Classifies `d` and computes the cheapest plan, walking the tier
/// ladder: self-route if `d ∈ F(n)`, omega-bit if `d ∈ Ω(n)`, else the
/// configured fallback.
///
/// `F(n)` is by definition what the self-routing network realizes, so
/// membership is decided by simulation: one word-parallel self-route
/// attempt ([`word::route`]). On every member it costs less than
/// the Theorem-1 recursion ([`benes_core::class_f::is_in_f`]), which the
/// tests keep as the oracle.
///
/// # Errors
///
/// Returns an error if the length is not a power of two ≥ 2 or exceeds
/// the supported maximum order.
///
/// # Examples
///
/// ```
/// use benes_engine::plan::{plan, Fallback, Tier};
/// use benes_perm::Permutation;
///
/// // Fig. 5 of the paper: in Ω(2) but not F(2).
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// assert_eq!(plan(&d, Fallback::Waksman).unwrap().tier(), Tier::OmegaBit);
/// ```
pub fn plan(d: &Permutation, fallback: Fallback) -> Result<Plan, PlanError> {
    let n = required_order(d)?;
    if word::route(n, d, Control::SelfRoute, None).is_ok_and(|o| o.is_success()) {
        return Ok(Plan::SelfRoute);
    }
    if is_omega(d) {
        return Ok(Plan::OmegaBit);
    }
    match fallback {
        Fallback::Waksman => Ok(Plan::Settings(waksman::setup(d)?)),
        Fallback::Factored => {
            let (first, second) = factor::factor_inverse_omega_omega(d)?;
            Ok(Plan::TwoPass { first, second })
        }
    }
}

/// Executes `plan` for `d` on `net` and reports whether every input
/// reached the output `d` names. Planning mistakes (or a plan cached
/// for a *different* permutation) surface as `false`, never as silent
/// misrouting.
///
/// Every pass runs on the word-parallel kernel ([`word::route`]) — whole
/// switch columns as `u64` masks — which the exhaustive/property tests
/// in `benes_core` pin to the scalar oracle.
///
/// # Panics
///
/// Panics if `d.len() != net.terminal_count()`; the engine always pairs
/// a request with the network of its own order.
#[must_use]
pub fn execute(net: &Benes, d: &Permutation, plan: &Plan) -> bool {
    assert_eq!(d.len(), net.terminal_count(), "execute: network order mismatch");
    walk(net, d, plan, None).is_ok()
}

/// Walks `plan`'s passes for `d` on the word kernel over the fabric as
/// it is (`faults` overlaid when present and non-empty), in order,
/// stopping at the first pass that misroutes. `Ok` when every pass
/// succeeded; otherwise the failing pass (its tags and control), or
/// `None` for a two-pass plan whose factors do not compose to `d`.
/// Healthy execution, degraded execution and the failure trace all go
/// through here.
pub(crate) fn walk<'a>(
    net: &Benes,
    d: &'a Permutation,
    plan: &'a Plan,
    faults: Option<&FaultSet>,
) -> Result<(), Option<(&'a Permutation, Control<'a>)>> {
    let (one, two) = match plan {
        Plan::SelfRoute => ((d, Control::SelfRoute), None),
        Plan::OmegaBit => ((d, Control::OmegaBit), None),
        Plan::Settings(settings) => ((d, Control::Settings(settings)), None),
        // The factorization theorem guarantees first ∈ Ω⁻¹ ⊆ F and
        // second ∈ Ω, so both passes self-route with zero set-up.
        Plan::TwoPass { first, second } if first.then(second) == *d => {
            ((first, Control::SelfRoute), Some((second, Control::OmegaBit)))
        }
        Plan::TwoPass { .. } => return Err(None),
    };
    let faults = faults.filter(|f| !f.is_empty());
    for (tags, control) in std::iter::once(one).chain(two) {
        if !word::route(net.n(), tags, control, faults).is_ok_and(|o| o.is_success()) {
            return Err(Some((tags, control)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::class_f;
    use benes_perm::bpc::Bpc;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    #[test]
    fn tier_ladder_on_known_permutations() {
        // Bit reversal is BPC ⊆ F: cheapest tier.
        let rev = Bpc::bit_reversal(3).to_permutation();
        assert_eq!(plan(&rev, Fallback::Waksman).unwrap().tier(), Tier::SelfRoute);

        // Fig. 5: Ω(2) \ F(2).
        let fig5 = p(&[1, 3, 2, 0]);
        assert_eq!(plan(&fig5, Fallback::Waksman).unwrap().tier(), Tier::OmegaBit);

        // The identity is in every class; ladder picks self-route.
        assert_eq!(
            plan(&Permutation::identity(8), Fallback::Factored).unwrap().tier(),
            Tier::SelfRoute
        );
    }

    /// A fixed witness outside `F(3) ∪ Ω(3)` (no such witness exists
    /// below `n = 3`: `F(2) ∪ Ω(2)` is all of `S₄`).
    fn hard_witness() -> Permutation {
        let d = p(&[2, 5, 3, 7, 1, 6, 4, 0]);
        assert!(!class_f::is_in_f(&d));
        assert!(!is_omega(&d));
        d
    }

    #[test]
    fn fallback_choice_only_affects_arbitrary_permutations() {
        let hard = hard_witness();
        assert_eq!(plan(&hard, Fallback::Waksman).unwrap().tier(), Tier::Waksman);
        assert_eq!(plan(&hard, Fallback::Factored).unwrap().tier(), Tier::Factored);
    }

    #[test]
    fn every_plan_executes_correctly_exhaustively_n2() {
        // All 24 permutations of 4 elements, both fallbacks.
        let net = Benes::new(2);
        let mut dest = vec![0u32, 1, 2, 3];
        let mut c = [0usize; 4];
        let check = |d: &Permutation| {
            for fb in [Fallback::Waksman, Fallback::Factored] {
                let pl = plan(d, fb).unwrap();
                assert!(execute(&net, d, &pl), "plan {pl:?} failed for {d}");
            }
        };
        check(&p(&dest));
        let mut i = 0;
        while i < 4 {
            if c[i] < i {
                if i % 2 == 0 {
                    dest.swap(0, i);
                } else {
                    dest.swap(c[i], i);
                }
                check(&p(&dest));
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn execute_rejects_wrong_plan() {
        // A plan built for a different permutation must fail loudly.
        let net = Benes::new(3);
        let pl = plan(&hard_witness(), Fallback::Waksman).unwrap();
        assert_eq!(pl.tier(), Tier::Waksman);
        assert!(!execute(&net, &Permutation::identity(8), &pl));
    }

    #[test]
    fn rejects_unroutable_lengths() {
        let three = p(&[2, 0, 1]);
        assert_eq!(
            plan(&three, Fallback::Waksman),
            Err(PlanError::UnsupportedLength { len: 3 })
        );
        let one = Permutation::identity(1);
        assert_eq!(
            plan(&one, Fallback::Waksman),
            Err(PlanError::UnsupportedLength { len: 1 })
        );
    }

    #[test]
    fn simulation_ladder_matches_the_theorem_1_ladder() {
        // The self-route attempt decides F(n) exactly as Theorem 1 does,
        // so every request of the mixed stream lands on the same tier.
        for n in 3..=8 {
            for d in crate::workload::mixed_workload(n, 2000, u64::from(n)) {
                for fallback in [Fallback::Waksman, Fallback::Factored] {
                    let oracle = if class_f::is_in_f(&d) {
                        Tier::SelfRoute
                    } else if is_omega(&d) {
                        Tier::OmegaBit
                    } else if fallback == Fallback::Waksman {
                        Tier::Waksman
                    } else {
                        Tier::Factored
                    };
                    assert_eq!(plan(&d, fallback).unwrap().tier(), oracle, "n={n} {d}");
                }
            }
        }
    }

    #[test]
    fn cacheability_tracks_setup_cost() {
        assert!(!Plan::SelfRoute.is_cacheable());
        assert!(!Plan::OmegaBit.is_cacheable());
        let d = hard_witness();
        assert!(plan(&d, Fallback::Waksman).unwrap().is_cacheable());
        assert!(plan(&d, Fallback::Factored).unwrap().is_cacheable());
    }
}
