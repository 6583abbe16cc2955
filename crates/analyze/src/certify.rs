//! F(n)-membership certificates and closed-form cross-checks.
//!
//! [`certify_f`] turns the symbolic walk of
//! [`analyze_self_route`] into a
//! portable **certificate**: the commanded switch matrix, verifiable
//! later (or elsewhere) by two static facts — it realizes `D`, and it
//! satisfies the stage-bit invariant. Those two facts *are* the Fig. 3
//! rule, so a verified certificate proves `D ∈ F(n)` without either
//! simulation or a rerun of Theorem 1's recursion.
//!
//! [`closed_form_findings`] then cross-checks the paper's closed forms
//! against the recursion: every BPC permutation (Theorem 2) and every
//! Ω⁻¹ member (Theorem 3) must certify, every Ω member must pass the
//! omega-bit walk, and the dataflow checker must agree with
//! [`benes_core::class_f::check_f`] exactly.

use benes_core::class_f::check_f;
use benes_perm::bpc::Bpc;
use benes_perm::omega::{is_inverse_omega, is_omega};
use benes_perm::Permutation;

use crate::plancheck::{
    analyze_omega_route, analyze_self_route, check_settings, stage_bit_deviations,
    Conflict, SettingsVerdict,
};
use crate::report::{Finding, Pillar};
use benes_core::SwitchSettings;

/// A static proof that a permutation self-routes (`D ∈ F(n)`): the
/// switch matrix the destination-tag rule commands. Check it with
/// [`FCertificate::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FCertificate {
    settings: SwitchSettings,
}

impl FCertificate {
    /// The network order the certificate is for.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.settings.n()
    }

    /// The certified switch matrix.
    #[must_use]
    pub fn settings(&self) -> &SwitchSettings {
        &self.settings
    }

    /// Verifies the certificate against `d`, independently of how it
    /// was produced: the matrix must symbolically realize `d` **and**
    /// satisfy the stage-bit invariant (every stage keyed on its
    /// control bit). Together these reconstruct the Fig. 3 derivation,
    /// so verification succeeding proves `d ∈ F(n)`.
    #[must_use]
    pub fn verify(&self, d: &Permutation) -> bool {
        d.len() == benes_core::topology::terminal_count(self.settings.n())
            && check_settings(&self.settings, d) == SettingsVerdict::Realizes
            && stage_bit_deviations(&self.settings, d).is_empty()
    }
}

/// Certifies `D ∈ F(n)` by the symbolic dataflow walk, or reports the
/// split conflicts proving `D ∉ F(n)`.
///
/// # Errors
///
/// Returns the list of Theorem 1 violations when `D ∉ F(n)`.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1`.
pub fn certify_f(d: &Permutation) -> Result<FCertificate, Vec<Conflict>> {
    let a = analyze_self_route(d);
    if a.is_conflict_free() {
        Ok(FCertificate { settings: a.settings })
    } else {
        Err(a.conflicts)
    }
}

/// Cross-checks every closed-form class predicate against the
/// recursive characterization for one permutation. Clean on every
/// permutation if the implementation honors Theorems 1–3; any finding
/// is an implementation bug, not a property of `d`.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1`.
#[must_use]
pub fn closed_form_findings(d: &Permutation) -> Vec<Finding> {
    let n = d.log2_len().unwrap_or(0);
    let loc = format!("B({n})");
    let mut findings = Vec::new();

    let cert = certify_f(d);
    let static_in_f = cert.is_ok();
    if static_in_f != check_f(d).is_ok() {
        findings.push(Finding::error(
            Pillar::Domain,
            "dataflow-vs-theorem1",
            &loc,
            0,
            format!(
                "dataflow checker says {d} ∈ F = {static_in_f}, Theorem 1 recursion disagrees"
            ),
        ));
    }
    if let Ok(cert) = &cert {
        if !cert.verify(d) {
            findings.push(Finding::error(
                Pillar::Domain,
                "certificate-invalid",
                &loc,
                0,
                format!("certificate for {d} fails independent verification"),
            ));
        }
    }
    if Bpc::from_permutation(d).is_some() && !static_in_f {
        findings.push(Finding::error(
            Pillar::Domain,
            "bpc-closed-form",
            &loc,
            0,
            format!("{d} is BPC but does not certify (Theorem 2 violated)"),
        ));
    }
    if is_inverse_omega(d) && !static_in_f {
        findings.push(Finding::error(
            Pillar::Domain,
            "inverse-omega-closed-form",
            &loc,
            0,
            format!("{d} ∈ Ω⁻¹ but does not certify (Theorem 3 violated)"),
        ));
    }
    if is_omega(d) && !analyze_omega_route(d).is_conflict_free() {
        findings.push(Finding::error(
            Pillar::Domain,
            "omega-closed-form",
            &loc,
            0,
            format!("{d} ∈ Ω but the omega-bit walk conflicts"),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::class_f::is_in_f;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    /// All permutations of 0..len, recursively.
    fn all_perms(len: u32) -> Vec<Vec<u32>> {
        if len == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for rest in all_perms(len - 1) {
            for pos in 0..=rest.len() {
                let mut v = rest.clone();
                v.insert(pos, len - 1);
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn exhaustive_b2_certificates_match_theorem1() {
        let mut members = 0;
        for v in all_perms(4) {
            let d = p(&v);
            match certify_f(&d) {
                Ok(cert) => {
                    members += 1;
                    assert!(cert.verify(&d), "certificate for {d} must verify");
                    assert!(is_in_f(&d), "{d} certified but Theorem 1 rejects it");
                }
                Err(conflicts) => {
                    assert!(!conflicts.is_empty());
                    assert!(!is_in_f(&d), "{d} rejected but Theorem 1 accepts it");
                }
            }
            assert!(closed_form_findings(&d).is_empty(), "closed forms disagree on {d}");
        }
        assert_eq!(members, 20, "|F(2)| = 20");
    }

    #[test]
    fn certificates_do_not_transfer_between_permutations() {
        let rev = p(&[0, 4, 2, 6, 1, 5, 3, 7]);
        let cert = certify_f(&rev).unwrap();
        assert!(cert.verify(&rev));
        assert!(!cert.verify(&Permutation::identity(8)));
        assert!(!cert.verify(&Permutation::identity(4)), "wrong order never verifies");
        assert_eq!(cert.n(), 3);
    }

    #[test]
    fn named_families_certify_up_to_n6() {
        for n in 1..=6u32 {
            assert!(closed_form_findings(&Bpc::bit_reversal(n).to_permutation()).is_empty());
            assert!(closed_form_findings(&Bpc::unshuffle(n).to_permutation()).is_empty());
            assert!(closed_form_findings(&benes_perm::omega::cyclic_shift(n, 1)).is_empty());
        }
    }
}
