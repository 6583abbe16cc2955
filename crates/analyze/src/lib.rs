//! Static analysis for the self-routing Benes workspace: prove routing
//! facts **without running the network**, and lint the workspace's own
//! invariants **without running the compiler**.
//!
//! The paper's central move is that control of `B(n)` can be decided
//! locally — stage `s` keys on destination-tag bit `min(s, 2n−2−s)`,
//! and Theorem 1 characterizes exactly which permutations survive that
//! rule. Those are *static* statements: they constrain the switch-state
//! matrix itself, not any particular signal propagation. This crate
//! takes them at their word, in two pillars:
//!
//! * **Pillar 1 — domain checks** ([`plancheck`], [`certify`],
//!   [`netlist_lint`]): a symbolic dataflow walk over a `SwitchMatrix`
//!   that proves conflict-freeness and permutation realization by
//!   composing transpositions (no simulation), verifies the stage-bit
//!   invariant, checks `F(n)` membership certificates and the
//!   BPC/inverse-omega closed forms against Theorem 1's recursion,
//!   statically validates cached plans against a `FaultSet`, and lints
//!   synthesized netlists for loops, width mismatches and fanout
//!   violations.
//! * **Pillar 2 — workspace lints** ([`lints`]): an offline,
//!   no-new-dependency source analyzer that builds the engine's
//!   instance-aware lock-acquisition graph (flagging order cycles,
//!   same-lock reentry and unprovable cross-instance nesting),
//!   enforces the poison-recovery idiom, flags condvar waits outside a
//!   predicate re-check loop and relaxed atomic RMWs whose results
//!   feed control decisions, and requires justification markers on
//!   narrowing index casts and discarded `Result`s in hot paths.
//! * **Pillar 3 — concurrency and kernel proofs** ([`model`], [`sym`],
//!   [`wordproof`]): an exhaustive-interleaving model checker over a
//!   faithful abstraction of the engine's one-lock run queue
//!   (request conservation, deadlock freedom, no lost wakeups — with
//!   seeded-mutant self-tests and counterexample traces), and a
//!   symbolic bit-plane prover that certifies the word-parallel
//!   routing kernels (including fault overlays) element-wise
//!   equivalent to the scalar oracle for every `n ≤ 8` by abstract
//!   evaluation — zero sampled inputs.
//!
//! All three pillars speak [`report::Finding`]; `benes-cli analyze`,
//! `scripts/analyze.sh` and `scripts/race.sh` drive them as tier-1
//! gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod lints;
pub mod model;
pub mod netlist_lint;
pub mod plancheck;
pub mod report;
pub mod sym;
pub mod wordproof;

pub use certify::{certify_f, closed_form_findings, FCertificate};
pub use lints::lint_workspace;
pub use lints::locks::LockGraph;
pub use model::queue::{concurrency_findings, Protocol, ProtocolReport};
pub use model::{Counterexample, Exploration};
pub use netlist_lint::{lint_gate_benes, lint_netlist};
pub use plancheck::{
    analyze_omega_route, analyze_self_route, check_plan, check_settings,
    fault_disagreements, stage_bit_deviations, symbolic_realized,
    symbolic_realized_with_faults, Conflict, FaultDisagreement, SelfRouteAnalysis,
    SettingsVerdict, StageBitDeviation,
};
pub use report::{render_human, render_json_lines, Finding, Pillar, Severity};
pub use wordproof::{
    prove_all, prove_word_kernel, WordCertificate, WordDivergence, WordKernel,
};
