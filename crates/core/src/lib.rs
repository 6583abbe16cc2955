//! The self-routing Benes network of Nassimi & Sahni (1980).
//!
//! This crate is the paper's primary contribution: an `N = 2^n`
//! input/output Benes permutation network whose switches set **themselves**
//! from the destination tags travelling with the data, giving a total
//! set-up-plus-transit delay of `O(log N)` gate delays for the rich class
//! `F(n)` of permutations characterized in §II of the paper.
//!
//! # Crate layout
//!
//! * [`topology`] — the static recursive structure of `B(n)` (Fig. 1):
//!   `2·log N − 1` stages of `N/2` binary switches and the inter-stage
//!   wiring, plus the per-stage *control bit* assignment of Fig. 3.
//! * [`network`] — the circuit model: [`network::Benes`] (immutable
//!   topology), [`network::SwitchSettings`] (a full switch-state
//!   assignment, stored as one bit-packed control column per stage),
//!   externally-set routing
//!   ([`Benes::route_with`](network::Benes::route_with)), and
//!   [`Control`], the paper's three ways of setting the switches (tag
//!   rule, omega bit, external set-up) that every routing kernel takes.
//! * [`selfroute`] — the paper's self-routing scheme (Fig. 3): each switch
//!   in stage `b` / stage `2n−2−b` sets itself from bit `b` of its upper
//!   input's destination tag, plus the "omega bit" variant that forces
//!   stages `0..n−1` straight to realize all of `Ω(n)`. This scalar walk is
//!   the reference oracle; the hot path lives in [`word`].
//! * [`word`] — one word-parallel (bit-sliced) kernel for every
//!   [`Control`] mode, healthy or faulty: whole switch columns as `u64`
//!   masks applied with delta-swaps, an order of magnitude faster than
//!   the switch-at-a-time walk.
//! * [`class_f`] — membership in `F(n)`: the Theorem 1 recursion and an
//!   independent check by direct simulation.
//! * [`census`] — exact `|F(n)|` via a transfer-matrix product formula
//!   derived from Theorem 1, constructive enumeration of `F(n)`, and a
//!   Monte-Carlo estimator for sizes beyond exact reach.
//! * [`diagnose`] — field diagnostics: locate a stuck switch from the
//!   observed misrouting fingerprint, with multi-probe campaigns.
//! * [`factor`] — the `Ω⁻¹·Ω` factorization: any permutation splits at
//!   the Benes middle stage into an inverse-omega followed by an omega
//!   permutation (the paper's §II structural remark, made a checked
//!   theorem).
//! * [`parallel_setup`] — the `O(log² N)` pointer-jumping parallel set-up
//!   (the paper's reference \[7\] complexity class), with parallel-round
//!   accounting to quantify the set-up bottleneck self-routing removes.
//! * [`waksman`] — the classical `O(N log N)` looping set-up algorithm
//!   (Waksman / Opferman–Tsao-Wu, the paper's reference \[10\]), emitting
//!   the control columns directly; with external set-up the network
//!   realizes **all** `N!` permutations.
//! * [`pipeline`] — the §IV pipelined mode: registers between stages, one
//!   new vector per clock after a `2n−1`-clock fill latency.
//! * [`trace`] — full per-link route traces (reproducing Figs. 4 and 5);
//!   [`trace::RouteTrace::capture`] is the scalar oracle the word kernel
//!   is held to.
//! * [`render`] — ASCII rendering of the network and traces (Fig. 1).
//!
//! # Quick start
//!
//! ```
//! use benes_core::network::Benes;
//! use benes_perm::bpc::Bpc;
//!
//! // Build B(3) (8 terminals, 5 stages, 20 switches).
//! let net = Benes::new(3);
//! assert_eq!(net.stage_count(), 5);
//! assert_eq!(net.switch_count(), 20);
//!
//! // Self-route the bit-reversal permutation of the paper's Fig. 4.
//! let perm = Bpc::bit_reversal(3).to_permutation();
//! let outcome = net.self_route(&perm);
//! assert!(outcome.is_success());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod class_f;
pub mod diagnose;
pub mod factor;
pub mod faults;
pub mod network;
pub mod parallel_setup;
pub mod pipeline;
pub mod render;
pub mod selfroute;
pub mod topology;
pub mod trace;
pub mod waksman;
pub mod word;

pub use class_f::{check_f, is_in_f, is_in_f_by_simulation, FViolation};
pub use faults::{FaultKind, FaultSet, FaultSetupError};
pub use network::{Benes, Control, SwitchSettings, SwitchState};
pub use selfroute::SelfRouteOutcome;
