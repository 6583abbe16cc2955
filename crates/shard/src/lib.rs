//! **benes-shard** — a block-decomposition coordinator that routes
//! giant permutations across a fleet of independent engine shards.
//!
//! A single `B(n)` fabric (and a single [`benes_engine::Engine`] in
//! front of it) stops being the right serving unit long before
//! `N = 2^20`: set-up is `O(N log N)` per request, the plan cache holds
//! whole-`N` switch settings, and one fault registry is one blast
//! radius. The paper's partition theorems supply the way out. Theorems
//! 4–6 characterize how `F(n)` composes over a `J`-partition: a
//! permutation that is block-structured over `J` factors into
//! *within-block* pieces and a *between-block* piece, each living on an
//! exponentially smaller network. This crate runs that observation as a
//! distributed-systems design:
//!
//! * [`decompose`](mod@decompose) factors an **arbitrary** permutation
//!   of `N = 2^n` into three block-structured stages
//!   `π = W1 ∘ M ∘ W3` over the contiguous partition (`J` = high bits):
//!   within source blocks, between blocks, within destination blocks —
//!   the classic three-stage Clos decomposition, colored by `B(n)`'s own
//!   looping recursion cut at depth `r` in `O(N·r)`, so the outer units
//!   are inverse-omega (stage 1) and omega (stage 3) and self-route;
//! * [`coordinator`] scatters the `2B + S` resulting sub-permutations
//!   across a fleet of shards, gathers the per-unit outcomes over the
//!   normal ticket lifecycle, and reports partial completion
//!   element-exactly when shards degrade;
//! * [`backend`] is what a shard *is*, and all the coordinator sees of
//!   it: the [`Backend`] trait, with [`LocalShard`] wrapping a shared
//!   in-process [`benes_engine::Engine`] (its own cache, fault
//!   registry, breakers, and stats — an independent **fault domain**)
//!   and [`remote::RemoteShard`] speaking the `benes-serve` wire
//!   protocol to a shard that is a separate *process*, with retries,
//!   backoff, reconnection, per-endpoint circuit breakers, spare
//!   failover, optional request hedging, and heartbeat health probes;
//! * [`stats`] holds [`FleetStats`]: one [`BackendLedger`] per shard,
//!   local or remote (conservation checked per shard, never summed),
//!   and the `benes_fleet_*` exposition; per-unit tiers and latencies
//!   ride on each [`ShardOutcome`];
//! * [`fleet`] is the soak behind `scripts/shard.sh` (in-process
//!   chaos on one shard) and `scripts/fleet.sh` (real process death):
//!   [`run_fleet_soak`] classifies every failure against a declared
//!   killable set and fails on cross-shard contamination or a bitwise
//!   recombination mismatch.
//!
//! The correctness contract is bitwise: a complete
//! [`ShardOutcome`] is `verified` only if recombining the three stages
//! reproduces the original permutation element by element
//! ([`Decomposition::recombines_to`]).
//!
//! # Quick start
//!
//! ```
//! use benes_shard::{ShardConfig, ShardCoordinator};
//! use benes_engine::workload::{random_permutation, Rng64};
//!
//! let coord = ShardCoordinator::new(ShardConfig::default());
//! let pi = random_permutation(&mut Rng64::new(1), 1 << 12);
//! let outcome = coord.route(&pi).unwrap();
//! assert!(outcome.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod coordinator;
pub mod decompose;
pub mod fleet;
pub mod remote;
pub mod stats;

pub use backend::{Backend, BackendDrain, BackendLedger, LocalShard, UnitTicket};
pub use coordinator::{
    ShardConfig, ShardCoordinator, ShardError, ShardOutcome, Stage, UnitOutcome,
};
pub use decompose::{balanced_block_bits, decompose, DecomposeError, Decomposition};
pub use fleet::{run_fleet_soak, FleetSoakConfig, FleetSoakReport};
pub use remote::{RemoteConfig, RemoteShard};
pub use stats::FleetStats;
