//! **benes-engine** — a batched, cached, multi-threaded
//! permutation-routing engine over the self-routing Benes network.
//!
//! The paper's headline economics: permutations in `F(n)` route
//! themselves in `O(log N)` with **zero** set-up, `Ω(n)` needs only one
//! asserted control wire, and everything else pays an `O(N log N)`
//! external set-up (Waksman) or an `Ω⁻¹ · Ω` factorization. A serving
//! system handling millions of requests must therefore *plan* per
//! request and never pay set-up twice for a repeated permutation. This
//! crate is that serving layer:
//!
//! * [`plan`] — the **tiered planner**: classify each request and pick
//!   the cheapest realization (cached → self-route → omega-bit →
//!   factored/Waksman), plus the executor that carries a plan out and
//!   verifies the realized routing;
//! * [`cache`] — the **plan cache**: a sharded LRU keyed by the stable
//!   64-bit permutation fingerprint, so repeated permutations replay
//!   cached [`benes_core::SwitchSettings`] with zero set-up;
//! * [`engine`] — the **batched worker pool**: `k` `std::thread`
//!   workers drain a submission queue in configurable batches and
//!   hand each outcome to its [`Completion`] sink (a [`Ticket`], or a
//!   callback on the caller's own state) — with a shared
//!   fault registry ([`Engine::inject_fault`]) and a detect → evict →
//!   re-plan-around-faults → bounded-retry ladder that keeps serving
//!   through stuck switches;
//! * [`stats`] — the **stats layer**: per-tier hit counters, cache
//!   hit/miss, queue-depth high-water mark, log-bucketed latency
//!   histograms (overall, per tier, failed path) with p50/p90/p99/p999
//!   quantiles, the degraded-mode fault/reroute counters, and a
//!   Prometheus/JSON exposition ([`EngineStats::exposition`]);
//! * [`flightrec`] — the **flight recorder**: every route attempt's
//!   decision ladder, phase timings and (for failures) the full
//!   per-stage [`benes_core::trace::RouteTrace`], kept in a bounded
//!   non-blocking ring ([`Engine::flight_records`]);
//! * [`workload`] — deterministic mixed workload generation (Table I
//!   `BPC` + `Ω` members + hard permutations with repeats) for demos,
//!   benchmarks and tests;
//! * [`breaker`] — the **circuit breaker**: per-order admission control
//!   over the fault-reroute ladder (closed → open after K consecutive
//!   fabric failures → half-open probe), with exponential backoff and
//!   deterministic seeded jitter;
//! * [`chaos`] — the **chaos harness**: a seeded injector (worker
//!   delays, forced failures) plus a scripted soak
//!   ([`chaos::run_soak`]) that checks the request-conservation
//!   invariant `completed + failed + shed + canceled == submitted`,
//!   hunts hung waiters, and proves the breaker opens and re-closes
//!   around a fault burst.
//!
//! # Overload protection & lifecycle
//!
//! Every request admitted by [`Engine::submit`] (or its bounded
//! cousins [`Engine::try_submit`] / [`Engine::submit_wait`], or the
//! deadline-carrying [`Engine::submit_with_deadline`]) reaches exactly
//! one terminal state — completed, failed, shed, or canceled — and its
//! [`Ticket`] always resolves: timeouts via [`Ticket::wait_timeout`],
//! polls via [`Ticket::try_result`], shutdown via [`Engine::drain`]
//! (which cancels rather than abandons).
//!
//! # Quick start
//!
//! ```
//! use benes_engine::{Engine, EngineConfig};
//! use benes_engine::workload::mixed_workload;
//!
//! let engine = Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() });
//! let outcomes = engine.run_batch(mixed_workload(4, 200, 1));
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//!
//! let stats = engine.stats();
//! assert_eq!(stats.completed, 200);
//! println!("{}", stats.report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod flightrec;
#[doc(hidden)]
pub mod model_bridge;
pub mod plan;
pub mod queue;
pub mod stats;
mod worker;
pub mod workload;

pub use benes_core::faults::{FaultError, FaultKind, FaultSet};
pub use benes_obs::{Ledger, Terminal};
pub use breaker::{Admission, Breaker, BreakerConfig, BreakerState};
pub use cache::{PlanCache, CACHE_MIN_ORDER};
pub use chaos::{run_soak, ChaosConfig, ChaosEvent, ChaosSchedule, SoakConfig, SoakReport};
pub use engine::{
    terminal, Completion, DrainReport, Engine, EngineConfig, EngineError, Refused,
    RequestOutcome, Submission, SubmitError, SubmitOpts, Ticket,
};
pub use flightrec::{LadderStep, PhaseNanos, RouteAttempt};
pub use plan::{Fallback, Plan, PlanError, Tier};
pub use stats::EngineStats;
