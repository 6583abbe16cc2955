//! **benes-obs** — the observability substrate for the Benes routing
//! stack.
//!
//! The engine's original stats layer answered "how many" (per-tier
//! counters) and "roughly how fast" (a min/mean/max latency sketch).
//! It could not answer the two questions a serving system actually
//! gets asked:
//!
//! * **"What does the tail look like?"** The paper's set-up-cost
//!   ladder (Theorems 1–3) makes latency *bimodal by design*: `F(n)`
//!   members route with zero set-up while everything else pays
//!   `O(N log N)` — means are exactly the wrong summary. The
//!   [`hist`] module provides lock-free log-bucketed histograms with
//!   bracketed p50/p90/p99/p999 quantiles, cheap enough to keep one
//!   per tier and per fallback path.
//! * **"What happened to the job that failed?"** The [`flight`]
//!   module is a non-blocking ring buffer that keeps the last `K`
//!   records of anything — the engine stores one full route attempt
//!   per request (fingerprint, tier, fault-ladder steps, per-phase
//!   timing, and the complete per-stage `RouteTrace` for failures).
//!
//! The [`expo`] module turns any of it into Prometheus text or JSON,
//! with parsers so the exposition round-trips in tests. The [`ledger`]
//! module is the one home of the request-conservation rule every
//! layer's ledger books through.
//!
//! This crate is deliberately dependency-free and domain-agnostic: it
//! knows nothing about permutations, so every later crate (engine,
//! cli, bench, services) can read from the same instrumentation
//! substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod flight;
pub mod hist;
pub mod ledger;

pub use expo::{parse_json, parse_prometheus, Exposition, MetricKind, ParseError, Sample};
pub use flight::FlightRecorder;
pub use hist::{bucket_bounds, Histogram, HistogramSnapshot};
pub use ledger::{Ledger, LedgerCell, Terminal};
