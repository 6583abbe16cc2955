//! The engine stats layer: lock-free counters recorded by the workers,
//! snapshotted into a plain [`EngineStats`] struct for reporting.
//!
//! Everything is an atomic or a lock-free [`Histogram`] so the hot path
//! never takes a lock for accounting: tier hits, cache hits/misses, the
//! submission-queue high-water mark, and log-bucketed latency
//! histograms (measured submit → completion with
//! [`std::time::Instant`]) — one overall, one per planning tier, one
//! for the failure path — answering p50/p90/p99/p999 instead of the
//! old min/mean/max sketch.
//!
//! The request ledger books through [`benes_obs::LedgerCell`], whose
//! snapshot never shows more terminal requests than submitted ones; the
//! histograms reconcile their own racy loads inside
//! [`Histogram::snapshot`]. Downstream consumers never see an
//! impossible snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use benes_obs::ledger::push_states;
use benes_obs::{
    Exposition, Histogram, HistogramSnapshot, Ledger, LedgerCell, MetricKind, Sample,
    Terminal,
};

use crate::breaker::BreakerState;
use crate::engine::{terminal, EngineError};
use crate::plan::Tier;

/// Which histogram a latency sample lands in besides the overall one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LatencyPath {
    /// The request completed on this tier.
    Tier(Tier),
    /// The request failed (plan error, misroute, exhausted reroutes,
    /// panic, injected failure).
    Failed,
    /// The request was shed or canceled without being executed
    /// (deadline, open breaker, drain/teardown cancellation).
    Shed,
}

/// Internal recorder shared by the workers. The request ledger is a
/// [`LedgerCell`] (its own Release/Acquire rules); every other counter
/// is a relaxed monotonic tally read only in snapshots.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    ledger: LedgerCell,
    tier_cached: AtomicU64,
    tier_self_route: AtomicU64,
    tier_omega_bit: AtomicU64,
    tier_factored: AtomicU64,
    tier_waksman: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_high_water: AtomicU64,
    latency: Histogram,
    tier_latency: [Histogram; Tier::ALL.len()],
    failed_latency: Histogram,
    faults_injected: AtomicU64,
    faults_detected: AtomicU64,
    reroutes_succeeded: AtomicU64,
    reroutes_failed: AtomicU64,
    fault_retries: AtomicU64,
    static_validated: AtomicU64,
    deadline_exceeded: AtomicU64,
    breaker_shed: AtomicU64,
    breaker_opened: AtomicU64,
    breaker_reclosed: AtomicU64,
    breaker_probes: AtomicU64,
    shed_latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    /// Per-tenant request ledgers, keyed by tenant id. Only requests
    /// submitted through the tagged API land here; the mutex is taken
    /// once per tagged request for one integer bump.
    tenants: Mutex<HashMap<u64, Ledger>>,
}

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Cached => 0,
        Tier::SelfRoute => 1,
        Tier::OmegaBit => 2,
        Tier::Factored => 3,
        Tier::Waksman => 4,
    }
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Locks the tenant ledger map, recovering from poison (the cells
    /// are plain counters; a panicked holder cannot tear them).
    fn lock_tenants(&self) -> MutexGuard<'_, HashMap<u64, Ledger>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn note_submitted(&self, tenant: Option<u64>) {
        self.ledger.admit();
        if let Some(t) = tenant {
            self.lock_tenants().entry(t).or_default().submitted += 1;
        }
    }

    /// Books one admitted request's terminal state, engine-wide and in
    /// its tenant's ledger.
    pub(crate) fn note_terminal(&self, tenant: Option<u64>, state: Terminal) {
        self.ledger.finish(state);
        if let Some(t) = tenant {
            self.lock_tenants().entry(t).or_default().finish(state);
        }
    }

    /// Books one request's outcome (see [`crate::terminal`]) plus its
    /// shed reason, and names the latency histogram it lands in.
    pub(crate) fn note_outcome(
        &self,
        tenant: Option<u64>,
        result: &Result<Tier, EngineError>,
    ) -> LatencyPath {
        let state = terminal(result);
        self.note_terminal(tenant, state);
        match result {
            Err(EngineError::DeadlineExceeded) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(EngineError::BreakerOpen) => {
                self.breaker_shed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        match (result, state) {
            (Ok(tier), _) => LatencyPath::Tier(*tier),
            (Err(_), Terminal::Failed) => LatencyPath::Failed,
            // Cancellations share the shed histogram: both measure how
            // long a request sat queued before the engine gave up on it.
            (Err(_), _) => LatencyPath::Shed,
        }
    }

    pub(crate) fn note_tier(&self, tier: Tier) {
        let counter = match tier {
            Tier::Cached => &self.tier_cached,
            Tier::SelfRoute => &self.tier_self_route,
            Tier::OmegaBit => &self.tier_omega_bit,
            Tier::Factored => &self.tier_factored,
            Tier::Waksman => &self.tier_waksman,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn note_faults_injected(&self, count: u64) {
        self.faults_injected.fetch_add(count, Ordering::Relaxed);
    }

    pub(crate) fn note_fault_detected(&self) {
        self.faults_detected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reroute(&self, succeeded: bool) {
        if succeeded {
            self.reroutes_succeeded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reroutes_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_fault_retry(&self) {
        self.fault_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_static_validation(&self) {
        self.static_validated.fetch_add(1, Ordering::Relaxed);
    }

    /// One submission refused admission (queue full or wait timed out);
    /// rejected requests are never counted as submitted.
    pub(crate) fn note_rejected(&self, tenant: Option<u64>) {
        self.ledger.reject();
        if let Some(t) = tenant {
            self.lock_tenants().entry(t).or_default().rejected += 1;
        }
    }

    pub(crate) fn note_breaker_opened(&self) {
        self.breaker_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_breaker_reclosed(&self) {
        self.breaker_reclosed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_breaker_probe(&self) {
        self.breaker_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one submit→terminal latency. The sample lands in the
    /// overall histogram plus the histogram matching its path (tier /
    /// failed / shed).
    /// Records how long a request sat queued before a worker dequeued
    /// it (submit → dequeue).
    pub(crate) fn note_queue_wait_ns(&self, ns: u64) {
        self.queue_wait.record(ns);
    }

    /// Records how long a worker actually spent on a request
    /// (dequeue → terminal).
    pub(crate) fn note_service_ns(&self, ns: u64) {
        self.service.record(ns);
    }

    pub(crate) fn note_latency_ns(&self, ns: u64, path: LatencyPath) {
        self.latency.record(ns);
        match path {
            LatencyPath::Tier(tier) => self.tier_latency[tier_index(tier)].record(ns),
            LatencyPath::Failed => self.failed_latency.record(ns),
            LatencyPath::Shed => self.shed_latency.record(ns),
        }
    }

    pub(crate) fn snapshot(&self) -> EngineStats {
        // The tenant ledgers are copied *before* the engine-wide ledger
        // for the same reason a `LedgerCell` loads terminals before
        // `submitted`: every per-tenant bump happens under one mutex
        // after its engine-wide sibling, so copying the map first can
        // only under-report, never over-report, against the totals.
        let mut tenants: Vec<(u64, Ledger)> =
            self.lock_tenants().iter().map(|(t, l)| (*t, *l)).collect();
        tenants.sort_unstable_by_key(|(t, _)| *t);
        let ledger = self.ledger.snapshot();
        EngineStats {
            submitted: ledger.submitted,
            completed: ledger.completed,
            failed: ledger.failed,
            shed: ledger.shed,
            canceled: ledger.canceled,
            rejected: ledger.rejected,
            cached: self.tier_cached.load(Ordering::Relaxed),
            self_route: self.tier_self_route.load(Ordering::Relaxed),
            omega_bit: self.tier_omega_bit.load(Ordering::Relaxed),
            factored: self.tier_factored.load(Ordering::Relaxed),
            waksman: self.tier_waksman.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            tier_latency: Tier::ALL
                .iter()
                .map(|&t| (t, self.tier_latency[tier_index(t)].snapshot()))
                .collect(),
            failed_latency: self.failed_latency.snapshot(),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            faults_detected: self.faults_detected.load(Ordering::Relaxed),
            reroutes_succeeded: self.reroutes_succeeded.load(Ordering::Relaxed),
            reroutes_failed: self.reroutes_failed.load(Ordering::Relaxed),
            fault_retries: self.fault_retries.load(Ordering::Relaxed),
            static_validated: self.static_validated.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            breaker_shed: self.breaker_shed.load(Ordering::Relaxed),
            breaker_opened: self.breaker_opened.load(Ordering::Relaxed),
            breaker_reclosed: self.breaker_reclosed.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            shed_latency: self.shed_latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            breaker_states: Vec::new(),
            queue_depth: 0,
            tenants,
        }
    }
}

/// The quantiles every latency report and exposition answers.
const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// A point-in-time snapshot of the engine's counters and latency
/// histograms.
///
/// Obtained from [`crate::Engine::stats`]; the counters are plain
/// numbers and the latency distributions are
/// [`HistogramSnapshot`]s, so the snapshot is diffable, printable
/// (see [`EngineStats::report`]) and exportable (see
/// [`EngineStats::exposition`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that completed with a correct routing.
    pub completed: u64,
    /// Requests that failed (unroutable length, misroute, worker loss).
    pub failed: u64,
    /// Requests served by replaying a cached plan.
    pub cached: u64,
    /// Requests served by the zero-set-up self-routing tier (`F(n)`).
    pub self_route: u64,
    /// Requests served with the omega bit asserted (`Ω(n) \ F(n)`).
    pub omega_bit: u64,
    /// Requests served by a fresh `Ω⁻¹ · Ω` factorization.
    pub factored: u64,
    /// Requests served by a fresh Waksman set-up.
    pub waksman: u64,
    /// Plan-cache lookups that found a usable plan.
    pub cache_hits: u64,
    /// Plan-cache lookups that missed (or collided).
    pub cache_misses: u64,
    /// The deepest the submission queue ever got (sampled on both
    /// submit and worker dequeue).
    pub queue_high_water: u64,
    /// Submit→completion latency distribution over all requests,
    /// nanoseconds.
    pub latency: HistogramSnapshot,
    /// Latency distribution per planning tier, in [`Tier::ALL`] order
    /// (only completed requests land here).
    pub tier_latency: Vec<(Tier, HistogramSnapshot)>,
    /// Latency distribution of failed requests.
    pub failed_latency: HistogramSnapshot,
    /// Switch faults registered through the injection API.
    pub faults_injected: u64,
    /// Requests whose execution failed while faults were registered
    /// (each triggers the reroute ladder).
    pub faults_detected: u64,
    /// Detected faults the engine planned around successfully.
    pub reroutes_succeeded: u64,
    /// Detected faults no fault-avoiding plan could serve.
    pub reroutes_failed: u64,
    /// Extra reroute attempts taken after a fault-avoiding plan itself
    /// failed execution (the fault registry changed mid-flight).
    pub fault_retries: u64,
    /// Cached plans validated against the fault registry by the static
    /// agreement check (`FaultSet::agrees_with`) instead of a replay.
    pub static_validated: u64,
    /// Admitted requests shed without execution (deadline expiry plus
    /// open-breaker sheds). A terminal state, disjoint from
    /// `completed`/`failed`/`canceled`:
    /// `completed + failed + shed + canceled == submitted` once the
    /// engine is quiescent.
    pub shed: u64,
    /// Requests shed at dequeue because their deadline had already
    /// passed (subset of `shed`).
    pub deadline_exceeded: u64,
    /// Requests shed at admission because their order's circuit
    /// breaker was open (subset of `shed`).
    pub breaker_shed: u64,
    /// Admitted requests canceled by [`crate::Engine::drain`] or
    /// engine teardown before a worker served them.
    pub canceled: u64,
    /// Submissions refused admission (bounded queue full, or
    /// `submit_wait` timed out). Rejected requests are **not** counted
    /// in `submitted`.
    pub rejected: u64,
    /// Times a breaker tripped open (threshold reached or a failed
    /// half-open probe).
    pub breaker_opened: u64,
    /// Times a successful half-open probe re-closed a breaker.
    pub breaker_reclosed: u64,
    /// Half-open probe requests admitted.
    pub breaker_probes: u64,
    /// Latency distribution of shed and canceled requests (submit →
    /// shed decision), nanoseconds.
    pub shed_latency: HistogramSnapshot,
    /// Queue-wait distribution: how long worker-served requests sat in
    /// the queue between submit and dequeue, nanoseconds.
    pub queue_wait: HistogramSnapshot,
    /// Service-time distribution: dequeue → terminal state for
    /// worker-served requests, nanoseconds. `latency ≈ queue_wait +
    /// service` per request; a deep backlog inflates only the former.
    pub service: HistogramSnapshot,
    /// Current breaker state per served network order (filled by
    /// [`crate::Engine::stats`]; empty on a bare recorder snapshot).
    pub breaker_states: Vec<(u32, BreakerState)>,
    /// Current submission-queue depth (filled by
    /// [`crate::Engine::stats`]; 0 on a bare recorder snapshot).
    pub queue_depth: u64,
    /// Per-tenant request ledgers, sorted by tenant id. Only requests
    /// submitted through [`crate::Engine::try_submit_to`] with a tenant
    /// tag land here; untagged traffic leaves this empty.
    pub tenants: Vec<(u64, Ledger)>,
}

impl EngineStats {
    /// Fastest submit→completion latency observed, nanoseconds.
    #[must_use]
    pub fn latency_min_ns(&self) -> u64 {
        self.latency.min()
    }

    /// Slowest submit→completion latency observed, nanoseconds.
    #[must_use]
    pub fn latency_max_ns(&self) -> u64 {
        self.latency.max()
    }

    /// Mean submit→completion latency, nanoseconds (always inside
    /// `[min, max]`).
    #[must_use]
    pub fn latency_mean_ns(&self) -> u64 {
        self.latency.mean()
    }

    /// The latency distribution of one tier (empty snapshot if the
    /// tier never served).
    #[must_use]
    pub fn tier_latency(&self, tier: Tier) -> HistogramSnapshot {
        self.tier_latency
            .iter()
            .find(|(t, _)| *t == tier)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    /// The fraction of cache lookups that hit, in `[0, 1]` (0 when no
    /// lookups happened).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The fraction of completed requests that paid **zero set-up on
    /// this request** (self-route, omega-bit, or cache replay).
    #[must_use]
    pub fn zero_setup_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.cached + self.self_route + self.omega_bit) as f64 / self.completed as f64
    }

    /// Whether the engine has seen fault activity (injection, detection
    /// or rerouting); when true, [`EngineStats::report`] appends a
    /// degraded-mode section.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.faults_injected > 0
            || self.faults_detected > 0
            || self.reroutes_succeeded > 0
            || self.reroutes_failed > 0
            || self.fault_retries > 0
            || self.static_validated > 0
    }

    /// Whether the engine has seen overload or lifecycle activity
    /// (sheds, cancellations, rejections or breaker transitions); when
    /// true, [`EngineStats::report`] appends an overload section.
    #[must_use]
    pub fn is_overloaded(&self) -> bool {
        self.shed > 0
            || self.canceled > 0
            || self.rejected > 0
            || self.breaker_opened > 0
            || self.breaker_probes > 0
    }

    /// The engine-wide request ledger.
    #[must_use]
    pub fn ledger(&self) -> Ledger {
        Ledger {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            canceled: self.canceled,
            rejected: self.rejected,
        }
    }

    /// [`Ledger::conserves_requests`] on [`EngineStats::ledger`]: exact
    /// once the engine is quiescent (drained or idle).
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.ledger().conserves_requests()
    }

    /// A human-readable multi-line report (used by `benes-cli engine`).
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: {} submitted, {} completed, {} failed\n",
            self.submitted, self.completed, self.failed
        ));
        out.push_str("tier hits:\n");
        for (name, count) in [
            ("cached", self.cached),
            ("self-route", self.self_route),
            ("omega-bit", self.omega_bit),
            ("factored", self.factored),
            ("waksman", self.waksman),
        ] {
            out.push_str(&format!("  {name:<11} {count}\n"));
        }
        out.push_str(&format!(
            "plan cache: {} hits, {} misses ({:.1}% hit rate)\n",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        ));
        out.push_str(&format!(
            "zero-set-up service rate: {:.1}%\n",
            100.0 * self.zero_setup_rate()
        ));
        out.push_str(&format!(
            "queue depth: {} (high-water mark {})\n",
            self.queue_depth, self.queue_high_water
        ));
        if !self.queue_wait.is_empty() {
            out.push_str(&format!(
                "queue wait (ns): p50 {} / p99 {} ({} requests)\n",
                self.queue_wait.quantile(0.5),
                self.queue_wait.quantile(0.99),
                self.queue_wait.count()
            ));
        }
        if !self.service.is_empty() {
            out.push_str(&format!(
                "service time (ns): p50 {} / p99 {} ({} requests)\n",
                self.service.quantile(0.5),
                self.service.quantile(0.99),
                self.service.count()
            ));
        }
        out.push_str(&format!(
            "latency (ns): min {} / p50 {} / p90 {} / p99 {} / p999 {} / mean {} / max {}\n",
            self.latency.min(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.9),
            self.latency.quantile(0.99),
            self.latency.quantile(0.999),
            self.latency.mean(),
            self.latency.max(),
        ));
        let served: Vec<_> =
            self.tier_latency.iter().filter(|(_, s)| !s.is_empty()).collect();
        if !served.is_empty() {
            out.push_str("per-tier latency (ns):\n");
            for (tier, s) in served {
                out.push_str(&format!(
                    "  {:<11} p50 {} / p99 {} ({} requests)\n",
                    tier.name(),
                    s.quantile(0.5),
                    s.quantile(0.99),
                    s.count()
                ));
            }
        }
        if !self.failed_latency.is_empty() {
            out.push_str(&format!(
                "failed-path latency (ns): p50 {} / p99 {} ({} requests)\n",
                self.failed_latency.quantile(0.5),
                self.failed_latency.quantile(0.99),
                self.failed_latency.count()
            ));
        }
        if self.is_degraded() {
            out.push_str("degraded mode (fault activity observed):\n");
            out.push_str(&format!("  faults injected    {}\n", self.faults_injected));
            out.push_str(&format!("  faults detected    {}\n", self.faults_detected));
            out.push_str(&format!(
                "  reroutes           {} succeeded / {} failed\n",
                self.reroutes_succeeded, self.reroutes_failed
            ));
            out.push_str(&format!("  fault retries      {}\n", self.fault_retries));
            out.push_str(&format!(
                "  static validations {} (cached plans cleared without replay)\n",
                self.static_validated
            ));
        }
        if self.is_overloaded() {
            out.push_str("overload & lifecycle:\n");
            out.push_str(&format!(
                "  shed               {} ({} deadline-expired, {} breaker)\n",
                self.shed, self.deadline_exceeded, self.breaker_shed
            ));
            out.push_str(&format!("  canceled           {}\n", self.canceled));
            out.push_str(&format!(
                "  rejected           {} (queue full / wait timeout)\n",
                self.rejected
            ));
            out.push_str(&format!(
                "  breaker            {} opened / {} re-closed / {} probes\n",
                self.breaker_opened, self.breaker_reclosed, self.breaker_probes
            ));
            if !self.breaker_states.is_empty() {
                out.push_str("  breaker state     ");
                for (n, state) in &self.breaker_states {
                    out.push_str(&format!(" B({n})={state}"));
                }
                out.push('\n');
            }
            if !self.shed_latency.is_empty() {
                out.push_str(&format!(
                    "  shed latency (ns): p50 {} / p99 {} ({} requests)\n",
                    self.shed_latency.quantile(0.5),
                    self.shed_latency.quantile(0.99),
                    self.shed_latency.count()
                ));
            }
        }
        if !self.tenants.is_empty() {
            out.push_str("per-tenant ledgers:\n");
            for (t, s) in &self.tenants {
                out.push_str(&format!(
                    "  tenant {t}: {} submitted, {} completed, {} failed, \
                     {} shed, {} canceled, {} rejected\n",
                    s.submitted, s.completed, s.failed, s.shed, s.canceled, s.rejected
                ));
            }
        }
        out
    }

    /// The full metrics snapshot as a [`benes_obs::Exposition`], ready
    /// to render as Prometheus text or JSON (see `benes-cli obs` and
    /// the `obs_service` example).
    #[must_use]
    pub fn exposition(&self) -> Exposition {
        let mut e = Exposition::new();
        e.describe(
            "benes_requests_total",
            MetricKind::Counter,
            "Requests by terminal state.",
        );
        push_states(
            &mut e,
            &Sample::new("benes_requests_total", 0.0),
            &self.ledger().states(),
        );
        e.describe(
            "benes_shed_total",
            MetricKind::Counter,
            "Requests shed without execution, by reason.",
        );
        for (reason, v) in
            [("deadline", self.deadline_exceeded), ("breaker", self.breaker_shed)]
        {
            e.push(Sample::new("benes_shed_total", v as f64).label("reason", reason));
        }
        e.describe(
            "benes_breaker_total",
            MetricKind::Counter,
            "Circuit-breaker transitions and probes.",
        );
        for (event, v) in [
            ("opened", self.breaker_opened),
            ("reclosed", self.breaker_reclosed),
            ("probe", self.breaker_probes),
        ] {
            e.push(Sample::new("benes_breaker_total", v as f64).label("event", event));
        }
        if !self.breaker_states.is_empty() {
            e.describe(
                "benes_breaker_state",
                MetricKind::Gauge,
                "Current breaker state per order (0 closed, 1 open, 2 half-open).",
            );
            for (n, state) in &self.breaker_states {
                e.push(
                    Sample::new("benes_breaker_state", state.as_gauge())
                        .label("order", n.to_string()),
                );
            }
        }
        if !self.tenants.is_empty() {
            e.describe(
                "benes_tenant_requests_total",
                MetricKind::Counter,
                "Per-tenant requests by terminal state.",
            );
            for (t, l) in &self.tenants {
                let template = Sample::new("benes_tenant_requests_total", 0.0)
                    .label("tenant", t.to_string());
                push_states(&mut e, &template, &l.states());
            }
        }
        e.describe(
            "benes_tier_total",
            MetricKind::Counter,
            "Requests served per planning tier.",
        );
        for (tier, v) in [
            (Tier::Cached, self.cached),
            (Tier::SelfRoute, self.self_route),
            (Tier::OmegaBit, self.omega_bit),
            (Tier::Factored, self.factored),
            (Tier::Waksman, self.waksman),
        ] {
            e.push(Sample::new("benes_tier_total", v as f64).label("tier", tier.name()));
        }
        e.describe(
            "benes_cache_total",
            MetricKind::Counter,
            "Plan-cache lookups by result.",
        );
        e.push(
            Sample::new("benes_cache_total", self.cache_hits as f64).label("result", "hit"),
        );
        e.push(
            Sample::new("benes_cache_total", self.cache_misses as f64)
                .label("result", "miss"),
        );
        e.describe(
            "benes_queue_high_water",
            MetricKind::Gauge,
            "Deepest observed submission-queue depth.",
        );
        e.push(Sample::new("benes_queue_high_water", self.queue_high_water as f64));
        e.describe(
            "benes_queue_depth",
            MetricKind::Gauge,
            "Current submission-queue depth.",
        );
        e.push(Sample::new("benes_queue_depth", self.queue_depth as f64));
        e.describe(
            "benes_zero_setup_rate",
            MetricKind::Gauge,
            "Fraction of completed requests served with zero set-up.",
        );
        e.push(Sample::new("benes_zero_setup_rate", self.zero_setup_rate()));
        e.describe(
            "benes_faults_total",
            MetricKind::Counter,
            "Fault-tolerance events by kind.",
        );
        for (event, v) in [
            ("injected", self.faults_injected),
            ("detected", self.faults_detected),
            ("reroute_succeeded", self.reroutes_succeeded),
            ("reroute_failed", self.reroutes_failed),
            ("retry", self.fault_retries),
            ("static_validated", self.static_validated),
        ] {
            e.push(Sample::new("benes_faults_total", v as f64).label("event", event));
        }
        e.describe(
            "benes_latency_ns",
            MetricKind::Summary,
            "Submit-to-completion latency quantiles per path, nanoseconds.",
        );
        push_latency(&mut e, "all", &self.latency);
        for (tier, s) in &self.tier_latency {
            if !s.is_empty() {
                push_latency(&mut e, tier.name(), s);
            }
        }
        if !self.failed_latency.is_empty() {
            push_latency(&mut e, "failed", &self.failed_latency);
        }
        if !self.shed_latency.is_empty() {
            push_latency(&mut e, "shed", &self.shed_latency);
        }
        if !self.queue_wait.is_empty() {
            e.describe(
                "benes_queue_wait_ns",
                MetricKind::Summary,
                "Submit-to-dequeue wait quantiles, nanoseconds.",
            );
            push_summary(&mut e, "benes_queue_wait_ns", &self.queue_wait);
        }
        if !self.service.is_empty() {
            e.describe(
                "benes_service_ns",
                MetricKind::Summary,
                "Dequeue-to-completion service quantiles, nanoseconds.",
            );
            push_summary(&mut e, "benes_service_ns", &self.service);
        }
        e
    }
}

/// Emits one latency summary family (`quantile` samples plus
/// `_sum`/`_count`/`_min`/`_max`) labelled with its `path`.
fn push_latency(e: &mut Exposition, path: &str, s: &HistogramSnapshot) {
    for (q, label) in QUANTILES {
        e.push(
            Sample::new("benes_latency_ns", s.quantile(q) as f64)
                .label("path", path)
                .label("quantile", label),
        );
    }
    e.push(Sample::new("benes_latency_ns_sum", s.sum() as f64).label("path", path));
    e.push(Sample::new("benes_latency_ns_count", s.count() as f64).label("path", path));
    e.push(Sample::new("benes_latency_ns_min", s.min() as f64).label("path", path));
    e.push(Sample::new("benes_latency_ns_max", s.max() as f64).label("path", path));
}

/// Emits an unlabelled summary family (`quantile` samples plus
/// `_sum`/`_count`/`_min`/`_max`) under the given metric `name`.
fn push_summary(e: &mut Exposition, name: &str, s: &HistogramSnapshot) {
    for (q, label) in QUANTILES {
        e.push(Sample::new(name, s.quantile(q) as f64).label("quantile", label));
    }
    e.push(Sample::new(format!("{name}_sum"), s.sum() as f64));
    e.push(Sample::new(format!("{name}_count"), s.count() as f64));
    e.push(Sample::new(format!("{name}_min"), s.min() as f64));
    e.push(Sample::new(format!("{name}_max"), s.max() as f64));
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_snapshots_to_zeros() {
        let r = Recorder::new();
        let s = r.snapshot();
        assert_eq!(s.submitted, 0);
        assert_eq!(s.latency_min_ns(), 0);
        assert_eq!(s.latency_max_ns(), 0);
        assert_eq!(s.latency_mean_ns(), 0);
        assert!(s.latency.is_empty());
        assert!(s.failed_latency.is_empty());
        assert!(s.tier_latency.iter().all(|(_, h)| h.is_empty()));
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.zero_setup_rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let r = Recorder::new();
        r.note_submitted(None);
        r.note_submitted(None);
        r.note_terminal(None, Terminal::Completed);
        r.note_terminal(None, Terminal::Failed);
        r.note_tier(Tier::SelfRoute);
        r.note_tier(Tier::Cached);
        r.note_tier(Tier::Waksman);
        r.note_cache(true);
        r.note_cache(false);
        r.note_queue_depth(3);
        r.note_queue_depth(7);
        r.note_queue_depth(5);
        r.note_latency_ns(100, LatencyPath::Tier(Tier::SelfRoute));
        r.note_latency_ns(300, LatencyPath::Failed);
        let s = r.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.self_route, 1);
        assert_eq!(s.cached, 1);
        assert_eq!(s.waksman, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.queue_high_water, 7);
        assert_eq!(s.latency_min_ns(), 100);
        assert_eq!(s.latency_max_ns(), 300);
        assert_eq!(s.latency_mean_ns(), 200);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.tier_latency(Tier::SelfRoute).count(), 1);
        assert_eq!(s.tier_latency(Tier::SelfRoute).max(), 100);
        assert!(s.tier_latency(Tier::Waksman).is_empty());
        assert_eq!(s.failed_latency.count(), 1);
        assert_eq!(s.failed_latency.min(), 300);
        assert_eq!(s.cache_hit_rate(), 0.5);
    }

    #[test]
    fn report_mentions_every_tier() {
        let s = Recorder::new().snapshot();
        let text = s.report();
        for tier in crate::plan::Tier::ALL {
            assert!(text.contains(tier.name()), "report missing tier {tier}");
        }
    }

    #[test]
    fn report_carries_per_tier_quantiles() {
        let r = Recorder::new();
        for ns in [100, 110, 120] {
            r.note_latency_ns(ns, LatencyPath::Tier(Tier::SelfRoute));
        }
        for ns in [90_000, 100_000] {
            r.note_latency_ns(ns, LatencyPath::Tier(Tier::Waksman));
        }
        r.note_latency_ns(5_000, LatencyPath::Failed);
        let text = r.snapshot().report();
        assert!(text.contains("per-tier latency"));
        assert!(text.contains("p999"), "overall line reports the far tail");
        assert!(text.contains("failed-path latency"));
    }

    #[test]
    fn fault_counters_accumulate_and_gate_the_degraded_section() {
        let r = Recorder::new();
        assert!(!r.snapshot().is_degraded());
        assert!(!r.snapshot().report().contains("degraded"));
        r.note_faults_injected(2);
        r.note_fault_detected();
        r.note_reroute(true);
        r.note_reroute(true);
        r.note_reroute(false);
        r.note_fault_retry();
        r.note_static_validation();
        r.note_static_validation();
        let s = r.snapshot();
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.faults_detected, 1);
        assert_eq!(s.reroutes_succeeded, 2);
        assert_eq!(s.reroutes_failed, 1);
        assert_eq!(s.fault_retries, 1);
        assert_eq!(s.static_validated, 2);
        assert!(s.is_degraded());
        let text = s.report();
        assert!(text.contains("degraded mode"));
        assert!(text.contains("2 succeeded / 1 failed"));
        assert!(text.contains("static validations 2"));
    }

    #[test]
    fn tier_latencies_stay_separated() {
        let r = Recorder::new();
        for ns in [50, 60, 70] {
            r.note_latency_ns(ns, LatencyPath::Tier(Tier::SelfRoute));
        }
        for ns in [40_000, 50_000, 60_000] {
            r.note_latency_ns(ns, LatencyPath::Tier(Tier::Waksman));
        }
        let s = r.snapshot();
        let fast = s.tier_latency(Tier::SelfRoute);
        let slow = s.tier_latency(Tier::Waksman);
        assert!(fast.quantile(0.5) < slow.quantile(0.5));
        assert!(fast.quantile(0.99) < slow.quantile(0.99));
        assert_eq!(s.latency.count(), 6, "overall histogram sees every sample");
    }

    /// Regression for the snapshot consistency race: `snapshot()` loads
    /// each counter independently while workers keep counting, so a
    /// completion landing between the loads used to produce
    /// `completed + failed > submitted`. The load order plus clamp must
    /// hold the invariant under any interleaving.
    #[test]
    fn concurrent_snapshots_never_show_more_terminal_than_submitted() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let r = Arc::new(Recorder::new());
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        r.note_submitted(None);
                        if (i + w).is_multiple_of(16) {
                            r.note_terminal(None, Terminal::Failed);
                        } else {
                            r.note_terminal(None, Terminal::Completed);
                        }
                        r.note_latency_ns(
                            i % 1_000 + 1,
                            LatencyPath::Tier(Tier::SelfRoute),
                        );
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            let s = r.snapshot();
            assert!(
                s.completed + s.failed <= s.submitted,
                "terminal counts exceed submitted: {} + {} > {}",
                s.completed,
                s.failed,
                s.submitted
            );
            if !s.latency.is_empty() {
                assert!(s.latency_min_ns() <= s.latency_mean_ns());
                assert!(s.latency_mean_ns() <= s.latency_max_ns());
                assert!(s.latency_min_ns() != u64::MAX, "min sentinel leaked");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }
    }

    /// The high-water mark is a `fetch_max`: feeding lower depths later
    /// (as the dequeue-side sampling does constantly) must never move
    /// it down.
    #[test]
    fn queue_high_water_is_monotone() {
        let r = Recorder::new();
        let mut last = 0;
        for depth in [3u64, 9, 1, 0, 9, 4, 12, 2] {
            r.note_queue_depth(depth);
            let now = r.snapshot().queue_high_water;
            assert!(now >= last, "high water dropped from {last} to {now}");
            assert!(now >= depth.min(now));
            last = now;
        }
        assert_eq!(last, 12);
    }

    #[test]
    fn exposition_round_trips_through_both_parsers() {
        let r = Recorder::new();
        r.note_submitted(None);
        r.note_terminal(None, Terminal::Completed);
        r.note_tier(Tier::Waksman);
        r.note_cache(false);
        r.note_queue_depth(4);
        r.note_latency_ns(1_500, LatencyPath::Tier(Tier::Waksman));
        r.note_latency_ns(90, LatencyPath::Tier(Tier::SelfRoute));
        r.note_latency_ns(70_000, LatencyPath::Failed);
        let e = r.snapshot().exposition();
        let text = e.to_prometheus();
        assert!(text.contains("# TYPE benes_requests_total counter"));
        assert!(text.contains("benes_tier_total{tier=\"waksman\"} 1"));
        assert!(text.contains("benes_latency_ns{path=\"all\",quantile=\"0.99\"}"));
        assert!(text.contains("path=\"failed\""));
        let from_text = benes_obs::parse_prometheus(&text).expect("own text must parse");
        assert_eq!(from_text, e.samples());
        let from_json = benes_obs::parse_json(&e.to_json()).expect("own JSON must parse");
        assert_eq!(from_json, e.samples());
    }

    #[test]
    fn tenant_ledgers_track_and_conserve() {
        let r = Recorder::new();
        // Tenant 7: two submitted, one completed, one shed; one rejected
        // (rejected is outside the conservation sum — never admitted).
        r.note_submitted(Some(7));
        r.note_submitted(Some(7));
        r.note_terminal(Some(7), Terminal::Completed);
        r.note_terminal(Some(7), Terminal::Shed);
        r.note_rejected(Some(7));
        // Tenant 9: one submitted, one failed.
        r.note_submitted(Some(9));
        r.note_terminal(Some(9), Terminal::Failed);
        // Untagged traffic never touches the ledger.
        r.note_submitted(None);
        r.note_terminal(None, Terminal::Completed);
        r.note_rejected(None);

        let s = r.snapshot();
        assert_eq!(s.tenants.len(), 2);
        let (id7, t7) = s.tenants[0];
        let (id9, t9) = s.tenants[1];
        assert_eq!((id7, id9), (7, 9), "ledger is sorted by tenant id");
        assert_eq!(t7.submitted, 2);
        assert_eq!(t7.completed, 1);
        assert_eq!(t7.shed, 1);
        assert_eq!(t7.rejected, 1);
        assert!(t7.conserves_requests());
        assert_eq!(t9.failed, 1);
        assert!(t9.conserves_requests());

        let report = s.report();
        assert!(report.contains("per-tenant ledgers"), "report:\n{report}");
        let expo = s.exposition().to_prometheus();
        assert!(expo
            .contains("benes_tenant_requests_total{tenant=\"7\",state=\"submitted\"} 2"));
        assert!(
            expo.contains("benes_tenant_requests_total{tenant=\"9\",state=\"failed\"} 1")
        );
    }
}
