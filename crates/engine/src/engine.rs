//! The engine facade: configuration, the shared engine state, the
//! public submit/wait/drain API, and fault/chaos/breaker control.
//!
//! Every request travels: [`Engine::submit`] (or one of the bounded /
//! deadline variants) → shared queue (`crate::queue`) → worker batch
//! drain (`crate::worker`) → deadline check → circuit-breaker
//! admission → tier planning / cache lookup → execution on the worker's
//! memoized `B(n)` → outcome sent to the caller's [`Ticket`]. The queue
//! is one bounded `Mutex<VecDeque>` with two condvars
//! (`crate::queue`): submitters get **backpressure** instead of
//! unbounded memory growth once [`EngineConfig::max_queue_depth`] jobs
//! are queued, and workers drain *batches* under one lock acquisition.
//!
//! The request lifecycle has four terminal states, and every admitted
//! request reaches exactly one of them — the conservation invariant
//! `completed + failed + shed + canceled == submitted` the chaos
//! harness ([`crate::chaos`]) soaks against:
//!
//! * **completed** — routed and verified;
//! * **failed** — planned/executed but wrong (plan error, misroute,
//!   exhausted reroutes, panic, injected failure);
//! * **shed** — never executed: the deadline passed before dequeue
//!   ([`EngineError::DeadlineExceeded`]) or the order's circuit
//!   breaker was open ([`EngineError::BreakerOpen`]);
//! * **canceled** — admitted but torn down by [`Engine::drain`] or
//!   engine drop before a worker served it
//!   ([`EngineError::Canceled`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_core::faults::{FaultError, FaultKind, FaultSet};
use benes_obs::{FlightRecorder, Terminal};
use benes_perm::Permutation;

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::cache::PlanCache;
use crate::chaos::{ChaosConfig, ChaosState};
use crate::flightrec::RouteAttempt;
use crate::plan::{Fallback, PlanError, Tier};
use crate::queue::{Block, SubmissionQueue};
use crate::stats::{EngineStats, Recorder};
use crate::worker::{cancel_job, worker_loop};

pub use crate::queue::{
    Completion, DrainReport, Refused, RequestOutcome, Submission, SubmitError, Ticket,
};

/// Per-request submission options for [`Engine::try_submit_to`]:
/// everything the wire service needs to attach to a request beyond the
/// permutation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOpts {
    /// Shed the request if a worker dequeues it at or after this
    /// instant (see [`Engine::submit_with_deadline`]).
    pub deadline: Option<Instant>,
    /// Tag the request with a tenant namespace: its terminal state
    /// lands in the per-tenant ledger ([`crate::EngineStats::tenants`])
    /// and the flight record carries the tenant id.
    pub tenant: Option<u64>,
}

/// How many recent route attempts the flight recorder keeps.
const FLIGHT_CAPACITY: usize = 256;

/// Tuning knobs for [`Engine::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads draining the queue.
    pub workers: usize,
    /// Maximum number of requests a worker takes per queue drain.
    pub batch_size: usize,
    /// Total plan-cache capacity (entries across all shards).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards (rounded up to a
    /// power of two).
    pub cache_shards: usize,
    /// The expensive tier used for permutations outside `F(n) ∪ Ω(n)`.
    pub fallback: Fallback,
    /// Bounded admission: the deepest the submission queue may grow
    /// (4096 by default). Once that many requests are queued,
    /// [`Engine::try_submit`] rejects with [`SubmitError::QueueFull`]
    /// and [`Engine::submit`] blocks for space.
    pub max_queue_depth: usize,
    /// Per-order circuit breaker over the fault-reroute ladder;
    /// disabled by default (`failure_threshold == 0`).
    pub breaker: BreakerConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch_size: 16,
            cache_capacity: 1024,
            cache_shards: 8,
            fallback: Fallback::Waksman,
            max_queue_depth: 4096,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Error produced while serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The permutation cannot be planned (bad length / too large).
    Plan(PlanError),
    /// The executed plan did not realize the requested permutation.
    /// This indicates a bug (or injected fault) — the engine verifies
    /// every routing rather than trusting the planner.
    Misrouted,
    /// The worker serving the request disappeared before replying.
    WorkerLost,
    /// Execution failed under a registered fault set and the bounded
    /// reroute ladder could not produce a verified routing (the fault
    /// registry kept changing mid-flight).
    FaultDetected,
    /// The registered fault set makes this permutation unrealizable:
    /// the fault-avoiding planner proved no agreeing set-up exists.
    Unroutable,
    /// The job panicked inside the worker. The worker survives and the
    /// rest of its batch is still served.
    JobPanicked,
    /// The request's deadline passed before a worker dequeued it; it
    /// was shed without being planned or executed.
    DeadlineExceeded,
    /// The circuit breaker for this order was open; the request was
    /// shed without being planned or executed.
    BreakerOpen,
    /// The request was admitted but canceled by [`Engine::drain`] or
    /// engine teardown before a worker served it.
    Canceled,
    /// The chaos injector forced this request to fail (only possible
    /// while [`Engine::set_chaos`] is armed).
    Injected,
    /// The shard backend serving the request could not be reached:
    /// every transport attempt (retries, reconnects, failover targets)
    /// was exhausted. Produced by the remote shard fleet, never by the
    /// in-process engine itself.
    Unavailable,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Plan(e) => write!(f, "planning failed: {e}"),
            Self::Misrouted => write!(f, "executed plan did not realize the permutation"),
            Self::WorkerLost => {
                write!(f, "worker terminated before completing the request")
            }
            Self::FaultDetected => {
                write!(f, "execution failed under registered faults; reroutes exhausted")
            }
            Self::Unroutable => {
                write!(f, "no set-up realizing the permutation agrees with the fault set")
            }
            Self::JobPanicked => write!(f, "request panicked inside the worker"),
            Self::DeadlineExceeded => {
                write!(f, "deadline passed before the request was dequeued; shed")
            }
            Self::BreakerOpen => {
                write!(f, "circuit breaker open for this order; request shed")
            }
            Self::Canceled => {
                write!(f, "request canceled by engine drain before being served")
            }
            Self::Injected => write!(f, "chaos injector forced this request to fail"),
            Self::Unavailable => {
                write!(f, "shard backend unreachable after retries and failover")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}

/// The ledger state a request's outcome books as: a served tier is
/// completed, deadline and breaker sheds are shed, drain or teardown is
/// canceled, and every other error is failed. The engine's workers and
/// every shard backend book through this one mapping.
#[must_use]
pub fn terminal(result: &Result<Tier, EngineError>) -> Terminal {
    match result {
        Ok(_) => Terminal::Completed,
        Err(EngineError::DeadlineExceeded | EngineError::BreakerOpen) => Terminal::Shed,
        Err(EngineError::Canceled) => Terminal::Canceled,
        Err(_) => Terminal::Failed,
    }
}

/// The state one engine's submitters and workers share. Each [`Engine`]
/// owns exactly one `Shared` — nothing here is process-global, which is
/// what makes engines cheap to instantiate per shard.
pub(crate) struct Shared {
    /// The submission queue (admission, batching, shutdown).
    pub(crate) sub: SubmissionQueue,
    pub(crate) cache: PlanCache,
    pub(crate) recorder: Recorder,
    pub(crate) fallback: Fallback,
    pub(crate) batch_size: usize,
    /// Registered switch faults, one [`FaultSet`] per network order.
    /// Workers clone the `Arc` for the order they are serving, so fault
    /// injection never blocks an in-flight job.
    faults: Mutex<HashMap<u32, Arc<FaultSet>>>,
    /// Fast-path flag: `false` means the registry is empty and workers
    /// skip the registry lock entirely.
    degraded: AtomicBool,
    /// The last `K` route attempts, for post-mortems (`benes-cli obs
    /// flightrec`). Writes never block a worker.
    pub(crate) flight: FlightRecorder<RouteAttempt>,
    /// Breaker template; `failure_threshold == 0` disables breakers.
    breaker_cfg: BreakerConfig,
    /// One circuit breaker per network order served, created lazily.
    breakers: Mutex<HashMap<u32, Arc<Breaker>>>,
    /// The chaos injector seam (inert unless armed).
    pub(crate) chaos: ChaosState,
}

impl Shared {
    /// Locks the fault registry, recovering from poison (the map only
    /// holds immutable `Arc`s, so a panicked holder cannot leave a torn
    /// state behind).
    fn lock_faults(&self) -> MutexGuard<'_, HashMap<u32, Arc<FaultSet>>> {
        self.faults.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault set registered for order `n`, if any (cheap `None` when
    /// the whole registry is empty).
    pub(crate) fn fault_set(&self, n: u32) -> Option<Arc<FaultSet>> {
        if !self.degraded.load(Ordering::Acquire) {
            return None;
        }
        self.lock_faults().get(&n).cloned()
    }

    /// The breaker for order `n` (created on first use), or `None` when
    /// breakers are disabled. The registry guard is dropped before the
    /// caller touches the breaker's own lock.
    pub(crate) fn breaker(&self, n: u32) -> Option<Arc<Breaker>> {
        if self.breaker_cfg.failure_threshold == 0 {
            return None;
        }
        let mut registry = self.breakers.lock().unwrap_or_else(PoisonError::into_inner);
        Some(Arc::clone(
            registry
                .entry(n)
                .or_insert_with(|| Arc::new(Breaker::new(self.breaker_cfg.clone(), n))),
        ))
    }

    /// Every breaker's `(order, state)`, sorted by order. The registry
    /// guard is released before any breaker lock is taken.
    fn breaker_states(&self) -> Vec<(u32, BreakerState)> {
        let handles: Vec<(u32, Arc<Breaker>)> = {
            let registry = self.breakers.lock().unwrap_or_else(PoisonError::into_inner);
            registry.iter().map(|(n, b)| (*n, Arc::clone(b))).collect()
        };
        let mut states: Vec<(u32, BreakerState)> =
            handles.into_iter().map(|(n, b)| (n, b.state())).collect();
        states.sort_unstable_by_key(|(n, _)| *n);
        states
    }
}

/// The permutation-routing engine: tiered planner, sharded plan cache,
/// batched worker pool and stats, behind a submit/wait API with
/// bounded admission, per-request deadlines, per-order circuit
/// breakers and graceful drain.
///
/// Dropping the engine closes admission, lets the workers finish every
/// queued request, and joins them; any job stranded by a dead worker is
/// canceled (its ticket resolves with [`EngineError::Canceled`]), so
/// **no outstanding ticket can hang across drop**. For a bounded-time
/// shutdown that sheds instead of finishing, use [`Engine::drain`].
///
/// # Examples
///
/// ```
/// use benes_engine::{Engine, EngineConfig, Tier};
/// use benes_perm::bpc::Bpc;
///
/// let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
/// let transpose = Bpc::matrix_transpose(4).to_permutation();
/// let outcome = engine.submit(transpose).wait();
/// assert_eq!(outcome.tier(), Some(Tier::SelfRoute));
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    /// Worker handles, behind a mutex so [`Engine::drain`] can take
    /// `&self` (usable through an `Arc<Engine>` other threads are
    /// submitting to). Emptied exactly once, by the first teardown.
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: EngineConfig,
}

impl Engine {
    /// Spawns the worker pool described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `batch_size`, `max_queue_depth`,
    /// `cache_capacity` or `cache_shards` is zero.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        assert!(config.batch_size > 0, "batch size must be at least 1");
        let shared = Arc::new(Shared {
            sub: SubmissionQueue::new(config.max_queue_depth),
            cache: PlanCache::new(config.cache_capacity, config.cache_shards),
            recorder: Recorder::new(),
            fallback: config.fallback,
            batch_size: config.batch_size,
            faults: Mutex::new(HashMap::new()),
            degraded: AtomicBool::new(false),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            breaker_cfg: config.breaker.clone(),
            breakers: Mutex::new(HashMap::new()),
            chaos: ChaosState::default(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("benes-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers), config }
    }

    /// The configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Enqueues one routing request and returns its [`Ticket`].
    ///
    /// With the queue at [`EngineConfig::max_queue_depth`], this
    /// **blocks** until a worker makes space (use
    /// [`Engine::try_submit`] to be rejected instead, or
    /// [`Engine::submit_wait`] to bound the block). On a draining
    /// engine the returned ticket is already resolved with
    /// [`EngineError::Canceled`].
    pub fn submit(&self, perm: Permutation) -> Ticket {
        self.submit_with(perm, None)
    }

    /// [`Engine::submit`] with a deadline: a worker that dequeues the
    /// request at or after `deadline` sheds it — the ticket resolves
    /// with [`EngineError::DeadlineExceeded`] and the permutation is
    /// never planned or executed.
    pub fn submit_with_deadline(&self, perm: Permutation, deadline: Instant) -> Ticket {
        self.submit_with(perm, Some(deadline))
    }

    fn submit_with(&self, perm: Permutation, deadline: Option<Instant>) -> Ticket {
        let opts = SubmitOpts { deadline, tenant: None };
        match self.shared.sub.admit(&self.shared.recorder, perm, opts, Block::Forever) {
            Ok(ticket) => ticket,
            // Only `ShuttingDown` can escape a forever-blocking
            // enqueue; honour the infallible signature by handing back
            // a pre-canceled ticket.
            Err(_) => Ticket::resolved(RequestOutcome {
                result: Err(EngineError::Canceled),
                latency: Duration::ZERO,
            }),
        }
    }

    /// Non-blocking admission of a run of requests, each carrying its
    /// own [`SubmitOpts`] and completing through its own sink instead
    /// of a [`Ticket`] — the wire service's submission path. The run
    /// crosses the queue once: one lock for as many requests as fit,
    /// one wake. The requests stay separate jobs, so every idle worker
    /// can take some. The worker that finishes a request runs its sink
    /// with the outcome, so a reply needs no polling; a sink may itself
    /// call this again (the wire server's completions pump their
    /// backlog from the worker), since no sink runs under the queue
    /// lock.
    ///
    /// # Errors
    ///
    /// The refused tail, by value and in order, with its sinks not
    /// run: [`SubmitError::QueueFull`] once the bounded queue is full,
    /// [`SubmitError::ShuttingDown`] on a draining engine. Each refused
    /// request bumps its tenant's `rejected` ledger.
    pub fn try_submit_all_to(&self, jobs: Vec<Submission>) -> Result<(), Refused> {
        self.shared.sub.admit_all(&self.shared.recorder, jobs, Block::Never)
    }

    /// [`Engine::try_submit_all_to`] of one request. A refused
    /// submission drops `done` without running it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] on a full bounded queue,
    /// [`SubmitError::ShuttingDown`] on a draining engine.
    pub fn try_submit_to(
        &self,
        perm: Permutation,
        opts: SubmitOpts,
        done: Completion,
    ) -> Result<(), SubmitError> {
        self.try_submit_all_to(vec![(perm, opts, done)]).map_err(|(err, _)| err)
    }

    /// Non-blocking admission: rejects with [`SubmitError::QueueFull`]
    /// when the bounded queue is at depth, instead of blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] on a full bounded queue,
    /// [`SubmitError::ShuttingDown`] on a draining engine.
    pub fn try_submit(&self, perm: Permutation) -> Result<Ticket, SubmitError> {
        self.shared.sub.admit(
            &self.shared.recorder,
            perm,
            SubmitOpts::default(),
            Block::Never,
        )
    }

    /// Blocking admission with a bound: waits up to `timeout` for queue
    /// space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Timeout`] when no space appeared in time,
    /// [`SubmitError::ShuttingDown`] on a draining engine.
    pub fn submit_wait(
        &self,
        perm: Permutation,
        timeout: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.shared.sub.admit(
            &self.shared.recorder,
            perm,
            SubmitOpts::default(),
            Block::Until(Instant::now() + timeout),
        )
    }

    /// Enqueues many requests, returning one ticket per request in
    /// submission order.
    pub fn submit_all(&self, perms: impl IntoIterator<Item = Permutation>) -> Vec<Ticket> {
        perms.into_iter().map(|p| self.submit(p)).collect()
    }

    /// Submits a whole batch and blocks until every request completes;
    /// outcomes are in submission order.
    pub fn run_batch(
        &self,
        perms: impl IntoIterator<Item = Permutation>,
    ) -> Vec<RequestOutcome> {
        self.submit_all(perms).into_iter().map(Ticket::wait).collect()
    }

    /// A point-in-time snapshot of the engine counters, including the
    /// current state of every circuit breaker.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.shared.recorder.snapshot();
        stats.breaker_states = self.shared.breaker_states();
        stats.queue_depth = self.shared.sub.depth() as u64;
        stats
    }

    /// The circuit-breaker state for order `n`, or `None` when breakers
    /// are disabled or that fabric has not been served yet.
    #[must_use]
    pub fn breaker_state(&self, n: u32) -> Option<BreakerState> {
        self.shared
            .breaker_states()
            .into_iter()
            .find_map(|(order, state)| (order == n).then_some(state))
    }

    /// Arms the chaos injector: subsequent requests are delayed /
    /// forced to fail per `chaos`'s seeded rates, until
    /// [`Engine::clear_chaos`]. Forced failures surface as
    /// [`EngineError::Injected`] and count toward the circuit breaker
    /// like real fabric damage.
    pub fn set_chaos(&self, chaos: ChaosConfig) {
        self.shared.chaos.arm(chaos);
    }

    /// Disarms the chaos injector; requests already dequeued may still
    /// carry an injected decision.
    pub fn clear_chaos(&self) {
        self.shared.chaos.disarm();
    }

    /// The number of plans currently held by the cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Injects one switch fault into the `B(n)` fabric the engine
    /// routes on. Requests already in flight may still execute against
    /// the old fault set; every retry re-reads the registry.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::OutOfRange`] if `(stage, switch)` does not
    /// name a switch of `B(n)`.
    pub fn inject_fault(
        &self,
        n: u32,
        stage: usize,
        switch: usize,
        kind: FaultKind,
    ) -> Result<(), FaultError> {
        let mut registry = self.shared.lock_faults();
        let mut set = registry.get(&n).map_or_else(|| FaultSet::new(n), |s| (**s).clone());
        set.insert(stage, switch, kind)?;
        registry.insert(n, Arc::new(set));
        drop(registry);
        self.shared.degraded.store(true, Ordering::Release);
        self.shared.recorder.note_faults_injected(1);
        Ok(())
    }

    /// Replaces the registered fault set for `faults.n()` wholesale —
    /// the campaign entry point (`FaultSet::random_stuck` + `set_faults`
    /// is one injection round).
    ///
    /// An empty `faults` clears that order's registration.
    pub fn set_faults(&self, faults: FaultSet) {
        let injected = faults.len() as u64;
        let n = faults.n();
        let mut registry = self.shared.lock_faults();
        if faults.is_empty() {
            registry.remove(&n);
        } else {
            registry.insert(n, Arc::new(faults));
        }
        let degraded = !registry.is_empty();
        drop(registry);
        self.shared.degraded.store(degraded, Ordering::Release);
        if injected > 0 {
            self.shared.recorder.note_faults_injected(injected);
        }
    }

    /// Heals the fabric: removes every registered fault, for every
    /// order.
    pub fn clear_faults(&self) {
        self.shared.lock_faults().clear();
        self.shared.degraded.store(false, Ordering::Release);
    }

    /// The fault set currently registered for order `n`, if any.
    #[must_use]
    pub fn fault_set(&self, n: u32) -> Option<Arc<FaultSet>> {
        self.shared.fault_set(n)
    }

    /// The most recent route attempts from the flight recorder, newest
    /// first, at most `k`. Failed attempts carry the full per-stage
    /// [`benes_core::trace::RouteTrace`] of the plan that misrouted.
    #[must_use]
    pub fn flight_records(&self, k: usize) -> Vec<RouteAttempt> {
        self.shared.flight.recent(k)
    }

    /// How many flight records were dropped because their ring slot was
    /// contended at write time (the recorder never blocks a worker).
    #[must_use]
    pub fn flight_dropped(&self) -> u64 {
        self.shared.flight.dropped()
    }

    /// Graceful shutdown: closes admission immediately, lets workers
    /// finish queued requests until `deadline`, then sheds whatever is
    /// still queued (each shed ticket resolves with
    /// [`EngineError::Canceled`]), joins every worker, and sweeps up
    /// jobs stranded by dead workers. After `drain` returns no worker
    /// is running and **every** outstanding ticket has an outcome.
    ///
    /// Draining twice (or dropping a drained engine) is a no-op.
    pub fn drain(&self, deadline: Instant) -> DrainReport {
        self.teardown(Some(deadline))
    }

    /// Shared shutdown path for [`Engine::drain`] and `Drop`.
    /// `deadline: None` means "finish everything queued" (historical
    /// drop semantics); `Some` bounds the wait and cancels the rest.
    /// The workers mutex is held throughout, serializing concurrent
    /// teardowns (the second becomes a no-op).
    fn teardown(&self, deadline: Option<Instant>) -> DrainReport {
        let mut report = DrainReport::default();
        // Must recover from poison, not `.expect`: if a worker panicked
        // while holding a lock, panicking again here — typically while
        // the original panic is still unwinding — aborts the whole
        // process. Shutdown must always proceed.
        let mut handles = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        if handles.is_empty() {
            return report; // already drained
        }
        let (stranded, timed_out) = self.shared.sub.shut_down(deadline);
        report.timed_out = timed_out;
        for job in stranded {
            cancel_job(&self.shared, job);
            report.canceled += 1;
        }
        for handle in handles.drain(..) {
            // Join fails only for a worker that panicked, which the
            // failure stats already counted; shutdown proceeds anyway.
            // analyze:allow(discarded-result): worker panic already counted
            let _ = handle.join();
        }
        // Post-join sweep: a worker that died (panicked outside the
        // per-job containment) may have left work queued with no one
        // to serve it. Cancel it so no ticket hangs.
        for job in self.shared.sub.sweep() {
            cancel_job(&self.shared, job);
            report.canceled += 1;
        }
        report
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Historical drop semantics: finish every queued request
        // (deadline `None`), then cancel only what dead workers
        // stranded. The report is meaningless to a destructor.
        // analyze:allow(discarded-result): drop has no caller to report to
        let _ = self.teardown(None);
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("cache_len", &self.cache_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CACHE_MIN_ORDER;
    use crate::flightrec::LadderStep;
    use crate::plan::{Plan, Tier};
    use crate::worker::{capture_trace, test_hooks};
    use crate::workload::Rng64;
    use benes_core::trace::{RouteTrace, TraceMode};
    use benes_core::{Benes, Control, SwitchState};
    use benes_perm::bpc::Bpc;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    /// A fixed witness outside `F(3) ∪ Ω(3)`.
    fn hard_witness() -> Permutation {
        p(&[2, 5, 3, 7, 1, 6, 4, 0])
    }

    /// A fixed permutation outside `F(n) ∪ Ω(n)` at the smallest order
    /// whose fresh plans the cache admits.
    fn cacheable_witness() -> Permutation {
        crate::workload::hard_permutation(&mut Rng64::new(0xcac4e), CACHE_MIN_ORDER)
    }

    #[test]
    fn repeated_hard_permutation_hits_the_cache() {
        // Acceptance criterion (a): a repeated non-F(n) permutation is
        // served from the plan cache on its second submission.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let hard = cacheable_witness();
        let first = engine.submit(hard.clone()).wait();
        assert_eq!(first.tier(), Some(Tier::Waksman));
        let second = engine.submit(hard).wait();
        assert_eq!(second.tier(), Some(Tier::Cached));
        let stats = engine.stats();
        assert_eq!(stats.waksman, 1);
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn fresh_plans_below_the_admission_order_are_not_cached() {
        // Below CACHE_MIN_ORDER an insert costs more than the set-up the
        // expected hits would save: a repeat pays set-up again and the
        // cache stays empty.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let hard = hard_witness();
        const { assert!(3 < CACHE_MIN_ORDER) };
        assert_eq!(engine.submit(hard.clone()).wait().tier(), Some(Tier::Waksman));
        assert_eq!(engine.submit(hard).wait().tier(), Some(Tier::Waksman));
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.stats().cache_misses, 2, "every request still looks up");
    }

    #[test]
    fn self_route_tier_is_never_cached() {
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let rev = Bpc::bit_reversal(4).to_permutation();
        assert_eq!(engine.submit(rev.clone()).wait().tier(), Some(Tier::SelfRoute));
        assert_eq!(engine.submit(rev).wait().tier(), Some(Tier::SelfRoute));
        assert_eq!(engine.cache_len(), 0, "zero-set-up plans are not cached");
    }

    #[test]
    fn factored_fallback_serves_and_caches() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            fallback: Fallback::Factored,
            ..EngineConfig::default()
        });
        let hard = cacheable_witness();
        assert_eq!(engine.submit(hard.clone()).wait().tier(), Some(Tier::Factored));
        assert_eq!(engine.submit(hard).wait().tier(), Some(Tier::Cached));
    }

    #[test]
    fn unroutable_length_fails_cleanly() {
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let outcome = engine.submit(p(&[2, 0, 1])).wait();
        assert_eq!(
            outcome.result,
            Err(EngineError::Plan(PlanError::UnsupportedLength { len: 3 }))
        );
        let stats = engine.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn run_batch_preserves_submission_order_and_mixed_sizes() {
        let engine = Engine::new(EngineConfig::default());
        let batch = vec![
            Bpc::bit_reversal(3).to_permutation(), // n = 3, self-route
            hard_witness(),                        // n = 3, waksman
            Permutation::identity(16),             // n = 4, self-route
            hard_witness(),                        // may hit cache
        ];
        let outcomes = engine.run_batch(batch);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(RequestOutcome::is_ok));
        assert_eq!(outcomes[0].tier(), Some(Tier::SelfRoute));
        assert_eq!(outcomes[2].tier(), Some(Tier::SelfRoute));
        // Request 3 repeats request 1; depending on worker interleaving
        // it is either a fresh Waksman plan or a cache replay.
        assert!(matches!(outcomes[3].tier(), Some(Tier::Waksman | Tier::Cached)));
    }

    #[test]
    fn queued_work_completes_before_drop_finishes() {
        let outcomes: Vec<Ticket> = {
            let engine =
                Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
            let tickets =
                engine.submit_all((0..64).map(|_| Bpc::unshuffle(5).to_permutation()));
            // Engine dropped here with requests possibly still queued.
            tickets
        };
        for t in outcomes {
            assert!(t.wait().is_ok(), "drop must drain the queue, not abandon it");
        }
    }

    #[test]
    fn drop_survives_poisoned_queue_lock() {
        // Regression: Engine::drop used `.expect("engine queue
        // poisoned")`. A worker that panicked while holding the queue
        // lock poisoned it, and dropping the engine then panicked again
        // → process abort. Poison the lock deliberately and verify both
        // a later submit and the drop itself complete.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let shared = Arc::clone(&engine.shared);
        std::thread::spawn(move || {
            let _guard = shared.sub.queue.lock().unwrap();
            panic!("poison the engine queue on purpose");
        })
        .join()
        .unwrap_err();
        assert!(engine.shared.sub.queue.is_poisoned(), "setup must actually poison");
        // Submit still works through the poisoned (but consistent) lock…
        let outcome = engine.submit(Bpc::bit_reversal(3).to_permutation()).wait();
        assert_eq!(outcome.tier(), Some(Tier::SelfRoute));
        // …and the drop at end of scope must not abort the process.
        drop(engine);
    }

    #[test]
    fn corrupt_cached_plan_is_evicted_after_one_failed_replay() {
        // Regression: a cached plan failing replay was replanned but the
        // corrupt entry stayed. For a self-routable permutation the
        // fresh plan is NOT cacheable, so nothing ever overwrote the
        // entry and every future request re-paid a failed replay.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let rev = Bpc::bit_reversal(3).to_permutation();
        // Plant a corrupt plan: all-straight settings realize the
        // identity, not the bit reversal.
        let corrupt = Plan::Settings(benes_core::SwitchSettings::all_straight(3));
        engine.shared.cache.insert(&rev, Arc::new(corrupt));
        assert_eq!(engine.cache_len(), 1);

        let outcome = engine.submit(rev.clone()).wait();
        assert_eq!(outcome.tier(), Some(Tier::SelfRoute), "replanned and served");
        assert_eq!(engine.cache_len(), 0, "corrupt entry must be evicted");

        // The next request is a clean miss, not another failed replay.
        assert_eq!(engine.submit(rev).wait().tier(), Some(Tier::SelfRoute));
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "only the corrupt replay hit");
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn panicking_job_yields_error_outcome_and_worker_survives() {
        // Regression: a panic inside serve_one killed the worker without
        // replying to the rest of its drained batch; with one worker the
        // queue then hung until engine drop. The bomb permutation is
        // unique to this test (the hook statics are process-wide).
        let bomb = Permutation::from_fn(32, |i| (i + 7) % 32).unwrap();
        test_hooks::PANIC_ON_FINGERPRINT.store(bomb.fingerprint(), Ordering::Relaxed);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 8,
            ..EngineConfig::default()
        });
        let tickets = engine.submit_all([
            bomb.clone(),
            Bpc::bit_reversal(4).to_permutation(),
            Bpc::unshuffle(3).to_permutation(),
        ]);
        let outcomes: Vec<RequestOutcome> = tickets.into_iter().map(Ticket::wait).collect();
        test_hooks::PANIC_ON_FINGERPRINT.store(0, Ordering::Relaxed);

        assert_eq!(outcomes[0].result, Err(EngineError::JobPanicked));
        assert!(outcomes[1].is_ok(), "batch-mate after the panic still served");
        assert!(outcomes[2].is_ok(), "queued work after the panic still served");
        let stats = engine.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 2);
        // The surviving worker keeps serving new submissions too.
        assert!(engine.submit(Bpc::bit_reversal(3).to_permutation()).wait().is_ok());
    }

    #[test]
    fn inject_and_clear_faults_roundtrip() {
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        assert!(engine.fault_set(3).is_none());
        engine.inject_fault(3, 0, 2, FaultKind::StuckCross).unwrap();
        engine.inject_fault(3, 4, 1, FaultKind::StuckStraight).unwrap();
        let set = engine.fault_set(3).expect("registered");
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0, 2), Some(FaultKind::StuckCross));
        assert!(engine.fault_set(4).is_none(), "orders are independent");
        assert!(
            engine.inject_fault(3, 99, 0, FaultKind::Dead).is_err(),
            "coordinates are validated"
        );
        engine.clear_faults();
        assert!(engine.fault_set(3).is_none());
        let stats = engine.stats();
        assert_eq!(stats.faults_injected, 2);
        assert!(stats.is_degraded(), "injection alone flags degraded mode");
    }

    #[test]
    fn engine_serves_avoidable_fraction_under_stuck_faults() {
        // Acceptance criterion: with k ≤ 2 random stuck-at faults on
        // B(3)/B(4), the engine serves at least the fault-avoiding
        // planner's achievable fraction of a 500-request mixed workload,
        // and reports non-zero fault/reroute counters.
        use benes_core::faults::setup_avoiding;

        for (n, seed) in [(3u32, 41u64), (4, 42)] {
            let engine =
                Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
            let faults = FaultSet::random_stuck(n, 2, seed);
            engine.set_faults(faults.clone());

            let workload = crate::workload::mixed_workload(n, 500, seed);
            let achievable =
                workload.iter().filter(|d| setup_avoiding(d, &faults).is_ok()).count();
            let outcomes = engine.run_batch(workload.clone());
            let served = outcomes.iter().filter(|o| o.is_ok()).count();

            assert!(
                served >= achievable,
                "B({n}) seed {seed}: served {served} < achievable {achievable}"
            );
            for (d, o) in workload.iter().zip(&outcomes) {
                if setup_avoiding(d, &faults).is_ok() {
                    assert!(o.is_ok(), "avoidable {d} failed: {:?}", o.result);
                } else {
                    assert_eq!(
                        o.result,
                        Err(EngineError::Unroutable),
                        "unavoidable {d} must fail with Unroutable"
                    );
                }
            }

            let stats = engine.stats();
            assert!(stats.faults_injected >= 2);
            assert!(
                stats.faults_detected > 0,
                "B({n}) seed {seed}: no execution ever failed under faults"
            );
            assert!(stats.reroutes_succeeded > 0);
            assert!(stats.is_degraded());
            let report = stats.report();
            assert!(report.contains("degraded mode"));
            assert!(report.contains("faults injected"));

            // Healing restores normal service for a formerly unroutable
            // permutation (if the workload had one).
            engine.clear_faults();
            if let Some(d) = workload.iter().find(|d| setup_avoiding(d, &faults).is_err()) {
                assert!(engine.submit(d.clone()).wait().is_ok());
            }
        }
    }

    #[test]
    fn rerouted_plans_remain_valid_after_repair() {
        // The fault-avoiding settings agree with every stuck switch, so
        // the cached plan stays correct on the healed fabric.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let hard = hard_witness();
        // Pick a fault that disturbs the Waksman plan for `hard`: a
        // first-stage switch stuck at the opposite of what the plan
        // commands. (First-stage disagreements are always avoidable —
        // flipping the constraint loop's seeding flips the switch.)
        let healthy_plan = crate::plan::plan(&hard, Fallback::Waksman).unwrap();
        let Plan::Settings(ref healthy_settings) = healthy_plan else {
            panic!("hard witness must take the Waksman tier")
        };
        let stuck = healthy_settings.get(0, 1).toggled();
        let kind = match stuck {
            benes_core::SwitchState::Straight => FaultKind::StuckStraight,
            benes_core::SwitchState::Cross => FaultKind::StuckCross,
        };
        engine.inject_fault(3, 0, 1, kind).unwrap();

        let first = engine.submit(hard.clone()).wait();
        assert!(first.is_ok(), "rerouted around the stuck switch: {:?}", first.result);
        assert_eq!(engine.cache_len(), 1, "avoiding plan cached");

        engine.clear_faults();
        let second = engine.submit(hard).wait();
        assert_eq!(
            second.tier(),
            Some(Tier::Cached),
            "cached avoiding plan replays cleanly on the healed fabric"
        );
        let stats = engine.stats();
        assert_eq!(stats.reroutes_succeeded, 1);
        assert_eq!(stats.faults_detected, 1);
    }

    #[test]
    fn cached_plan_validates_statically_under_agreeing_fault() {
        // The cache-hit path must decide fault validity by the O(k)
        // agreement check, not by replaying the plan: an agreeing stuck
        // switch leaves the cached Waksman plan servable (tier Cached,
        // static_validated counted), a disagreeing one evicts it.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let hard = cacheable_witness();
        assert_eq!(engine.submit(hard.clone()).wait().tier(), Some(Tier::Waksman));

        let cached_plan = crate::plan::plan(&hard, Fallback::Waksman).unwrap();
        let Plan::Settings(ref settings) = cached_plan else {
            panic!("hard witness must take the Waksman tier")
        };
        let commanded = settings.get(0, 1);
        let agreeing = match commanded {
            benes_core::SwitchState::Straight => FaultKind::StuckStraight,
            benes_core::SwitchState::Cross => FaultKind::StuckCross,
        };
        engine.inject_fault(CACHE_MIN_ORDER, 0, 1, agreeing).unwrap();

        let second = engine.submit(hard.clone()).wait();
        assert_eq!(second.tier(), Some(Tier::Cached), "{:?}", second.result);
        let stats = engine.stats();
        assert_eq!(stats.static_validated, 1, "agreement decided without replay");
        assert_eq!(stats.faults_detected, 0, "no execution failure on this path");

        // Flip the fault to the disagreeing state: the static check now
        // rejects the cached plan, and the ladder replans around it.
        let disagreeing = match commanded {
            benes_core::SwitchState::Straight => FaultKind::StuckCross,
            benes_core::SwitchState::Cross => FaultKind::StuckStraight,
        };
        engine.clear_faults();
        engine.inject_fault(CACHE_MIN_ORDER, 0, 1, disagreeing).unwrap();
        let third = engine.submit(hard).wait();
        assert!(third.is_ok(), "first-stage faults are avoidable: {:?}", third.result);
        assert_ne!(third.tier(), Some(Tier::Cached), "stale plan must be evicted");
        assert_eq!(engine.stats().static_validated, 1, "disagreement adds no count");
    }

    #[test]
    fn stats_track_queue_high_water() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 4,
            ..EngineConfig::default()
        });
        let outcomes = engine.run_batch(
            (1..=32u32).map(|k| Permutation::from_fn(8, move |i| (i + k) % 8).unwrap()),
        );
        assert!(outcomes.iter().all(RequestOutcome::is_ok));
        let stats = engine.stats();
        assert!(stats.queue_high_water >= 1);
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.completed, 32);
        assert!(stats.latency_max_ns() >= stats.latency_min_ns());
        assert!(stats.latency_mean_ns() > 0);
        assert_eq!(stats.latency.count(), 32, "every request lands in the histogram");
        let served: u64 = stats.tier_latency.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(served, 32, "per-tier histograms partition the completions");
    }

    #[test]
    fn flight_recorder_keeps_successful_attempts() {
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let hard = cacheable_witness();
        assert!(engine.submit(hard.clone()).wait().is_ok());
        assert!(engine.submit(hard.clone()).wait().is_ok());
        let records = engine.flight_records(16);
        assert_eq!(records.len(), 2);
        assert_eq!(engine.flight_dropped(), 0);
        // Newest first: the cache replay, then the fresh Waksman plan.
        assert_eq!(records[0].result, Some(Ok(Tier::Cached)));
        assert!(records[0].ladder.contains(&LadderStep::CacheHit));
        assert_eq!(records[1].result, Some(Ok(Tier::Waksman)));
        assert!(records[1].ladder.contains(&LadderStep::CacheMiss));
        assert!(records[1].ladder.contains(&LadderStep::Planned(Tier::Waksman)));
        for r in &records {
            assert_eq!(r.fingerprint, hard.fingerprint());
            assert_eq!(r.len, 1 << CACHE_MIN_ORDER);
            assert!(r.trace.is_none(), "successes carry no trace");
            assert!(r.phases.total > 0);
        }
    }

    #[test]
    fn failed_attempt_flight_record_reproduces_the_route_trace() {
        // Acceptance criterion: the flight recorder reproduces the full
        // RouteTrace of a request that failed under an injected fault.
        // A Dead switch is adversarial (applies the opposite of any
        // command), so the hard witness's Waksman plan deterministically
        // misroutes and no agreeing set-up exists: the ladder must end
        // in Unroutable with the failing trace frozen in the record.
        let n = 3u32;
        let victim = hard_witness();
        let mut faults = FaultSet::new(n);
        faults.insert(0, 0, FaultKind::Dead).unwrap();

        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        engine.set_faults(faults.clone());
        let outcome = engine.submit(victim.clone()).wait();
        assert_eq!(outcome.result, Err(EngineError::Unroutable));

        let record = engine
            .flight_records(16)
            .into_iter()
            .find(|r| r.fingerprint == victim.fingerprint())
            .expect("failed attempt must be in the flight ring");
        assert!(record.is_failure());
        assert!(record.ladder.contains(&LadderStep::FaultDetected));
        assert!(record.ladder.contains(&LadderStep::Unavoidable));

        // The recorded trace is the *full* per-stage trace of the
        // failing plan over the faulty fabric — bit-identical to a
        // direct capture.
        let trace = record.trace.as_ref().expect("failure carries a trace");
        assert!(!trace.is_success(), "the trace shows the misroute");
        assert!(!trace.misrouted().is_empty());
        let net = Benes::new(n);
        let fresh = crate::plan::plan(&victim, Fallback::Waksman).unwrap();
        let direct = capture_trace(&net, &victim, &fresh, Some(&faults))
            .expect("direct capture succeeds");
        assert_eq!(*trace, direct);
        // And it renders into the flight-record dump.
        assert!(record.render().contains("failing-plan trace:"));
    }

    #[test]
    fn registered_fault_under_a_self_route_reaches_the_ladder() {
        // A fresh self-route plan skips its second walk only when no
        // fault set is registered for its order. A dead switch on the
        // first stage breaks every self-route of B(3), so the bit
        // reversal must still execute over the overlay, misroute, and
        // enter the reroute ladder.
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        engine.inject_fault(3, 0, 0, FaultKind::Dead).unwrap();
        let rev = Bpc::bit_reversal(3).to_permutation();
        assert_eq!(engine.submit(rev).wait().result, Err(EngineError::Unroutable));
        let record = engine.flight_records(1).pop().unwrap();
        assert_eq!(
            record.ladder,
            vec![
                LadderStep::CacheMiss,
                LadderStep::Planned(Tier::SelfRoute),
                LadderStep::Executed { ok: false },
                LadderStep::FaultDetected,
                LadderStep::Unavoidable,
            ]
        );
        assert_eq!(engine.stats().faults_detected, 1);
    }

    #[test]
    fn flight_records_carry_the_request_fingerprint_on_every_path() {
        // The worker hashes each job once and hands that fingerprint to
        // the flight record: it must equal the permutation's own on the
        // served, shed and canceled paths alike. The bomb fingerprint is
        // unique to this test (hook statics are process-wide).
        let _guard = test_hooks::kill_guard();
        let bomb = Permutation::from_fn(32, |i| (i + 19) % 32).unwrap();
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(bomb.fingerprint(), Ordering::Relaxed);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 1,
            ..EngineConfig::default()
        });
        let served = hard_witness();
        assert!(engine.submit(served.clone()).wait().is_ok());
        let shed = Bpc::bit_reversal(4).to_permutation();
        let expired = engine.submit_with_deadline(shed.clone(), Instant::now()).wait();
        assert_eq!(expired.result, Err(EngineError::DeadlineExceeded));
        // Kill the only worker so the next job is canceled, not served.
        assert_eq!(engine.submit(bomb).wait().result, Err(EngineError::WorkerLost));
        let canceled = Bpc::unshuffle(3).to_permutation();
        let strand = engine.submit(canceled.clone());
        engine.drain(Instant::now());
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(0, Ordering::Relaxed);
        assert_eq!(strand.wait().result, Err(EngineError::Canceled));

        let records = engine.flight_records(8);
        let paths = [
            (&served, LadderStep::Executed { ok: true }),
            (&shed, LadderStep::DeadlineShed),
            (&canceled, LadderStep::Canceled),
        ];
        for (perm, step) in paths {
            let record = records
                .iter()
                .find(|r| r.ladder.contains(&step))
                .unwrap_or_else(|| panic!("no {step} record in {records:?}"));
            assert_eq!(record.fingerprint, perm.fingerprint(), "{step}");
        }
    }

    #[test]
    fn factored_plan_failure_traces_the_failing_pass() {
        // A two-pass plan whose first (self-route) pass survives the
        // fault and whose second (omega-bit) pass does not: the flight
        // record must hold the trace of the second pass. The fault sits
        // in the omega half (stages n−1..2n−1, unique paths, so a wrong
        // switch there always misroutes) on a switch the two passes set
        // differently, stuck at the first pass's state.
        let n = 3u32;
        let victim = hard_witness();
        let net = Benes::new(n);
        let fresh = crate::plan::plan(&victim, Fallback::Factored).unwrap();
        let Plan::TwoPass { first, second } = &fresh else {
            panic!("the hard witness plans as two passes, got {fresh:?}");
        };
        let pass1 = net.self_route(first);
        let pass2 = net.self_route_omega(second);
        let (stage, switch) = (n as usize - 1..net.stage_count())
            .flat_map(|s| (0..net.switches_per_stage()).map(move |i| (s, i)))
            .find(|&(s, i)| pass1.settings().get(s, i) != pass2.settings().get(s, i))
            .expect("the passes differ somewhere in the omega half");
        let kind = match pass1.settings().get(stage, switch) {
            SwitchState::Straight => FaultKind::StuckStraight,
            SwitchState::Cross => FaultKind::StuckCross,
        };
        let mut faults = FaultSet::new(n);
        faults.insert(stage, switch, kind).unwrap();

        let engine = Engine::new(EngineConfig {
            workers: 1,
            fallback: Fallback::Factored,
            ..EngineConfig::default()
        });
        engine.set_faults(faults.clone());
        let _ = engine.submit(victim.clone()).wait();
        let record = engine
            .flight_records(16)
            .into_iter()
            .find(|r| r.fingerprint == victim.fingerprint())
            .expect("the attempt is in the flight ring");
        assert!(record.ladder.contains(&LadderStep::Planned(Tier::Factored)));
        assert!(record.ladder.contains(&LadderStep::FaultDetected));
        let trace = record.trace.as_ref().expect("the failed execution carries a trace");
        assert_eq!(trace.mode(), TraceMode::OmegaBit);
        assert!(!trace.is_success());
        let direct =
            RouteTrace::capture(&net, second, Control::OmegaBit, Some(&faults)).unwrap();
        assert_eq!(*trace, direct);
        assert_eq!(capture_trace(&net, &victim, &fresh, Some(&faults)), Some(direct));
    }

    #[test]
    fn dead_worker_strands_are_canceled_on_drop() {
        // Satellite regression: an engine dropped with outstanding
        // tickets must resolve every one of them. Kill the only worker
        // *outside* the per-job containment so queued jobs are stranded
        // with no one to serve them; the drop's post-join sweep must
        // cancel them rather than leave their waiters hanging. The bomb
        // fingerprint is unique to this test (hook statics are
        // process-wide).
        let _guard = test_hooks::kill_guard();
        let bomb = Permutation::from_fn(32, |i| (i + 11) % 32).unwrap();
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(bomb.fingerprint(), Ordering::Relaxed);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 1,
            ..EngineConfig::default()
        });
        let mut tickets = engine.submit_all([
            bomb,
            Bpc::bit_reversal(3).to_permutation(),
            Bpc::unshuffle(3).to_permutation(),
        ]);
        // Tickets held across the drop: the engine is gone, yet every
        // ticket must already be resolved (no blocking wait can hang).
        drop(engine);
        let outcomes: Vec<RequestOutcome> = tickets.drain(..).map(Ticket::wait).collect();
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(0, Ordering::Relaxed);
        assert_eq!(
            outcomes[0].result,
            Err(EngineError::WorkerLost),
            "the bomb's reply sender died with its worker"
        );
        assert_eq!(outcomes[1].result, Err(EngineError::Canceled));
        assert_eq!(outcomes[2].result, Err(EngineError::Canceled));
    }

    #[test]
    fn breaker_opens_sheds_and_recloses_deterministically() {
        // Single worker + forced failures: the breaker's full cycle is
        // deterministic. Threshold 2 → two injected failures trip it
        // open; while open requests shed with BreakerOpen; after the
        // backoff the probe succeeds (chaos cleared) and re-closes it.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
                jitter_seed: 1,
            },
            ..EngineConfig::default()
        });
        let rev = Bpc::bit_reversal(3).to_permutation();
        engine.set_chaos(crate::chaos::ChaosConfig::always_fail(7));
        assert_eq!(engine.submit(rev.clone()).wait().result, Err(EngineError::Injected));
        assert_eq!(
            engine.submit(rev.clone()).wait().result,
            Err(EngineError::Injected),
            "second consecutive failure trips the breaker"
        );
        assert_eq!(engine.breaker_state(3), Some(BreakerState::Open));
        // Open: the request is shed, not planned, not executed — and
        // crucially NOT retried against the fabric.
        let shed = engine.submit(rev.clone()).wait();
        assert_eq!(shed.result, Err(EngineError::BreakerOpen));
        let record = engine.flight_records(1).pop().unwrap();
        assert_eq!(record.ladder, vec![LadderStep::BreakerShed]);

        engine.clear_chaos();
        // Past the 1ms (+25% jitter) backoff the next request probes,
        // succeeds, and re-closes the breaker.
        std::thread::sleep(Duration::from_millis(10));
        let probe = engine.submit(rev.clone()).wait();
        assert!(probe.is_ok(), "probe must serve normally: {:?}", probe.result);
        assert_eq!(engine.breaker_state(3), Some(BreakerState::Closed));
        assert!(engine.submit(rev).wait().is_ok());

        let stats = engine.stats();
        assert_eq!(stats.breaker_opened, 1);
        assert_eq!(stats.breaker_probes, 1);
        assert_eq!(stats.breaker_reclosed, 1);
        assert_eq!(stats.breaker_shed, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.breaker_states, vec![(3, BreakerState::Closed)]);
        assert!(stats.conserves_requests());
        assert!(stats.is_overloaded());
        let report = stats.report();
        assert!(report.contains("breaker"), "report shows breaker activity:\n{report}");
    }

    #[test]
    fn breaker_disabled_by_default_changes_nothing() {
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        assert_eq!(engine.breaker_state(3), None);
        assert!(engine.submit(Bpc::bit_reversal(3).to_permutation()).wait().is_ok());
        let stats = engine.stats();
        assert!(stats.breaker_states.is_empty());
        assert_eq!(stats.breaker_opened, 0);
    }

    #[test]
    fn submit_burst_engages_every_worker() {
        // Named-bug regression (queue.rs wake chain): the old queue
        // woke exactly one worker per submit and relied on each taker
        // to notify the next, so a burst engaged workers one dequeue
        // at a time — the flat scaling curve. Trap every served job in
        // a spin hook and require that a burst of W jobs puts all W
        // workers to work *simultaneously*. The trap permutation is
        // unique to this test (hook statics are process-wide).
        use std::sync::atomic::Ordering::SeqCst;
        const W: usize = 4;
        let _guard = test_hooks::hold_guard();
        let trap = Permutation::from_fn(32, |i| (i + 13) % 32).unwrap();
        test_hooks::ENGAGED.store(0, SeqCst);
        test_hooks::RELEASE.store(false, SeqCst);
        test_hooks::HOLD_ON_FINGERPRINT.store(trap.fingerprint(), SeqCst);
        let engine = Engine::new(EngineConfig {
            workers: W,
            batch_size: 1,
            ..EngineConfig::default()
        });
        let tickets = engine.submit_all((0..W).map(|_| trap.clone()));
        let deadline = Instant::now() + Duration::from_secs(30);
        while test_hooks::ENGAGED.load(SeqCst) < W {
            if Instant::now() >= deadline {
                // Release the trapped workers *before* panicking, or
                // the engine drop below would hang joining them.
                let engaged = test_hooks::ENGAGED.load(SeqCst);
                test_hooks::RELEASE.store(true, SeqCst);
                test_hooks::HOLD_ON_FINGERPRINT.store(0, SeqCst);
                panic!("only {engaged} of {W} workers engaged under the burst");
            }
            std::thread::yield_now();
        }
        test_hooks::RELEASE.store(true, SeqCst);
        test_hooks::HOLD_ON_FINGERPRINT.store(0, SeqCst);
        for t in tickets {
            assert!(t.wait().is_ok(), "released jobs serve normally");
        }
        assert_eq!(engine.stats().completed, W as u64);
    }

    #[test]
    fn default_engine_refuses_at_4096_queued() {
        // Every engine queue is bounded: a default engine whose workers
        // are all trapped in the hold hook fills to 4096 queued jobs and
        // then refuses `try_submit` with `QueueFull`.
        use std::sync::atomic::Ordering::SeqCst;
        let _guard = test_hooks::hold_guard();
        let trap = Permutation::from_fn(32, |i| (i + 11) % 32).unwrap();
        test_hooks::ENGAGED.store(0, SeqCst);
        test_hooks::RELEASE.store(false, SeqCst);
        test_hooks::HOLD_ON_FINGERPRINT.store(trap.fingerprint(), SeqCst);
        let engine = Engine::new(EngineConfig::default());
        let workers = engine.config().workers;
        // Each worker takes at most one batch of traps before it is
        // held, so fewer than this many submissions fill the queue.
        let most = 4096 + workers * engine.config().batch_size;
        let mut tickets = Vec::new();
        let fill = |tickets: &mut Vec<Ticket>| loop {
            match engine.try_submit(trap.clone()) {
                Ok(t) if tickets.len() <= most => tickets.push(t),
                other => break other.err(),
            }
        };
        let first = fill(&mut tickets);
        let deadline = Instant::now() + Duration::from_secs(30);
        while test_hooks::ENGAGED.load(SeqCst) < workers && Instant::now() < deadline {
            std::thread::yield_now();
        }
        // Every worker is held now: refill what their batches took.
        let refused = fill(&mut tickets);
        let depth = engine.stats().queue_depth;
        test_hooks::RELEASE.store(true, SeqCst);
        test_hooks::HOLD_ON_FINGERPRINT.store(0, SeqCst);
        assert_eq!(first, Some(SubmitError::QueueFull { depth: 4096 }));
        assert_eq!(refused, Some(SubmitError::QueueFull { depth: 4096 }));
        assert_eq!(depth, 4096);
        for t in tickets {
            assert!(t.wait().is_ok(), "released jobs serve normally");
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected, 2);
        assert!(stats.conserves_requests());
    }

    #[test]
    fn dead_worker_sweep_cancels_every_strand() {
        // The post-join sweep must collect every job left queued once
        // no worker is alive. Kill all W workers (batch_size 1 means
        // one bomb kills exactly one worker), then strand W jobs and
        // drop.
        let _guard = test_hooks::kill_guard();
        const W: usize = 4;
        let bomb = Permutation::from_fn(32, |i| (i + 17) % 32).unwrap();
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(bomb.fingerprint(), Ordering::Relaxed);
        let engine = Engine::new(EngineConfig {
            workers: W,
            batch_size: 1,
            ..EngineConfig::default()
        });
        let bombs = engine.submit_all((0..W).map(|_| bomb.clone()));
        for b in bombs {
            assert_eq!(
                b.wait().result,
                Err(EngineError::WorkerLost),
                "every bomb takes its worker down"
            );
        }
        // All workers dead: no one to serve the strands.
        let strands = engine.submit_all([
            Bpc::bit_reversal(3).to_permutation(),
            Bpc::unshuffle(3).to_permutation(),
            Bpc::bit_reversal(4).to_permutation(),
            Bpc::unshuffle(4).to_permutation(),
        ]);
        drop(engine);
        test_hooks::KILL_WORKER_ON_FINGERPRINT.store(0, Ordering::Relaxed);
        for (i, s) in strands.into_iter().enumerate() {
            assert_eq!(
                s.wait().result,
                Err(EngineError::Canceled),
                "strand {i} must be swept"
            );
        }
    }
}
