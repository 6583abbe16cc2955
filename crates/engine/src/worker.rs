//! The worker side of the engine: the batch-drain loop and the full
//! per-request lifecycle — deadline shed, chaos roll, breaker
//! admission, tier planning / cache lookup, contained execution, the
//! fault-reroute ladder, and terminal accounting.
//!
//! Everything here operates on [`crate::engine::Shared`]; the engine
//! facade only spawns [`worker_loop`] threads and hands teardown
//! leftovers to [`cancel_job`]. The queue transitions themselves live
//! in [`crate::queue`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_core::faults::{setup_avoiding, FaultSet, FaultSetupError};
use benes_core::trace::RouteTrace;
use benes_core::Benes;
use benes_perm::Permutation;

use crate::breaker::Admission;
use crate::cache::CACHE_MIN_ORDER;
use crate::engine::{EngineError, Shared};
use crate::flightrec::{LadderStep, RouteAttempt};
use crate::plan::{plan, required_order, walk, Plan, PlanError, Tier};
use crate::queue::{Job, RequestOutcome};

pub(crate) fn worker_loop(shared: &Shared) {
    // Per-worker network memo: `B(n)` is immutable wiring, cheap to keep
    // one copy per worker and never lock for it.
    let mut nets: HashMap<u32, Benes> = HashMap::new();
    while let Some(batch) = shared.sub.next_batch(&shared.recorder, shared.batch_size) {
        for job in batch {
            #[cfg(test)]
            test_hooks::maybe_kill_worker(&job.perm);
            serve_job(shared, &mut nets, job);
        }
    }
}

/// Runs one dequeued job through the full lifecycle: deadline check,
/// chaos roll, breaker admission, contained execution, breaker
/// feedback, terminal accounting.
fn serve_job(shared: &Shared, nets: &mut HashMap<u32, Benes>, job: Job) {
    let dequeued_at = Instant::now();
    // The job's one fingerprint: the flight record and every cache call
    // below share it.
    let mut attempt = RouteAttempt::new(job.perm.fingerprint(), job.perm.len());
    attempt.tenant = job.tenant;

    // Deadline shed happens before any planning or execution: an
    // expired request costs the worker nothing but this check. The
    // chaos injector's delay simulates a slow fault and applies before
    // admission, so delayed requests still contend normally; the
    // deadline is checked again after it, or an injected delay could
    // carry the request past its deadline and hand the caller a success
    // it asked us to shed (and did shed on every other path).
    let deadline = job.deadline;
    let expired = |at: Instant| deadline.is_some_and(|deadline| at >= deadline);
    let chaos = (!expired(dequeued_at)).then(|| shared.chaos.roll());
    if let Some(delay) = chaos.as_ref().and_then(|chaos| chaos.delay) {
        std::thread::sleep(delay);
    }
    let chaos = match chaos {
        Some(chaos) if chaos.delay.is_none() || !expired(Instant::now()) => chaos,
        _ => {
            attempt.step(LadderStep::DeadlineShed);
            let shed = Err(EngineError::DeadlineExceeded);
            finish_job(shared, job, Some(dequeued_at), attempt, shed);
            return;
        }
    };

    // Breaker admission. A shed request is never planned or executed
    // and does not feed back into the breaker (it is not a failure of
    // the fabric, it is the breaker working).
    let admission =
        required_order(&job.perm).ok().and_then(|n| shared.breaker(n)).map(|breaker| {
            let verdict = breaker.admit(Instant::now());
            (breaker, verdict)
        });
    let probe = match &admission {
        Some((_, Admission::Shed)) => {
            attempt.step(LadderStep::BreakerShed);
            finish_job(
                shared,
                job,
                Some(dequeued_at),
                attempt,
                Err(EngineError::BreakerOpen),
            );
            return;
        }
        Some((_, Admission::Probe)) => {
            shared.recorder.note_breaker_probe();
            attempt.step(LadderStep::BreakerProbe);
            true
        }
        _ => false,
    };

    let result = if chaos.fail {
        // Forced failure: deterministic stand-in for fabric damage.
        attempt.step(LadderStep::ChaosInjected);
        Err(EngineError::Injected)
    } else {
        // Contain per-job panics: without this, one panicking job
        // kills the worker with the rest of its drained batch
        // un-replied, and the queued tickets behind it can block
        // forever. `nets` only memoizes immutable topologies, so
        // observing it after an unwind is sound. The flight record
        // is built *outside* the unwind boundary so a panic still
        // leaves its partial ladder in the ring.
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_one(shared, nets, &job.perm, &mut attempt)
        }));
        served.unwrap_or_else(|_| {
            attempt.step(LadderStep::Panicked);
            Err(EngineError::JobPanicked)
        })
    };

    // Breaker feedback: verified successes reset the streak, countable
    // failures advance it; a probe's outcome decides reopen/re-close.
    if let Some((breaker, _)) = &admission {
        match &result {
            Ok(_) => {
                if breaker.on_success(probe) {
                    shared.recorder.note_breaker_reclosed();
                }
            }
            Err(e) if breaker_countable(e) => {
                if breaker.on_failure(probe, Instant::now()) {
                    shared.recorder.note_breaker_opened();
                }
            }
            Err(_) => {}
        }
    }
    finish_job(shared, job, Some(dequeued_at), attempt, result);
}

/// Whether a failure advances the circuit breaker: fabric-shaped
/// failures do, caller errors (`Plan`) and lifecycle outcomes do not.
fn breaker_countable(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Misrouted
            | EngineError::FaultDetected
            | EngineError::Unroutable
            | EngineError::JobPanicked
            | EngineError::Injected
    )
}

/// Terminal accounting for one job: classify the outcome into exactly
/// one of completed / failed / shed / canceled, record latency on the
/// matching path (split into queue wait and service time when the job
/// reached a worker), freeze the flight record, and hand the outcome
/// to the job's completion sink.
fn finish_job(
    shared: &Shared,
    job: Job,
    dequeued_at: Option<Instant>,
    mut attempt: RouteAttempt,
    result: Result<Tier, EngineError>,
) {
    let path = shared.recorder.note_outcome(job.tenant, &result);
    let finished_at = Instant::now();
    let latency = finished_at - job.submitted_at;
    let latency_ns = nanos(latency);
    shared.recorder.note_latency_ns(latency_ns, path);
    // Decompose end-to-end latency at the dequeue instant: how long the
    // job sat in the queue vs how long the worker actually spent on it.
    // Canceled strands never reached a worker and skip the split.
    if let Some(dequeued_at) = dequeued_at {
        shared.recorder.note_queue_wait_ns(nanos(dequeued_at - job.submitted_at));
        shared.recorder.note_service_ns(nanos(finished_at - dequeued_at));
    }
    attempt.result = Some(result.clone());
    attempt.phases.total = latency_ns;
    shared.flight.record(attempt);
    job.complete(RequestOutcome { result, latency });
}

/// Cancels one never-served job (drain shedding or a post-join sweep):
/// its ticket resolves with [`EngineError::Canceled`].
pub(crate) fn cancel_job(shared: &Shared, job: Job) {
    let mut attempt = RouteAttempt::new(job.perm.fingerprint(), job.perm.len());
    attempt.tenant = job.tenant;
    attempt.step(LadderStep::Canceled);
    finish_job(shared, job, None, attempt, Err(EngineError::Canceled));
}

/// How many times the reroute ladder replans after a fault-avoiding
/// plan itself failed execution (only possible when the fault registry
/// changed between planning and execution).
const MAX_FAULT_RETRIES: usize = 3;

/// `d` as saturating nanoseconds.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Captures the full per-stage trace of `plan`'s first failing pass for
/// `d` over the fabric as it is (`faults` applied when present) — the
/// post-mortem evidence attached to a failed flight record. `None` when
/// every pass succeeds or the plan cannot serve `d` at all.
pub(crate) fn capture_trace(
    net: &Benes,
    d: &Permutation,
    plan: &Plan,
    faults: Option<&FaultSet>,
) -> Option<RouteTrace> {
    let (tags, control) = walk(net, d, plan, faults).err()??;
    RouteTrace::capture(net, tags, control, faults).ok()
}

/// Serves one request: cache lookup, then tier planning, execution, and
/// cache fill — and, when execution fails with faults registered, the
/// fault-tolerance ladder: detect → evict → re-plan around the faults →
/// bounded retry. Every path verifies the realized routing. Each
/// decision is mirrored into `attempt`, the request's flight record.
fn serve_one(
    shared: &Shared,
    nets: &mut HashMap<u32, Benes>,
    perm: &Permutation,
    attempt: &mut RouteAttempt,
) -> Result<Tier, EngineError> {
    let fp = attempt.fingerprint;
    #[cfg(test)]
    test_hooks::maybe_panic(fp);
    #[cfg(test)]
    test_hooks::maybe_hold(fp);

    let n = required_order(perm)?;
    let net = nets.entry(n).or_insert_with(|| Benes::new(n));
    let faults = shared.fault_set(n);

    let cache_started = Instant::now();
    match shared.cache.get_keyed(fp, perm) {
        Some(cached) => {
            shared.recorder.note_cache(true);
            attempt.step(LadderStep::CacheHit);
            // A cached explicit-settings plan is validated against the
            // fault registry *statically*: insert time already proved it
            // realizes `perm` on a healthy fabric, so if every stuck
            // switch agrees with its commanded state the fault overlay
            // is a no-op and the plan realizes `perm` on the degraded
            // fabric too — an O(|faults|) check in place of a full
            // replay. Disagreement (a dead switch never agrees) means
            // the plan is stale for this fabric: evict and re-plan.
            let valid = match (&*cached, faults.as_deref()) {
                (Plan::Settings(settings), Some(f)) => {
                    let agrees = f.agrees_with(settings);
                    if agrees {
                        shared.recorder.note_static_validation();
                        attempt.step(LadderStep::StaticValidated);
                    }
                    agrees
                }
                (_, overlay) => walk(net, perm, &cached, overlay).is_ok(),
            };
            if valid {
                shared.recorder.note_tier(Tier::Cached);
                attempt.phases.cache = nanos(cache_started.elapsed());
                return Ok(Tier::Cached);
            }
            // The cache verifies permutation equality on lookup, so a
            // failing validation means a corrupted plan (or one planned
            // for a fabric that has since degraded). Evict it: leaving
            // it in place makes every future request re-pay the failure.
            shared.cache.invalidate(fp, perm);
            attempt.step(LadderStep::CacheEvicted);
        }
        None => {
            shared.recorder.note_cache(false);
            attempt.step(LadderStep::CacheMiss);
        }
    }
    // Each phase ends at the instant the next one starts.
    let plan_started = Instant::now();
    attempt.phases.cache = nanos(plan_started - cache_started);
    let fresh = plan(perm, shared.fallback)?;
    let execute_started = Instant::now();
    attempt.phases.plan = nanos(execute_started - plan_started);
    let tier = fresh.tier();
    attempt.step(LadderStep::Planned(tier));
    // `plan` returns `SelfRoute` only after a verified word-kernel
    // self-route of `perm`: with no fault set registered for `n` (the
    // registry never holds an empty one) a walk would repeat that call.
    let executed = (fresh == Plan::SelfRoute && faults.is_none())
        || walk(net, perm, &fresh, faults.as_deref()).is_ok();
    attempt.phases.execute = nanos(execute_started.elapsed());
    attempt.step(LadderStep::Executed { ok: executed });
    if executed {
        admit_fresh(shared, n, fp, perm, fresh);
        shared.recorder.note_tier(tier);
        return Ok(tier);
    }

    // Execution failed: freeze the evidence. The trace replays the
    // failing plan over the exact fabric the worker executed on, so the
    // flight record can show *where* the routing went wrong, stage by
    // stage.
    attempt.trace = capture_trace(net, perm, &fresh, faults.as_deref());

    // On a healthy fabric a failed execution is an engine bug — report
    // it as before. With faults registered it is the expected signature
    // of a damaged switch: enter the reroute ladder.
    if faults.is_none() {
        return Err(EngineError::Misrouted);
    }
    shared.recorder.note_fault_detected();
    attempt.step(LadderStep::FaultDetected);
    let reroute_started = Instant::now();
    let rerouted = fault_ladder(shared, net, perm, &fresh, tier, attempt);
    attempt.phases.reroute = nanos(reroute_started.elapsed());
    rerouted
}

/// Caches a fresh `plan()` result for `perm`, of order `n`, when it
/// embodies set-up and `n` is at least [`CACHE_MIN_ORDER`].
fn admit_fresh(shared: &Shared, n: u32, fp: u64, perm: &Permutation, fresh: Plan) {
    if fresh.is_cacheable() && n >= CACHE_MIN_ORDER {
        shared.cache.insert_keyed(fp, perm, Arc::new(fresh));
    }
}

/// The bounded fault-reroute ladder: re-read the registry, plan around
/// the current faults, verify, retry on registry churn.
fn fault_ladder(
    shared: &Shared,
    net: &Benes,
    perm: &Permutation,
    fresh: &Plan,
    tier: Tier,
    attempt: &mut RouteAttempt,
) -> Result<Tier, EngineError> {
    let n = net.n();
    for _retry in 0..=MAX_FAULT_RETRIES {
        // Re-read the registry every attempt: concurrent injection or
        // healing changes what must be avoided.
        let current = match shared.fault_set(n) {
            Some(f) => f,
            None => {
                // Healed mid-flight: the fresh plan is valid again.
                attempt.step(LadderStep::Healed);
                let healed = walk(net, perm, fresh, None).is_ok();
                attempt.step(LadderStep::Executed { ok: healed });
                if healed {
                    admit_fresh(shared, n, attempt.fingerprint, perm, fresh.clone());
                    shared.recorder.note_reroute(true);
                    shared.recorder.note_tier(tier);
                    return Ok(tier);
                }
                shared.recorder.note_reroute(false);
                return Err(EngineError::Misrouted);
            }
        };
        match setup_avoiding(perm, &current) {
            Ok(settings) => {
                let avoiding = Plan::Settings(settings);
                let ok = walk(net, perm, &avoiding, Some(&current)).is_ok();
                attempt.step(LadderStep::Replanned { ok });
                if ok {
                    // The avoiding settings agree with every stuck
                    // switch, so the overlay is a no-op on them: they
                    // realize `perm` on the faulty fabric *and* after a
                    // repair — safe to cache.
                    shared.cache.insert_keyed(
                        attempt.fingerprint,
                        perm,
                        Arc::new(avoiding),
                    );
                    shared.recorder.note_reroute(true);
                    shared.recorder.note_tier(Tier::Waksman);
                    return Ok(Tier::Waksman);
                }
                // Only reachable if the registry changed between
                // planning and execution; retry against the new state.
                shared.recorder.note_fault_retry();
            }
            Err(FaultSetupError::Unavoidable) => {
                attempt.step(LadderStep::Unavoidable);
                shared.recorder.note_reroute(false);
                return Err(EngineError::Unroutable);
            }
            Err(FaultSetupError::Setup(e)) => {
                shared.recorder.note_reroute(false);
                return Err(EngineError::Plan(PlanError::from(e)));
            }
            Err(_) => {
                // Registry keyed by order, so a mismatch cannot happen;
                // treat any future variant as one retry-worthy hiccup.
                shared.recorder.note_fault_retry();
            }
        }
    }
    attempt.step(LadderStep::RetryExhausted);
    shared.recorder.note_reroute(false);
    Err(EngineError::FaultDetected)
}

#[cfg(test)]
pub(crate) mod test_hooks {
    //! Deterministic failure seams for the regression tests.

    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use benes_perm::Permutation;

    /// Serializes tests arming [`KILL_WORKER_ON_FINGERPRINT`]: the
    /// statics are process-wide, so concurrent arming would disarm a
    /// sibling test's bomb mid-flight.
    static KILL_GUARD: Mutex<()> = Mutex::new(());

    pub(crate) fn kill_guard() -> MutexGuard<'static, ()> {
        KILL_GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serializes tests arming [`HOLD_ON_FINGERPRINT`], for the same
    /// reason: one test's release would free a sibling's trap.
    static HOLD_GUARD: Mutex<()> = Mutex::new(());

    pub(crate) fn hold_guard() -> MutexGuard<'static, ()> {
        HOLD_GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// When non-zero, [`maybe_panic`] panics on any permutation with
    /// this fingerprint — the seam the catch_unwind regression test uses
    /// to detonate a job inside a worker.
    pub(crate) static PANIC_ON_FINGERPRINT: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn maybe_panic(fingerprint: u64) {
        let armed = PANIC_ON_FINGERPRINT.load(Ordering::Relaxed);
        if armed != 0 && fingerprint == armed {
            panic!("test hook: detonating job for fingerprint {armed:#x}");
        }
    }

    /// When non-zero, [`maybe_kill_worker`] panics *outside* the per-job
    /// containment, killing the whole worker thread — the seam the
    /// teardown regression test uses to strand queued jobs with no one
    /// to serve them.
    pub(crate) static KILL_WORKER_ON_FINGERPRINT: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn maybe_kill_worker(perm: &Permutation) {
        let armed = KILL_WORKER_ON_FINGERPRINT.load(Ordering::Relaxed);
        if armed != 0 && perm.fingerprint() == armed {
            panic!("test hook: killing worker on fingerprint {armed:#x}");
        }
    }

    /// When non-zero, [`maybe_hold`] traps any job with this
    /// fingerprint inside its worker: it bumps [`ENGAGED`] and spins
    /// until [`RELEASE`] flips — the seam the wake-chain regression
    /// test uses to prove a submit burst engages every worker at once
    /// instead of waking them one dequeue at a time.
    pub(crate) static HOLD_ON_FINGERPRINT: AtomicU64 = AtomicU64::new(0);
    /// How many workers are currently trapped in [`maybe_hold`].
    pub(crate) static ENGAGED: AtomicUsize = AtomicUsize::new(0);
    /// Flips to release every worker trapped in [`maybe_hold`].
    pub(crate) static RELEASE: AtomicBool = AtomicBool::new(false);

    pub(crate) fn maybe_hold(fingerprint: u64) {
        let armed = HOLD_ON_FINGERPRINT.load(Ordering::SeqCst);
        if armed != 0 && fingerprint == armed {
            ENGAGED.fetch_add(1, Ordering::SeqCst);
            while !RELEASE.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }
}
