//! The deterministic chaos harness: seeded fault injection, worker
//! delays and forced failures, plus a scripted soak that checks the
//! engine's lifecycle invariants under abuse.
//!
//! Two halves live here:
//!
//! * **The injector** ([`ChaosConfig`] + the engine-internal
//!   `ChaosState`): an always-compiled failpoint seam the workers
//!   consult once per request. Disarmed (the default) it costs one
//!   relaxed atomic load; armed via [`crate::Engine::set_chaos`] it
//!   rolls a seeded [`Rng64`] to decide whether the worker sleeps
//!   before serving and whether the request is *forced* to fail with
//!   [`crate::EngineError::Injected`] — a countable failure, so a
//!   forced burst trips the circuit breaker exactly like real fabric
//!   damage would.
//! * **The harness** ([`ChaosSchedule`] + [`run_soak`]): a seeded
//!   script of traffic, fault bursts, injection windows, sleeps and
//!   quiesce barriers, executed against a fresh engine. The resulting
//!   [`SoakReport`] carries the terminal-state accounting so tests can
//!   assert the conservation invariant
//!   `completed + failed + shed + canceled == submitted`, that **no
//!   waiter hung**, and that the breaker opened under the burst and
//!   re-closed after it cleared.
//!
//! Everything is seeded: the same `(seed, requests)` pair replays the
//! same schedule, the same workload mix, and the same injector
//! decisions, so a soak failure is reproducible from its seed alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use benes_core::faults::FaultSet;

use crate::breaker::BreakerConfig;
use crate::engine::{Engine, EngineConfig, Ticket};
use crate::stats::EngineStats;
use crate::workload::{mixed_workload, Rng64};

/// Knobs for the engine's chaos injector ([`crate::Engine::set_chaos`]).
///
/// Rates are expressed per 1024 rolls so the injector needs no floating
/// point: `fail_per_1024 == 1024` forces *every* served request to
/// fail — the deterministic "fault burst" the breaker tests lean on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the injector's own RNG (independent of the workload).
    pub seed: u64,
    /// Out of 1024: chance a served request is forced to fail with
    /// [`crate::EngineError::Injected`] before planning.
    pub fail_per_1024: u32,
    /// Out of 1024: chance the worker sleeps [`ChaosConfig::delay`]
    /// before serving a request (simulates a slow fault).
    pub delay_per_1024: u32,
    /// How long an injected delay lasts.
    pub delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xc4a0_5eed,
            fail_per_1024: 0,
            delay_per_1024: 0,
            delay: Duration::from_millis(1),
        }
    }
}

impl ChaosConfig {
    /// A config that forces every served request to fail — the
    /// deterministic fault burst.
    #[must_use]
    pub fn always_fail(seed: u64) -> Self {
        Self { seed, fail_per_1024: 1024, ..Self::default() }
    }
}

/// What the injector decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ChaosRoll {
    /// Sleep this long before serving.
    pub(crate) delay: Option<Duration>,
    /// Force the request to fail with `EngineError::Injected`.
    pub(crate) fail: bool,
}

#[derive(Debug)]
struct ChaosRuntime {
    cfg: ChaosConfig,
    rng: Rng64,
}

/// The engine-side injector: armed/disarmed by [`crate::Engine`],
/// consulted by every worker once per dequeued request.
#[derive(Debug, Default)]
pub(crate) struct ChaosState {
    /// Fast path: disarmed means workers never touch the mutex.
    armed: AtomicBool,
    runtime: Mutex<Option<ChaosRuntime>>,
}

impl ChaosState {
    /// Poison recovery: the runtime is a config plus an RNG word, so a
    /// panicked holder cannot leave it torn.
    fn lock(&self) -> MutexGuard<'_, Option<ChaosRuntime>> {
        self.runtime.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn arm(&self, cfg: ChaosConfig) {
        let rng = Rng64::new(cfg.seed);
        *self.lock() = Some(ChaosRuntime { cfg, rng });
        self.armed.store(true, Ordering::Release);
    }

    pub(crate) fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        *self.lock() = None;
    }

    /// Rolls the injector for one request. Rolls are consumed in
    /// worker-arrival order, so with several workers the *set* of
    /// decisions is deterministic while their assignment to requests
    /// is not — the invariants the harness checks never depend on the
    /// assignment.
    pub(crate) fn roll(&self) -> ChaosRoll {
        if !self.armed.load(Ordering::Acquire) {
            return ChaosRoll::default();
        }
        let mut guard = self.lock();
        let Some(rt) = guard.as_mut() else {
            return ChaosRoll::default();
        };
        let delay = (rt.cfg.delay_per_1024 > 0
            && rt.rng.below(1024) < u64::from(rt.cfg.delay_per_1024))
        .then_some(rt.cfg.delay);
        let fail = rt.cfg.fail_per_1024 > 0
            && rt.rng.below(1024) < u64::from(rt.cfg.fail_per_1024);
        ChaosRoll { delay, fail }
    }
}

/// One step of a [`ChaosSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosEvent {
    /// Submit `count` seeded mixed-workload requests through a seeded
    /// mix of the admission paths (`submit`, `try_submit`,
    /// `submit_wait`, and `submit_with_deadline` with an
    /// already-expired deadline).
    Traffic {
        /// How many requests this phase submits.
        count: usize,
    },
    /// Register `count` random stuck faults on the order-`n` fabric.
    FaultBurst {
        /// Network order to damage.
        n: u32,
        /// How many stuck switches.
        count: usize,
    },
    /// Heal every registered fault.
    Heal,
    /// Arm the chaos injector.
    Inject(ChaosConfig),
    /// Disarm the chaos injector.
    ClearInjection,
    /// Barrier: wait for every outstanding ticket before continuing.
    /// Placed around bursts so no stray in-flight success resets the
    /// breaker's consecutive-failure count mid-burst.
    Quiesce,
    /// Let wall-clock time pass (e.g. for a breaker backoff to expire).
    Sleep(Duration),
}

/// A scripted sequence of [`ChaosEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    /// The events, executed in order by [`run_schedule`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// The canonical seeded soak: normal traffic, a forced-failure
    /// burst that must trip the breaker, a recovery window in which the
    /// half-open probe must re-close it, a real fault burst on the
    /// fabric, and a healed cool-down that must leave every breaker
    /// closed. `requests` sizes the main traffic phase; the bursts
    /// scale from it.
    #[must_use]
    pub fn seeded(seed: u64, requests: usize) -> Self {
        let burst = (requests / 4).max(24);
        let cooldown = (requests / 4).max(16);
        // Longer than any backoff the soak engine can accumulate:
        // `SoakConfig::new` caps max_backoff at 50ms and jitter adds at
        // most 25%, so 100ms always reaches the half-open window.
        let settle = Duration::from_millis(100);
        Self {
            events: vec![
                ChaosEvent::Traffic { count: requests },
                ChaosEvent::Quiesce,
                ChaosEvent::Inject(ChaosConfig::always_fail(seed)),
                ChaosEvent::Traffic { count: burst },
                ChaosEvent::Quiesce,
                ChaosEvent::ClearInjection,
                ChaosEvent::Sleep(settle),
                ChaosEvent::Traffic { count: cooldown },
                ChaosEvent::Quiesce,
                ChaosEvent::FaultBurst { n: 3, count: 2 },
                ChaosEvent::Traffic { count: burst },
                ChaosEvent::Quiesce,
                ChaosEvent::Heal,
                ChaosEvent::Sleep(settle),
                ChaosEvent::Traffic { count: cooldown },
                ChaosEvent::Quiesce,
            ],
        }
    }
}

/// Configuration for [`run_soak`] / [`run_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakConfig {
    /// Master seed: derives the schedule, the workload, the admission
    /// mix and the breaker jitter.
    pub seed: u64,
    /// Size of the main traffic phase (bursts scale from it).
    pub requests: usize,
    /// Network order the workload targets.
    pub order: u32,
    /// How long a quiesce barrier waits on any single ticket before
    /// declaring its waiter hung.
    pub quiesce_timeout: Duration,
    /// The engine under test. [`SoakConfig::new`] enables the breaker
    /// and a bounded queue; a default `EngineConfig` would exercise
    /// neither.
    pub engine: EngineConfig,
}

impl SoakConfig {
    /// A soak configuration whose engine has overload protection
    /// switched on: bounded queue, breaker with a small threshold and
    /// fast (seeded) backoff so the canonical schedule's sleeps
    /// comfortably cover every backoff.
    #[must_use]
    pub fn new(seed: u64, requests: usize) -> Self {
        Self {
            seed,
            requests,
            order: 3,
            quiesce_timeout: Duration::from_secs(10),
            engine: EngineConfig {
                workers: 4,
                max_queue_depth: 64,
                breaker: BreakerConfig {
                    failure_threshold: 5,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(50),
                    jitter_seed: seed,
                },
                ..EngineConfig::default()
            },
        }
    }
}

/// The outcome of one soak run: the final stats snapshot plus the
/// harness-side observations no counter can carry.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Tickets that failed to resolve within the quiesce timeout.
    /// Anything non-zero is a lifecycle bug.
    pub hung_waiters: u64,
    /// Requests canceled by the final [`Engine::drain`].
    pub drain_canceled: u64,
    /// Whether the final drain hit its deadline before the queue
    /// emptied.
    pub drain_timed_out: bool,
    /// The engine's final stats snapshot (quiescent, post-drain).
    pub stats: EngineStats,
}

impl SoakReport {
    /// The soak's pass criteria: request conservation holds exactly, no
    /// waiter hung, the breaker opened under the forced burst, it
    /// re-closed after the burst cleared, and every breaker finished
    /// closed.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.stats.conserves_requests()
            && self.hung_waiters == 0
            && self.stats.breaker_opened >= 1
            && self.stats.breaker_reclosed >= 1
            && self
                .stats
                .breaker_states
                .iter()
                .all(|(_, s)| *s == crate::breaker::BreakerState::Closed)
    }

    /// A compact human-readable summary (used by `benes-cli chaos`).
    #[must_use]
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "chaos soak: {} submitted = {} completed + {} failed + {} shed + {} canceled\n",
            s.submitted, s.completed, s.failed, s.shed, s.canceled
        ));
        out.push_str(&format!(
            "  shed: {} deadline, {} breaker; {} rejected at admission\n",
            s.deadline_exceeded, s.breaker_shed, s.rejected
        ));
        out.push_str(&format!(
            "  breaker: opened {}, probes {}, re-closed {}\n",
            s.breaker_opened, s.breaker_probes, s.breaker_reclosed
        ));
        out.push_str(&format!(
            "  lifecycle: {} hung waiters, {} canceled by drain{}\n",
            self.hung_waiters,
            self.drain_canceled,
            if self.drain_timed_out { " (drain timed out)" } else { "" }
        ));
        out.push_str(&format!(
            "  invariants: {}\n",
            if self.healthy() { "conserved, no hangs, breaker cycled" } else { "VIOLATED" }
        ));
        out
    }
}

/// Waits every outstanding ticket with a per-ticket timeout; returns
/// how many never resolved (hung waiters).
fn settle(outstanding: &mut Vec<Ticket>, timeout: Duration) -> u64 {
    let mut hung = 0;
    for mut ticket in outstanding.drain(..) {
        if ticket.wait_timeout(timeout).is_none() {
            hung += 1;
        }
    }
    hung
}

/// Runs the canonical seeded schedule ([`ChaosSchedule::seeded`]) for
/// `cfg` and returns the report.
#[must_use]
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    run_schedule(cfg, &ChaosSchedule::seeded(cfg.seed, cfg.requests))
}

/// Executes `schedule` against a fresh engine built from
/// `cfg.engine`, then drains it and settles every ticket.
///
/// Submission paths are chosen per request from a seeded RNG:
/// most requests use plain (blocking) `submit`, with slices routed
/// through `try_submit` (exercising `QueueFull`), `submit_wait`
/// (exercising the space condvar) and `submit_with_deadline` with an
/// expired deadline (guaranteed deadline shed).
#[must_use]
pub fn run_schedule(cfg: &SoakConfig, schedule: &ChaosSchedule) -> SoakReport {
    let engine = Engine::new(cfg.engine.clone());
    let mut mix = Rng64::new(cfg.seed ^ 0x5041_7c4a_05c4_ed9e);
    let mut outstanding: Vec<Ticket> = Vec::new();
    let mut hung = 0u64;
    let mut traffic_round = 0u64;
    for event in &schedule.events {
        match event {
            ChaosEvent::Traffic { count } => {
                let perms =
                    mixed_workload(cfg.order, *count, cfg.seed.wrapping_add(traffic_round));
                traffic_round += 1;
                for perm in perms {
                    match mix.below(8) {
                        0 => outstanding
                            .push(engine.submit_with_deadline(perm, Instant::now())),
                        1 => {
                            if let Ok(t) = engine.try_submit(perm) {
                                outstanding.push(t);
                            }
                        }
                        2 => {
                            if let Ok(t) =
                                engine.submit_wait(perm, Duration::from_millis(50))
                            {
                                outstanding.push(t);
                            }
                        }
                        _ => outstanding.push(engine.submit(perm)),
                    }
                }
            }
            ChaosEvent::FaultBurst { n, count } => {
                engine.set_faults(FaultSet::random_stuck(*n, *count, cfg.seed));
            }
            ChaosEvent::Heal => engine.clear_faults(),
            ChaosEvent::Inject(chaos) => engine.set_chaos(chaos.clone()),
            ChaosEvent::ClearInjection => engine.clear_chaos(),
            ChaosEvent::Quiesce => hung += settle(&mut outstanding, cfg.quiesce_timeout),
            ChaosEvent::Sleep(d) => std::thread::sleep(*d),
        }
    }
    hung += settle(&mut outstanding, cfg.quiesce_timeout);
    let drain = engine.drain(Instant::now() + cfg.quiesce_timeout);
    // Any ticket the drain canceled resolves immediately here.
    hung += settle(&mut outstanding, cfg.quiesce_timeout);
    SoakReport {
        hung_waiters: hung,
        drain_canceled: drain.canceled,
        drain_timed_out: drain.timed_out,
        stats: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_is_inert() {
        let state = ChaosState::default();
        assert_eq!(state.roll(), ChaosRoll::default());
    }

    #[test]
    fn armed_injector_rolls_deterministically() {
        let rolls = |seed: u64| -> Vec<ChaosRoll> {
            let state = ChaosState::default();
            state.arm(ChaosConfig {
                seed,
                fail_per_1024: 512,
                delay_per_1024: 256,
                delay: Duration::from_micros(10),
            });
            (0..64).map(|_| state.roll()).collect()
        };
        assert_eq!(rolls(9), rolls(9), "same seed, same decisions");
        let a = rolls(9);
        assert!(a.iter().any(|r| r.fail), "a 50% rate must fire in 64 rolls");
        assert!(a.iter().any(|r| r.delay.is_some()));
        assert!(a.iter().any(|r| !r.fail));
    }

    #[test]
    fn always_fail_forces_every_roll() {
        let state = ChaosState::default();
        state.arm(ChaosConfig::always_fail(1));
        assert!((0..32).all(|_| state.roll().fail));
        state.disarm();
        assert!(!state.roll().fail, "disarm restores normal service");
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_bracketed() {
        let a = ChaosSchedule::seeded(42, 100);
        assert_eq!(a, ChaosSchedule::seeded(42, 100));
        // The forced burst is bracketed by quiesce barriers so breaker
        // trips are deterministic.
        let inject_at = a
            .events
            .iter()
            .position(|e| matches!(e, ChaosEvent::Inject(_)))
            .expect("schedule has an injection window");
        assert_eq!(a.events[inject_at - 1], ChaosEvent::Quiesce);
        assert!(a
            .events
            .iter()
            .skip(inject_at)
            .any(|e| matches!(e, ChaosEvent::ClearInjection)));
        assert_eq!(*a.events.last().unwrap(), ChaosEvent::Quiesce);
    }
}
