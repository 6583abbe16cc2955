//! A per-fabric circuit breaker over the fault-reroute ladder.
//!
//! PR 2's ladder retries *individual* requests around registered
//! faults; it has no memory across requests. Under a fault burst that
//! makes most permutations unroutable, every request still pays the
//! full detect → re-plan → `Unavoidable` walk — exactly the congestion
//! collapse a packet switch avoids with admission control. The breaker
//! adds that memory: `K` consecutive countable failures on one network
//! order trip it **open**, and while open the engine sheds requests for
//! that order immediately (typed [`crate::EngineError::BreakerOpen`],
//! no planning, no retries). After an exponentially growing backoff
//! with deterministic seeded jitter, the breaker goes **half-open** and
//! admits exactly one probe; a verified success re-closes it, a failure
//! re-opens it with a doubled backoff.
//!
//! The breaker is disabled by default ([`BreakerConfig::default`] has
//! `failure_threshold == 0`) so the engine's failure semantics are
//! unchanged unless a deployment opts in.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::workload::Rng64;

/// Tuning knobs for the per-order circuit breaker
/// ([`crate::EngineConfig::breaker`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive countable failures (misroute, fault detection,
    /// unroutable, panic, injected) that trip the breaker open.
    /// `0` disables the breaker entirely.
    pub failure_threshold: u32,
    /// Backoff before the first half-open probe; doubles on every
    /// consecutive re-open, up to [`BreakerConfig::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter (xor-ed with the
    /// network order, so each fabric's breaker jitters independently
    /// but reproducibly).
    pub jitter_seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 0,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            jitter_seed: 0xb3a7_5eed,
        }
    }
}

/// The observable state of one order's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service; failures are being counted.
    Closed,
    /// Shedding: requests for this order fail fast with
    /// [`crate::EngineError::BreakerOpen`] until the backoff expires.
    Open,
    /// One probe request is (or may be) in flight; everything else
    /// still sheds.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (used by reports and metric labels).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for gauge exposition: closed 0, open 1,
    /// half-open 2.
    #[must_use]
    pub fn as_gauge(&self) -> f64 {
        match self {
            Self::Closed => 0.0,
            Self::Open => 1.0,
            Self::HalfOpen => 2.0,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed (or disabled): serve normally.
    Serve,
    /// Breaker half-open and this request won the probe slot: serve it,
    /// and report its outcome via `on_success(true)` / `on_failure(true)`.
    Probe,
    /// Breaker open (or half-open with a probe already in flight):
    /// shed without serving.
    Shed,
}

/// Mutable breaker bookkeeping, behind one small mutex (taken once per
/// request on admission and once on completion — never on the routing
/// hot path itself, which is lock-free past admission).
#[derive(Debug)]
struct Trip {
    state: BreakerState,
    /// Countable failures since the last success (meaningful while
    /// closed).
    consecutive_failures: u32,
    /// Consecutive opens without an intervening close; drives the
    /// exponential backoff.
    open_streak: u32,
    /// When the current open period ends (meaningful while open).
    open_until: Instant,
    /// Whether the half-open probe slot is taken.
    probe_in_flight: bool,
    /// Deterministic jitter source.
    jitter: Rng64,
}

/// One order's circuit breaker (the engine keeps one per network order
/// it has served).
///
/// The type is public so other layers can reuse the same admission
/// discipline over their own failure streams — the remote shard fleet
/// keeps one `Breaker` per endpoint, with "order" standing in for the
/// endpoint index, so connect failures pace reconnects with the same
/// exponential backoff and deterministic jitter the engine applies to
/// fabric faults.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    trip: Mutex<Trip>,
}

impl Breaker {
    /// Builds a closed breaker for one order (or any other failure
    /// domain index: the order is only used to reseed the jitter).
    #[must_use]
    pub fn new(cfg: BreakerConfig, order: u32) -> Self {
        let jitter = Rng64::new(cfg.jitter_seed ^ u64::from(order));
        Self {
            cfg,
            trip: Mutex::new(Trip {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                open_streak: 0,
                open_until: Instant::now(),
                probe_in_flight: false,
                jitter,
            }),
        }
    }

    /// Whether the breaker is counting at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.failure_threshold > 0
    }

    /// Poison recovery: the trip struct is plain-old-data, so a
    /// panicked holder cannot leave it torn.
    fn lock(&self) -> MutexGuard<'_, Trip> {
        self.trip.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides whether one request for this order is served, probes, or
    /// sheds. `now` is injected so tests control time.
    pub fn admit(&self, now: Instant) -> Admission {
        if !self.enabled() {
            return Admission::Serve;
        }
        let mut trip = self.lock();
        match trip.state {
            BreakerState::Closed => Admission::Serve,
            BreakerState::Open => {
                if now >= trip.open_until {
                    trip.state = BreakerState::HalfOpen;
                    trip.probe_in_flight = true;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
            BreakerState::HalfOpen => {
                if trip.probe_in_flight {
                    Admission::Shed
                } else {
                    trip.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Records a served request that verified. Returns `true` when this
    /// success re-closed the breaker (a successful half-open probe).
    pub fn on_success(&self, probe: bool) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut trip = self.lock();
        trip.consecutive_failures = 0;
        if probe {
            trip.probe_in_flight = false;
            if trip.state == BreakerState::HalfOpen {
                trip.state = BreakerState::Closed;
                trip.open_streak = 0;
                return true;
            }
        }
        false
    }

    /// Records a countable failure. Returns `true` when this failure
    /// tripped the breaker open (either the threshold was reached while
    /// closed, or a half-open probe failed and re-opened it).
    pub fn on_failure(&self, probe: bool, now: Instant) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut trip = self.lock();
        if probe {
            trip.probe_in_flight = false;
            if trip.state == BreakerState::HalfOpen {
                Self::open(&mut trip, &self.cfg, now);
                return true;
            }
            return false;
        }
        match trip.state {
            BreakerState::Closed => {
                trip.consecutive_failures += 1;
                if trip.consecutive_failures >= self.cfg.failure_threshold {
                    Self::open(&mut trip, &self.cfg, now);
                    return true;
                }
                false
            }
            // Stragglers admitted before the trip finished after it:
            // they must not extend (or re-roll) the backoff.
            BreakerState::Open | BreakerState::HalfOpen => false,
        }
    }

    /// The current state (for stats snapshots and tests).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Trips to open and schedules the next probe [`backoff`] from now.
    fn open(trip: &mut Trip, cfg: &BreakerConfig, now: Instant) {
        trip.consecutive_failures = 0;
        trip.state = BreakerState::Open;
        trip.open_streak += 1;
        trip.open_until = now
            + backoff(
                trip.open_streak,
                cfg.base_backoff,
                cfg.max_backoff,
                &mut trip.jitter,
            );
    }
}

/// The wait after the `streak`-th consecutive failure (`streak ≥ 1`):
/// `base · 2^(streak-1)` capped at `max`, plus up to 25% deterministic
/// jitter drawn from `jitter` (one draw per call). The breaker's
/// re-open and the remote shard's reconnect share it.
#[must_use]
pub fn backoff(streak: u32, base: Duration, max: Duration, jitter: &mut Rng64) -> Duration {
    let exp = streak.saturating_sub(1).min(16);
    let backoff = (base.as_nanos() << exp).min(max.as_nanos());
    let backoff = u64::try_from(backoff).unwrap_or(u64::MAX);
    let jitter = jitter.below(backoff / 4 + 1);
    Duration::from_nanos(backoff.saturating_add(jitter))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 7,
        }
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let b = Breaker::new(BreakerConfig::default(), 3);
        assert!(!b.enabled());
        let now = Instant::now();
        for _ in 0..100 {
            assert!(!b.on_failure(false, now));
            assert_eq!(b.admit(now), Admission::Serve);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn opens_after_threshold_consecutive_failures_and_sheds() {
        let b = Breaker::new(cfg(3), 3);
        let now = Instant::now();
        assert!(!b.on_failure(false, now));
        assert!(!b.on_failure(false, now));
        // A success in between resets the streak.
        assert!(!b.on_success(false));
        assert!(!b.on_failure(false, now));
        assert!(!b.on_failure(false, now));
        assert!(b.on_failure(false, now), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(now), Admission::Shed);
        // Straggler failures while open neither re-open nor extend.
        assert!(!b.on_failure(false, now));
    }

    #[test]
    fn half_open_probe_success_recloses() {
        let b = Breaker::new(cfg(1), 3);
        let now = Instant::now();
        assert!(b.on_failure(false, now));
        // Backoff ≤ 10ms·1.25: well past, the breaker half-opens.
        let later = now + Duration::from_millis(20);
        assert_eq!(b.admit(later), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Second arrival while the probe is out still sheds.
        assert_eq!(b.admit(later), Admission::Shed);
        assert!(b.on_success(true), "probe success re-closes");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(later), Admission::Serve);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_backoff() {
        let b = Breaker::new(cfg(1), 3);
        let t0 = Instant::now();
        assert!(b.on_failure(false, t0));
        let t1 = t0 + Duration::from_millis(20);
        assert_eq!(b.admit(t1), Admission::Probe);
        assert!(b.on_failure(true, t1), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        // First backoff was ≤ 12.5ms; the second is 20ms..=25ms, so
        // 15ms after the failed probe the breaker must still shed…
        assert_eq!(b.admit(t1 + Duration::from_millis(15)), Admission::Shed);
        // …and 30ms after, the doubled backoff has expired.
        assert_eq!(b.admit(t1 + Duration::from_millis(30)), Admission::Probe);
        assert!(b.on_success(true));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_order() {
        // Two breakers with identical config and order walk identical
        // open/probe timelines: the jitter sequence is a pure function
        // of (seed, order).
        let t0 = Instant::now();
        let schedule = |order: u32| -> Vec<Admission> {
            let b = Breaker::new(cfg(1), order);
            assert!(b.on_failure(false, t0));
            (0..30).map(|ms| b.admit(t0 + Duration::from_millis(ms))).collect()
        };
        assert_eq!(schedule(3), schedule(3));
        // A different order reseeds the jitter; the timeline may (and
        // with this seed does) differ in where Shed flips to Probe.
        let a = schedule(3);
        let b = schedule(4);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn backoff_schedule_is_pinned() {
        // The first six waits for one seed, as `base · 2^(streak-1)`
        // capped at `max` plus the jitter draw: seeded drills (breaker
        // timelines, remote-shard reconnects) replay these exactly.
        let mut rng = Rng64::new(7);
        let ms = Duration::from_millis;
        let waits: Vec<u128> =
            (1..=6).map(|k| backoff(k, ms(10), ms(200), &mut rng).as_nanos()).collect();
        assert_eq!(waits, PINNED_BACKOFFS_NS);
    }

    const PINNED_BACKOFFS_NS: [u128; 6] =
        [10_974_574, 20_083_941, 49_007_607, 91_658_606, 178_097_676, 212_471_576];

    #[test]
    fn backoff_caps_at_max() {
        let mut c = cfg(1);
        c.base_backoff = Duration::from_millis(400);
        c.max_backoff = Duration::from_millis(400);
        let b = Breaker::new(c, 3);
        let t0 = Instant::now();
        assert!(b.on_failure(false, t0));
        for round in 0..5 {
            // Cap + max jitter = 500ms; past that the probe must open.
            let probe_at = t0 + Duration::from_millis(600 * (round + 1));
            assert_eq!(b.admit(probe_at), Admission::Probe, "round {round}");
            assert!(b.on_failure(true, probe_at));
        }
        assert_eq!(b.state(), BreakerState::Open);
    }
}
