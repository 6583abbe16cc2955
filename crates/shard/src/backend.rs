//! The backend abstraction the coordinator scatters onto.
//!
//! A [`Backend`] is *any* fault domain that accepts routing units and
//! guarantees each a terminal [`RequestOutcome`]. Two implementations
//! exist — [`LocalShard`] wraps an in-process [`Engine`]; `RemoteShard`
//! (see [`crate::remote`]) speaks the benes-serve wire protocol to a
//! separate process. The trait is the coordinator's whole view of a
//! shard: scatter/gather, degraded-mode accounting, fault-domain
//! isolation and the [`BackendLedger`] are identical over both, which
//! is exactly the point: a dead *process* degrades a permutation the
//! same element-exact way a dark in-process engine does.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use benes_engine::{Engine, RequestOutcome};
use benes_obs::Ledger;
use benes_perm::Permutation;

enum TicketInner {
    /// An in-process engine ticket.
    Local(benes_engine::Ticket),
    /// Unit `.1` of one remote `submit_batch` call: the backend's I/O
    /// thread fills its slot exactly once. Its latency is submit →
    /// terminal as the coordinator saw it: queueing, the wire, retries
    /// and failover.
    Remote(Arc<Outcomes>, usize),
}

/// The terminal outcomes of one remote [`Backend::submit_batch`] call.
/// Each unit's slot is filled exactly once; waiters are woken when the
/// last slot fills, so a thread gathering the whole call wakes once
/// for it rather than once per unit.
pub(crate) struct Outcomes {
    /// Per-unit outcomes, and how many slots are still empty.
    slots: Mutex<(Vec<Option<RequestOutcome>>, usize)>,
    filled: Condvar,
}

impl Outcomes {
    /// Empty slots for `units` units.
    pub(crate) fn new(units: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: Mutex::new((vec![None; units], units)),
            filled: Condvar::new(),
        })
    }

    /// Fills unit `index`'s slot (once) and wakes the waiters if it was
    /// the last one.
    pub(crate) fn fill(&self, index: usize, outcome: RequestOutcome) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let (outcomes, open) = &mut *slots;
        if outcomes[index].replace(outcome).is_none() {
            *open -= 1;
            if *open == 0 {
                self.filled.notify_all();
            }
        }
    }

    /// Takes unit `index`'s outcome, blocking until its slot is filled
    /// (a blocked taker sleeps until the call's last slot fills).
    fn take(&self, index: usize) -> RequestOutcome {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut slots = self
            .filled
            .wait_while(slots, |(outcomes, _)| outcomes[index].is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slots.0[index].take().expect("waited for the slot")
    }
}

/// A pending routing unit on some backend. Like an engine
/// [`benes_engine::Ticket`], it **always** resolves: every admitted
/// unit reaches exactly one terminal state.
pub struct UnitTicket {
    inner: TicketInner,
}

impl UnitTicket {
    /// Wraps an in-process engine ticket.
    #[must_use]
    pub fn local(ticket: benes_engine::Ticket) -> Self {
        Self { inner: TicketInner::Local(ticket) }
    }

    /// Unit `index` of a remote call whose outcomes land in
    /// `outcomes` (its filler must guarantee exactly one fill per
    /// unit: the remote backend's `Reply` guard fills a dropped unit
    /// as canceled).
    pub(crate) fn remote(outcomes: Arc<Outcomes>, index: usize) -> Self {
        Self { inner: TicketInner::Remote(outcomes, index) }
    }

    /// Blocks until the unit is terminal. A remote unit's waiter is
    /// woken once every unit of its `submit_batch` call is terminal.
    #[must_use]
    pub fn wait(self) -> RequestOutcome {
        match self.inner {
            TicketInner::Local(t) => t.wait(),
            TicketInner::Remote(outcomes, index) => outcomes.take(index),
        }
    }
}

impl fmt::Debug for UnitTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.inner {
            TicketInner::Local(_) => "local",
            TicketInner::Remote(..) => "remote",
        };
        f.debug_struct("UnitTicket").field("kind", &kind).finish()
    }
}

/// One backend's lifecycle + resilience ledger.
///
/// The lifecycle half is the backend's request [`Ledger`], which
/// conserves at quiescence; the resilience half counts what the remote
/// transport had to do to get there (always zero for a local backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendLedger {
    /// `"local"` or `"remote"` — the backend flavor, for labels.
    pub kind: &'static str,
    /// Units accepted by [`Backend::submit_batch`] and their terminal
    /// states.
    /// `rejected` is non-zero only for a local backend (its engine's
    /// admission refusals); the fleet exposition does not export it.
    pub requests: Ledger,
    /// Re-sends of a unit after a transport failure or timeout.
    pub retries: u64,
    /// Units moved from an unreachable/breaker-open primary to the
    /// designated spare.
    pub failovers: u64,
    /// Duplicate sends racing the primary's tail latency on the spare.
    pub hedges: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// The most recent health verdict (heartbeat probe for remote
    /// backends, always `true` for local ones).
    pub healthy: bool,
}

/// What one backend did with a drain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendDrain {
    /// In-flight units resolved as canceled by the drain.
    pub canceled: u64,
    /// Whether the deadline passed before the backend acknowledged.
    pub timed_out: bool,
    /// Whether the backend could not be reached at all (remote only —
    /// a dead shard must not hang the fleet drain).
    pub unreachable: bool,
}

/// One routing fault domain the coordinator can scatter onto.
///
/// Implementations must guarantee that every submitted unit reaches a
/// terminal state (the returned [`UnitTicket`] always resolves) and
/// that the [`BackendLedger`] conserves at quiescence.
pub trait Backend: Send + Sync {
    /// A short human label (`local engine`, `remote 127.0.0.1:9200`,
    /// …).
    fn describe(&self) -> String;

    /// Submits a run of routing units sharing one deadline, returning
    /// one ticket per unit in order. This is the one submission the
    /// coordinator makes per shard per round: a remote backend sends
    /// the run as `RouteBatch` frames and wakes its waiters once the
    /// run is terminal. Never blocks on the units themselves;
    /// rejection or unavailability surface as already-terminal
    /// tickets, not an error.
    fn submit_batch(
        &self,
        perms: Vec<Permutation>,
        deadline: Option<Instant>,
    ) -> Vec<UnitTicket>;

    /// Submits one routing unit: a one-unit [`Backend::submit_batch`].
    fn submit(&self, perm: Permutation, deadline: Option<Instant>) -> UnitTicket {
        self.submit_batch(vec![perm], deadline).pop().expect("one ticket per unit")
    }

    /// This backend's lifecycle + resilience ledger.
    fn ledger(&self) -> BackendLedger;

    /// Drains the backend: in-flight units resolve (served or
    /// canceled) and the backend stops accepting work. Must return by
    /// `deadline` even when the backend is unreachable.
    fn drain(&self, deadline: Instant) -> BackendDrain;

    /// The backend's current health verdict.
    fn healthy(&self) -> bool {
        self.ledger().healthy
    }
}

/// The in-process backend: one [`Engine`].
///
/// The shard shares its engine with whoever built it: code that arms
/// chaos, injects faults or reads breakers keeps its own
/// `Arc<Engine>` and uses it directly. The coordinator sees only the
/// [`Backend`] surface, exactly as it does for a remote shard.
#[derive(Debug)]
pub struct LocalShard {
    engine: Arc<Engine>,
}

impl LocalShard {
    /// Wraps `engine` as a shard.
    #[must_use]
    pub fn new(engine: Arc<Engine>) -> Self {
        Self { engine }
    }
}

impl Backend for LocalShard {
    fn describe(&self) -> String {
        "local engine".to_string()
    }

    fn submit_batch(
        &self,
        perms: Vec<Permutation>,
        deadline: Option<Instant>,
    ) -> Vec<UnitTicket> {
        // submit/submit_with_deadline resolve rejected admissions to
        // canceled tickets themselves, so this never blocks gather.
        perms
            .into_iter()
            .map(|perm| {
                UnitTicket::local(match deadline {
                    Some(dl) => self.engine.submit_with_deadline(perm, dl),
                    None => self.engine.submit(perm),
                })
            })
            .collect()
    }

    fn ledger(&self) -> BackendLedger {
        BackendLedger {
            kind: "local",
            requests: self.engine.stats().ledger(),
            healthy: true,
            ..BackendLedger::default()
        }
    }

    fn drain(&self, deadline: Instant) -> BackendDrain {
        let report = self.engine.drain(deadline);
        BackendDrain {
            canceled: report.canceled,
            timed_out: report.timed_out,
            unreachable: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_engine::{EngineConfig, EngineError};

    #[test]
    fn remote_tickets_wake_once_their_call_is_terminal() {
        use std::time::Duration;
        let outcomes = Outcomes::new(2);
        let first = UnitTicket::remote(Arc::clone(&outcomes), 0);
        let second = UnitTicket::remote(Arc::clone(&outcomes), 1);
        let canceled =
            RequestOutcome { result: Err(EngineError::Canceled), latency: Duration::ZERO };
        outcomes.fill(1, canceled.clone());
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            outcomes.fill(0, canceled);
        });
        assert_eq!(first.wait().result, Err(EngineError::Canceled));
        assert_eq!(second.wait().result, Err(EngineError::Canceled));
        filler.join().unwrap();
    }

    #[test]
    fn local_shard_routes_and_conserves() {
        let engine =
            Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }));
        let shard = LocalShard::new(Arc::clone(&engine));
        let perm = benes_perm::Permutation::identity(8);
        let reply = shard.submit(perm, None).wait();
        assert!(reply.result.is_ok());
        let ledger = shard.ledger();
        assert_eq!(ledger.kind, "local");
        assert_eq!(ledger.requests.submitted, 1);
        assert_eq!(ledger.requests.completed, 1);
        assert!(ledger.requests.conserves_requests());
        assert_eq!(ledger.requests, engine.stats().ledger());
        assert!(shard.healthy());
    }
}
