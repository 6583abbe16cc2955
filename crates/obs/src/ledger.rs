//! The request ledger: the one home of the stack's conservation rule.
//!
//! Every admitted request reaches exactly one terminal state, so a
//! ledger conserves when `completed + failed + shed + canceled ==
//! submitted` (exactly once quiescent; `<=` while requests are in
//! flight). Refused admissions count in `rejected` and never in
//! `submitted`. The engine, its per-tenant ledgers, the wire service's
//! `StatsReply` rows and every shard backend book through these types:
//!
//! * [`Ledger`] — a plain, `Copy` count of the six states, with the
//!   identity ([`Ledger::conserves_requests`]), the exposition order
//!   ([`Ledger::states`]) and `+` for roll-ups;
//! * [`Terminal`] — the four terminal states;
//! * [`LedgerCell`] — the lock-free recorder whose snapshot never shows
//!   more terminal requests than submitted ones.

use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::expo::{Exposition, Sample};

/// The terminal state an admitted request reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Routed and verified.
    Completed,
    /// Failed: plan error, misroute, panic, injected or transport
    /// failure.
    Failed,
    /// Shed without execution (deadline passed or breaker open).
    Shed,
    /// Canceled by drain or teardown.
    Canceled,
}

/// A point-in-time request ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ledger {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests routed and verified.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Requests shed without execution.
    pub shed: u64,
    /// Requests canceled by drain or teardown.
    pub canceled: u64,
    /// Submissions refused admission (never counted in `submitted`).
    pub rejected: u64,
}

impl Ledger {
    /// Books one terminal state.
    pub fn finish(&mut self, state: Terminal) {
        match state {
            Terminal::Completed => self.completed += 1,
            Terminal::Failed => self.failed += 1,
            Terminal::Shed => self.shed += 1,
            Terminal::Canceled => self.canceled += 1,
        }
    }

    fn terminal_total(&self) -> u64 {
        self.completed + self.failed + self.shed + self.canceled
    }

    /// The conservation invariant: every admitted request reached
    /// exactly one terminal state. Exact once quiescent; while requests
    /// are in flight the terminal total is below `submitted`.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.terminal_total() == self.submitted
    }

    /// The six counts in exposition order: `submitted`, the four
    /// terminal states, then `rejected`.
    #[must_use]
    pub fn states(&self) -> [(&'static str, u64); 6] {
        [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("shed", self.shed),
            ("canceled", self.canceled),
            ("rejected", self.rejected),
        ]
    }
}

impl AddAssign for Ledger {
    fn add_assign(&mut self, other: Self) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.shed += other.shed;
        self.canceled += other.canceled;
        self.rejected += other.rejected;
    }
}

impl Add for Ledger {
    type Output = Self;

    fn add(mut self, other: Self) -> Self {
        self += other;
        self
    }
}

/// Pushes one sample per `(state, count)`: `template` valued by the
/// count and labelled `state="…"` after its own labels.
pub fn push_states(e: &mut Exposition, template: &Sample, states: &[(&'static str, u64)]) {
    for &(state, count) in states {
        let mut sample = template.clone().label("state", state);
        sample.value = count as f64;
        e.push(sample);
    }
}

/// The lock-free recorder behind a [`Ledger`].
///
/// `submitted` and the four terminal counters are bumped at `Release`
/// and loaded at `Acquire` in [`LedgerCell::snapshot`], terminals
/// first. A request is admitted before it can finish, and that
/// admission happens-before the finish (through whatever queue or
/// channel carried the request), so seeing a terminal bump makes its
/// `submitted` bump visible to the later load. The snapshot therefore
/// never reports more terminal requests than submitted ones; a clamp
/// covers what the memory model does not order. `rejected` is outside
/// the identity and stays `Relaxed`.
#[derive(Debug, Default)]
pub struct LedgerCell {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    canceled: AtomicU64,
    rejected: AtomicU64,
}

impl LedgerCell {
    /// Books one admitted request.
    pub fn admit(&self) {
        self.submitted.fetch_add(1, Ordering::Release);
    }

    /// Books one refused admission.
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Books one admitted request's terminal state.
    pub fn finish(&self, state: Terminal) {
        let counter = match state {
            Terminal::Completed => &self.completed,
            Terminal::Failed => &self.failed,
            Terminal::Shed => &self.shed,
            Terminal::Canceled => &self.canceled,
        };
        counter.fetch_add(1, Ordering::Release);
    }

    /// A consistent copy: terminal counts never exceed `submitted`,
    /// even while other threads keep booking.
    #[must_use]
    pub fn snapshot(&self) -> Ledger {
        let mut ledger = Ledger {
            completed: self.completed.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            shed: self.shed.load(Ordering::Acquire),
            canceled: self.canceled.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Relaxed),
            submitted: 0,
        };
        ledger.submitted =
            self.submitted.load(Ordering::Acquire).max(ledger.terminal_total());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn ledger_conserves_only_when_every_admission_is_terminal() {
        let mut ledger = Ledger::default();
        assert!(ledger.conserves_requests(), "an empty ledger is vacuously conserved");
        ledger.submitted = 2;
        ledger.rejected = 5;
        ledger.finish(Terminal::Completed);
        assert!(!ledger.conserves_requests(), "one request is still in flight");
        ledger.finish(Terminal::Canceled);
        assert!(ledger.conserves_requests(), "rejected sits outside the identity");

        let unbalanced = Ledger { submitted: 3, completed: 1, ..Ledger::default() };
        let sum = ledger + unbalanced;
        assert_eq!(sum.submitted, 5);
        assert_eq!(sum.rejected, 5);
        assert!(!sum.conserves_requests(), "a roll-up keeps the imbalance");
        let mut rolled = Ledger::default();
        rolled += ledger;
        assert_eq!(rolled, ledger);

        let names: Vec<_> = ledger.states().iter().map(|(s, _)| *s).collect();
        assert_eq!(
            names,
            ["submitted", "completed", "failed", "shed", "canceled", "rejected"]
        );
    }

    #[test]
    fn push_states_appends_the_state_label() {
        let mut e = Exposition::new();
        let ledger = Ledger { submitted: 4, completed: 4, ..Ledger::default() };
        let template = Sample::new("requests_total", 0.0).label("shard", "1");
        push_states(&mut e, &template, &ledger.states()[..2]);
        assert_eq!(
            e.to_prometheus(),
            "requests_total{shard=\"1\",state=\"submitted\"} 4\n\
             requests_total{shard=\"1\",state=\"completed\"} 4\n"
        );
    }

    #[test]
    fn cell_snapshots_match_the_bookings() {
        let cell = LedgerCell::default();
        cell.admit();
        cell.admit();
        cell.reject();
        cell.finish(Terminal::Shed);
        let s = cell.snapshot();
        assert_eq!(s, Ledger { submitted: 2, shed: 1, rejected: 1, ..Ledger::default() });
        cell.finish(Terminal::Failed);
        assert!(cell.snapshot().conserves_requests());
    }

    /// Writers admit then finish while the reader snapshots: no
    /// snapshot may show more terminal requests than submitted ones,
    /// and the final snapshot conserves exactly.
    #[test]
    fn concurrent_snapshots_never_exceed_submitted() {
        let cell = Arc::new(LedgerCell::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        cell.admit();
                        cell.finish(match i % 4 {
                            0 => Terminal::Completed,
                            1 => Terminal::Failed,
                            2 => Terminal::Shed,
                            _ => Terminal::Canceled,
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        // Keep reading until the writers have booked plenty, so the
        // snapshots overlap their bumps whatever the thread start-up.
        let mut snapshots = 0u64;
        loop {
            let s = cell.snapshot();
            assert!(s.terminal_total() <= s.submitted, "impossible snapshot: {s:?}");
            snapshots += 1;
            if snapshots >= 5_000 && s.submitted >= 20_000 {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer panicked");
        }
        let last = cell.snapshot();
        assert!(last.conserves_requests(), "{last:?}");
    }
}
