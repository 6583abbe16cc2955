//! A faithful abstract model of `engine/queue.rs`'s submission protocol.
//!
//! The real queue is one mutex over the jobs and the
//! `draining`/`shutdown` flags, with two condvars on it: workers wait
//! on `available`, bounded submitters and the drain waiter on `space`.
//! The model tracks exactly that state — the queue length, the flags,
//! and who is parked on which condvar — plus the conservation counters.
//! Each transition is one critical section of the real code (a condvar
//! wait releases the lock and parks in the same step, so no check can
//! be separated from its park); the interleavings of those sections are
//! what the explorer enumerates. The real code issues some notifies
//! just after unlocking; the model folds them into the section, which
//! is equivalent: a waiter either parked before the section and gets
//! the notify, or re-checks the new state when it next takes the lock.
//!
//! # Wake semantics
//!
//! Two admission-wake models are checked. [`AdmitWake::PerPush`] is the
//! literal code: a one-job push notifies one parked worker (a condvar
//! `notify_one` delivered to a nondeterministically chosen waiter, lost
//! if nobody waits), a longer run notifies all. [`AdmitWake::CoalescedBurst`]
//! is an *adversarial weakening*: during a burst, only the push that
//! makes the queue non-empty delivers a wake. This models the physical
//! fact that a `notify_one` issued while every sibling is already awake
//! (taking, serving, or merely runnable-but-unscheduled) lands in an
//! empty wait set and is lost forever. Certifying the protocol under
//! `CoalescedBurst` proves the post-take `notify_all` is what re-engages
//! parked workers once a burst's coalesced wakes are gone; dropping it
//! (a seeded mutant) yields a lost-wakeup counterexample.
//!
//! # Batch admission
//!
//! A submitter may admit a run of jobs the way
//! `SubmissionQueue::admit_all` does: under one lock it pushes as many
//! as fit (up to its `admit_batch`) and wakes once; what does not fit
//! waits on `space`. A call that finds admission closed hands its whole
//! run back, every job of it counted rejected.
//!
//! # Properties
//!
//! * **conservation** — at every step each job is exactly one of: not
//!   yet submitted, rejected, queued, in a worker's hand, or served; at
//!   full quiescence every job was served or rejected.
//! * **deadlock** — no reachable state stalls with a thread neither
//!   finished nor wakeable (covers the `space` drain choreography and
//!   bounded-admission parking).
//! * **lost-wakeup** — no reachable state in which a parked worker can
//!   only ever be engaged by a busy sibling finishing service while
//!   unstarted work (queued, or hoarded behind the head of a sibling's
//!   batch) already exists. This is the engagement property whose
//!   violation *is* a lost wakeup: the wake that should have paired the
//!   idle worker with the waiting job was never delivered.

use super::{explore, Exploration};
use crate::report::{Finding, Pillar};

/// How admission wakes parked workers after its push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitWake {
    /// Every push delivers its wake (`notify_one` for one job, lost
    /// only when nobody is parked; `notify_all` for a run) — the literal
    /// code.
    PerPush,
    /// Only the push that turns the queue non-empty delivers a wake;
    /// the rest of the burst's notifies are adversarially coalesced
    /// (they model `notify_one` calls landing in an empty wait set).
    CoalescedBurst,
}

/// What a worker does after taking a batch that leaves jobs queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostTakeWake {
    /// `available.notify_all()` — every parked sibling wakes (the
    /// shipped code).
    NotifyAll,
    /// `notify_one` — a one-at-a-time wake chain.
    NotifyOne,
    /// No post-take wake at all (the seeded lost-wakeup mutant).
    Nothing,
}

/// One protocol configuration: sizes plus the knobs that distinguish
/// the shipped code from its seeded mutants.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Number of worker threads.
    pub workers: usize,
    /// Number of submitter threads.
    pub submitters: usize,
    /// Jobs each submitter admits.
    pub jobs_each: u8,
    /// Per submitter, the most jobs one admission call carries (1 =
    /// single admission, more = batch admission).
    pub admit_batch: Vec<u8>,
    /// Whether a refused call counts every job of its tail rejected
    /// (the shipped code) or a run of two or more one short (a seeded
    /// mutant).
    pub count_whole_tail: bool,
    /// Worker batch size (jobs taken per lock acquisition).
    pub batch: u8,
    /// The queue bound.
    pub max_depth: u8,
    /// Admission wake model.
    pub admit_wake: AdmitWake,
    /// Post-take wake policy.
    pub post_take_wake: PostTakeWake,
    /// Whether a take pulses `space` (wakes blocked submitters and the
    /// drain waiter).
    pub take_pulses_space: bool,
}

impl Protocol {
    /// The shipped protocol at the latency-critical `batch_size = 1`
    /// configuration, under literal per-push wake delivery, with a
    /// bound no admission reaches.
    #[must_use]
    pub fn current() -> Self {
        Self {
            workers: 2,
            submitters: 2,
            jobs_each: 2,
            admit_batch: vec![1, 1],
            count_whole_tail: true,
            batch: 1,
            max_depth: 4,
            admit_wake: AdmitWake::PerPush,
            post_take_wake: PostTakeWake::NotifyAll,
            take_pulses_space: true,
        }
    }

    /// The shipped protocol under adversarial burst coalescing — the
    /// configuration that makes the post-take `notify_all` load-bearing.
    #[must_use]
    pub fn current_burst() -> Self {
        Self { admit_wake: AdmitWake::CoalescedBurst, ..Self::current() }
    }

    /// The shipped protocol with a bound admission reaches, exercising
    /// submitter parking on `space`, with one batch submitter (runs of
    /// up to two jobs) beside one single submitter.
    #[must_use]
    pub fn current_bounded() -> Self {
        Self { max_depth: 2, admit_batch: vec![2, 1], ..Self::current() }
    }

    /// Seeded mutant: the post-take `notify_all` dropped while jobs
    /// stay queued.
    #[must_use]
    pub fn mutant_dropped_post_take_wake() -> Self {
        Self { post_take_wake: PostTakeWake::Nothing, ..Self::current_burst() }
    }

    /// Seeded mutant: a one-at-a-time `notify_one` post-take wake chain
    /// behind batch drains of two, with three workers. Its failure is a
    /// worker left parked while a sibling's batch hoards runnable jobs:
    /// the hoarding trips the engagement property, so the same
    /// configuration with the shipped `notify_all` is flagged too, and
    /// a `notify_one` chain at batch 1 certifies.
    #[must_use]
    pub fn mutant_notify_one_chain() -> Self {
        Self {
            workers: 3,
            batch: 2,
            post_take_wake: PostTakeWake::NotifyOne,
            ..Self::current()
        }
    }

    /// Seeded mutant for the drain choreography: a take stops pulsing
    /// `space`, so the drain waiter sleeps through the moment the queue
    /// empties.
    #[must_use]
    pub fn mutant_silent_take() -> Self {
        Self { take_pulses_space: false, ..Self::current() }
    }

    /// Seeded mutant for batch admission: a call refused by a draining
    /// queue counts its run of two one job short.
    #[must_use]
    pub fn mutant_short_tail_count() -> Self {
        Self { count_whole_tail: false, ..Self::current_bounded() }
    }

    fn total_jobs(&self) -> u16 {
        self.submitters as u16 * u16::from(self.jobs_each)
    }

    /// How many of a `run` of jobs one admission pushes onto a queue
    /// holding `queued` of at most `max_depth` — the rule the model and
    /// the model↔engine bridge test (`tests/bridge.rs`) share with
    /// `SubmissionQueue::admit_all`.
    #[must_use]
    pub fn fit(queued: u8, max_depth: u8, run: u8) -> u8 {
        run.min(max_depth.saturating_sub(queued))
    }

    /// How many jobs one take of at most `batch` removes from a queue
    /// holding `queued` (`SubmissionQueue::try_take`).
    #[must_use]
    pub fn take_count(queued: u8, batch: u8) -> u8 {
        batch.min(queued)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// At the top of the drain loop, about to lock; always runnable.
    Scan,
    /// Asleep on `available`; runnable only via a delivered wake.
    Parked,
    /// Serving a batch; the `u8` counts unserved jobs in hand.
    Busy(u8),
    /// Exited after observing shutdown with an empty queue.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sub {
    /// About to call (or re-enter) admission; the `u8` counts jobs
    /// still to submit.
    Ready(u8),
    /// Asleep on `space` (queue full); runnable only via a wake.
    Parked(u8),
    /// All jobs admitted or rejected.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Drainer {
    /// Shutdown not yet requested.
    Idle,
    /// `draining` set, waiting on `space` for the queue to empty.
    /// `woken` records a pending pulse; without one the waiter is
    /// asleep.
    Waiting { woken: bool },
    /// `shutdown` set, drain complete.
    Done,
}

/// One abstract protocol state (see module docs for the mapping onto
/// `engine/queue.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QState {
    queued: u8,
    submitted: u8,
    served: u8,
    rejected: u8,
    draining: bool,
    shutdown: bool,
    workers: Vec<Worker>,
    subs: Vec<Sub>,
    drainer: Drainer,
}

impl QState {
    /// Jobs taken off the queue and not yet served.
    fn in_hand(&self) -> u16 {
        self.workers
            .iter()
            .map(|w| match w {
                Worker::Busy(t) => u16::from(*t),
                _ => 0,
            })
            .sum()
    }

    /// Jobs that exist but have not begun service: queued, or hoarded
    /// behind the head of a busy worker's batch.
    fn unstarted(&self) -> u16 {
        u16::from(self.queued)
            + self
                .workers
                .iter()
                .map(|w| match w {
                    Worker::Busy(t) => u16::from(t.saturating_sub(1)),
                    _ => 0,
                })
                .sum::<u16>()
    }

    /// Jobs the submitters still hold.
    fn pending(&self) -> u16 {
        self.subs
            .iter()
            .map(|s| match s {
                Sub::Ready(l) | Sub::Parked(l) => u16::from(*l),
                Sub::Done => 0,
            })
            .sum()
    }

    fn all_done(&self) -> bool {
        self.workers.iter().all(|w| *w == Worker::Done)
            && self.subs.iter().all(|s| *s == Sub::Done)
            && self.drainer == Drainer::Done
    }

    fn render(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| match w {
                Worker::Scan => "scan".to_string(),
                Worker::Parked => "parked".to_string(),
                Worker::Busy(t) => format!("busy({t})"),
                Worker::Done => "done".to_string(),
            })
            .collect();
        let subs: Vec<String> = self
            .subs
            .iter()
            .map(|s| match s {
                Sub::Ready(l) => format!("ready({l})"),
                Sub::Parked(l) => format!("space-parked({l})"),
                Sub::Done => "done".to_string(),
            })
            .collect();
        format!(
            "queued={} submitted={} served={} rejected={} draining={} shutdown={} workers=[{}] submitters=[{}] drainer={:?}",
            self.queued,
            self.submitted,
            self.served,
            self.rejected,
            self.draining,
            self.shutdown,
            workers.join(", "),
            subs.join(", "),
            self.drainer,
        )
    }
}

fn sub_next(left: u8) -> Sub {
    if left == 0 {
        Sub::Done
    } else {
        Sub::Ready(left)
    }
}

/// `space.notify_all()`: wakes every parked submitter and pends the
/// drain waiter.
fn pulse_space(s: &mut QState) {
    for sub in &mut s.subs {
        if let Sub::Parked(l) = *sub {
            *sub = Sub::Ready(l);
        }
    }
    if let Drainer::Waiting { .. } = s.drainer {
        s.drainer = Drainer::Waiting { woken: true };
    }
}

/// `available.notify_all()`: wakes every parked worker.
fn wake_all_workers(s: &mut QState) -> usize {
    let mut woken = 0;
    for w in &mut s.workers {
        if *w == Worker::Parked {
            *w = Worker::Scan;
            woken += 1;
        }
    }
    woken
}

/// `available.notify_one()`: one successor per parked worker it may
/// reach, or one with the notify lost when nobody is parked.
fn wake_one_worker(s: QState, label: &str, out: &mut Vec<(String, QState)>) {
    let parked: Vec<usize> =
        (0..s.workers.len()).filter(|&j| s.workers[j] == Worker::Parked).collect();
    if parked.is_empty() {
        out.push((format!("{label} notify_one lost (no waiter)"), s));
        return;
    }
    for j in parked {
        let mut n = s.clone();
        n.workers[j] = Worker::Scan;
        out.push((format!("{label} notify_one wakes W{j}"), n));
    }
}

impl Protocol {
    /// The initial state: everyone running, the queue empty.
    #[must_use]
    pub fn initial(&self) -> QState {
        QState {
            queued: 0,
            submitted: 0,
            served: 0,
            rejected: 0,
            draining: false,
            shutdown: false,
            workers: vec![Worker::Scan; self.workers],
            subs: vec![sub_next(self.jobs_each); self.submitters],
            drainer: Drainer::Idle,
        }
    }

    /// One submitter's admission call under the queue lock: refused
    /// whole while draining; otherwise push what fits, wake, and wait
    /// on `space` if some of the call did not fit.
    fn admit(&self, s: &QState, i: usize, left: u8, out: &mut Vec<(String, QState)>) {
        let call = left.min(self.admit_batch[i]);
        if s.draining {
            let counted = if self.count_whole_tail || call < 2 { call } else { call - 1 };
            let mut n = s.clone();
            n.rejected += counted;
            n.subs[i] = sub_next(left - call);
            let mut label = format!(
                "S{i}: admission refused (draining), {counted} of {call} job(s) rejected"
            );
            if counted != call {
                label.push_str(" [mutant]");
            }
            out.push((label, n));
            return;
        }
        let fit = Self::fit(s.queued, self.max_depth, call);
        if fit == 0 {
            let mut n = s.clone();
            n.subs[i] = Sub::Parked(left);
            out.push((format!("S{i}: queue full ({}), wait on space", s.queued), n));
            return;
        }
        let mut n = s.clone();
        n.queued += fit;
        n.submitted += fit;
        n.subs[i] = if fit < call { Sub::Parked(left - fit) } else { sub_next(left - fit) };
        let mut base =
            format!("S{i}: push {fit} job(s) (queue {}->{})", s.queued, n.queued);
        if fit < call {
            base.push_str(&format!(", {} wait on space", call - fit));
        }
        let deliver = match self.admit_wake {
            AdmitWake::PerPush => true,
            AdmitWake::CoalescedBurst => s.queued == 0,
        };
        if !deliver {
            out.push((format!("{base}; wake coalesced (queue already backlogged)"), n));
        } else if fit > 1 {
            let woken = wake_all_workers(&mut n);
            out.push((format!("{base}; notify_all wakes {woken}"), n));
        } else {
            wake_one_worker(n, &format!("{base};"), out);
        }
    }

    /// One pass of a worker's drain loop under the queue lock: take a
    /// batch, exit on shutdown, or park on `available`.
    fn scan(&self, s: &QState, w: usize, out: &mut Vec<(String, QState)>) {
        if s.queued > 0 {
            let take = Self::take_count(s.queued, self.batch);
            let mut n = s.clone();
            n.queued -= take;
            n.workers[w] = Worker::Busy(take);
            if self.take_pulses_space {
                pulse_space(&mut n);
            }
            let label = format!("W{w}: take {take} (queue {}->{})", s.queued, n.queued);
            if n.queued == 0 {
                out.push((label, n));
                return;
            }
            match self.post_take_wake {
                PostTakeWake::NotifyAll => {
                    let woken = wake_all_workers(&mut n);
                    out.push((
                        format!("{label}; jobs remain -> notify_all wakes {woken}"),
                        n,
                    ));
                }
                PostTakeWake::NotifyOne => {
                    wake_one_worker(n, &format!("{label}; jobs remain ->"), out);
                }
                PostTakeWake::Nothing => {
                    out.push((
                        format!("{label}; jobs remain, no post-take wake [mutant]"),
                        n,
                    ));
                }
            }
            return;
        }
        let mut n = s.clone();
        if s.shutdown {
            n.workers[w] = Worker::Done;
            out.push((format!("W{w}: shutdown with empty queue, exit"), n));
        } else {
            n.workers[w] = Worker::Parked;
            out.push((format!("W{w}: queue empty -> wait on available"), n));
        }
    }

    /// The drain waiter's check under the queue lock: shut down once
    /// the queue is empty, otherwise wait on `space`.
    fn drain_check(
        s: &QState,
        n: &mut QState,
        what: &str,
        out: &mut Vec<(String, QState)>,
    ) {
        if s.queued == 0 {
            n.shutdown = true;
            let woken = wake_all_workers(n);
            n.drainer = Drainer::Done;
            out.push((
                format!("D: {what}, queue empty -> shutdown, wake {woken} workers"),
                n.clone(),
            ));
        } else {
            n.drainer = Drainer::Waiting { woken: false };
            out.push((
                format!("D: {what}, queue {} -> wait on space", s.queued),
                n.clone(),
            ));
        }
    }

    /// Enabled transitions of `s`.
    #[must_use]
    pub fn successors(&self, s: &QState) -> Vec<(String, QState)> {
        let mut out = Vec::new();
        for i in 0..self.submitters {
            if let Sub::Ready(left) = s.subs[i] {
                self.admit(s, i, left, &mut out);
            }
        }
        for w in 0..self.workers {
            match s.workers[w] {
                Worker::Scan => self.scan(s, w, &mut out),
                Worker::Busy(t) => {
                    let mut n = s.clone();
                    n.served += 1;
                    n.workers[w] = if t > 1 { Worker::Busy(t - 1) } else { Worker::Scan };
                    out.push((
                        format!("W{w}: finish serving one job (served {})", n.served),
                        n,
                    ));
                }
                Worker::Parked | Worker::Done => {}
            }
        }
        match s.drainer {
            Drainer::Idle => {
                let mut n = s.clone();
                n.draining = true;
                pulse_space(&mut n);
                Self::drain_check(s, &mut n, "drain begins", &mut out);
            }
            Drainer::Waiting { woken: true } => {
                let mut n = s.clone();
                Self::drain_check(s, &mut n, "space pulse", &mut out);
            }
            Drainer::Waiting { woken: false } | Drainer::Done => {}
        }
        out
    }

    /// Whether any transition other than a busy worker finishing a job
    /// (and other than the *start* of a drain, which is an environment
    /// decision, not protocol progress) is enabled in `s`.
    fn has_non_service_progress(s: &QState) -> bool {
        s.subs.iter().any(|sub| matches!(sub, Sub::Ready(_)))
            || s.workers.contains(&Worker::Scan)
            || matches!(s.drainer, Drainer::Waiting { woken: true })
    }

    /// The property oracle for [`explore`].
    #[must_use]
    pub fn violation(
        &self,
        s: &QState,
        succs: &[(String, QState)],
    ) -> Option<(String, String)> {
        let total = self.total_jobs();
        let admitted = u16::from(s.submitted);
        let accounted = admitted + u16::from(s.rejected) + s.pending();
        let held = u16::from(s.served) + u16::from(s.queued) + s.in_hand();
        if accounted != total || held != admitted {
            return Some((
                "conservation".to_string(),
                format!(
                    "jobs unaccounted: {total} in, submitted={} rejected={} pending={} served={} queued={} in hand={} — {}",
                    s.submitted,
                    s.rejected,
                    s.pending(),
                    s.served,
                    s.queued,
                    s.in_hand(),
                    s.render()
                ),
            ));
        }
        if s.all_done() {
            if s.queued != 0 || s.submitted != s.served {
                return Some((
                    "conservation".to_string(),
                    format!("quiescent with jobs left unserved — {}", s.render()),
                ));
            }
            return None;
        }
        if succs.is_empty() {
            let parked_with_work = s.workers.contains(&Worker::Parked) && s.queued > 0;
            let drain_asleep =
                matches!(s.drainer, Drainer::Waiting { woken: false }) && s.queued == 0;
            let property =
                if parked_with_work || drain_asleep { "lost-wakeup" } else { "deadlock" };
            return Some((
                property.to_string(),
                format!(
                    "no thread can run but the system is not quiescent — {}",
                    s.render()
                ),
            ));
        }
        // Engagement: if the only possible progress is busy workers
        // finishing jobs, a parked worker must not coexist with
        // unstarted work — the wake that would have paired them was
        // lost.
        if !Self::has_non_service_progress(s)
            && s.workers.contains(&Worker::Parked)
            && s.unstarted() > 0
        {
            return Some((
                "lost-wakeup".to_string(),
                format!(
                    "{} unstarted job(s) exist but a parked worker can only be engaged by a busy sibling finishing service — {}",
                    s.unstarted(),
                    s.render()
                ),
            ));
        }
        None
    }

    /// Exhaustively model-checks this configuration.
    #[must_use]
    pub fn check(&self, budget: usize) -> Exploration {
        explore(
            self.initial(),
            |s| self.successors(s),
            |s, succs| self.violation(s, succs),
            budget,
        )
    }
}

/// What one gate run expects from a protocol.
enum Expectation {
    /// Must certify (no counterexample, budget not exhausted).
    Certify,
    /// Must be flagged with exactly this property (a seeded mutant).
    Flag(&'static str),
    /// Must be flagged with any property (a seeded mutant whose
    /// classification may legitimately vary).
    FlagAny,
}

/// One line of the concurrency gate's report.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// Human name of the checked configuration.
    pub name: String,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// `true` when the run matched its expectation.
    pub ok: bool,
    /// The property a counterexample violated, if one was found.
    pub property: Option<String>,
    /// The rendered counterexample (trace + violating state), if any.
    pub counterexample: Option<String>,
    /// `true` when this row is a seeded mutant (a counterexample is
    /// the *expected* outcome).
    pub mutant: bool,
}

/// The tier-1 concurrency gate: certifies the current protocol under
/// every abstraction (literal per-push wakes, adversarial coalesced
/// bursts, bounded admission) and self-tests the checker by requiring
/// that each seeded mutant is flagged. Returns findings (empty =
/// gate passes) plus one report row per configuration.
#[must_use]
pub fn concurrency_findings(budget: usize) -> (Vec<Finding>, Vec<ProtocolReport>) {
    let runs: Vec<(String, Protocol, Expectation)> = vec![
        (
            "run queue, per-push wake delivery".to_string(),
            Protocol::current(),
            Expectation::Certify,
        ),
        (
            "run queue, adversarial coalesced-burst wakes".to_string(),
            Protocol::current_burst(),
            Expectation::Certify,
        ),
        (
            "run queue, bounded admission (space park/wake, one batch submitter)"
                .to_string(),
            Protocol::current_bounded(),
            Expectation::Certify,
        ),
        (
            "mutant: post-take notify_all dropped".to_string(),
            Protocol::mutant_dropped_post_take_wake(),
            Expectation::Flag("lost-wakeup"),
        ),
        (
            "mutant: post-take notify_one chain, batch drains hoard jobs".to_string(),
            Protocol::mutant_notify_one_chain(),
            Expectation::Flag("lost-wakeup"),
        ),
        (
            "mutant: take without the space pulse".to_string(),
            Protocol::mutant_silent_take(),
            Expectation::FlagAny,
        ),
        (
            "mutant: refused batch counts its tail one short".to_string(),
            Protocol::mutant_short_tail_count(),
            Expectation::Flag("conservation"),
        ),
    ];
    let mut findings = Vec::new();
    let mut reports = Vec::new();
    for (name, protocol, expectation) in runs {
        let result = protocol.check(budget);
        let coordinate = format!("queue model: {name}");
        let mutant = !matches!(expectation, Expectation::Certify);
        let mut ok = true;
        match (&expectation, &result.counterexample) {
            (Expectation::Certify, None) => {
                if result.budget_exhausted {
                    ok = false;
                    findings.push(Finding::error(
                        Pillar::Model,
                        "model-budget-exhausted",
                        &coordinate,
                        0,
                        format!(
                            "state budget of {budget} exhausted after {} states — \
                             nothing is proven; raise the budget",
                            result.states
                        ),
                    ));
                }
            }
            (Expectation::Certify, Some(cex)) => {
                ok = false;
                findings.push(Finding::error(
                    Pillar::Model,
                    "model-counterexample",
                    &coordinate,
                    0,
                    format!("{} violated:\n{}", cex.property, cex.render()),
                ));
            }
            (Expectation::Flag(want), Some(cex)) => {
                if cex.property != *want {
                    ok = false;
                    findings.push(Finding::error(
                        Pillar::Model,
                        "mutant-misclassified",
                        &coordinate,
                        0,
                        format!(
                            "seeded mutant flagged as `{}`, expected `{want}`",
                            cex.property
                        ),
                    ));
                }
            }
            (Expectation::FlagAny, Some(_)) => {}
            (Expectation::Flag(_) | Expectation::FlagAny, None) => {
                ok = false;
                findings.push(Finding::error(
                    Pillar::Model,
                    "mutant-not-flagged",
                    &coordinate,
                    0,
                    if result.budget_exhausted {
                        format!(
                            "state budget of {budget} exhausted before the seeded \
                             bug was found — the self-test is inconclusive"
                        )
                    } else {
                        "the checker certified a protocol with a seeded bug — its \
                         properties are too weak to trust"
                            .to_string()
                    },
                ));
            }
        }
        reports.push(ProtocolReport {
            name,
            states: result.states,
            transitions: result.transitions,
            ok,
            property: result.counterexample.as_ref().map(|c| c.property.clone()),
            counterexample: result
                .counterexample
                .as_ref()
                .map(super::Counterexample::render),
            mutant,
        });
    }
    (findings, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: usize = 2_000_000;

    fn assert_certified(p: &Protocol) {
        let result = p.check(BUDGET);
        assert!(
            result.certified(),
            "expected certification, got {:?} after {} states",
            result.counterexample.map(|c| c.render()),
            result.states
        );
    }

    /// Follows a counterexample's labels from the initial state and
    /// returns the state they reach.
    fn replay(p: &Protocol, trace: &[String]) -> QState {
        let mut state = p.initial();
        for step in trace {
            let (_, next) = p
                .successors(&state)
                .into_iter()
                .find(|(label, _)| label == step)
                .unwrap_or_else(|| panic!("trace step not enabled: {step}"));
            state = next;
        }
        state
    }

    #[test]
    fn current_protocol_is_certified_under_per_push_wakes() {
        assert_certified(&Protocol::current());
    }

    #[test]
    fn current_protocol_is_certified_under_burst_coalescing() {
        // The adversarial wake model: only the first push of a backlog
        // delivers a notify. The post-take notify_all must carry the
        // engagement on its own.
        assert_certified(&Protocol::current_burst());
    }

    #[test]
    fn current_protocol_is_certified_with_bounded_admission() {
        assert_certified(&Protocol::current_bounded());
    }

    #[test]
    fn mutant_dropping_the_post_take_notify_all_loses_a_wakeup() {
        // The checker must produce a readable, replayable trace.
        let p = Protocol::mutant_dropped_post_take_wake();
        let cex = p.check(BUDGET).counterexample.expect("mutant must be flagged");
        assert_eq!(cex.property, "lost-wakeup");
        let rendered = cex.render();
        assert!(
            rendered.contains("no post-take wake [mutant]"),
            "trace must show the dropped wake:\n{rendered}"
        );
        assert!(
            rendered.contains("parked"),
            "state must show the stranded worker:\n{rendered}"
        );
        let state = replay(&p, &cex.trace);
        assert!(cex.detail.contains(&state.render()), "final state must match the detail");
    }

    #[test]
    fn mutant_notify_one_chain_starves_a_parked_worker() {
        // A worker sleeps while a sibling's batch hoards runnable jobs.
        let cex = Protocol::mutant_notify_one_chain()
            .check(BUDGET)
            .counterexample
            .expect("mutant must be flagged");
        assert_eq!(cex.property, "lost-wakeup");
        assert!(cex.detail.contains("unstarted"), "{}", cex.detail);
    }

    #[test]
    fn mutant_silent_take_strands_the_drain() {
        // A take without the space pulse: the drain waiter sleeps
        // through the queue emptying.
        let cex = Protocol::mutant_silent_take()
            .check(BUDGET)
            .counterexample
            .expect("mutant must be flagged");
        assert!(
            cex.property == "lost-wakeup" || cex.property == "deadlock",
            "got {}",
            cex.property
        );
    }

    #[test]
    fn batch_submitters_push_runs_in_one_step() {
        // The bounded batch configuration really exercises runs: the
        // first step can push two jobs at once, and a run that finds
        // one free slot pushes one and waits on space with the other.
        let p = Protocol::current_bounded();
        let first = p.successors(&p.initial());
        assert!(first.iter().any(
            |(label, _)| label == "S0: push 2 job(s) (queue 0->2); notify_all wakes 0"
        ));
        let (_, one) =
            first.iter().find(|(label, _)| label.starts_with("S1: push 1")).unwrap();
        assert!(p.successors(one).iter().any(|(label, _)| label
            .starts_with("S0: push 1 job(s) (queue 1->2), 1 wait on space")));
    }

    #[test]
    fn mutant_short_tail_count_breaks_conservation_with_a_replayable_trace() {
        let p = Protocol::mutant_short_tail_count();
        let cex = p.check(BUDGET).counterexample.expect("mutant must be flagged");
        assert_eq!(cex.property, "conservation");
        assert!(cex.render().contains("[mutant]"), "trace must show the short count");
        let state = replay(&p, &cex.trace);
        assert!(cex.detail.contains(&state.render()), "final state must match the detail");
    }

    #[test]
    fn conservation_catches_a_job_dropping_mutant() {
        // A worker that drops a job instead of serving it must surface
        // as a conservation violation. Not expressible through Protocol
        // knobs, so check the property function directly on a
        // corrupted quiescent state.
        let p = Protocol::current();
        let mut s = p.initial();
        s.workers = vec![Worker::Done; p.workers];
        s.subs = vec![Sub::Done; p.submitters];
        s.drainer = Drainer::Done;
        s.submitted = 4;
        s.served = 3; // one job vanished
        let (property, _) = p.violation(&s, &[]).expect("must flag");
        assert_eq!(property, "conservation");
    }
}
