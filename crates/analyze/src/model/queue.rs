//! A faithful abstract model of `engine/queue.rs`'s submission protocol.
//!
//! The model tracks exactly the state the real protocol synchronizes
//! on: per-shard queue lengths, the CAS-reserved admission depth
//! (reserved slots count toward `depth` *before* their job is pushed,
//! which is what lets the real workers spin instead of parking while a
//! push is in flight), the `draining`/`shutdown` flags, and the two
//! condvar parking lots — workers on `idle`/`available`, submitters on
//! `gate`/`space`, plus the drain waiter. Each transition is one
//! lock-protected step of the real code; the racy windows between steps
//! (reserve→push, scan→park, take→wake) are exactly the interleavings
//! the explorer enumerates.
//!
//! # Wake semantics
//!
//! Two admission-wake models are checked. [`AdmitWake::PerPush`] is the
//! literal code: every push notifies one parked worker (a condvar
//! `notify_one` delivered to a nondeterministically chosen waiter, lost
//! if nobody waits). [`AdmitWake::CoalescedBurst`] is an *adversarial
//! weakening*: during a burst, only the push that makes a shard
//! non-empty delivers a wake. This models the physical fact that a
//! `notify_one` issued while every sibling is already awake (taking,
//! serving, or merely runnable-but-unscheduled) lands in an empty wait
//! set and is lost forever — the exact regime of PR 7's burst bug.
//! Certifying the protocol under `CoalescedBurst` proves the post-take
//! `notify_all` is what re-engages parked workers once a burst's
//! coalesced wakes are gone; dropping it (the seeded mutant) yields a
//! lost-wakeup counterexample.
//!
//! # Batch admission
//!
//! A submitter may admit a run of jobs the way
//! `SubmissionQueue::admit_all` does: one depth update reserves as many
//! slots as fit (up to its `admit_batch`), one push puts the run on one
//! shard, and one wake follows — `notify_all` for a run longer than one
//! job. A push that finds admission closed hands the whole run back and
//! releases every slot it reserved.
//!
//! # Properties
//!
//! * **conservation** — at full quiescence every job was served or
//!   rejected, every queue is empty and no admission slot leaks; and
//!   at every step the reserved depth equals the slots the submitters
//!   hold.
//! * **deadlock** — no reachable state stalls with a thread neither
//!   finished nor wakeable (covers the `gate`/`space` drain choreography
//!   and bounded-admission parking).
//! * **lost-wakeup** — no reachable state in which a parked worker can
//!   only ever be engaged by a busy sibling finishing service while
//!   unstarted work (queued in a shard, or hoarded behind the head of a
//!   sibling's batch) already exists. This is the engagement property
//!   whose violation *is* a lost wakeup: the wake that should have
//!   paired the idle worker with the waiting job was never delivered.

use super::{explore, Exploration};
use crate::report::{Finding, Pillar};

/// How admission (`admit`, after its push) wakes parked workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitWake {
    /// Every push delivers a `notify_one` to some parked worker (lost
    /// only when nobody is parked) — the literal code.
    PerPush,
    /// Only the push that turns a shard non-empty delivers a wake; the
    /// rest of the burst's notifies are adversarially coalesced (they
    /// model `notify_one` calls landing in an empty wait set).
    CoalescedBurst,
}

/// What a worker does after taking a batch that leaves `depth > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostTakeWake {
    /// `wake_workers(true)` — every parked sibling wakes (current code,
    /// the PR 7 fix).
    NotifyAll,
    /// `notify_one` — the pre-PR-7 one-at-a-time wake chain.
    NotifyOne,
    /// No post-take wake at all (the seeded lost-wakeup mutant).
    Nothing,
}

/// One protocol configuration: sizes plus the wake-policy knobs that
/// distinguish the shipped code from its seeded mutants.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Number of queue shards.
    pub shards: usize,
    /// Number of worker threads.
    pub workers: usize,
    /// Number of submitter threads.
    pub submitters: usize,
    /// Jobs each submitter admits.
    pub jobs_each: u8,
    /// Per submitter, the most admission slots one reservation takes
    /// (1 = single admission, more = batch admission).
    pub admit_batch: Vec<u8>,
    /// Whether a push that finds admission closed releases every slot
    /// it reserved (the shipped code) or one fewer (a seeded mutant).
    pub release_whole_run: bool,
    /// Worker batch size (jobs drained per shard-lock acquisition).
    pub batch: u8,
    /// Bounded-admission depth, `None` for unbounded.
    pub max_depth: Option<u8>,
    /// Admission wake model.
    pub admit_wake: AdmitWake,
    /// Post-take wake policy.
    pub post_take_wake: PostTakeWake,
    /// Whether `admit` re-checks `draining` under the shard lock before
    /// pushing (the shipped shutdown race guard).
    pub recheck_draining_on_push: bool,
    /// Whether `release_slots` pulses the `gate`/`space` parking lot
    /// (wakes blocked submitters and the drain waiter).
    pub release_notifies_space: bool,
}

impl Protocol {
    /// The shipped protocol at the latency-critical `batch_size = 1`
    /// configuration, under literal per-push wake delivery.
    #[must_use]
    pub fn current() -> Self {
        Self {
            shards: 2,
            workers: 2,
            submitters: 2,
            jobs_each: 2,
            admit_batch: vec![1, 1],
            release_whole_run: true,
            batch: 1,
            max_depth: None,
            admit_wake: AdmitWake::PerPush,
            post_take_wake: PostTakeWake::NotifyAll,
            recheck_draining_on_push: true,
            release_notifies_space: true,
        }
    }

    /// The shipped protocol under adversarial burst coalescing — the
    /// configuration that makes the post-take `notify_all` load-bearing.
    #[must_use]
    pub fn current_burst() -> Self {
        Self { admit_wake: AdmitWake::CoalescedBurst, ..Self::current() }
    }

    /// The shipped protocol with bounded admission, exercising the
    /// `gate`/`space` submitter parking and release choreography, with
    /// one batch submitter (runs of up to two jobs) beside one single
    /// submitter.
    #[must_use]
    pub fn current_bounded() -> Self {
        Self { max_depth: Some(2), admit_batch: vec![2, 1], ..Self::current() }
    }

    /// Seeded mutant: PR 7's lost-wakeup bug — the post-take
    /// `notify_all` dropped while depth stays positive.
    #[must_use]
    pub fn mutant_dropped_post_take_wake() -> Self {
        Self { post_take_wake: PostTakeWake::Nothing, ..Self::current_burst() }
    }

    /// Seeded mutant: the pre-PR-7 design — one global queue, batched
    /// drains under a single lock, and a one-at-a-time post-take wake
    /// chain. Its signature failure is a worker left parked while a
    /// sibling's batch hoards runnable jobs (the flat scaling curve).
    #[must_use]
    pub fn mutant_single_global_queue() -> Self {
        Self {
            shards: 1,
            workers: 3,
            submitters: 2,
            jobs_each: 2,
            admit_batch: vec![1, 1],
            release_whole_run: true,
            batch: 2,
            max_depth: None,
            admit_wake: AdmitWake::PerPush,
            post_take_wake: PostTakeWake::NotifyOne,
            recheck_draining_on_push: true,
            release_notifies_space: true,
        }
    }

    /// Seeded mutant for the drain choreography: `release_slots` stops
    /// pulsing `space`, so the drain waiter sleeps through the moment
    /// the queue empties.
    #[must_use]
    pub fn mutant_silent_release() -> Self {
        Self { release_notifies_space: false, ..Self::current() }
    }

    /// Seeded mutant for batch admission: a push that finds admission
    /// closed hands its run back but releases one slot fewer than it
    /// reserved.
    #[must_use]
    pub fn mutant_short_tail_release() -> Self {
        Self { release_whole_run: false, ..Self::current_bounded() }
    }

    fn total_jobs(&self) -> u16 {
        self.submitters as u16 * u16::from(self.jobs_each)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// Scanning the shards (or spinning on the reserved-slot yield
    /// loop); always runnable.
    Scan,
    /// Asleep on `available`; runnable only via a delivered wake.
    Parked,
    /// Woken (notify delivered) but yet to re-evaluate the predicate.
    Woken,
    /// Serving a batch; the `u8` counts unserved jobs in hand.
    Busy(u8),
    /// Exited after observing shutdown with an empty queue.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sub {
    /// Ready to admit; the `u8` counts jobs still to submit.
    Ready(u8),
    /// Holds `.1` reserved admission slots for the next push (`.0`
    /// jobs still to submit, the reserved ones included).
    Reserved(u8, u8),
    /// Asleep on `space` (queue full); runnable only via a wake.
    GateParked(u8),
    /// Woken from the gate, about to retry admission.
    GateWoken(u8),
    /// All jobs admitted or rejected.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Drainer {
    /// Shutdown not yet requested.
    Idle,
    /// `draining` set, waiting for `depth == 0`. `woken` records a
    /// pending `space` pulse; without one the waiter is asleep.
    Waiting { woken: bool },
    /// `shutdown` set, drain complete.
    Done,
}

/// One abstract protocol state (see module docs for the mapping onto
/// `engine/queue.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QState {
    shards: Vec<u8>,
    reserved: u8,
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
    fn depth(&self) -> u16 {
        u16::from(self.reserved) + self.shards.iter().map(|&q| u16::from(q)).sum::<u16>()
    }

    fn queued(&self) -> u16 {
        self.shards.iter().map(|&q| u16::from(q)).sum()
    }

    /// Jobs that exist but have not begun service: queued in a shard,
    /// or hoarded behind the head of a busy worker's batch.
    fn unstarted(&self) -> u16 {
        self.queued()
            + self
                .workers
                .iter()
                .map(|w| match w {
                    Worker::Busy(t) => u16::from(t.saturating_sub(1)),
                    _ => 0,
                })
                .sum::<u16>()
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
                Worker::Woken => "woken".to_string(),
                Worker::Busy(t) => format!("busy({t})"),
                Worker::Done => "done".to_string(),
            })
            .collect();
        let subs: Vec<String> = self
            .subs
            .iter()
            .map(|s| match s {
                Sub::Ready(l) => format!("ready({l})"),
                Sub::Reserved(l, k) => format!("reserved({l}, {k} slots)"),
                Sub::GateParked(l) => format!("gate-parked({l})"),
                Sub::GateWoken(l) => format!("gate-woken({l})"),
                Sub::Done => "done".to_string(),
            })
            .collect();
        format!(
            "shards={:?} reserved={} submitted={} served={} rejected={} draining={} shutdown={} workers=[{}] submitters=[{}] drainer={:?}",
            self.shards,
            self.reserved,
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

/// Wakes every gate-parked submitter and pends the drain waiter — the
/// model of `release_slots`' gate-touch plus `space.notify_all()`.
fn pulse_space(s: &mut QState) {
    for sub in &mut s.subs {
        if let Sub::GateParked(l) = *sub {
            *sub = Sub::GateWoken(l);
        }
    }
    if let Drainer::Waiting { .. } = s.drainer {
        s.drainer = Drainer::Waiting { woken: true };
    }
}

/// Wakes every parked worker — `wake_workers(true)`.
fn wake_all_workers(s: &mut QState) -> usize {
    let mut woken = 0;
    for w in &mut s.workers {
        if *w == Worker::Parked {
            *w = Worker::Woken;
            woken += 1;
        }
    }
    woken
}

impl Protocol {
    /// The initial state: everyone running, queues empty.
    #[must_use]
    pub fn initial(&self) -> QState {
        QState {
            shards: vec![0; self.shards],
            reserved: 0,
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

    /// One submitter's attempt to reserve admission slots — as many as
    /// fit, up to its `admit_batch`, in one depth update (the shared
    /// front half of `admit_all`), from `Ready` or `GateWoken`.
    fn reserve(&self, s: &QState, i: usize, left: u8, out: &mut Vec<(String, QState)>) {
        // One admission call carries up to `admit_batch` jobs; a refused
        // call hands all of them back.
        let call = left.min(self.admit_batch[i]);
        if s.draining {
            let mut n = s.clone();
            n.rejected += call;
            n.subs[i] = sub_next(left - call);
            out.push((
                format!("S{i}: admission refused (draining), {call} job(s) rejected"),
                n,
            ));
            return;
        }
        let free =
            self.max_depth.map_or(u16::MAX, |max| u16::from(max).saturating_sub(s.depth()));
        if free == 0 {
            let mut n = s.clone();
            n.subs[i] = Sub::GateParked(left);
            out.push((format!("S{i}: queue full (depth={}), park on gate", s.depth()), n));
            return;
        }
        let k = u8::try_from(u16::from(call).min(free)).expect("at most `call` slots");
        let mut n = s.clone();
        n.reserved += k;
        n.subs[i] = Sub::Reserved(left, k);
        out.push((
            format!(
                "S{i}: reserve {k} admission slot(s) (depth {}->{})",
                s.depth(),
                s.depth() + u16::from(k)
            ),
            n,
        ));
    }

    /// A reserved submitter's push of its run of `run` jobs onto one
    /// shard, one successor per target shard (the scatter placement is
    /// adversarially nondeterministic) and, under `PerPush` wake
    /// delivery of a one-job run, per parked wake target.
    fn push(
        &self,
        s: &QState,
        i: usize,
        left: u8,
        run: u8,
        out: &mut Vec<(String, QState)>,
    ) {
        if self.recheck_draining_on_push && s.draining {
            // The run goes back to the caller whole; every slot it
            // reserved is released.
            let released = if self.release_whole_run { run } else { run - 1 };
            let call = left.min(self.admit_batch[i]).max(run);
            let mut n = s.clone();
            n.reserved -= released;
            n.rejected += call;
            n.subs[i] = sub_next(left - call);
            if self.release_notifies_space {
                pulse_space(&mut n);
            }
            let mut label = format!(
                "S{i}: push aborted (draining re-check), {released} of {run} slot(s) released, {call} job(s) rejected"
            );
            if !self.release_whole_run {
                label.push_str(" [mutant]");
            }
            out.push((label, n));
            return;
        }
        for k in 0..self.shards {
            let mut n = s.clone();
            let was_empty = n.shards[k] == 0;
            n.shards[k] += run;
            n.reserved -= run;
            n.submitted += run;
            n.subs[i] = sub_next(left - run);
            let deliver = match self.admit_wake {
                AdmitWake::PerPush => true,
                AdmitWake::CoalescedBurst => was_empty,
            };
            let base = format!("S{i}: push {run} job(s) -> shard {k}");
            if deliver && run > 1 {
                let woken = wake_all_workers(&mut n);
                out.push((format!("{base}; notify_all wakes {woken}"), n));
            } else if deliver {
                let parked: Vec<usize> = n
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| **w == Worker::Parked)
                    .map(|(j, _)| j)
                    .collect();
                if parked.is_empty() {
                    out.push((format!("{base}; notify_one lost (no waiter)"), n));
                } else {
                    for j in parked {
                        let mut m = n.clone();
                        m.workers[j] = Worker::Woken;
                        out.push((format!("{base}; notify_one wakes W{j}"), m));
                    }
                }
            } else {
                out.push((format!("{base}; wake coalesced (shard already backlogged)"), n));
            }
        }
    }

    /// One worker scan: take from the first non-empty shard (own shard
    /// first, then stealing), exit on shutdown, or park.
    fn scan(&self, s: &QState, w: usize, out: &mut Vec<(String, QState)>) {
        if let Some((j, take)) = Self::scan_take(&s.shards, self.batch, w) {
            let mut n = s.clone();
            n.shards[j] -= take;
            n.workers[w] = Worker::Busy(take);
            if self.release_notifies_space {
                pulse_space(&mut n);
            }
            let depth_after = n.depth();
            let mut label = format!(
                "W{w}: take {take} from shard {j} (depth {}->{})",
                s.depth(),
                depth_after
            );
            if depth_after > 0 {
                match self.post_take_wake {
                    PostTakeWake::NotifyAll => {
                        let woken = wake_all_workers(&mut n);
                        label.push_str(&format!(
                            "; backlog remains -> notify_all wakes {woken}"
                        ));
                        out.push((label, n));
                    }
                    PostTakeWake::NotifyOne => {
                        let parked: Vec<usize> = n
                            .workers
                            .iter()
                            .enumerate()
                            .filter(|(_, ws)| **ws == Worker::Parked)
                            .map(|(j, _)| j)
                            .collect();
                        if parked.is_empty() {
                            label.push_str(
                                "; backlog remains -> notify_one lost (no waiter)",
                            );
                            out.push((label, n));
                        } else {
                            for t in parked {
                                let mut m = n.clone();
                                m.workers[t] = Worker::Woken;
                                out.push((
                                    format!(
                                        "{label}; backlog remains -> notify_one wakes W{t}"
                                    ),
                                    m,
                                ));
                            }
                        }
                    }
                    PostTakeWake::Nothing => {
                        label.push_str("; backlog remains, no post-take wake [mutant]");
                        out.push((label, n));
                    }
                }
            } else {
                out.push((label, n));
            }
            return;
        }
        if s.shutdown && s.depth() == 0 {
            let mut n = s.clone();
            n.workers[w] = Worker::Done;
            out.push((format!("W{w}: shutdown with empty queue, exit"), n));
            return;
        }
        if s.depth() == 0 {
            let mut n = s.clone();
            n.workers[w] = Worker::Parked;
            out.push((format!("W{w}: all shards empty, depth 0 -> park on idle"), n));
        }
        // depth > 0 with empty shards: a submitter holds a reserved,
        // unpushed slot — the real worker spins on the yield loop, which
        // adds no new state; the submitter's push is the progress step.
    }

    /// The dequeue rule shared by the model's worker scan and the
    /// model↔engine bridge test (`tests/bridge.rs`): take up to `batch`
    /// jobs from the first non-empty shard in own-shard-then-steal
    /// order, mirroring `SubmissionQueue::try_take`. Returns the shard
    /// index and how many jobs come off it, or `None` when every shard
    /// is empty.
    #[must_use]
    pub fn scan_take(shards: &[u8], batch: u8, worker: usize) -> Option<(usize, u8)> {
        let count = shards.len();
        (0..count)
            .map(|k| (worker + k) % count)
            .find(|&j| shards[j] > 0)
            .map(|j| (j, batch.min(shards[j])))
    }

    /// Enabled transitions of `s`.
    #[must_use]
    pub fn successors(&self, s: &QState) -> Vec<(String, QState)> {
        let mut out = Vec::new();
        for i in 0..self.submitters {
            match s.subs[i] {
                Sub::Ready(left) => self.reserve(s, i, left, &mut out),
                Sub::Reserved(left, run) => self.push(s, i, left, run, &mut out),
                Sub::GateWoken(left) => {
                    // Re-entry into the admission loop after a space
                    // pulse; same three-way branch as Ready.
                    let mut retries = Vec::new();
                    self.reserve(s, i, left, &mut retries);
                    for (label, n) in retries {
                        out.push((format!("{label} (after gate wake)"), n));
                    }
                }
                Sub::GateParked(_) | Sub::Done => {}
            }
        }
        for w in 0..self.workers {
            match s.workers[w] {
                Worker::Scan => self.scan(s, w, &mut out),
                Worker::Woken => {
                    let mut n = s.clone();
                    if s.depth() > 0 || s.shutdown {
                        n.workers[w] = Worker::Scan;
                        out.push((format!("W{w}: wake, predicate passes -> rescan"), n));
                    } else {
                        n.workers[w] = Worker::Parked;
                        out.push((format!("W{w}: wake, depth still 0 -> wait again"), n));
                    }
                }
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
                if n.depth() == 0 {
                    n.shutdown = true;
                    let woken = wake_all_workers(&mut n);
                    n.drainer = Drainer::Done;
                    out.push((
                        format!("D: drain begins; queue already empty -> shutdown, wake {woken} workers"),
                        n,
                    ));
                } else {
                    n.drainer = Drainer::Waiting { woken: false };
                    out.push((
                        format!("D: drain begins (depth={}), wait on space", n.depth()),
                        n,
                    ));
                }
            }
            Drainer::Waiting { woken: true } => {
                let mut n = s.clone();
                if s.depth() == 0 {
                    n.shutdown = true;
                    let woken = wake_all_workers(&mut n);
                    n.drainer = Drainer::Done;
                    out.push((
                        format!(
                            "D: space pulse, depth 0 -> shutdown, wake {woken} workers"
                        ),
                        n,
                    ));
                } else {
                    n.drainer = Drainer::Waiting { woken: false };
                    out.push((
                        format!("D: space pulse, depth={} -> wait again", s.depth()),
                        n,
                    ));
                }
            }
            Drainer::Waiting { woken: false } | Drainer::Done => {}
        }
        out
    }

    /// Whether any transition other than a busy worker finishing a job
    /// (and other than the *start* of a drain, which is an environment
    /// decision, not protocol progress) is enabled in `s`.
    fn has_non_service_progress(&self, s: &QState) -> bool {
        for sub in &s.subs {
            match sub {
                Sub::Ready(_) | Sub::Reserved(..) | Sub::GateWoken(_) => return true,
                Sub::GateParked(_) | Sub::Done => {}
            }
        }
        for (w, ws) in s.workers.iter().enumerate() {
            match ws {
                Worker::Woken => return true,
                Worker::Scan => {
                    let has_work =
                        (0..self.shards).any(|k| s.shards[(w + k) % self.shards] > 0);
                    let can_exit = s.shutdown && s.depth() == 0;
                    let can_park = s.depth() == 0;
                    if has_work || can_exit || can_park {
                        return true;
                    }
                }
                Worker::Parked | Worker::Busy(_) | Worker::Done => {}
            }
        }
        matches!(s.drainer, Drainer::Waiting { woken: true })
    }

    /// The property oracle for [`explore`].
    #[must_use]
    pub fn violation(
        &self,
        s: &QState,
        succs: &[(String, QState)],
    ) -> Option<(String, String)> {
        let held: u16 = s
            .subs
            .iter()
            .map(|sub| match sub {
                Sub::Reserved(_, run) => u16::from(*run),
                _ => 0,
            })
            .sum();
        if u16::from(s.reserved) != held {
            return Some((
                "conservation".to_string(),
                format!(
                    "admission slot leak: {} reserved but submitters hold {held} — {}",
                    s.reserved,
                    s.render()
                ),
            ));
        }
        if s.all_done() {
            let total = self.total_jobs();
            let balanced = u16::from(s.served) + u16::from(s.rejected) == total
                && s.submitted == s.served
                && s.queued() == 0
                && s.reserved == 0;
            if !balanced {
                return Some((
                    "conservation".to_string(),
                    format!(
                        "quiescent but unbalanced: {} jobs in, served={} rejected={} submitted={} — {}",
                        total,
                        s.served,
                        s.rejected,
                        s.submitted,
                        s.render()
                    ),
                ));
            }
            return None;
        }
        if succs.is_empty() {
            let parked_with_work = s.workers.contains(&Worker::Parked) && s.depth() > 0;
            let drain_asleep =
                matches!(s.drainer, Drainer::Waiting { woken: false }) && s.depth() == 0;
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
        if !self.has_non_service_progress(s)
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
            "sharded queue, per-push wake delivery".to_string(),
            Protocol::current(),
            Expectation::Certify,
        ),
        (
            "sharded queue, adversarial coalesced-burst wakes".to_string(),
            Protocol::current_burst(),
            Expectation::Certify,
        ),
        (
            "sharded queue, bounded admission (gate park/wake, one batch submitter)"
                .to_string(),
            Protocol::current_bounded(),
            Expectation::Certify,
        ),
        (
            "mutant: post-take notify_all dropped (reseeded PR 7 bug)".to_string(),
            Protocol::mutant_dropped_post_take_wake(),
            Expectation::Flag("lost-wakeup"),
        ),
        (
            "mutant: single global queue, notify_one chain (pre-PR 7 design)".to_string(),
            Protocol::mutant_single_global_queue(),
            Expectation::Flag("lost-wakeup"),
        ),
        (
            "mutant: slot release without the space pulse".to_string(),
            Protocol::mutant_silent_release(),
            Expectation::FlagAny,
        ),
        (
            "mutant: batch push hands its run back but releases a slot short".to_string(),
            Protocol::mutant_short_tail_release(),
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

    #[test]
    fn current_protocol_is_certified_under_per_push_wakes() {
        let result = Protocol::current().check(BUDGET);
        assert!(
            result.certified(),
            "expected certification, got {:?} after {} states",
            result.counterexample.map(|c| c.render()),
            result.states
        );
    }

    #[test]
    fn current_protocol_is_certified_under_burst_coalescing() {
        // The adversarial wake model: only the first push of a backlog
        // delivers a notify. The post-take notify_all must carry the
        // engagement on its own.
        let result = Protocol::current_burst().check(BUDGET);
        assert!(
            result.certified(),
            "expected certification, got {:?} after {} states",
            result.counterexample.map(|c| c.render()),
            result.states
        );
    }

    #[test]
    fn current_protocol_is_certified_with_bounded_admission() {
        let result = Protocol::current_bounded().check(BUDGET);
        assert!(
            result.certified(),
            "expected certification, got {:?} after {} states",
            result.counterexample.map(|c| c.render()),
            result.states
        );
    }

    #[test]
    fn mutant_dropping_the_post_take_notify_all_loses_a_wakeup() {
        // Satellite: PR 7's lost-wakeup bug re-introduced. The checker
        // must produce a readable counterexample trace.
        let result = Protocol::mutant_dropped_post_take_wake().check(BUDGET);
        let cex = result.counterexample.expect("mutant must be flagged");
        assert_eq!(cex.property, "lost-wakeup");
        assert!(!cex.trace.is_empty());
        let rendered = cex.render();
        assert!(
            rendered.contains("no post-take wake [mutant]"),
            "trace must show the dropped wake:\n{rendered}"
        );
        assert!(
            rendered.contains("parked"),
            "state must show the stranded worker:\n{rendered}"
        );
    }

    #[test]
    fn mutant_single_global_queue_starves_a_parked_worker() {
        // Satellite: the pre-PR-7 design — global queue, batch drains,
        // one-at-a-time wake chain. Its counterexample is the flat
        // scaling curve in miniature: a worker sleeps while a sibling's
        // batch hoards runnable jobs.
        let result = Protocol::mutant_single_global_queue().check(BUDGET);
        let cex = result.counterexample.expect("mutant must be flagged");
        assert_eq!(cex.property, "lost-wakeup");
        assert!(
            cex.detail.contains("unstarted"),
            "detail must describe the hoarded work: {}",
            cex.detail
        );
    }

    #[test]
    fn mutant_silent_release_deadlocks_the_drain() {
        // release_slots without the space pulse: the drain waiter sleeps
        // through the queue emptying.
        let result = Protocol::mutant_silent_release().check(BUDGET);
        let cex = result.counterexample.expect("mutant must be flagged");
        assert!(
            cex.property == "lost-wakeup" || cex.property == "deadlock",
            "got {}",
            cex.property
        );
    }

    #[test]
    fn batch_submitters_reserve_runs_in_one_step() {
        // The bounded batch configuration really exercises runs: some
        // reachable step reserves two slots at once and pushes both.
        let p = Protocol::current_bounded();
        let first = p.successors(&p.initial());
        assert!(first
            .iter()
            .any(|(label, _)| label == "S0: reserve 2 admission slot(s) (depth 0->2)"));
        let (_, reserved) =
            first.iter().find(|(label, _)| label.starts_with("S0: reserve 2")).unwrap();
        assert!(p.successors(reserved).iter().any(
            |(label, _)| label.starts_with("S0: push 2 job(s) -> shard 0; notify_all")
        ));
    }

    #[test]
    fn mutant_short_tail_release_leaks_a_slot_with_a_replayable_trace() {
        let p = Protocol::mutant_short_tail_release();
        let cex = p.check(BUDGET).counterexample.expect("mutant must be flagged");
        assert_eq!(cex.property, "conservation");
        assert!(cex.detail.contains("slot leak"), "{}", cex.detail);
        let mut state = p.initial();
        for step in &cex.trace {
            let succs = p.successors(&state);
            let (_, next) = succs
                .into_iter()
                .find(|(label, _)| label == step)
                .unwrap_or_else(|| panic!("trace step not enabled: {step}"));
            state = next;
        }
        assert!(cex.render().contains("[mutant]"), "trace must show the short release");
        assert!(cex.detail.contains(&state.render()), "final state must match the detail");
    }

    #[test]
    fn conservation_catches_a_job_dropping_mutant() {
        // A worker that drops its batch on shutdown instead of serving
        // it must surface as a conservation violation. Simulated by
        // post-processing: serve fewer jobs than taken is not
        // expressible through Protocol knobs, so check the property
        // function directly on a corrupted quiescent state.
        let p = Protocol::current();
        let mut s = p.initial();
        s.workers = vec![Worker::Done; p.workers];
        s.subs = vec![Sub::Done; p.submitters];
        s.drainer = Drainer::Done;
        s.submitted = 4;
        s.served = 3; // one job vanished
        s.rejected = 0;
        let (property, _) = p.violation(&s, &[]).expect("must flag");
        assert_eq!(property, "conservation");
    }

    #[test]
    fn traces_replay_step_by_step() {
        // Every reported trace must be replayable: following the labels
        // from the initial state reaches the violating state.
        let p = Protocol::mutant_dropped_post_take_wake();
        let cex = p.check(BUDGET).counterexample.expect("mutant must be flagged");
        let mut state = p.initial();
        for step in &cex.trace {
            let succs = p.successors(&state);
            let (_, next) = succs
                .into_iter()
                .find(|(label, _)| label == step)
                .unwrap_or_else(|| panic!("trace step not enabled: {step}"));
            state = next;
        }
        assert!(cex.detail.contains(&state.render()), "final state must match the detail");
    }
}
