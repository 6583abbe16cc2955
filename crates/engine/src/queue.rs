//! The submission side of the engine: the bounded run queue, the three
//! admission disciplines (reject / block / block-with-timeout), and the
//! per-request lifecycle types ([`Completion`], [`Ticket`],
//! [`RequestOutcome`], [`SubmitError`], [`DrainReport`]).
//!
//! `SubmissionQueue` is one bounded queue behind one mutex. The mutex
//! (`queue`) guards the jobs and the `draining`/`shutdown` flags, and
//! two condvars wait on it: `available` parks workers while the queue
//! is empty, `space` parks bounded submitters while it is full and the
//! drain waiter while it is not yet empty. Every check and the park
//! that follows it happen under that one lock, so no notify can fall
//! between them. Keeping every queue transition in this module means
//! the worker loop and the engine facade compose pieces that cannot
//! disagree about locking or wake-up order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use benes_perm::Permutation;

use crate::engine::{EngineError, SubmitOpts};
use crate::plan::Tier;
use crate::stats::Recorder;

/// Error returned by the fallible admission paths
/// ([`crate::Engine::try_submit`], [`crate::Engine::submit_wait`]).
///
/// A rejected submission was **never admitted**: it is counted in
/// [`crate::EngineStats::rejected`], not in `submitted`, and takes no
/// part in the conservation invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The queue already holds [`crate::EngineConfig::max_queue_depth`]
    /// jobs.
    QueueFull {
        /// The configured depth bound that was hit.
        depth: usize,
    },
    /// [`crate::Engine::submit_wait`]'s timeout expired before space
    /// appeared.
    Timeout,
    /// The engine is draining (or already drained); admission is
    /// closed.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { depth } => {
                write!(f, "submission queue full ({depth} jobs); request rejected")
            }
            Self::Timeout => write!(f, "timed out waiting for queue space"),
            Self::ShuttingDown => write!(f, "engine is draining; admission closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`crate::Engine::drain`] did, returned once every worker has
/// joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Queued requests that were canceled (each one's ticket resolved
    /// with [`EngineError::Canceled`]) instead of served.
    pub canceled: u64,
    /// Whether the deadline expired before the queue emptied (when
    /// `false`, every queued request was served and `canceled` counts
    /// only jobs stranded by a dead worker).
    pub timed_out: bool,
}

/// The per-request result returned through a [`Ticket`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Which tier served the request (`Ok`) or why it failed (`Err`).
    pub result: Result<Tier, EngineError>,
    /// Submit → completion latency (queue wait included).
    pub latency: Duration,
}

impl RequestOutcome {
    /// Whether the request was routed correctly.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The tier that served the request, if it succeeded.
    #[must_use]
    pub fn tier(&self) -> Option<Tier> {
        self.result.as_ref().ok().copied()
    }
}

/// Where one request's outcome goes once it is terminal: a callback
/// run exactly once, on the worker that finished the request (or on
/// the thread that canceled it). Every admitted request completes
/// through one of these; a [`Ticket`] is the sink that sends into a
/// one-slot channel, and a caller with its own wake-up channel passes
/// a sink that sends there instead ([`crate::Engine::try_submit_all_to`]).
///
/// The callback runs with no engine lock held — on the worker, on the
/// worker's unwind for a job it dropped ([`EngineError::WorkerLost`]),
/// or on the thread running [`crate::Engine::drain`]'s cancel sweep —
/// so it may lock the caller's own state and re-enter the engine
/// through the non-blocking [`crate::Engine::try_submit_all_to`] or
/// [`crate::Engine::try_submit_to`] (a wire server's completion pumps
/// its backlog that way). It must not call a blocking `submit` (a
/// worker waiting for queue space only workers free) or drain its own
/// engine, and the time it takes is time its worker serves nothing.
pub struct Completion(Box<dyn FnOnce(RequestOutcome) + Send>);

impl Completion {
    /// Wraps the callback that receives the outcome.
    pub fn new(sink: impl FnOnce(RequestOutcome) + Send + 'static) -> Self {
        Self(Box::new(sink))
    }

    fn complete(self, outcome: RequestOutcome) {
        (self.0)(outcome);
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Completion")
    }
}

/// A handle on one submitted request; redeem it with [`Ticket::wait`],
/// poll it with [`Ticket::try_result`], or bound the wait with
/// [`Ticket::wait_timeout`].
///
/// Once any of the three observes the outcome it is cached in the
/// ticket, so mixing polls and waits is safe: every later call returns
/// the same outcome.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<RequestOutcome>,
    outcome: Option<RequestOutcome>,
}

impl Ticket {
    /// An unresolved ticket and the [`Completion`] that resolves it.
    fn pending() -> (Self, Completion) {
        let (tx, rx) = mpsc::sync_channel(1);
        let done = Completion::new(move |outcome| {
            // A dropped ticket just means the caller stopped listening.
            // analyze:allow(discarded-result): caller hung up
            let _ = tx.send(outcome);
        });
        (Self { rx, outcome: None }, done)
    }

    /// A ticket that is already resolved (never touches the queue);
    /// used for submissions refused by a draining engine.
    pub(crate) fn resolved(outcome: RequestOutcome) -> Self {
        let (_, rx) = mpsc::sync_channel(1);
        Self { rx, outcome: Some(outcome) }
    }

    /// The worker vanished before replying (only possible if it
    /// panicked outside the per-job containment).
    fn lost() -> RequestOutcome {
        RequestOutcome { result: Err(EngineError::WorkerLost), latency: Duration::ZERO }
    }

    /// Blocks until the request completes and returns its outcome.
    ///
    /// If the serving worker vanished (panic during engine teardown),
    /// the outcome carries [`EngineError::WorkerLost`] rather than
    /// panicking the caller.
    #[must_use]
    pub fn wait(self) -> RequestOutcome {
        if let Some(outcome) = self.outcome {
            return outcome;
        }
        self.rx.recv().unwrap_or_else(|_| Self::lost())
    }

    /// Blocks at most `timeout` for the outcome. `None` means the
    /// request is still in flight; the ticket stays redeemable.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<RequestOutcome> {
        if let Some(outcome) = &self.outcome {
            return Some(outcome.clone());
        }
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => {
                self.outcome = Some(outcome.clone());
                Some(outcome)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let outcome = Self::lost();
                self.outcome = Some(outcome.clone());
                Some(outcome)
            }
        }
    }

    /// Non-blocking poll: `None` while the request is in flight, the
    /// outcome once it is terminal. Never blocks, never consumes the
    /// ticket.
    pub fn try_result(&mut self) -> Option<RequestOutcome> {
        if let Some(outcome) = &self.outcome {
            return Some(outcome.clone());
        }
        match self.rx.try_recv() {
            Ok(outcome) => {
                self.outcome = Some(outcome.clone());
                Some(outcome)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                let outcome = Self::lost();
                self.outcome = Some(outcome.clone());
                Some(outcome)
            }
        }
    }
}

/// One request handed to [`crate::Engine::try_submit_all_to`]: the
/// permutation, its options, and where its outcome goes.
pub type Submission = (Permutation, SubmitOpts, Completion);

/// Requests admission refused, in submission order, with why: the
/// first refusal's reason, and that request and every one after it.
pub type Refused = (SubmitError, Vec<Submission>);

/// How an admission call behaves when the bounded queue is full.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Block {
    /// Reject immediately (`try_submit`).
    Never,
    /// Block until space appears (`submit`, `submit_with_deadline`).
    Forever,
    /// Block until space appears or this instant passes (`submit_wait`).
    Until(Instant),
}

/// One queued routing request.
pub(crate) struct Job {
    pub(crate) perm: Permutation,
    pub(crate) submitted_at: Instant,
    /// Shed (never execute) if a worker dequeues the job after this.
    pub(crate) deadline: Option<Instant>,
    /// The tenant namespace this request belongs to (set by the wire
    /// service); tagged requests land in the per-tenant ledgers.
    pub(crate) tenant: Option<u64>,
    /// Taken exactly once by [`Job::complete`]; a job dropped with it
    /// still set (its worker died mid-batch) completes as
    /// [`EngineError::WorkerLost`].
    reply: Option<Completion>,
}

impl Job {
    /// Sends the job's terminal outcome to its sink.
    pub(crate) fn complete(mut self, outcome: RequestOutcome) {
        if let Some(done) = self.reply.take() {
            done.complete(outcome);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(done) = self.reply.take() {
            done.complete(Ticket::lost());
        }
    }
}

/// What the queue lock guards: the jobs and the teardown flags.
pub(crate) struct QueueState {
    jobs: VecDeque<Job>,
    /// Admission closed ([`crate::Engine::drain`] started); queued work
    /// still drains.
    draining: bool,
    /// Workers exit once this is set and the queue is empty.
    shutdown: bool,
}

/// The bounded run queue: one lock, a worker condvar and a space
/// condvar.
///
/// The `queue` field name is load-bearing: benes-analyze's lock-graph
/// lint identifies locks by the last path segment before `.lock()`, and
/// the workspace contract pins the job queue's lock name to `queue`.
pub(crate) struct SubmissionQueue {
    /// Always lock via [`SubmissionQueue::lock`].
    pub(crate) queue: Mutex<QueueState>,
    /// Wakes workers: work arrived (or shutdown flipped).
    available: Condvar,
    /// Wakes blocked submitters and the drain waiter: jobs left the
    /// queue (or admission closed).
    space: Condvar,
    /// The deepest the queue may grow.
    max_depth: usize,
}

impl SubmissionQueue {
    pub(crate) fn new(max_depth: usize) -> Self {
        assert!(max_depth > 0, "queue needs room for at least one job");
        Self {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
                shutdown: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            max_depth,
        }
    }

    /// Locks the queue, recovering from poison: the interior is a
    /// plain `VecDeque` and two flags that no panicking holder can
    /// leave half-mutated in a harmful way, and both submission and
    /// shutdown must always proceed.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`SubmissionQueue::admit_all`] of one request with a fresh
    /// [`Ticket`] as the sink.
    pub(crate) fn admit(
        &self,
        recorder: &Recorder,
        perm: Permutation,
        opts: SubmitOpts,
        block: Block,
    ) -> Result<Ticket, SubmitError> {
        let (ticket, done) = Ticket::pending();
        self.admit_all(recorder, vec![(perm, opts, done)], block)
            .map(|()| ticket)
            .map_err(|(err, _)| err)
    }

    /// The one admission path: under the queue lock, checks drain
    /// state, pushes as many jobs as fit and wakes the workers once —
    /// every worker when more than one job went in. While nothing fits
    /// it blocks on `space` per `block`; `Block::Never` refuses what did
    /// not fit, the blocking modes repeat until every job is in.
    /// Refused jobs are counted `rejected`, never `submitted`, and come
    /// back by value in order with their sinks not run.
    pub(crate) fn admit_all(
        &self,
        recorder: &Recorder,
        mut jobs: Vec<Submission>,
        block: Block,
    ) -> Result<(), Refused> {
        if jobs.is_empty() {
            return Ok(());
        }
        let reject = |err: SubmitError, tail: Vec<Submission>| {
            for (_, opts, _) in &tail {
                recorder.note_rejected(opts.tenant);
            }
            Err((err, tail))
        };
        let mut q = self.lock();
        loop {
            if q.draining {
                drop(q);
                return reject(SubmitError::ShuttingDown, jobs);
            }
            let fit = jobs.len().min(self.max_depth - q.jobs.len());
            if fit > 0 {
                let submitted_at = Instant::now();
                for (perm, opts, done) in jobs.drain(..fit) {
                    recorder.note_submitted(opts.tenant);
                    q.jobs.push_back(Job {
                        perm,
                        submitted_at,
                        deadline: opts.deadline,
                        tenant: opts.tenant,
                        reply: Some(done),
                    });
                }
                recorder.note_queue_depth(q.jobs.len() as u64);
                if jobs.is_empty() {
                    drop(q);
                    self.wake_workers(fit);
                    return Ok(());
                }
                self.wake_workers(fit);
            }
            // Full: refuse, or wait on `space` until jobs leave the
            // queue, admission closes, or `until` passes.
            let err = match block {
                Block::Never => SubmitError::QueueFull { depth: self.max_depth },
                Block::Until(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    if !left.is_zero() {
                        q = self
                            .space
                            .wait_timeout(q, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        continue;
                    }
                    SubmitError::Timeout
                }
                Block::Forever => {
                    q = self.space.wait(q).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            drop(q);
            return reject(err, jobs);
        }
    }

    /// The queue's current depth.
    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Wakes workers for `pushed` new jobs: one for one job, every
    /// parked worker for a run.
    fn wake_workers(&self, pushed: usize) {
        if pushed > 1 {
            self.available.notify_all();
        } else {
            self.available.notify_one();
        }
    }

    /// Takes at most `batch_size` jobs off the non-empty queue `q`
    /// holds, then, with the lock released, pulses `space` (submitters
    /// and the drain waiter) and wakes **every** parked worker while
    /// jobs remain — a deep burst engages the full pool instead of a
    /// one-at-a-time wake chain.
    fn take(
        &self,
        mut q: MutexGuard<'_, QueueState>,
        recorder: &Recorder,
        batch_size: usize,
    ) -> Vec<Job> {
        // Sample the high-water mark on dequeue too, not just on
        // submit: it must reflect the deepest backlog a worker ever
        // *saw*, including jobs piled up while every worker was busy.
        recorder.note_queue_depth(q.jobs.len() as u64);
        let take = batch_size.min(q.jobs.len());
        let batch: Vec<Job> = q.jobs.drain(..take).collect();
        let more = !q.jobs.is_empty();
        drop(q);
        self.space.notify_all();
        if more {
            self.available.notify_all();
        }
        batch
    }

    /// One non-blocking take (see [`SubmissionQueue::next_batch`]);
    /// `None` when the queue is empty.
    pub(crate) fn try_take(
        &self,
        recorder: &Recorder,
        batch_size: usize,
    ) -> Option<Vec<Job>> {
        let q = self.lock();
        (!q.jobs.is_empty()).then(|| self.take(q, recorder, batch_size))
    }

    /// One worker drain: takes at most `batch_size` jobs, waiting on
    /// `available` while the queue is empty. `None` means shutdown with
    /// the queue empty — the worker exits.
    pub(crate) fn next_batch(
        &self,
        recorder: &Recorder,
        batch_size: usize,
    ) -> Option<Vec<Job>> {
        let mut q = self.lock();
        loop {
            if !q.jobs.is_empty() {
                return Some(self.take(q, recorder, batch_size));
            }
            if q.shutdown {
                return None;
            }
            q = self.available.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The shutdown front half: closes admission, optionally waits (up
    /// to `deadline`) for workers to empty the queue, flips `shutdown`,
    /// and returns the jobs stranded past the deadline plus whether the
    /// deadline expired. `deadline: None` means "finish everything
    /// queued" (historical drop semantics) and strands nothing.
    pub(crate) fn shut_down(&self, deadline: Option<Instant>) -> (Vec<Job>, bool) {
        let mut q = self.lock();
        q.draining = true;
        // Wake submitters blocked on space: they observe `draining` and
        // return `ShuttingDown`.
        self.space.notify_all();
        let mut timed_out = false;
        if let Some(deadline) = deadline {
            // Wait for the workers to empty the queue; every take
            // pulses `space`.
            while !q.jobs.is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    timed_out = true;
                    break;
                }
                q = self
                    .space
                    .wait_timeout(q, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        q.shutdown = true;
        // Unbounded teardown (drop) leaves the queue to the workers,
        // which exit only once it is empty; a bounded drain sheds
        // whatever outlived the deadline.
        let stranded: Vec<Job> =
            if deadline.is_some() { q.jobs.drain(..).collect() } else { Vec::new() };
        self.available.notify_all();
        (stranded, timed_out)
    }

    /// Post-join sweep: drains whatever jobs dead workers left queued,
    /// so the engine can cancel them and no ticket hangs.
    pub(crate) fn sweep(&self) -> Vec<Job> {
        self.lock().jobs.drain(..).collect()
    }
}
