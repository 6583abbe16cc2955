//! The submission side of the engine: the sharded job queue, the three
//! admission disciplines (reject / block / block-with-timeout), and the
//! per-request lifecycle types ([`Completion`], [`Ticket`],
//! [`RequestOutcome`], [`SubmitError`], [`DrainReport`]).
//!
//! `SubmissionQueue` is **sharded**: one `ShardQueue` per worker, so
//! the common case is a worker popping from its own shard's mutex with
//! no cross-worker contention at all. Submitters scatter jobs across
//! shards by hashing the request fingerprint with a round-robin nonce;
//! workers drain their own shard first and **steal** from siblings
//! when it is empty, so no job ever waits behind an idle worker. The
//! admission depth bound lives in a single atomic counter (reserve by
//! compare-and-swap, release on dequeue) rather than under any lock,
//! which is also what carries the conservation invariant across steal
//! races. Two parking lots choreograph blocking: `idle`/`available`
//! parks workers when the whole queue is empty, `gate`/`space` parks
//! bounded submitters and the drain waiter. Teardown closes admission
//! with an atomic flag and closes every shard through `shut_down` /
//! `sweep`. Keeping every queue transition in this module means the
//! worker loop and the engine facade compose pieces that cannot
//! disagree about locking or wake-up order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
/// The callback runs on an engine worker: it should hand the outcome
/// off (a channel send) rather than do work of its own.
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

/// One per-worker queue shard.
///
/// The `queue` field name is load-bearing: benes-analyze's lock-graph
/// lint identifies locks by the last path segment before `.lock()`, and
/// the workspace contract pins the job queue's lock name to `queue`.
pub(crate) struct ShardQueue {
    /// Shard interior; always lock via [`ShardQueue::lock`].
    pub(crate) queue: Mutex<VecDeque<Job>>,
    /// This shard's current length, maintained next to the mutex so the
    /// per-shard depth gauges read lock-free.
    depth: AtomicU64,
}

impl ShardQueue {
    fn new() -> Self {
        Self { queue: Mutex::new(VecDeque::new()), depth: AtomicU64::new(0) }
    }

    /// Locks this shard, recovering from poison: the interior is a
    /// plain `VecDeque` that no panicking holder can leave
    /// half-mutated in a harmful way, and both submission and shutdown
    /// must always proceed.
    pub(crate) fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sharded submission queue: bounded lock-free admission in front,
/// per-worker shards with stealing behind, shutdown choreography on the
/// side.
pub(crate) struct SubmissionQueue {
    /// One shard per worker; worker `i` owns `shards[i]` and steals
    /// from the rest.
    pub(crate) shards: Vec<ShardQueue>,
    /// Total queued jobs across all shards. Admission *reserves* a slot
    /// here (CAS) before touching any shard, dequeue releases it, so
    /// the depth bound is exact without a global lock.
    depth: AtomicUsize,
    /// Admission closed ([`crate::Engine::drain`] started); queued work
    /// still drains.
    draining: AtomicBool,
    /// Workers exit once this is set and every shard is empty.
    shutdown: AtomicBool,
    /// Round-robin nonce mixed into the shard hash so identical
    /// permutations still scatter.
    rr: AtomicU64,
    /// Worker parking lot: guards nothing, orders the empty-check
    /// against `available` notifications.
    idle: Mutex<()>,
    /// Wakes workers: work arrived (or shutdown flipped).
    available: Condvar,
    /// Submitter/drain parking lot: orders the full-check against
    /// `space` notifications.
    gate: Mutex<()>,
    /// Wakes blocked submitters and the drain loop: queue space
    /// appeared (or admission closed).
    space: Condvar,
    /// Bounded-admission depth; `None` keeps the queue unbounded.
    max_depth: Option<usize>,
}

/// splitmix64 finalizer: avalanches every input bit over every output
/// bit, so any subset of fingerprint bits picks shards uniformly.
pub(crate) fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl SubmissionQueue {
    pub(crate) fn new(shard_count: usize, max_depth: Option<usize>) -> Self {
        assert!(shard_count > 0, "queue needs at least one shard");
        Self {
            shards: (0..shard_count).map(|_| ShardQueue::new()).collect(),
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            rr: AtomicU64::new(0),
            idle: Mutex::new(()),
            available: Condvar::new(),
            gate: Mutex::new(()),
            space: Condvar::new(),
            max_depth,
        }
    }

    /// Current per-shard queue lengths, lock-free (the per-shard depth
    /// gauges in [`crate::EngineStats`]).
    pub(crate) fn shard_depths(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.depth.load(Ordering::Relaxed)).collect()
    }

    /// Tries to reserve up to `want` admission slots against the depth
    /// bound in one update; returns how many it got (0 when full).
    fn reserve_slots(&self, want: usize) -> usize {
        let Some(max) = self.max_depth else {
            self.depth.fetch_add(want, Ordering::SeqCst);
            return want;
        };
        self.depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                (d < max).then(|| d + want.min(max - d))
            })
            .map_or(0, |d| want.min(max - d))
    }

    /// Releases `count` admission slots and wakes anyone parked on the
    /// gate (a blocked submitter, or the drain loop watching for the
    /// queue to empty).
    fn release_slots(&self, count: usize) {
        if count == 0 {
            return;
        }
        self.depth.fetch_sub(count, Ordering::SeqCst);
        // Touch the gate between the state change and the notify: a
        // parked thread either re-checks after our unlock (and sees the
        // new depth) or is already waiting (and receives the notify).
        drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
        self.space.notify_all();
    }

    /// Wakes parked workers; `all` wakes every sibling (deep backlog or
    /// shutdown), otherwise one is enough for one new job.
    fn wake_workers(&self, all: bool) {
        drop(self.idle.lock().unwrap_or_else(PoisonError::into_inner));
        if all {
            self.available.notify_all();
        } else {
            self.available.notify_one();
        }
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

    /// The one admission path: checks drain state, reserves as many
    /// depth slots as fit in one update (blocking per `block` while
    /// none do), pushes the reserved run onto one hashed shard under
    /// one lock, and wakes the workers once — every sibling when the
    /// run is longer than one job, so idle workers steal the rest.
    /// `Block::Never` stops there and refuses what did not fit; the
    /// blocking modes repeat until every job is in. Refused jobs are
    /// counted `rejected`, never `submitted`, and come back by value in
    /// order with their sinks not run.
    pub(crate) fn admit_all(
        &self,
        recorder: &Recorder,
        mut jobs: Vec<Submission>,
        block: Block,
    ) -> Result<(), Refused> {
        let reject = |err: SubmitError, tail: Vec<Submission>| {
            for (_, opts, _) in &tail {
                recorder.note_rejected(opts.tenant);
            }
            Err((err, tail))
        };
        let max = self.max_depth.unwrap_or(usize::MAX);
        while !jobs.is_empty() {
            if self.draining.load(Ordering::SeqCst) {
                return reject(SubmitError::ShuttingDown, jobs);
            }
            let reserved = self.reserve_slots(jobs.len());
            if reserved == 0 {
                // Full: refuse, or park on the gate until space appears,
                // admission closes, or `until` passes.
                let until = match block {
                    Block::Never => {
                        return reject(SubmitError::QueueFull { depth: max }, jobs)
                    }
                    Block::Until(until) if Instant::now() >= until => {
                        return reject(SubmitError::Timeout, jobs)
                    }
                    Block::Until(until) => Some(until),
                    Block::Forever => None,
                };
                let g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
                if !self.draining.load(Ordering::SeqCst)
                    && self.depth.load(Ordering::SeqCst) >= max
                {
                    match until {
                        None => {
                            drop(self.space.wait(g).unwrap_or_else(PoisonError::into_inner))
                        }
                        Some(until) => drop(
                            self.space
                                .wait_timeout(
                                    g,
                                    until.saturating_duration_since(Instant::now()),
                                )
                                .unwrap_or_else(PoisonError::into_inner),
                        ),
                    }
                }
                continue;
            }
            // Slots reserved: scatter the run to one shard. Fingerprint
            // ⊕ nonce through the mixer keeps hot identical
            // permutations off one mutex.
            // analyze:allow(relaxed-control): the nonce only spreads load — every shard is a correct destination, so a stale or reordered read costs uniformity, never conservation (which rides on the SeqCst `depth` counter)
            let nonce = self.rr.fetch_add(1, Ordering::Relaxed);
            let shard = &self.shards[(mix64(jobs[0].0.fingerprint() ^ nonce)
                % self.shards.len() as u64) as usize];
            {
                let mut q = shard.lock();
                // Re-check under the shard lock: `shut_down` stores
                // `draining` *before* collecting the shards, so either
                // this check observes it (abort, release the slots) or
                // the push lands before the collection and drains
                // normally.
                if self.draining.load(Ordering::SeqCst) {
                    drop(q);
                    self.release_slots(reserved);
                    return reject(SubmitError::ShuttingDown, jobs);
                }
                let submitted_at = Instant::now();
                for (perm, opts, done) in jobs.drain(..reserved) {
                    recorder.note_submitted(opts.tenant);
                    q.push_back(Job {
                        perm,
                        submitted_at,
                        deadline: opts.deadline,
                        tenant: opts.tenant,
                        reply: Some(done),
                    });
                }
                shard.depth.store(q.len() as u64, Ordering::Relaxed);
            }
            recorder.note_queue_depth(self.depth.load(Ordering::SeqCst) as u64);
            self.wake_workers(reserved > 1);
            if matches!(block, Block::Never) && !jobs.is_empty() {
                return reject(SubmitError::QueueFull { depth: max }, jobs);
            }
        }
        Ok(())
    }

    /// The queue's total reserved depth (admission slots held, pushed
    /// or not).
    pub(crate) fn queued_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// One scan over the shards: the worker's own shard first, then a
    /// steal sweep over the siblings. At most one shard lock is held at
    /// a time.
    pub(crate) fn try_take(
        &self,
        recorder: &Recorder,
        batch_size: usize,
        worker: usize,
    ) -> Option<Vec<Job>> {
        let count = self.shards.len();
        for k in 0..count {
            let shard = &self.shards[(worker + k) % count];
            let batch: Vec<Job> = {
                let mut q = shard.lock();
                if q.is_empty() {
                    continue;
                }
                let take = batch_size.min(q.len());
                let batch: Vec<Job> = q.drain(..take).collect();
                shard.depth.store(q.len() as u64, Ordering::Relaxed);
                batch
            };
            // Sample the high-water mark on dequeue too, not just on
            // submit: it must reflect the deepest backlog a worker ever
            // *saw*, including jobs piled up while every worker was busy.
            recorder.note_queue_depth(self.depth.load(Ordering::SeqCst) as u64);
            self.release_slots(batch.len());
            return Some(batch);
        }
        None
    }

    /// One worker drain: takes at most `batch_size` jobs from the first
    /// non-empty shard (own shard first, then stealing), parking on
    /// `idle` when the whole queue is empty. When a backlog remains
    /// after the take, **every** sibling is woken at once — a deep
    /// burst engages the full pool instead of a one-at-a-time wake
    /// chain. `None` means shutdown with every shard empty — the worker
    /// exits.
    pub(crate) fn next_batch(
        &self,
        recorder: &Recorder,
        batch_size: usize,
        worker: usize,
    ) -> Option<Vec<Job>> {
        loop {
            if let Some(batch) = self.try_take(recorder, batch_size, worker) {
                if self.depth.load(Ordering::SeqCst) > 0 {
                    self.wake_workers(true);
                }
                return Some(batch);
            }
            if self.shutdown.load(Ordering::SeqCst)
                && self.depth.load(Ordering::SeqCst) == 0
            {
                return None;
            }
            if self.depth.load(Ordering::SeqCst) > 0 {
                // A submitter holds a reserved slot it has not pushed
                // yet (or a sibling is mid-steal); the queue is not
                // really empty, so re-scan rather than park.
                std::thread::yield_now();
                continue;
            }
            // Park until work or shutdown. The empty-check runs under
            // `idle`, pairing with the notifier's lock-then-notify.
            let mut g = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            while self.depth.load(Ordering::SeqCst) == 0
                && !self.shutdown.load(Ordering::SeqCst)
            {
                g = self.available.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// The shutdown front half: closes admission, optionally waits (up
    /// to `deadline`) for workers to empty every shard, flips
    /// `shutdown`, and returns the jobs stranded past the deadline plus
    /// whether the deadline expired. `deadline: None` means "finish
    /// everything queued" (historical drop semantics) and strands
    /// nothing.
    pub(crate) fn shut_down(&self, deadline: Option<Instant>) -> (Vec<Job>, bool) {
        // Close admission *before* touching any shard: `admit` re-checks
        // this flag under its shard lock, so once we hold a shard's lock
        // below, no further push can land on it.
        self.draining.store(true, Ordering::SeqCst);
        // Wake submitters blocked on space: they observe `draining` and
        // return `ShuttingDown`.
        drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
        self.space.notify_all();
        let mut timed_out = false;
        if let Some(deadline) = deadline {
            // Wait for the workers to empty the queue; every dequeue
            // pulses `space` when it releases its slots.
            let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
            while self.depth.load(Ordering::SeqCst) > 0 {
                let now = Instant::now();
                if now >= deadline {
                    timed_out = true;
                    break;
                }
                let (guard, _) = self
                    .space
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                g = guard;
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Unbounded teardown (drop) leaves the shards for the workers,
        // which exit only once every shard is empty; a bounded drain
        // sheds whatever outlived the deadline, shard by shard.
        let stranded: Vec<Job> =
            if deadline.is_some() { self.collect_all() } else { Vec::new() };
        self.wake_workers(true);
        (stranded, timed_out)
    }

    /// Post-join sweep: drains whatever jobs dead workers left queued
    /// in any shard, so the engine can cancel them and no ticket hangs.
    pub(crate) fn sweep(&self) -> Vec<Job> {
        self.collect_all()
    }

    /// Empties every shard (one lock at a time) and releases the
    /// drained slots.
    fn collect_all(&self) -> Vec<Job> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut q = shard.lock();
            out.extend(q.drain(..));
            shard.depth.store(0, Ordering::Relaxed);
        }
        self.release_slots(out.len());
        out
    }
}
