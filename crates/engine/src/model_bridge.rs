//! Test-support hooks bridging the real `SubmissionQueue`
//! to `benes-analyze`'s abstract queue model.
//!
//! The pillar-3 model checker proves properties of an *abstract* queue
//! protocol; those proofs are only worth anything if the abstraction
//! matches this crate. Dependency direction blocks the obvious test
//! placement — `benes-analyze` depends on `benes-engine`, so the
//! bridge test lives over there — and the queue internals are
//! `pub(crate)`, so this module exposes exactly the deterministic
//! single-threaded surface that test needs: admit and batch admit
//! (non-blocking), take, drain, and the conservation counters. Nothing
//! here is public API; it is `#[doc(hidden)]` and exists solely so the
//! analyze crate can replay model schedules against the real type.

use std::time::Instant;

use benes_obs::Terminal;
use benes_perm::Permutation;

use crate::queue::{Block, SubmissionQueue};
use crate::stats::Recorder;
use crate::{Completion, EngineStats, SubmitOpts};

/// A `SubmissionQueue` plus its own stats `Recorder`, driven directly
/// (no worker threads) so every scheduling decision is the caller's.
pub struct BridgeQueue {
    queue: SubmissionQueue,
    recorder: Recorder,
}

impl BridgeQueue {
    /// A fresh queue bounded at `max_depth` jobs.
    #[must_use]
    pub fn new(max_depth: usize) -> Self {
        Self { queue: SubmissionQueue::new(max_depth), recorder: Recorder::new() }
    }

    /// Non-blocking admission; `true` if the job was enqueued, `false`
    /// if it was rejected (queue full or draining). The ticket is
    /// dropped — the bridge counts outcomes through the recorder.
    pub fn admit(&self, perm: Permutation) -> bool {
        self.admit_all(vec![perm]) == 1
    }

    /// Non-blocking batch admission (one lock for as many jobs as fit,
    /// one wake); returns how many of `perms` were enqueued — a prefix
    /// — and drops the refused tail.
    pub fn admit_all(&self, perms: Vec<Permutation>) -> usize {
        let total = perms.len();
        let jobs = perms
            .into_iter()
            .map(|perm| (perm, SubmitOpts::default(), Completion::new(|_| {})))
            .collect();
        match self.queue.admit_all(&self.recorder, jobs, Block::Never) {
            Ok(()) => total,
            Err((_, tail)) => total - tail.len(),
        }
    }

    /// One non-blocking take of at most `batch` jobs; every job taken
    /// is immediately marked completed (the bridge has no planner).
    /// Returns how many jobs came off.
    pub fn take(&self, batch: usize) -> usize {
        match self.queue.try_take(&self.recorder, batch) {
            Some(jobs) => {
                for _ in &jobs {
                    self.recorder.note_terminal(None, Terminal::Completed);
                }
                jobs.len()
            }
            None => 0,
        }
    }

    /// Current queue depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Immediate shutdown: closes admission, strands everything still
    /// queued, and counts each stranded job canceled (mirroring
    /// `Engine::drain`'s terminal accounting). Returns the stranded
    /// count.
    pub fn drain(&self) -> usize {
        let (stranded, _) = self.queue.shut_down(Some(Instant::now()));
        for _ in &stranded {
            self.recorder.note_terminal(None, Terminal::Canceled);
        }
        stranded.len()
    }

    /// The conservation counters as a stats snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.recorder.snapshot()
    }
}
