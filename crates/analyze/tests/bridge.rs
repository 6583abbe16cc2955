//! The model↔engine bridge: replay schedules of the abstract queue
//! model's decisions against the real `SubmissionQueue` (through the
//! engine's hidden `model_bridge` hooks) and assert the two agree on
//! every conservation counter and the queue depth after every step.
//!
//! The pillar-3 model checker's proofs are about an abstraction; this
//! test is what pins the abstraction to the shipped code. The mirror
//! below *is* the model's data semantics — admission pushes what fits
//! under the bound (`Protocol::fit`) and refuses the rest, a take
//! removes up to a batch (`Protocol::take_count`), drain strands and
//! cancels what is queued — so any drift between `queue.rs` and the
//! model shows up as a counter or depth mismatch here rather than
//! silently invalidating the checker's certificates.

use benes_analyze::model::queue::Protocol;
use benes_engine::model_bridge::BridgeQueue;
use benes_engine::Ledger;
use benes_perm::Permutation;
use proptest::prelude::*;

/// One scheduled step, as the model would label it.
#[derive(Debug, Clone)]
enum Op {
    /// A submitter's admission of one job.
    Admit(u64),
    /// A batch submitter's admission of one run (as many as fit under
    /// one lock, the rest refused).
    AdmitBatch(Vec<u64>),
    /// A worker's take of at most this many jobs.
    Take(usize),
}

/// A deterministic permutation of `0..2^n` from a seed (xorshift
/// Fisher–Yates), so admits carry varied permutations.
fn seeded_perm(n: u32, seed: u64) -> Permutation {
    let size = 1u32 << n;
    let mut dest: Vec<u32> = (0..size).collect();
    let mut s = seed | 1;
    for i in (1..size as usize).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        dest.swap(i, (s % (i as u64 + 1)) as usize);
    }
    Permutation::from_destinations(dest).unwrap()
}

/// The abstract side of the bridge: the model's queue-data semantics,
/// driven deterministically.
struct Mirror {
    queued: u8,
    max_depth: u8,
    draining: bool,
    ledger: Ledger,
}

impl Mirror {
    fn new(max_depth: u8) -> Self {
        Self { queued: 0, max_depth, draining: false, ledger: Ledger::default() }
    }

    /// The model's admission rule: draining refuses the whole run;
    /// otherwise push what fits and refuse the rest (the bridge admits
    /// non-blocking, the model's space park is its blocking analogue).
    fn admit_all(&mut self, run: usize) -> usize {
        let run = u8::try_from(run).unwrap();
        let admitted =
            if self.draining { 0 } else { Protocol::fit(self.queued, self.max_depth, run) };
        self.queued += admitted;
        self.ledger.submitted += u64::from(admitted);
        self.ledger.rejected += u64::from(run - admitted);
        usize::from(admitted)
    }

    /// The model's take rule.
    fn take(&mut self, batch: usize) -> usize {
        let taken = Protocol::take_count(self.queued, u8::try_from(batch).unwrap());
        self.queued -= taken;
        self.ledger.completed += u64::from(taken);
        usize::from(taken)
    }

    /// The model's drain: close admission, cancel everything queued.
    fn drain(&mut self) -> usize {
        self.draining = true;
        let stranded = usize::from(self.queued);
        self.ledger.canceled += stranded as u64;
        self.queued = 0;
        stranded
    }
}

/// Runs one schedule end to end and checks every counter.
fn run_schedule(max_depth: u8, ops: &[Op]) {
    let real = BridgeQueue::new(usize::from(max_depth));
    let mut mirror = Mirror::new(max_depth);
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Admit(seed) => {
                let admitted = real.admit(seeded_perm(3, *seed));
                let expected = mirror.admit_all(1) == 1;
                assert_eq!(admitted, expected, "admission verdict diverged at step {step}");
            }
            Op::AdmitBatch(seeds) => {
                let perms: Vec<Permutation> =
                    seeds.iter().map(|&s| seeded_perm(3, s)).collect();
                let admitted = real.admit_all(perms);
                let expected = mirror.admit_all(seeds.len());
                assert_eq!(admitted, expected, "batch admission diverged at step {step}");
            }
            Op::Take(batch) => {
                let taken = real.take(*batch);
                let expected = mirror.take(*batch);
                assert_eq!(taken, expected, "take count diverged at step {step}");
            }
        }
        assert_eq!(
            real.depth(),
            usize::from(mirror.queued),
            "depth diverged at step {step}"
        );
    }
    let stranded = real.drain();
    let expected_stranded = mirror.drain();
    assert_eq!(stranded, expected_stranded, "drain stranded counts diverged");
    assert_eq!(real.depth(), 0);

    // Post-drain admissions must be refused identically on both sides.
    assert!(!real.admit(seeded_perm(3, 7)));
    assert_eq!(mirror.admit_all(1), 0);

    assert_eq!(real.stats().ledger(), mirror.ledger, "ledgers diverged");
    assert!(
        mirror.ledger.conserves_requests(),
        "mirror broke conservation: {:?}",
        mirror.ledger
    );
}

/// One op: biased 3:2 toward admits — single and batch mixed — so
/// queues actually fill.
fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u64>(), any::<u64>(), 1usize..4).prop_map(|(tag, seed, b)| match tag % 5 {
        0 | 1 => Op::Admit(seed),
        2 => Op::AdmitBatch((0..=(tag / 5) % 4).map(|k| seed.wrapping_add(k)).collect()),
        _ => Op::Take(b),
    })
}

/// A schedule of up to 48 ops (length itself is generated).
fn schedule_strategy() -> impl Strategy<Value = Vec<Op>> {
    (0usize..48).prop_flat_map(|len| collection::vec(op_strategy(), len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A bound the schedules rarely reach: admits land, takes and drain
    /// agree.
    #[test]
    fn deep_queue_schedules_agree(ops in schedule_strategy()) {
        run_schedule(255, &ops);
    }

    /// Tight bounds: full-queue refusals fire on the same steps on
    /// both sides.
    #[test]
    fn bounded_schedules_agree(
        max_depth in 1u8..5,
        ops in schedule_strategy(),
    ) {
        run_schedule(max_depth, &ops);
    }
}

/// A batch larger than the free depth: the fitting prefix lands in one
/// step, the tail is refused, and later takes and a drain agree.
#[test]
fn batch_prefix_admission_replays_identically() {
    let ops = vec![
        Op::Admit(1),
        Op::AdmitBatch((10..16).collect()),
        Op::Take(1),
        Op::AdmitBatch(vec![20, 21]),
        Op::Take(3),
    ];
    run_schedule(4, &ops);
}
