//! The model↔engine bridge: replay schedules of the abstract queue
//! model's decisions against the real `SubmissionQueue` (through the
//! engine's hidden `model_bridge` hooks) and assert the two agree on
//! every conservation counter, the total depth, and the per-shard
//! depths after every step.
//!
//! The pillar-3 model checker's proofs are about an abstraction; this
//! test is what pins the abstraction to the shipped code. The mirror
//! below *is* the model's data semantics — admission reserves then
//! scatters by `mix64(fingerprint ^ nonce)` (a batch reserves as many
//! slots as fit in one step and lands its run on the shard its first
//! fingerprint picks), dequeue uses the model's
//! own `Protocol::scan_take` (own shard first, then steal), drain
//! strands and cancels what is queued — so any drift between
//! `queue.rs` and the model shows up as a counter or depth mismatch
//! here rather than silently invalidating the checker's certificates.

use benes_analyze::model::queue::Protocol;
use benes_engine::model_bridge::BridgeQueue;
use benes_engine::Ledger;
use benes_perm::Permutation;
use proptest::prelude::*;

/// One scheduled step, as the model would label it.
#[derive(Debug, Clone)]
enum Op {
    /// A submitter's admit (reserve + scatter + push).
    Admit(u64),
    /// A batch submitter's admit of one run (one reservation for as
    /// many slots as fit, one scatter, one push).
    AdmitBatch(Vec<u64>),
    /// A worker's take scan: `(worker, batch)`.
    Take(usize, usize),
}

/// A deterministic permutation of `0..2^n` from a seed (xorshift
/// Fisher–Yates), so admits carry varied fingerprints.
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
    shards: Vec<u8>,
    max_depth: Option<usize>,
    nonce: u64,
    draining: bool,
    ledger: Ledger,
}

impl Mirror {
    fn new(shard_count: usize, max_depth: Option<usize>) -> Self {
        Self {
            shards: vec![0; shard_count],
            max_depth,
            nonce: 0,
            draining: false,
            ledger: Ledger::default(),
        }
    }

    fn depth(&self) -> usize {
        self.shards.iter().map(|&s| s as usize).sum()
    }

    /// The model's admission rule: draining rejects; a full bounded
    /// queue rejects (the bridge admits non-blocking, the model's
    /// gate-park branch is its blocking analogue); otherwise reserve,
    /// scatter by fingerprint ⊕ nonce, push.
    fn admit(&mut self, fingerprint: u64) -> bool {
        self.admit_all(&[fingerprint]) == 1
    }

    /// The model's batch admission: reserve `min(run, free)` slots in
    /// one step, push them on one shard, reject the rest.
    fn admit_all(&mut self, fingerprints: &[u64]) -> usize {
        let free = match (self.draining, self.max_depth) {
            (true, _) => 0,
            (false, Some(max)) => max.saturating_sub(self.depth()),
            (false, None) => usize::MAX,
        };
        let admitted = fingerprints.len().min(free);
        if admitted > 0 {
            let shard =
                BridgeQueue::scatter_shard(fingerprints[0], self.nonce, self.shards.len());
            self.nonce += 1;
            self.shards[shard] += u8::try_from(admitted).unwrap();
            self.ledger.submitted += admitted as u64;
        }
        self.ledger.rejected += (fingerprints.len() - admitted) as u64;
        admitted
    }

    /// The model's dequeue rule, via the checker's own `scan_take`.
    fn take(&mut self, batch: usize, worker: usize) -> usize {
        let batch = u8::try_from(batch.min(255)).unwrap();
        match Protocol::scan_take(&self.shards, batch, worker) {
            Some((shard, taken)) => {
                self.shards[shard] -= taken;
                self.ledger.completed += u64::from(taken);
                usize::from(taken)
            }
            None => 0,
        }
    }

    /// The model's drain: close admission, cancel everything queued.
    fn drain(&mut self) -> usize {
        self.draining = true;
        let stranded = self.depth();
        self.ledger.canceled += stranded as u64;
        self.shards.iter_mut().for_each(|s| *s = 0);
        stranded
    }
}

/// Asserts the real queue and the mirror agree on depth and placement.
fn assert_in_sync(real: &BridgeQueue, mirror: &Mirror, step: usize) {
    assert_eq!(real.depth(), mirror.depth(), "total depth diverged at step {step}");
    let real_shards = real.shard_depths();
    let mirror_shards: Vec<u64> = mirror.shards.iter().map(|&s| u64::from(s)).collect();
    assert_eq!(real_shards, mirror_shards, "per-shard depths diverged at step {step}");
}

/// Runs one schedule end to end and checks every counter.
fn run_schedule(shard_count: usize, max_depth: Option<usize>, ops: &[Op]) {
    let real = BridgeQueue::new(shard_count, max_depth);
    let mut mirror = Mirror::new(shard_count, max_depth);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Admit(seed) => {
                let perm = seeded_perm(3, seed);
                let admitted = real.admit(perm.clone());
                let expected = mirror.admit(perm.fingerprint());
                assert_eq!(admitted, expected, "admission verdict diverged at step {step}");
            }
            Op::AdmitBatch(ref seeds) => {
                let perms: Vec<Permutation> =
                    seeds.iter().map(|&s| seeded_perm(3, s)).collect();
                let fingerprints: Vec<u64> =
                    perms.iter().map(Permutation::fingerprint).collect();
                let admitted = real.admit_all(perms);
                let expected = mirror.admit_all(&fingerprints);
                assert_eq!(admitted, expected, "batch admission diverged at step {step}");
            }
            Op::Take(worker, batch) => {
                let worker = worker % shard_count;
                let taken = real.take(batch, worker);
                let expected = mirror.take(batch, worker);
                assert_eq!(taken, expected, "take count diverged at step {step}");
            }
        }
        assert_in_sync(&real, &mirror, step);
    }
    let stranded = real.drain();
    let expected_stranded = mirror.drain();
    assert_eq!(stranded, expected_stranded, "drain stranded counts diverged");
    assert_in_sync(&real, &mirror, ops.len());

    // Post-drain admissions must be refused identically on both sides.
    let perm = seeded_perm(3, 7);
    assert!(!real.admit(perm.clone()));
    assert!(!mirror.admit(perm.fingerprint()));

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
    (any::<u64>(), any::<u64>(), 0usize..4, 1usize..4).prop_map(|(tag, seed, w, b)| {
        match tag % 5 {
            0 | 1 => Op::Admit(seed),
            2 => {
                Op::AdmitBatch((0..=(tag / 5) % 4).map(|k| seed.wrapping_add(k)).collect())
            }
            _ => Op::Take(w, b),
        }
    })
}

/// A schedule of up to 48 ops (length itself is generated).
fn schedule_strategy() -> impl Strategy<Value = Vec<Op>> {
    (0usize..48).prop_flat_map(|len| collection::vec(op_strategy(), len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded queues: every admit lands, takes and drain agree.
    #[test]
    fn unbounded_schedules_agree(
        shard_count in 1usize..5,
        ops in schedule_strategy(),
    ) {
        run_schedule(shard_count, None, &ops);
    }

    /// Bounded queues: full-queue rejections fire on the same steps on
    /// both sides (the depth bound is the model's `max_depth` check and
    /// the real queue's CAS reservation).
    #[test]
    fn bounded_schedules_agree(
        shard_count in 1usize..4,
        max_depth in 1usize..5,
        ops in schedule_strategy(),
    ) {
        run_schedule(shard_count, Some(max_depth), &ops);
    }
}

/// A fixed burst regression: admissions scatter over several shards,
/// then a single worker steals everything in own-shard-first order.
#[test]
fn steal_sweep_replays_identically() {
    let ops: Vec<Op> =
        (0..12).map(Op::Admit).chain((0..8).map(|_| Op::Take(1, 2))).collect();
    run_schedule(3, None, &ops);
}

/// A batch larger than the free depth: the fitting prefix lands on one
/// shard in one step, the tail is refused, and later takes and a
/// drain agree.
#[test]
fn batch_prefix_admission_replays_identically() {
    let ops = vec![
        Op::Admit(1),
        Op::AdmitBatch((10..16).collect()),
        Op::Take(0, 1),
        Op::AdmitBatch(vec![20, 21]),
        Op::Take(1, 3),
    ];
    run_schedule(2, Some(4), &ops);
}
