//! Request-lifecycle integration tests: bounded admission, deadlines,
//! ticket polling, caller-owned completion sinks, drain semantics, and
//! the shutdown/condvar race.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_engine::workload::mixed_workload;
use benes_engine::{
    ChaosConfig, Completion, Engine, EngineConfig, EngineError, SubmitError, SubmitOpts,
    Ticket,
};
use benes_perm::bpc::Bpc;
use benes_perm::Permutation;

fn small() -> Permutation {
    Bpc::bit_reversal(3).to_permutation()
}

/// An engine whose single worker is asleep long enough for the test to
/// deterministically observe a full queue: every request carries a
/// `delay` chaos sleep, so once the first job is dequeued the worker is
/// busy for `delay` while the queue backs up behind it.
fn slow_engine(depth: usize, delay: Duration) -> Engine {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        batch_size: 1,
        max_queue_depth: depth,
        ..EngineConfig::default()
    });
    engine.set_chaos(ChaosConfig {
        seed: 1,
        fail_per_1024: 0,
        delay_per_1024: 1024,
        delay,
    });
    engine
}

#[test]
fn bounded_queue_rejects_and_times_out() {
    let engine = slow_engine(2, Duration::from_millis(150));
    let mut tickets = vec![engine.submit(small())];
    // Give the worker time to dequeue the first job and start its
    // injected sleep; the queue is then empty and all ours.
    std::thread::sleep(Duration::from_millis(50));
    tickets.push(engine.try_submit(small()).expect("depth 2, queue empty"));
    tickets.push(engine.try_submit(small()).expect("second slot"));
    assert!(
        matches!(engine.try_submit(small()), Err(SubmitError::QueueFull { depth: 2 })),
        "third must be rejected"
    );
    assert!(matches!(
        engine.submit_wait(small(), Duration::from_millis(10)),
        Err(SubmitError::Timeout)
    ));
    // Backpressure is transient: the worker drains, space appears, and
    // a bounded wait eventually admits.
    tickets.push(
        engine
            .submit_wait(small(), Duration::from_secs(10))
            .expect("space appears once the worker drains"),
    );
    engine.clear_chaos();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected, 2, "QueueFull + Timeout both count rejected");
    assert_eq!(stats.submitted, 4);
    assert!(stats.conserves_requests());
}

#[test]
fn completion_sinks_run_once_on_the_worker_and_never_for_refusals() {
    // The wire server's path: every outcome lands on the caller's own
    // channel, tagged by the caller; a refused submission runs nothing.
    let engine = slow_engine(1, Duration::from_millis(100));
    let (tx, rx) = mpsc::sync_channel(8);
    let sink = |tag: u32| {
        let tx = tx.clone();
        Completion::new(move |outcome| tx.send((tag, outcome)).expect("test holds rx"))
    };
    engine.try_submit_to(small(), SubmitOpts::default(), sink(1)).expect("queue empty");
    // Let the worker take the first job and start its injected sleep.
    std::thread::sleep(Duration::from_millis(30));
    engine.try_submit_to(small(), SubmitOpts::default(), sink(2)).expect("one slot");
    assert!(matches!(
        engine.try_submit_to(small(), SubmitOpts::default(), sink(3)),
        Err(SubmitError::QueueFull { depth: 1 })
    ));
    drop(tx);
    let mut tags: Vec<u32> = rx
        .iter()
        .map(|(tag, outcome)| {
            assert!(outcome.is_ok(), "{outcome:?}");
            tag
        })
        .collect();
    tags.sort_unstable();
    assert_eq!(tags, [1, 2], "each admitted request completes once, the refused one never");
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.rejected), (2, 1));
    assert!(stats.conserves_requests());
}

#[test]
fn batch_admission_takes_what_fits_and_hands_back_the_tail() {
    // One reservation for as many slots as fit: with the worker asleep
    // on its first job and 3 free slots, a 5-run admits its first 3 and
    // hands the last 2 back by value, in order, their sinks not run; a
    // draining engine hands back the whole run.
    let engine = slow_engine(3, Duration::from_millis(100));
    let (tx, rx) = mpsc::sync_channel(8);
    let job = |tag: u32, tenant: u64| {
        let tx = tx.clone();
        let perm = Permutation::from_fn(8, |i| (i + tag) % 8).unwrap();
        let done =
            Completion::new(move |outcome| tx.send((tag, outcome)).expect("test holds rx"));
        (perm, SubmitOpts { deadline: None, tenant: Some(tenant) }, done)
    };
    engine.try_submit_to(small(), SubmitOpts::default(), job(0, 1).2).expect("queue empty");
    std::thread::sleep(Duration::from_millis(30));
    let (err, tail) = engine
        .try_submit_all_to((1..=5).map(|tag| job(tag, 7)).collect())
        .expect_err("only three slots are free");
    assert_eq!(err, SubmitError::QueueFull { depth: 3 });
    let refused: Vec<u32> = tail.iter().map(|(p, _, _)| p.destination(0)).collect();
    assert_eq!(refused, [4, 5], "the tail comes back in order");
    assert!(tail.iter().all(|(_, opts, _)| opts.tenant == Some(7)));
    drop(tail);

    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.rejected), (4, 2));
    let tenant = stats.tenants.iter().find(|(t, _)| *t == 7).expect("tenant 7 booked").1;
    assert_eq!((tenant.submitted, tenant.rejected), (3, 2));

    engine.clear_chaos();
    let report = engine.drain(Instant::now() + Duration::from_secs(10));
    assert!(!report.timed_out);
    let (err, tail) = engine
        .try_submit_all_to((6..=7).map(|tag| job(tag, 7)).collect())
        .expect_err("admission is closed");
    assert_eq!((err, tail.len()), (SubmitError::ShuttingDown, 2));
    drop((tail, tx));
    let mut tags: Vec<u32> = rx.iter().map(|(tag, _)| tag).collect();
    tags.sort_unstable();
    assert_eq!(tags, [0, 1, 2, 3], "admitted jobs complete once, refused ones never");
    assert!(engine.stats().conserves_requests());
}

#[test]
fn expired_deadline_sheds_without_execution() {
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    // Deadline already in the past: the worker must shed at dequeue.
    let outcome = engine.submit_with_deadline(small(), Instant::now()).wait();
    assert_eq!(outcome.result, Err(EngineError::DeadlineExceeded));
    let stats = engine.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 0, "shed requests are never executed");
    assert_eq!(stats.shed_latency.count(), 1);
    assert!(stats.conserves_requests());
    // The flight record shows the shed and proves nothing was planned.
    let record = engine.flight_records(1).pop().expect("shed is recorded");
    assert_eq!(record.ladder.len(), 1);
    assert_eq!(record.ladder[0].to_string(), "deadline-shed");

    // A generous deadline serves normally.
    let ok = engine
        .submit_with_deadline(small(), Instant::now() + Duration::from_secs(30))
        .wait();
    assert!(ok.is_ok());
}

#[test]
fn try_result_polls_without_blocking() {
    let engine = slow_engine(16, Duration::from_millis(100));
    let mut ticket = engine.submit(small());
    // In flight (worker sleeping): poll returns None immediately.
    let polled_at = Instant::now();
    let first = ticket.try_result();
    assert!(polled_at.elapsed() < Duration::from_millis(90), "poll must not block");
    assert!(first.is_none(), "request still in flight");
    // wait_timeout shorter than the remaining delay also returns None…
    assert!(ticket.wait_timeout(Duration::from_millis(1)).is_none());
    // …and a full wait resolves; later polls replay the cached outcome.
    let outcome = ticket.wait_timeout(Duration::from_secs(10)).expect("resolves");
    assert!(outcome.is_ok());
    assert_eq!(ticket.try_result().map(|o| o.result), Some(outcome.result.clone()));
    assert_eq!(ticket.wait().result, outcome.result);
}

#[test]
fn drain_serves_or_cancels_everything_and_closes_admission() {
    let engine = slow_engine(64, Duration::from_millis(120));
    let mut tickets = vec![engine.submit(small())];
    std::thread::sleep(Duration::from_millis(40)); // worker now sleeping
    for perm in mixed_workload(3, 6, 5) {
        tickets.push(engine.submit(perm));
    }
    // Deadline shorter than the in-flight job's delay: the drain must
    // time out and cancel all six queued jobs.
    let report = engine.drain(Instant::now() + Duration::from_millis(10));
    assert!(report.timed_out);
    assert_eq!(report.canceled, 6);
    // Every outstanding ticket resolves instantly now.
    let outcomes: Vec<_> = tickets.drain(..).map(Ticket::wait).collect();
    assert!(outcomes[0].is_ok(), "in-flight job finished during join");
    for o in &outcomes[1..] {
        assert_eq!(o.result, Err(EngineError::Canceled));
    }
    let stats = engine.stats();
    assert_eq!(stats.canceled, 6);
    assert!(stats.conserves_requests());

    // Admission is closed: infallible submit hands back a pre-canceled
    // ticket, fallible paths report ShuttingDown.
    assert_eq!(engine.submit(small()).wait().result, Err(EngineError::Canceled));
    assert!(matches!(engine.try_submit(small()), Err(SubmitError::ShuttingDown)));
    assert!(matches!(
        engine.submit_wait(small(), Duration::from_millis(5)),
        Err(SubmitError::ShuttingDown)
    ));
    // Draining again is a harmless no-op.
    assert_eq!(engine.drain(Instant::now()), benes_engine::DrainReport::default());
}

#[test]
fn drain_with_room_serves_all_queued_work() {
    let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
    let tickets = engine.submit_all(mixed_workload(3, 40, 6));
    let report = engine.drain(Instant::now() + Duration::from_secs(30));
    assert!(!report.timed_out);
    assert_eq!(report.canceled, 0, "a roomy deadline cancels nothing");
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    assert!(engine.stats().conserves_requests());
}

#[test]
fn submit_wait_blocked_on_space_is_woken_by_drain() {
    let engine = Arc::new(slow_engine(1, Duration::from_millis(200)));
    let _in_flight = engine.submit(small());
    std::thread::sleep(Duration::from_millis(40)); // worker now sleeping
    let _queued = engine.submit(small()); // fills the depth-1 queue
    let (tx, rx) = mpsc::channel();
    let submitter = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            // Blocks on the space condvar: the queue is full and the
            // worker sleeps another ~160ms, but drain must wake us
            // well before space would have appeared.
            let result = engine.submit_wait(small(), Duration::from_secs(30));
            tx.send(result.map(|_| ())).unwrap();
        })
    };
    std::thread::sleep(Duration::from_millis(20)); // let it block
    let report = engine.drain(Instant::now() + Duration::from_secs(10));
    let woken = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("drain must wake the blocked submitter");
    assert_eq!(woken, Err(SubmitError::ShuttingDown));
    submitter.join().unwrap();
    assert!(!report.timed_out, "two queued jobs drain well inside 10s");
}

#[test]
fn shutdown_condvar_race_never_hangs() {
    // Satellite: a worker parked in `Condvar::wait` when shutdown flips
    // must wake and exit. ~100 iterations of create → (sometimes
    // submit) → drop, each bounded by a watchdog, to catch lost-wakeup
    // interleavings. The submit in odd iterations lands while workers
    // may be anywhere between parking and re-checking the predicate.
    for i in 0..100 {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let engine = Engine::new(EngineConfig {
                workers: 3,
                batch_size: 2,
                ..EngineConfig::default()
            });
            let ticket =
                (i % 2 == 1).then(|| engine.submit(Bpc::bit_reversal(3).to_permutation()));
            drop(engine);
            if let Some(t) = ticket {
                assert!(t.wait().is_ok(), "drop drains queued work");
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("iteration {i}: shutdown hung (lost wakeup)"));
        handle.join().unwrap();
    }
}

/// What the re-entrant sinks below record, under the caller's own lock:
/// each resubmission's admission verdict, and the outcomes seen.
#[derive(Default)]
struct Chains {
    resubmitted: Vec<Result<(), SubmitError>>,
    outcomes: Vec<Result<benes_engine::Tier, EngineError>>,
}

/// A sink that records its outcome under the caller's lock and, while
/// `hops` remain, submits the next request of its chain to the same
/// engine from inside the sink, still holding that lock: the shape of a
/// wire server whose completions pump its own backlog. `ended` hears
/// once per chain, when it runs out of hops or is refused.
fn chain_sink(
    engine: Arc<Engine>,
    chains: Arc<std::sync::Mutex<Chains>>,
    hops: u32,
    ended: mpsc::Sender<()>,
) -> Completion {
    Completion::new(move |outcome| {
        let mut state = chains.lock().unwrap();
        state.outcomes.push(outcome.result);
        let verdict = if hops == 0 {
            Err(SubmitError::ShuttingDown)
        } else {
            let next = chain_sink(
                Arc::clone(&engine),
                Arc::clone(&chains),
                hops - 1,
                ended.clone(),
            );
            let verdict = engine.try_submit_to(small(), SubmitOpts::default(), next);
            state.resubmitted.push(verdict);
            verdict
        };
        drop(state);
        if verdict.is_err() {
            ended.send(()).unwrap();
        }
    })
}

#[test]
fn a_sink_may_resubmit_to_its_own_engine_from_a_worker() {
    // Four chains of 50 hops on two workers and a queue of four: every
    // hop after the first is submitted by a worker, inside the sink,
    // with the caller's lock held. No completion runs under the queue
    // lock, so none of this can deadlock, and every hop is booked.
    const CHAINS: u32 = 4;
    const HOPS: u32 = 50;
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        max_queue_depth: 4,
        ..EngineConfig::default()
    }));
    let chains = Arc::new(std::sync::Mutex::new(Chains::default()));
    let (ended, rx) = mpsc::channel();
    for _ in 0..CHAINS {
        let sink =
            chain_sink(Arc::clone(&engine), Arc::clone(&chains), HOPS, ended.clone());
        engine.try_submit_to(small(), SubmitOpts::default(), sink).expect("room for four");
    }
    for _ in 0..CHAINS {
        rx.recv_timeout(Duration::from_secs(20)).expect("a chain stalled: deadlock");
    }
    let state = chains.lock().unwrap();
    // The queue holds one job per chain, so no resubmission is refused.
    assert_eq!(state.resubmitted.len(), (CHAINS * HOPS) as usize);
    assert!(state.resubmitted.iter().all(Result::is_ok));
    assert_eq!(state.outcomes.len(), (CHAINS * (HOPS + 1)) as usize);
    assert!(state.outcomes.iter().all(Result::is_ok));
    drop(state);
    let stats = engine.stats();
    assert_eq!(stats.submitted, u64::from(CHAINS * (HOPS + 1)));
    assert_eq!(stats.completed, stats.submitted);
    assert!(stats.conserves_requests());
}

#[test]
fn a_sink_may_resubmit_to_its_own_engine_from_the_drain_sweep() {
    // One worker asleep on its first job and four more queued behind
    // it; a drain past its deadline cancels the four on the draining
    // thread, and their sinks resubmit from there (the sleeping job's
    // sink, on the worker, too). Admission is closed, so each
    // resubmission is refused and counted, nothing deadlocks, and the
    // ledger conserves.
    let engine = Arc::new(slow_engine(4, Duration::from_millis(200)));
    let chains = Arc::new(std::sync::Mutex::new(Chains::default()));
    let (ended, rx) = mpsc::channel();
    let sink = || chain_sink(Arc::clone(&engine), Arc::clone(&chains), 1, ended.clone());
    engine.try_submit_to(small(), SubmitOpts::default(), sink()).expect("queue empty");
    std::thread::sleep(Duration::from_millis(30));
    for _ in 0..4 {
        engine.try_submit_to(small(), SubmitOpts::default(), sink()).expect("four slots");
    }
    let drainer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.drain(Instant::now()))
    };
    for _ in 0..5 {
        rx.recv_timeout(Duration::from_secs(20)).expect("a sink never ran: deadlock");
    }
    let report = drainer.join().expect("drain");
    assert_eq!(report.canceled, 4);
    let state = chains.lock().unwrap();
    assert_eq!(state.resubmitted, vec![Err(SubmitError::ShuttingDown); 5]);
    let canceled =
        state.outcomes.iter().filter(|r| **r == Err(EngineError::Canceled)).count();
    assert_eq!((state.outcomes.len(), canceled), (5, 4));
    drop(state);
    let stats = engine.stats();
    assert_eq!((stats.submitted, stats.canceled, stats.rejected), (5, 4, 5));
    assert!(stats.conserves_requests());
}
