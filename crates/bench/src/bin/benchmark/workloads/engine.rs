//! `engine-closed`: the in-process engine with no wire in the way.
//!
//! One `Engine` with one worker; one load thread in a closed loop that
//! keeps [`INFLIGHT`] requests of a cycled `mixed_workload(6)` stream
//! in flight, submitting the next as soon as the oldest completes. Queue
//! wait plus wake-up is most of a request's latency here, so this
//! workload shows engine handoff, cache and planner changes. One load
//! thread, not one per request in flight, keeps the program's worker
//! and the load within two cores.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use benes_engine::workload::mixed_workload;
use benes_engine::{Engine, EngineConfig};
use benes_perm::Permutation;

use super::{
    finish_spans, pos, push_service, service_ns, stream_cache, thin, threads_json, Layers,
};
use super::{REPLAYS, SETUP_LAUNCHES, STREAM_LEN};
use crate::daemon::Daemon;
use crate::live::{self, Drive, Rec, Recording, Seq};
use crate::spans::{now_ns, Spans};
use crate::{Check, Config, Metrics};

const ORDER: u32 = 6;
/// Requests the load thread keeps in flight.
const INFLIGHT: usize = 2;
/// Every 32nd traced request is sampled; half-second windows hold about
/// 20 000 requests each.
const RECORDING: Recording =
    Recording { stride: 32, samples: REPLAYS, window: Duration::from_millis(500) };

fn engine_config() -> EngineConfig {
    EngineConfig { workers: 1, ..EngineConfig::default() }
}

/// One traced request: when its slot in the window came free
/// (`prev_end`), and the ends of `submit` and `wait`.
#[derive(Clone, Copy)]
struct Sample {
    seq: u64,
    prev_end: u64,
    t0: u64,
    t1: u64,
    t2: u64,
}

impl Seq for Sample {
    fn seq(&self) -> u64 {
        self.seq
    }
}

fn drive(
    engine: &Engine,
    stream: &[Permutation],
    next: &AtomicU64,
    dur: Duration,
    rec: Rec,
    rate: f64,
    check: &mut Check,
) -> Drive<Sample> {
    live::drive(vec![()], &[], next, dur, rec, rate, RECORDING, check, |(), t, until| {
        let traced = rec == Rec::Traced;
        let mut inflight = VecDeque::with_capacity(INFLIGHT);
        let mut prev_end = now_ns();
        loop {
            while inflight.len() < INFLIGHT && prev_end < until {
                let seq = next.fetch_add(1, Ordering::Relaxed);
                let perm = stream[pos(seq)].clone();
                let t0 = now_ns();
                let ticket = engine.submit(perm);
                let t1 = if traced { now_ns() } else { t0 };
                inflight.push_back((Sample { seq, prev_end, t0, t1, t2: 0 }, ticket));
            }
            // One worker completes requests in submission order.
            let Some((mut s, ticket)) = inflight.pop_front() else { break };
            let outcome = ticket.wait();
            s.t2 = now_ns();
            t.check.attempted += 1;
            match outcome.result {
                Ok(_) => t.done(s.t2 - s.t0, s.t2),
                Err(e) => t.check.fail(format!("request {}: {e}", s.seq)),
            }
            if t.sampled(s.seq) {
                t.sampler.samples.push(s);
            }
            prev_end = s.t2;
            t.last = s.t2;
        }
    })
}

/// The engine's ledger must conserve and count exactly the requests
/// this benchmark submitted to it, all completed.
fn conserve(engine: &Engine, submitted: u64, check: &mut Check) {
    let s = engine.stats();
    if !s.conserves_requests() || s.submitted != submitted || s.completed != submitted {
        check.fail(format!(
            "engine ledger: submitted {} completed {} failed {} shed {} canceled {} \
             (benchmark submitted {submitted})",
            s.submitted, s.completed, s.failed, s.shed, s.canceled
        ));
    }
}

pub fn run(config: &Config, check: &mut Check, m: &mut Metrics) -> String {
    let stream = mixed_workload(ORDER, STREAM_LEN, config.seed);

    // Set-up: engine construction to the first verified reply.
    let mut launches = Vec::with_capacity(SETUP_LAUNCHES);
    let mut engine = None;
    for _ in 0..SETUP_LAUNCHES {
        drop(engine.take());
        let t = Instant::now();
        let e = Engine::new(engine_config());
        check.attempted += 1;
        if let Err(err) = e.submit(stream[0].clone()).wait().result {
            check.fail(format!("set-up request: {err}"));
        }
        launches.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up launch");
    // The last launch's request went to this engine too.
    let attempted_before = check.attempted - 1;

    let next = AtomicU64::new(1);
    let rate = drive(&engine, &stream, &next, config.warm(), Rec::Off, 0.0, check).rate();
    let mut samples_note = String::new();
    if config.trace {
        let half = config.measure() / 2;
        let plain = drive(&engine, &stream, &next, half, Rec::Latency, rate, check);
        let traced = drive(&engine, &stream, &next, half, Rec::Traced, rate, check);
        conserve(&engine, check.attempted - attempted_before, check);
        let mut layers = Layers {
            untraced_cpu_us: plain.phase.cpu_us_per_req(),
            traced_cpu_us: traced.phase.cpu_us_per_req(),
            engine_stats: Some(engine.stats()),
            ..Layers::default()
        };
        trace(config, &stream, traced, &mut layers, check);
        layers.emit(m, check);
    } else {
        let d = drive(&engine, &stream, &next, config.measure(), Rec::Latency, rate, check);
        conserve(&engine, check.attempted - attempted_before, check);
        samples_note = live::end_to_end(m, d.phase, &launches, check);
    }
    let report = engine.drain(Instant::now() + Duration::from_secs(5));
    if report.canceled > 0 || report.timed_out {
        check.fail("engine drain canceled requests or timed out");
    }
    format!(
        "\"order\":{ORDER},\"stream\":{STREAM_LEN},\"loop\":\"closed\",\"inflight\":{INFLIGHT},\
         \"engine_workers\":1{samples_note},{}",
        threads_json(1, 1)
    )
}

fn trace(
    config: &Config,
    stream: &[Permutation],
    d: Drive<Sample>,
    layers: &mut Layers,
    check: &mut Check,
) {
    let samples = thin(d.samples, REPLAYS);
    let perms: Vec<&Permutation> = samples.iter().map(|s| &stream[pos(s.seq)]).collect();
    layers.replay_common(&perms, check);
    stream_cache(layers, stream, d.seqs.clone());
    let first = d.seqs.start;
    match Daemon::spawn() {
        Ok(daemon) => {
            layers.replay_wire(&daemon.addr, &perms, check);
            layers.replay_shard(&daemon.addr, &perms, check);
            if let Err(e) = daemon.drain() {
                check.fail(format!("replay daemon: {e}"));
            }
        }
        Err(e) => check.fail(format!("replay daemon: {e}")),
    }

    let mut spans = Spans::with_capacity(samples.len() * 7);
    for (i, s) in samples.iter().enumerate() {
        let step = layers.cache_step(first, s.seq);
        let (plan, exec) = layers.plan[i];
        let service = service_ns(step.as_ref(), plan, exec);
        layers.engine_submit.push(s.t1 - s.t0);
        layers.engine_wait.push(s.t2 - s.t1);
        layers.engine_handoff.push((s.t2 - s.t0).saturating_sub(service));
        layers.gen_late.push(s.t0 - s.prev_end);

        let root = spans.push("request", s.seq, None, s.t0, s.t2);
        spans.push("engine.submit", s.seq, Some(root), s.t0, s.t1);
        let wait = spans.push("engine.wait", s.seq, Some(root), s.t1, s.t2);
        push_service(&mut spans, s.seq, wait, step.as_ref(), plan, exec);
    }
    finish_spans(&spans, layers, config, "engine-closed", check);
}
