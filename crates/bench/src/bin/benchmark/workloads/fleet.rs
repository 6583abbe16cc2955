//! `fleet-round`: decompose, scatter, remote round trip, gather and
//! recombine.
//!
//! Two `benes-serve --threads 1 --workers 1` shard daemons behind an
//! in-process `ShardCoordinator` over two `RemoteShard`s. One round in
//! flight, closed loop, each round a uniformly random permutation of
//! 2^12 elements (192 units of 2^6 after the balanced split).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use benes_engine::workload::{random_permutation, Rng64};
use benes_perm::Permutation;
use benes_shard::{Backend, RemoteConfig, RemoteShard, ShardConfig, ShardCoordinator};

use super::{finish_spans, thin, threads_json, Layers, REPLAYS, SETUP_LAUNCHES};
use crate::daemon::Daemon;
use crate::live::{self, Drive, Rec, Recording, Seq};
use crate::replay;
use crate::spans::{now_ns, Spans};
use crate::{Check, Config, Metrics};

const ORDER: u32 = 12;
const SHARDS: usize = 2;
/// Every traced round is sampled. Two-second windows keep about 150
/// rounds in each.
const RECORDING: Recording =
    Recording { stride: 1, samples: 2_000, window: Duration::from_secs(2) };

/// Round `seq`'s permutation: a function of the seed and `seq` alone,
/// so a traced round can be regenerated for its replay.
fn round_perm(seed: u64, seq: u64) -> Permutation {
    let mut rng = Rng64::new(seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    random_permutation(&mut rng, 1 << ORDER)
}

/// One traced round: when the loop was free, the `route` call, and the
/// latencies its units reported.
struct Sample {
    seq: u64,
    prev_end: u64,
    t0: u64,
    t1: u64,
    units: Vec<u64>,
}

impl Seq for Sample {
    fn seq(&self) -> u64 {
        self.seq
    }
}

struct Fleet {
    daemons: Vec<Daemon>,
    coord: ShardCoordinator,
}

impl Fleet {
    fn pids(&self) -> Vec<u32> {
        self.daemons.iter().filter_map(Daemon::pid).collect()
    }

    /// Drains every shard over the wire, then checks each daemon exits
    /// cleanly.
    fn stop(mut self, check: &mut Check) {
        for d in self.coord.drain_all(Instant::now() + Duration::from_secs(5)) {
            if d.unreachable || d.timed_out || d.canceled > 0 {
                check.fail(format!("shard drain: {d:?}"));
            }
        }
        drop(self.coord);
        for d in &mut self.daemons {
            if let Err(e) = d.wait_exit(Duration::from_secs(15)) {
                check.fail(format!("shard daemon: {e}"));
            }
        }
    }
}

/// Set-up: daemon spawns and coordinator build to the first verified
/// round.
fn launch(first: &Permutation) -> Result<(Fleet, f64), String> {
    let t = Instant::now();
    let daemons = (0..SHARDS).map(|_| Daemon::spawn()).collect::<Result<Vec<_>, _>>()?;
    let backends: Vec<Box<dyn Backend>> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Box::new(RemoteShard::new(RemoteConfig::new(d.addr.clone()), i))
                as Box<dyn Backend>
        })
        .collect();
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);
    let fleet = Fleet { daemons, coord };
    match fleet.coord.route(first) {
        Ok(out) if out.verified => Ok((fleet, t.elapsed().as_secs_f64())),
        other => Err(format!("set-up round: {:?}", other.map(|o| o.summary()))),
    }
}

fn drive(
    fleet: &Fleet,
    seed: u64,
    next: &AtomicU64,
    dur: Duration,
    rec: Rec,
    rate: f64,
    check: &mut Check,
) -> Drive<Sample> {
    let pids = fleet.pids();
    live::drive(vec![()], &pids, next, dur, rec, rate, RECORDING, check, |(), t, until| {
        let mut prev_end = now_ns();
        loop {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let pi = round_perm(seed, seq);
            t.check.attempted += 1;
            let t0 = now_ns();
            let out = fleet.coord.route(&pi);
            let t1 = now_ns();
            match out {
                Ok(out) if out.verified => {
                    t.done(t1 - t0, t1);
                    if t.sampled(seq) {
                        let units = out
                            .units
                            .iter()
                            .map(|u| {
                                u64::try_from(u.latency.as_nanos()).unwrap_or(u64::MAX)
                            })
                            .collect();
                        t.sampler.samples.push(Sample { seq, prev_end, t0, t1, units });
                    }
                }
                other => {
                    t.check.fail(format!("round {seq}: {:?}", other.map(|o| o.summary())));
                }
            }
            prev_end = t1;
            t.last = t1;
            if t1 >= until {
                break;
            }
        }
    })
}

/// Every backend ledger conserves, with no retry, reconnect, hedge or
/// failover: on a healthy loopback fleet any of those is a fault.
fn conserve(coord: &ShardCoordinator, check: &mut Check) {
    let f = coord.fleet_stats();
    if !f.conserves_requests()
        || f.retries() + f.reconnects() + f.hedges() + f.failovers() > 0
    {
        check.fail(format!("fleet ledgers:\n{}", f.report()));
    }
}

pub fn run(config: &Config, check: &mut Check, m: &mut Metrics) -> String {
    let mut params = format!(
        "\"order\":{ORDER},\"shards\":{SHARDS},\"loop\":\"closed, 1 round in flight\",\
         \"daemon_threads\":1,\"daemon_workers\":1,{}",
        // Two daemons of one handler and one worker each; the
        // coordinator runs an I/O and a prober thread per shard.
        threads_json(4 + 2 * SHARDS, 1)
    );
    let first = round_perm(config.seed, 0);
    let mut launches = Vec::with_capacity(SETUP_LAUNCHES);
    let mut fleet = None;
    for _ in 0..SETUP_LAUNCHES {
        if let Some(f) = fleet.take() {
            Fleet::stop(f, check);
        }
        check.attempted += 1;
        match launch(&first) {
            Ok((f, s)) => {
                launches.push(s);
                fleet = Some(f);
            }
            Err(e) => {
                check.fail(format!("set-up: {e}"));
                return params;
            }
        }
    }
    let fleet = fleet.expect("at least one set-up launch");

    let next = AtomicU64::new(1);
    let rate =
        drive(&fleet, config.seed, &next, config.warm(), Rec::Off, 0.0, check).rate();
    if config.trace {
        let half = config.measure() / 2;
        let plain = drive(&fleet, config.seed, &next, half, Rec::Latency, rate, check);
        let traced = drive(&fleet, config.seed, &next, half, Rec::Traced, rate, check);
        conserve(&fleet.coord, check);
        let mut layers = Layers {
            untraced_cpu_us: plain.phase.cpu_us_per_req(),
            traced_cpu_us: traced.phase.cpu_us_per_req(),
            ..Layers::default()
        };
        trace(config, &fleet, traced, &mut layers, check);
        layers.emit(m, check);
    } else {
        let d =
            drive(&fleet, config.seed, &next, config.measure(), Rec::Latency, rate, check);
        conserve(&fleet.coord, check);
        params += &live::end_to_end(m, d.phase, &launches, check);
    }
    fleet.stop(check);
    params
}

fn trace(
    config: &Config,
    fleet: &Fleet,
    d: Drive<Sample>,
    layers: &mut Layers,
    check: &mut Check,
) {
    let rounds: Vec<Permutation> =
        d.samples.iter().map(|s| round_perm(config.seed, s.seq)).collect();
    let round_refs: Vec<&Permutation> = rounds.iter().collect();
    layers.shard = replay::shard(&fleet.coord, &round_refs, check);

    // The unit permutations of evenly spaced rounds, for the layers
    // every unit crosses.
    let per_round = 3 << (ORDER / 2);
    let picked = thin((0..rounds.len()).collect(), REPLAYS.div_ceil(per_round).max(1));
    let decomps: Vec<_> =
        picked.iter().filter_map(|&r| fleet.coord.decompose_for(&rounds[r]).ok()).collect();
    let units: Vec<&Permutation> = decomps
        .iter()
        .flat_map(|d| d.stage1().iter().chain(d.between()).chain(d.stage3()))
        .collect();
    let plans = layers.replay_common(&units, check);
    let (steps, rate) = replay::cache(&units, 0, |i| plans[i].clone());
    let service: Vec<u64> = steps
        .iter()
        .zip(&layers.plan)
        .map(|(c, &(plan, exec))| super::service_ns(Some(c), plan, exec))
        .collect();
    layers.cache = steps;
    layers.cache_hit_pct = rate;
    layers.replay_engine(&units, &service, check);
    layers.replay_wire(&fleet.daemons[0].addr, &units, check);
    layers.probe = replay::probe(fleet.coord.backend(0), &units, check);
    layers.transport =
        fleet.coord.fleet_stats().per_shard().iter().map(|(_, l)| *l).collect();

    let mut spans = Spans::with_capacity(d.samples.len() * 4);
    for (s, (decompose, recombine)) in d.samples.iter().zip(&layers.shard) {
        let slowest = s.units.iter().copied().max().unwrap_or(0);
        let round = s.t1 - s.t0;
        layers.unit_latency.extend(&s.units);
        layers
            .round_residual
            .push(round.saturating_sub(decompose.ns() + slowest + recombine.ns()));
        layers.gen_late.push(s.t0 - s.prev_end);

        let root = spans.push("round", s.seq, None, s.t0, s.t1);
        spans.push(
            "replay.shard.decompose",
            s.seq,
            Some(root),
            decompose.start,
            decompose.end,
        );
        spans.push_reported("reported.shard.units", root, slowest);
        spans.push(
            "replay.shard.recombine_check",
            s.seq,
            Some(root),
            recombine.start,
            recombine.end,
        );
    }
    finish_spans(&spans, layers, config, "fleet-round", check);
}
