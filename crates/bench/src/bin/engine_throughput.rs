//! Experiment EXP-ENGINE: batched routing-engine throughput.
//!
//! Drives the `benes-engine` worker pool with a reproducible mixed
//! workload (Table I BPC members, random `Ω(n)` members, repeated and
//! fresh hard permutations) and reports throughput as the worker count
//! scales, plus the tier mix, cache effectiveness and latency quantiles
//! that produced it.
//!
//! Two load models run per grid cell:
//!
//! * **closed** — a bounded fleet of client threads each submit one
//!   request and wait for it before submitting the next, so the
//!   in-flight count never exceeds the fleet size. Latency under this
//!   model approximates service time; queue wait and service time are
//!   also reported separately (the engine decomposes them at the
//!   dequeue instant).
//! * **open** — arrivals are *paced*: at least two submitter threads
//!   offer requests on an absolute schedule at 70% of the cell's
//!   measured closed-loop throughput, independent of completions, and
//!   redeem their tickets afterwards. Latency under this model is the
//!   genuine end-to-end distribution of a served-but-not-saturated
//!   system. (The previous version submitted the whole batch up front
//!   from one thread, which made p50 queue wait identical to p50
//!   latency — it measured backlog depth, not behaviour under load.)
//!
//! Usage: `engine_throughput [--requests N] [--json PATH]
//!                           [--assert-scaling auto|FACTOR]`
//!
//! `--json` additionally writes the machine-readable results as
//! `BENCH_ENGINE.json` with a stable schema (`experiment`, `requests`,
//! `seed`, `runs[]` with per-run throughput, overload counters —
//! `shed`, `rejected`, `deadline_exceeded`, all zero on this healthy
//! grid, whose requests never fill the default 4096-deep queue — and
//! latency quantiles). Existing fields keep their names; each run also
//! carries `mode`, the queue-wait / service-time quantiles, and
//! (additively) `offered_rps` — the open model's target arrival rate,
//! `0` for closed runs. A top-level `host`
//! block (core count, build profile, git revision and dirtiness) records
//! what the numbers ran on, shaped like `BENCH_SERVE.json`'s.
//!
//! `--assert-scaling` fails the process unless closed-loop throughput
//! at n = 8 with `min(8, available cores)` workers beats 1 worker by the
//! given factor (closed mode measures capacity; paced open mode tracks
//! its offered rate by construction; more workers than cores would
//! measure oversubscription, not scaling). The gate times its own
//! [`SCALING_ROUNDS`] rounds: each round runs the 1- and many-worker
//! phases back to back, in alternating order, and the gate reads the
//! median of the per-round ratios, so a host stall slows both sides of
//! one round instead of one side of the comparison. `auto` derives the
//! factor from the machine's available parallelism (a single-core
//! runner can only assert no regression; an 8-core one demands real
//! scaling).
//!
//! A last table fixes the plan cache's admission order: per n, the
//! Waksman set-up a hit saves against what a keyed get plus an insert
//! into a full default-size cache cost, weighted by the highest hit rate
//! measured on the benchmark's streams (each cycled twice through a
//! default-size [`PlanCache`], the second cycle counted). The smallest n
//! where `h · setup(n) > get + insert(n)` is the predicted
//! [`CACHE_MIN_ORDER`]; the JSON carries the table as `cache_admission`.

use benes_bench::Table;
use benes_core::waksman;
use benes_engine::plan::{plan, Fallback, Plan};
use benes_engine::workload::{hard_permutation, mixed_workload, random_permutation, Rng64};
use benes_engine::{Engine, EngineConfig, EngineStats, PlanCache, CACHE_MIN_ORDER};
use benes_perm::Permutation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Open,
    Closed,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Open => "open",
            Mode::Closed => "closed",
        }
    }
}

struct Run {
    n: u32,
    workers: usize,
    mode: Mode,
    wall_ms: f64,
    req_per_s: f64,
    offered_rps: f64,
    stats: EngineStats,
}

impl Run {
    /// One schema-stable JSON object for this run (hand-rolled: the
    /// vendored serde_json stub has no map type). The pre-existing
    /// fields keep their names and meaning; `mode`, `queue_wait_ns`
    /// and `service_ns` are additive.
    fn to_json(&self) -> String {
        let lat = &self.stats.latency;
        let wait = &self.stats.queue_wait;
        let svc = &self.stats.service;
        format!(
            "{{\"n\":{},\"workers\":{},\"mode\":\"{}\",\"wall_ms\":{:.3},\
             \"req_per_s\":{:.1},\"offered_rps\":{:.1},\
             \"zero_setup_pct\":{:.2},\"cache_hit_pct\":{:.2},\
             \"shed\":{},\"rejected\":{},\"deadline_exceeded\":{},\
             \"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\
             \"mean\":{},\"max\":{}}},\
             \"queue_wait_ns\":{{\"p50\":{},\"p99\":{}}},\
             \"service_ns\":{{\"p50\":{},\"p99\":{}}}}}",
            self.n,
            self.workers,
            self.mode.name(),
            self.wall_ms,
            self.req_per_s,
            self.offered_rps,
            self.stats.zero_setup_rate() * 100.0,
            self.stats.cache_hit_rate() * 100.0,
            self.stats.shed,
            self.stats.rejected,
            self.stats.deadline_exceeded,
            lat.quantile(0.5),
            lat.quantile(0.9),
            lat.quantile(0.99),
            lat.quantile(0.999),
            lat.mean(),
            lat.max(),
            wait.quantile(0.5),
            wait.quantile(0.99),
            svc.quantile(0.5),
            svc.quantile(0.99),
        )
    }
}

fn parse_args() -> (usize, Option<String>, Option<f64>) {
    let mut requests = 4000usize;
    let mut json = None;
    let mut scaling = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                let v = args.next().expect("--requests needs a value");
                requests = v.parse().expect("--requests must be a positive integer");
                assert!(requests > 0, "--requests must be a positive integer");
            }
            "--json" => json = Some(args.next().expect("--json needs a path")),
            "--assert-scaling" => {
                let v = args.next().expect("--assert-scaling needs auto or a factor");
                scaling = Some(scaling_factor(&v));
            }
            other => panic!(
                "unknown argument `{other}` (try --requests N / --json PATH / \
                 --assert-scaling auto|FACTOR)"
            ),
        }
    }
    (requests, json, scaling)
}

/// The demanded 8-worker / 1-worker speed-up. `auto` keys it to the
/// cores actually available: with 8+ the pool must deliver ≥ 3×, with
/// fewer the bar drops, and a single-core box can only require that 8
/// workers are not substantially *slower* than 1 (coordination
/// overhead bounded, the failure mode the old single-lock queue had).
fn scaling_factor(spec: &str) -> f64 {
    match spec {
        "auto" => {
            match std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) {
                p if p >= 8 => 3.0,
                p if p >= 4 => 1.8,
                p if p >= 2 => 1.2,
                _ => 0.5,
            }
        }
        s => {
            let f: f64 = s.parse().expect("--assert-scaling must be auto or a number");
            assert!(f > 0.0, "--assert-scaling factor must be positive");
            f
        }
    }
}

/// Rounds the scaling gate times; it reads their median ratio.
const SCALING_ROUNDS: usize = 15;

/// The median over rounds of `a / b` for each round's `(a, b)` pair.
fn paired_median_ratio(rounds: &[(f64, f64)]) -> f64 {
    assert!(!rounds.is_empty(), "a median needs at least one round");
    let mut ratios: Vec<f64> = rounds.iter().map(|&(a, b)| a / b).collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// The scaling gate's timing: [`SCALING_ROUNDS`] rounds, each running
/// the 1- and `wide`-worker closed-loop phases over `stream` back to
/// back, 1 worker first in even rounds and `wide` first in odd ones.
/// Returns each round's `(wide-worker, 1-worker)` req/s.
fn scaling_rounds(stream: &[Permutation], wide: usize) -> Vec<(f64, f64)> {
    (0..SCALING_ROUNDS)
        .map(|round| {
            let order =
                if round % 2 == 0 { [(0, 1), (1, wide)] } else { [(1, wide), (0, 1)] };
            let mut rps = [0.0f64; 2];
            for (slot, workers) in order {
                let engine =
                    Engine::new(EngineConfig { workers, ..EngineConfig::default() });
                let wall = run_closed(&engine, stream, workers * 2);
                rps[slot] = stream.len() as f64 / wall.as_secs_f64();
            }
            (rps[1], rps[0])
        })
        .collect()
}

/// Closed-loop driver: `clients` threads round-robin over the shared
/// workload index, each submitting one request and waiting for its
/// outcome before taking the next, bounding in-flight requests at
/// `clients`. Each client reads its own clock when it starts and when
/// it finishes, and the phase runs from the first start to the last
/// finish: spawning `2·workers` threads is not service, and a clock
/// read on the spawning thread can be delayed past the whole phase on
/// an oversubscribed host.
fn run_closed(engine: &Engine, stream: &[Permutation], clients: usize) -> Duration {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(clients);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    ready.wait();
                    let start = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(perm) = stream.get(i) else { break };
                        let outcome = engine.submit(perm.clone()).wait();
                        assert!(
                            outcome.is_ok(),
                            "closed-loop request failed: {:?}",
                            outcome.result
                        );
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    let first = spans.iter().map(|&(start, _)| start).min().expect("at least one client");
    let last = spans.iter().map(|&(_, end)| end).max().expect("at least one client");
    last - first
}

/// Paced open-loop driver: `submitters` threads offer requests on an
/// **absolute** arrival schedule at `rate` req/s in aggregate — thread
/// `t` owns arrivals `t, t + submitters, …`, sleeps until each one's
/// scheduled instant and submits without waiting for any outcome, so
/// arrivals are independent of completions (the defining property of
/// an open model). An oversleep self-corrects: later arrivals are
/// already due and go out back-to-back until the schedule catches up,
/// so the long-run offered rate equals `rate` regardless of timer
/// granularity. Tickets are redeemed after the thread's last arrival;
/// per-request latency is measured by the engine at submit time, so
/// redemption order does not distort it.
fn run_open_paced(
    engine: &Engine,
    stream: &[Permutation],
    submitters: usize,
    rate: f64,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..submitters {
            s.spawn(move || {
                let mut tickets = Vec::new();
                for (idx, perm) in stream.iter().enumerate().skip(t).step_by(submitters) {
                    let due = start + Duration::from_secs_f64(idx as f64 / rate);
                    let wait = due.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    tickets.push(engine.submit(perm.clone()));
                }
                for ticket in tickets {
                    let outcome = ticket.wait();
                    assert!(
                        outcome.is_ok(),
                        "open-loop request failed: {:?}",
                        outcome.result
                    );
                }
            });
        }
    });
    start.elapsed()
}

/// The benchmark's cycled request streams: `mixed_workload(n, 2^16,
/// seed)` at these orders and seeds.
const STREAM_ORDERS: [u32; 3] = [4, 6, 8];
const STREAM_SEEDS: [u64; 3] = [1, 7, 401];
const STREAM_LEN: usize = 1 << 16;
/// Fleet rounds whose units the hit-rate probe replays (2^12 rounds of
/// fresh random permutations, as the fleet benchmark routes).
const FLEET_ROUNDS: u64 = 64;
/// Orders the break-even table covers.
const ADMISSION_ORDERS: std::ops::RangeInclusive<u32> = 3..=12;

/// The plan-cache hit rate of `stream` cycled twice through a
/// default-size cache that admits every cacheable plan, counting the
/// second cycle.
fn stream_hit_rate(stream: &[Permutation]) -> f64 {
    let config = EngineConfig::default();
    let cache = PlanCache::new(config.cache_capacity, config.cache_shards);
    let mut plans: HashMap<u64, Option<Arc<Plan>>> = HashMap::new();
    let mut hits = 0usize;
    for (i, d) in stream.iter().chain(stream).enumerate() {
        if cache.get(d).is_some() {
            hits += usize::from(i >= stream.len());
            continue;
        }
        let fresh = plans.entry(d.fingerprint()).or_insert_with(|| {
            let p = plan(d, Fallback::Waksman).expect("stream permutations plan");
            p.is_cacheable().then(|| Arc::new(p))
        });
        if let Some(p) = fresh {
            cache.insert(d, Arc::clone(p));
        }
    }
    hits as f64 / stream.len() as f64
}

/// Mean nanoseconds per call of `op` over `items`, median of five passes.
fn mean_ns<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            items.iter().for_each(&mut op);
            start.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

/// Per key of `ds`, the time of `op(d)` less the time of
/// `d.fingerprint()`: what a public cache call costs beyond the hash the
/// engine computes once per job. The two are timed back to back on a key
/// already in the CPU cache, in alternating order, so host drift and a
/// cold first touch fall on neither side.
fn keyed_ns(ds: &[Permutation], mut op: impl FnMut(&Permutation)) -> Vec<f64> {
    fn time(f: impl FnOnce()) -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as f64
    }
    ds.iter()
        .enumerate()
        .map(|(i, d)| {
            let hash = || {
                std::hint::black_box(d.fingerprint());
            };
            hash();
            if i % 2 == 0 {
                let hashed = time(hash);
                time(|| op(d)) - hashed
            } else {
                let called = time(|| op(d));
                called - time(hash)
            }
        })
        .collect()
}

/// The median of `xs`, at least 0 (a keyed cost below the timing noise).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2].max(0.0)
}

/// One order's row of the break-even table, in nanoseconds.
struct Admission {
    n: u32,
    fingerprint: f64,
    get: f64,
    insert: f64,
    setup: f64,
}

impl Admission {
    /// Times, at order `n`: the fingerprint; a keyed hit and a keyed
    /// insert into a full default-size cache, which evicts (each the
    /// public call less its own fingerprint, see [`keyed_ns`]); and one
    /// Waksman set-up.
    fn measure(n: u32) -> Self {
        let mut rng = Rng64::new(0xad41 ^ u64::from(n));
        let len = 1usize << n;
        let count = if n <= 8 { 256 } else { 64 };
        let hard: Vec<Permutation> =
            (0..count).map(|_| hard_permutation(&mut rng, n)).collect();
        let setup = mean_ns(&hard, |d| {
            std::hint::black_box(waksman::setup(d).expect("power of two"));
        });
        let fingerprint = mean_ns(&hard, |d| {
            std::hint::black_box(d.fingerprint());
        });
        let planned: Vec<Arc<Plan>> = hard
            .iter()
            .map(|d| Arc::new(plan(d, Fallback::Waksman).expect("plans")))
            .collect();
        // Each pass inserts into a fresh default-size cache, filled
        // first, so every insert evicts; fillers are older than every
        // timed key, so the timed keys all stay for the hits.
        let filler = Arc::new(Plan::SelfRoute);
        let mut inserts = Vec::new();
        let mut gets = Vec::new();
        for _ in 0..5 {
            let config = EngineConfig::default();
            let full = PlanCache::new(config.cache_capacity, config.cache_shards);
            while full.len() < full.capacity() {
                full.insert(&random_permutation(&mut rng, len), Arc::clone(&filler));
            }
            let mut next = planned.iter();
            inserts.extend(keyed_ns(&hard, |d| {
                full.insert(d, Arc::clone(next.next().expect("one plan per key")));
            }));
            gets.extend(keyed_ns(&hard, |d| {
                assert!(full.get(d).is_some(), "just inserted")
            }));
        }
        Self { n, fingerprint, get: median(gets), insert: median(inserts), setup }
    }

    /// What admitting a fresh plan saves per request at hit rate `h`:
    /// the expected set-up avoided, less the lookup and the insert.
    fn saving(&self, h: f64) -> f64 {
        h * self.setup - (self.get + self.insert)
    }

    fn to_json(&self, h: f64) -> String {
        format!(
            "{{\"n\":{},\"fingerprint_ns\":{:.1},\"get_ns\":{:.1},\"insert_ns\":{:.1},\
             \"setup_ns\":{:.1},\"saving_ns\":{:.1},\"admit\":{}}}",
            self.n,
            self.fingerprint,
            self.get,
            self.insert,
            self.setup,
            self.saving(h),
            self.saving(h) > 0.0
        )
    }
}

/// The cache-admission table: stream hit rates, the per-n break-even
/// rows, and the order they predict. Returns the JSON block.
fn cache_admission() -> String {
    let mut streams: Vec<(String, f64)> = Vec::new();
    for n in STREAM_ORDERS {
        for seed in STREAM_SEEDS {
            let stream = mixed_workload(n, STREAM_LEN, seed);
            streams.push((format!("mixed({n}) seed {seed}"), stream_hit_rate(&stream)));
        }
    }
    let mut rng = Rng64::new(0xf1ee7);
    let units: Vec<Permutation> = (0..FLEET_ROUNDS)
        .flat_map(|_| {
            let pi = random_permutation(&mut rng, 1 << 12);
            let d = benes_shard::decompose(&pi, benes_shard::balanced_block_bits(12))
                .expect("power-of-two perm decomposes");
            d.stage1()
                .iter()
                .chain(d.between())
                .chain(d.stage3())
                .cloned()
                .collect::<Vec<_>>()
        })
        .collect();
    streams.push(("fleet 2^12 units".to_string(), stream_hit_rate(&units)));
    let h = streams.iter().map(|&(_, rate)| rate).fold(0.0, f64::max);

    let rows: Vec<Admission> = ADMISSION_ORDERS.map(Admission::measure).collect();
    let predicted = rows.iter().find(|r| r.saving(h) > 0.0).map_or(0, |r| r.n);
    let mut table = Table::new(vec![
        "n",
        "fingerprint ns",
        "keyed get ns",
        "keyed insert ns",
        "set-up ns",
        "h*set-up - get - insert ns",
        "admit",
    ]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.0}", r.fingerprint),
            format!("{:.0}", r.get),
            format!("{:.0}", r.insert),
            format!("{:.0}", r.setup),
            format!("{:.0}", r.saving(h)),
            if r.saving(h) > 0.0 { "yes" } else { "no" }.to_string(),
        ]);
    }
    let rates: Vec<String> = streams
        .iter()
        .map(|(name, rate)| format!("{name}: {:.2}%", rate * 100.0))
        .collect();
    println!(
        "plan-cache hit rates, second cycle of each stream:\n  {}\n",
        rates.join("\n  ")
    );
    println!(
        "cache admission break-even at h = {:.2}% (the highest rate above):\n{}",
        h * 100.0,
        table.render()
    );
    println!(
        "predicted admission order: {predicted} (CACHE_MIN_ORDER = {CACHE_MIN_ORDER})\n"
    );
    let streams_json: Vec<String> = streams
        .iter()
        .map(|(name, rate)| {
            format!("{{\"stream\":\"{name}\",\"hit_pct\":{:.3}}}", rate * 100.0)
        })
        .collect();
    let rows_json: Vec<String> = rows.iter().map(|r| r.to_json(h)).collect();
    format!(
        "{{\"hit_rates\":[{}],\"max_hit_pct\":{:.3},\"orders\":[{}],\
         \"predicted_min_order\":{predicted},\"cache_min_order\":{CACHE_MIN_ORDER}}}",
        streams_json.join(","),
        h * 100.0,
        rows_json.join(",")
    )
}

fn main() {
    let (requests, json_path, scaling) = parse_args();
    println!("== EXP-ENGINE: batched routing-engine throughput ==\n");

    let seed = 0xbe25;

    let mut table = Table::new(vec![
        "n",
        "workers",
        "mode",
        "requests",
        "wall ms",
        "req/s",
        "offered/s",
        "zero-setup %",
        "cache hit %",
        "p50 lat ms",
        "p99 lat ms",
        "p99 wait ms",
        "p99 svc ms",
    ]);
    let mut runs: Vec<Run> = Vec::new();

    for n in [4u32, 6, 8] {
        let stream = mixed_workload(n, requests, seed);
        for workers in [1usize, 2, 4, 8] {
            // Closed first: its throughput calibrates the open model's
            // offered rate for the same cell.
            let mut closed_rps = 0.0f64;
            for mode in [Mode::Closed, Mode::Open] {
                let engine =
                    Engine::new(EngineConfig { workers, ..EngineConfig::default() });
                let (wall, offered_rps) = match mode {
                    // In-flight bound: 2 requests per worker keeps the
                    // pool busy without building an open-loop backlog.
                    Mode::Closed => (run_closed(&engine, &stream, workers * 2), 0.0),
                    Mode::Open => {
                        // Offer 70% of the measured closed-loop
                        // capacity from at least two pacing threads:
                        // loaded, not saturated, and never a
                        // single-thread submit burst.
                        let rate = (closed_rps * 0.7).max(1.0);
                        let submitters = workers.clamp(2, 4);
                        (run_open_paced(&engine, &stream, submitters, rate), rate)
                    }
                };
                if mode == Mode::Closed {
                    closed_rps = requests as f64 / wall.as_secs_f64();
                }

                let stats = engine.stats();
                assert_eq!(stats.completed as usize, requests);
                table.row(vec![
                    n.to_string(),
                    workers.to_string(),
                    mode.name().to_string(),
                    requests.to_string(),
                    format!("{:.2}", wall.as_secs_f64() * 1e3),
                    format!("{:.0}", requests as f64 / wall.as_secs_f64()),
                    format!("{:.0}", offered_rps),
                    format!("{:.1}", stats.zero_setup_rate() * 100.0),
                    format!("{:.1}", stats.cache_hit_rate() * 100.0),
                    // Closed mode: latency ≈ service time. Open mode:
                    // genuine end-to-end latency at the offered rate.
                    // The wait/svc columns make the decomposition
                    // explicit either way.
                    format!("{:.2}", stats.latency.quantile(0.5) as f64 / 1e6),
                    format!("{:.2}", stats.latency.quantile(0.99) as f64 / 1e6),
                    format!("{:.2}", stats.queue_wait.quantile(0.99) as f64 / 1e6),
                    format!("{:.2}", stats.service.quantile(0.99) as f64 / 1e6),
                ]);
                runs.push(Run {
                    n,
                    workers,
                    mode,
                    wall_ms: wall.as_secs_f64() * 1e3,
                    req_per_s: requests as f64 / wall.as_secs_f64(),
                    offered_rps,
                    stats,
                });
            }
        }
    }
    println!("{}", table.render());
    let admission = cache_admission();

    if let Some(path) = json_path {
        let body: Vec<String> = runs.iter().map(Run::to_json).collect();
        let doc = format!(
            "{{\"experiment\":\"EXP-ENGINE\",\"requests\":{requests},\"seed\":{seed},\
             \"host\":{},\"runs\":[{}],\"cache_admission\":{admission}}}\n",
            benes_bench::host_json(),
            body.join(",")
        );
        std::fs::write(&path, doc).expect("write --json output");
        println!("machine-readable results written to {path}\n");
    }

    if let Some(factor) = scaling {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let wide = cores.min(8);
        let rounds = scaling_rounds(&mixed_workload(8, requests, seed), wide);
        let ratio = paired_median_ratio(&rounds);
        let per_round: Vec<String> =
            rounds.iter().map(|&(many, one)| format!("{:.2}", many / one)).collect();
        println!(
            "scaling check (closed loop, n = 8, {wide} workers / 1 worker on {cores} \
             cores): per-round {} -> median {ratio:.2}x (required >= {factor:.2}x)",
            per_round.join(" ")
        );
        assert!(
            ratio >= factor,
            "worker scaling regressed: median {ratio:.2}x < required {factor:.2}x \
             (per-round {wide}w/1w ratios at n = 8: {})",
            per_round.join(", ")
        );
    }

    // One detailed report at the headline configuration.
    let engine = Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() });
    let outcomes = engine.run_batch(mixed_workload(6, requests, seed));
    assert!(outcomes.iter().all(benes_engine::RequestOutcome::is_ok));
    println!("detailed stats at n = 6, 4 workers:\n{}", engine.stats().report());
    println!(
        "observation: the zero-set-up tiers (self-route, omega-bit) serve most of\n\
         the workload for free, so only the hard permutations pay the O(N log N)\n\
         Waksman set-up — the paper's motivation for favouring F(n) routing,\n\
         measured end to end. Below CACHE_MIN_ORDER a repeat pays set-up again:\n\
         at these streams' hit rates an insert costs more than it saves."
    );
}

#[cfg(test)]
mod tests {
    use super::paired_median_ratio;

    #[test]
    fn paired_median_ratio_ignores_one_stalled_round() {
        // Round 3's 8-worker phase hit a stall: its ratio is an outlier
        // the median ignores.
        let rounds =
            [(130.0, 100.0), (125.0, 100.0), (40.0, 100.0), (128.0, 100.0), (60.0, 50.0)];
        assert!((paired_median_ratio(&rounds) - 1.25).abs() < 1e-9);
        // A stall over a whole round scales both sides alike.
        assert!((paired_median_ratio(&[(30.0, 20.0)]) - 1.5).abs() < 1e-9);
        // Even counts average the middle two.
        assert!((paired_median_ratio(&[(1.0, 1.0), (3.0, 1.0)]) - 2.0).abs() < 1e-9);
    }
}
