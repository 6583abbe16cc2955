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
//! at n = 8 with 8 workers beats 1 worker by the given factor (closed
//! mode measures capacity; paced open mode tracks its offered rate by
//! construction). The gate times its own [`SCALING_ROUNDS`] rounds: each
//! round runs the 1- and 8-worker phases back to back, in alternating
//! order, and the gate reads the median of the per-round ratios, so a
//! host stall slows both sides of one round instead of one side of the
//! comparison. `auto` derives the factor from the machine's available
//! parallelism (a single-core runner can only assert no regression; an
//! 8-core one demands real scaling).

use benes_bench::Table;
use benes_engine::workload::mixed_workload;
use benes_engine::{Engine, EngineConfig, EngineStats};
use benes_perm::Permutation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
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
const SCALING_ROUNDS: usize = 7;

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
/// the 1- and 8-worker closed-loop phases over `stream` back to back,
/// 1 worker first in even rounds and 8 first in odd ones. Returns each
/// round's `(8-worker, 1-worker)` req/s.
fn scaling_rounds(stream: &[Permutation]) -> Vec<(f64, f64)> {
    (0..SCALING_ROUNDS)
        .map(|round| {
            let order = if round % 2 == 0 { [1, 8] } else { [8, 1] };
            let mut rps = [0.0f64; 2];
            for workers in order {
                let engine =
                    Engine::new(EngineConfig { workers, ..EngineConfig::default() });
                let wall = run_closed(&engine, stream, workers * 2);
                rps[usize::from(workers == 8)] = stream.len() as f64 / wall.as_secs_f64();
            }
            (rps[1], rps[0])
        })
        .collect()
}

/// Closed-loop driver: `clients` threads round-robin over the shared
/// workload index, each submitting one request and waiting for its
/// outcome before taking the next, bounding in-flight requests at
/// `clients`. The clock starts once every client thread is running:
/// spawning `2·workers` threads is not service, and in a short run it
/// would weigh on the many-worker cells alone.
fn run_closed(engine: &Engine, stream: &[Permutation], clients: usize) -> Duration {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(clients + 1);
    let start = std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                ready.wait();
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
            });
        }
        ready.wait();
        Instant::now()
    });
    start.elapsed()
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

    if let Some(path) = json_path {
        let body: Vec<String> = runs.iter().map(Run::to_json).collect();
        let doc = format!(
            "{{\"experiment\":\"EXP-ENGINE\",\"requests\":{requests},\"seed\":{seed},\
             \"host\":{},\"runs\":[{}]}}\n",
            benes_bench::host_json(),
            body.join(",")
        );
        std::fs::write(&path, doc).expect("write --json output");
        println!("machine-readable results written to {path}\n");
    }

    if let Some(factor) = scaling {
        let rps = |workers: usize| {
            runs.iter()
                .find(|r| r.n == 8 && r.workers == workers && r.mode == Mode::Closed)
                .expect("grid covers n=8")
                .req_per_s
        };
        let grid = rps(8) / rps(1);
        let rounds = scaling_rounds(&mixed_workload(8, requests, seed));
        let ratio = paired_median_ratio(&rounds);
        let per_round: Vec<String> =
            rounds.iter().map(|&(eight, one)| format!("{:.2}", eight / one)).collect();
        println!(
            "scaling check (closed loop, n = 8, 8 workers / 1 worker): per-round \
             {} -> median {ratio:.2}x (required >= {factor:.2}x; the grid's single \
             phases read {grid:.2}x)",
            per_round.join(" ")
        );
        assert!(
            ratio >= factor,
            "worker scaling regressed: median {ratio:.2}x < required {factor:.2}x \
             (per-round 8w/1w ratios at n = 8: {})",
            per_round.join(", ")
        );
    }

    // One detailed report at the headline configuration.
    let engine = Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() });
    let outcomes = engine.run_batch(mixed_workload(6, requests, seed));
    assert!(outcomes.iter().all(benes_engine::RequestOutcome::is_ok));
    println!("detailed stats at n = 6, 4 workers:\n{}", engine.stats().report());
    println!(
        "observation: the zero-set-up tiers (self-route, omega-bit) and the plan\n\
         cache absorb the workload's repeats, so only first-seen hard permutations\n\
         pay the O(N log N) Waksman set-up — the paper's motivation for favouring\n\
         F(n) routing, measured end to end."
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
