//! Experiment EXP-SHARD: block-decomposition coordinator throughput.
//!
//! Routes random giant permutations (`N = 2^n`, default n = 14..18)
//! through `benes-shard`: three-stage decomposition, scatter of the
//! `2B + S` sub-permutations across a fleet of engine shards, gather,
//! and bitwise recombination verification. Reports wall time split into
//! decompose vs. route+verify, element throughput, and the round's unit
//! latency quantiles (exact nearest-rank order statistics over the
//! `ShardOutcome`'s units) as the shard count scales. Decomposition
//! does not depend on the shard count: its column is the median of five
//! runs per n, repeated on every row of that n.
//!
//! A second table, the share probe, times what one daemon of a
//! 2-shard fleet round does with its half of a 2^12 round's units:
//! [`SHARE_UNITS`] units through a 1-worker `Engine`, admitted in one
//! `try_submit_all_to` call as the wire daemon admits them, against the
//! same units through serial `plan::plan` + `plan::execute`. The ratio,
//! the median over shares of engine time over serial time, is the
//! engine's per-job overhead on the fleet's hot path.
//!
//! Usage: `shard_throughput [--max-n N] [--json PATH]`
//!
//! `--json` writes `BENCH_SHARD.json` with a stable schema
//! (`experiment`, `seed`, `max_n`, a `host` block shaped like
//! `BENCH_SERVE.json`'s, `runs[]` with per-run `n`, `shards`, `units`,
//! phase walls, throughput, and per-unit latency quantiles) and,
//! additively, a `share` object with the share probe's medians.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use benes_core::Benes;
use benes_engine::plan::{execute, plan, Fallback};
use benes_engine::workload::{random_permutation, Rng64};
use benes_engine::{Completion, Engine, EngineConfig, SubmitOpts};
use benes_perm::Permutation;
use benes_shard::{decompose, ShardConfig, ShardCoordinator, ShardOutcome};

use benes_bench::Table;

struct Run {
    n: u32,
    shards: usize,
    units: usize,
    decompose_ms: f64,
    route_ms: f64,
    elems_per_s: f64,
    p50_ns: u64,
    p99_ns: u64,
}

impl Run {
    /// One schema-stable JSON object (hand-rolled: the vendored
    /// serde_json stub has no map type).
    fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"shards\":{},\"units\":{},\"decompose_ms\":{:.3},\
             \"route_ms\":{:.3},\"elems_per_s\":{:.0},\
             \"unit_latency_ns\":{{\"p50\":{},\"p99\":{}}}}}",
            self.n,
            self.shards,
            self.units,
            self.decompose_ms,
            self.route_ms,
            self.elems_per_s,
            self.p50_ns,
            self.p99_ns,
        )
    }
}

fn parse_args() -> (u32, Option<String>) {
    let mut max_n = 18u32;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-n" => {
                let v = args.next().expect("--max-n needs a value");
                max_n = v.parse().expect("--max-n must be an integer");
                assert!((14..=22).contains(&max_n), "--max-n must be in 14..=22");
            }
            "--json" => json = Some(args.next().expect("--json needs a path")),
            other => panic!("unknown argument `{other}` (try --max-n N / --json PATH)"),
        }
    }
    (max_n, json)
}

/// The median wall time of five `decompose_for` runs of `pi` on a
/// coordinator whose workers are already up, and the unit count.
fn decompose_median(coord: &ShardCoordinator, pi: &Permutation) -> (Duration, usize) {
    let mut units = 0;
    let mut walls: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let d = coord.decompose_for(pi).expect("power-of-two perm decomposes");
            let wall = start.elapsed();
            units = d.unit_count();
            wall
        })
        .collect();
    walls.sort();
    (walls[2], units)
}

/// The `q`-quantile (nearest rank) of the round's unit latencies, in
/// nanoseconds.
fn unit_latency_ns(outcome: &ShardOutcome, q: f64) -> u64 {
    let mut ns: Vec<u64> = (outcome.units.iter())
        .map(|u| u64::try_from(u.latency.as_nanos()).unwrap_or(u64::MAX))
        .collect();
    ns.sort_unstable();
    let rank = (q * ns.len() as f64).ceil() as usize;
    ns[rank.clamp(1, ns.len()) - 1]
}

/// The order of the share probe's round.
const SHARE_ORDER: u32 = 12;
/// Units per share: half of a 2^12 round's `2B + S = 192`.
const SHARE_UNITS: usize = 96;
/// Shares timed per side; the probe reports medians.
const SHARE_REPS: usize = 200;

/// One share's units through a 1-worker engine, admitted in one
/// `try_submit_all_to` call; returns the wall from admission to the
/// last outcome. As in the wire daemon, only the share's last outcome
/// wakes the waiting thread.
fn share_through_engine(engine: &Engine, units: &[Permutation]) -> Duration {
    let (tx, rx) = mpsc::channel();
    let left = Arc::new(AtomicUsize::new(units.len()));
    let failed = Arc::new(AtomicBool::new(false));
    let jobs = units
        .iter()
        .map(|u| {
            let (tx, left, failed) = (tx.clone(), Arc::clone(&left), Arc::clone(&failed));
            let done = Completion::new(move |outcome| {
                if !outcome.is_ok() {
                    failed.store(true, Ordering::Relaxed);
                }
                if left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    tx.send(()).expect("probe waits");
                }
            });
            (u.clone(), SubmitOpts::default(), done)
        })
        .collect();
    let start = Instant::now();
    engine.try_submit_all_to(jobs).expect("a share fits the default queue");
    rx.recv().expect("every unit completes");
    let wall = start.elapsed();
    assert!(!failed.load(Ordering::Relaxed), "a share unit failed");
    wall
}

/// The same units through serial `plan` + `execute` on one thread.
fn share_serial(net: &Benes, units: &[Permutation]) -> Duration {
    let start = Instant::now();
    for u in units {
        let fresh = plan(u, Fallback::Waksman).expect("units are powers of two");
        assert!(execute(net, u, &fresh), "serial plan must execute");
    }
    start.elapsed()
}

/// The share probe: [`SHARE_REPS`] fresh 2^12 rounds, each cut into
/// its units, and shard 0's half of a 2-shard placement (block or color
/// `i` goes to shard `i mod 2` in every stage) timed both ways, in
/// alternating order. Returns the median engine and serial walls and
/// the median of the per-share ratios: the two timings of one share run
/// back to back, so a host stall moves one ratio, not the comparison.
fn share_probe(seed: u64) -> (Duration, Duration, f64) {
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let mut rng = Rng64::new(seed);
    let mut net = None;
    let (mut through_engine, mut serial, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SHARE_REPS {
        let pi = random_permutation(&mut rng, 1 << SHARE_ORDER);
        let d = decompose(&pi, benes_shard::balanced_block_bits(SHARE_ORDER))
            .expect("power-of-two perm decomposes");
        let units: Vec<Permutation> = [d.stage1(), d.between(), d.stage3()]
            .into_iter()
            .flat_map(|stage| stage.iter().step_by(2).cloned())
            .collect();
        assert_eq!(units.len(), SHARE_UNITS);
        let net = net.get_or_insert_with(|| Benes::new(units[0].log2_len().unwrap_or(1)));
        if rep % 2 == 0 {
            through_engine.push(share_through_engine(&engine, &units));
            serial.push(share_serial(net, &units));
        } else {
            serial.push(share_serial(net, &units));
            through_engine.push(share_through_engine(&engine, &units));
        }
        ratios.push(through_engine[rep].as_secs_f64() / serial[rep].as_secs_f64());
    }
    through_engine.sort();
    serial.sort();
    ratios.sort_by(f64::total_cmp);
    (through_engine[SHARE_REPS / 2], serial[SHARE_REPS / 2], ratios[SHARE_REPS / 2])
}

fn main() {
    let (max_n, json_path) = parse_args();
    println!("== EXP-SHARD: block-decomposition coordinator throughput ==\n");

    let seed = 0x5a4d;

    let mut table = Table::new(vec![
        "n",
        "elements",
        "shards",
        "units",
        "decompose ms",
        "route+verify ms",
        "elems/s",
        "unit p50 ms",
        "unit p99 ms",
    ]);
    let mut runs: Vec<Run> = Vec::new();

    for n in (14..=max_n).step_by(2) {
        let pi = random_permutation(&mut Rng64::new(seed ^ u64::from(n)), 1usize << n);
        let mut decompose = None;
        for shards in [1usize, 2, 4, 8] {
            let coord = ShardCoordinator::new(ShardConfig {
                shards,
                engine: EngineConfig { workers: 2, ..EngineConfig::default() },
                ..ShardConfig::default()
            });
            // Time the two phases separately: decompose is the serial
            // O(N log N) coordinator cost; scatter/gather/verify is
            // where the fleet parallelism shows. Decomposition does not
            // depend on the shard count, so it is timed once per n.
            let (decompose_wall, units) =
                *decompose.get_or_insert_with(|| decompose_median(&coord, &pi));
            let start = Instant::now();
            let outcome = coord.route(&pi).expect("power-of-two perm routes");
            let route_wall = start.elapsed();
            assert!(outcome.verified, "recombination must verify: {}", outcome.summary());

            let total = decompose_wall + route_wall;
            let (p50_ns, p99_ns) =
                (unit_latency_ns(&outcome, 0.5), unit_latency_ns(&outcome, 0.99));
            table.row(vec![
                n.to_string(),
                (1u64 << n).to_string(),
                shards.to_string(),
                units.to_string(),
                format!("{:.2}", decompose_wall.as_secs_f64() * 1e3),
                format!("{:.2}", route_wall.as_secs_f64() * 1e3),
                format!("{:.0}", (1u64 << n) as f64 / total.as_secs_f64()),
                format!("{:.2}", p50_ns as f64 / 1e6),
                format!("{:.2}", p99_ns as f64 / 1e6),
            ]);
            runs.push(Run {
                n,
                shards,
                units,
                decompose_ms: decompose_wall.as_secs_f64() * 1e3,
                route_ms: route_wall.as_secs_f64() * 1e3,
                elems_per_s: (1u64 << n) as f64 / total.as_secs_f64(),
                p50_ns,
                p99_ns,
            });
        }
    }
    println!("{}", table.render());

    let (share_engine, share_serial, ratio) = share_probe(seed);
    let mut share = Table::new(vec![
        "n",
        "units",
        "engine (1 worker) ms",
        "serial plan+execute ms",
        "ratio (median per share)",
    ]);
    share.row(vec![
        SHARE_ORDER.to_string(),
        SHARE_UNITS.to_string(),
        format!("{:.3}", share_engine.as_secs_f64() * 1e3),
        format!("{:.3}", share_serial.as_secs_f64() * 1e3),
        format!("{ratio:.2}"),
    ]);
    println!(
        "share probe (one daemon's half of a 2-shard round, medians of {SHARE_REPS}):"
    );
    println!("{}", share.render());

    if let Some(path) = json_path {
        let body: Vec<String> = runs.iter().map(Run::to_json).collect();
        let doc = format!(
            "{{\"experiment\":\"EXP-SHARD\",\"seed\":{seed},\"max_n\":{max_n},\
             \"host\":{},\"runs\":[{}],\"share\":{{\"n\":{SHARE_ORDER},\
             \"units\":{SHARE_UNITS},\"reps\":{SHARE_REPS},\"engine_ms\":{:.4},\
             \"serial_ms\":{:.4},\"ratio\":{ratio:.3}}}}}\n",
            benes_bench::host_json(),
            body.join(","),
            share_engine.as_secs_f64() * 1e3,
            share_serial.as_secs_f64() * 1e3,
        );
        std::fs::write(&path, doc).expect("write --json output");
        println!("machine-readable results written to {path}\n");
    }

    println!(
        "observation: decompose is a serial O(N·r) pass (a Waksman set-up cut\n\
         at depth r), while the 2B + S scattered units ride the fleet — so shard\n\
         scaling attacks exactly the part the paper's Theorems 4-6 make\n\
         parallel, and the recombination check keeps the speedup honest."
    );
}
