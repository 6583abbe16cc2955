//! Experiment EXP-SERVE: wire-service load generator.
//!
//! Drives a running `benes-serve` daemon over the length-prefixed
//! binary protocol: a fleet of client connections, each pinned to a
//! tenant, pipelines Route frames with a bounded window of outstanding
//! requests, tallies reply statuses and the engine-reported latency
//! distribution, then polls the Stats frame until every per-tenant
//! ledger reaches conservation (`submitted = completed + failed +
//! shed + canceled`).
//!
//! `--kill-conns K` is the chaos mode: the first `K` connections send
//! half their share and then hard-close the socket mid-flight without
//! reading a single reply. Those connections carry a dedicated chaos
//! tenant, so the steady tenants' ledgers can still be matched exactly
//! against client-side reply counts while the chaos tenant only has to
//! conserve — which it must, by construction: a vanished connection
//! drops its reply tickets, but the engine still books every admitted
//! request to a terminal state.
//!
//! Usage: `load_gen --addr HOST:PORT [--conns C] [--tenants T]
//!                  [--requests N] [--window W] [--order n]
//!                  [--kill-conns K] [--drain] [--json PATH]`
//!
//! `--drain` sends a Drain frame after the conservation check (the
//! daemon must run with `--allow-drain`), so a script can shut the
//! server down over the wire. `--json` writes the machine-readable
//! results as `BENCH_SERVE.json` with a stable schema (`experiment`,
//! the load parameters, `req_per_s`, per-status reply counts, latency
//! quantiles, the per-tenant ledger with a `conserved` flag, and a
//! `host` object: `available_parallelism`, build `profile`, `git_rev`
//! and `git_dirty`).
//!
//! Exits nonzero on any reply on an unexpected status, a ledger that
//! fails to conserve, or a steady tenant whose server-side ledger
//! disagrees with the client-side reply count.
//!
//! # Fleet mode (EXP-FLEET)
//!
//! `load_gen --fleet HOST:PORT,HOST:PORT,... [--requests R] [--order n]
//! [--json PATH]` benchmarks the **remote shard fleet** instead: one
//! `RemoteShard` backend per address, a `ShardCoordinator` scattering
//! `R` rounds of random `2^n` permutations over the wire, per-round
//! wall latency, and the fleet transport ledger (retries, failovers,
//! hedges, reconnects). `--json` writes `BENCH_FLEET.json` with a
//! stable schema (the same `host` object included); exits nonzero if
//! any round fails to verify or any backend ledger does not conserve.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_bench::host_json;
use benes_engine::workload::mixed_workload;
use benes_obs::hist::Histogram;
use benes_serve::{Client, Frame, Status, TenantRow};

struct Args {
    addr: String,
    fleet: Vec<String>,
    conns: usize,
    tenants: u64,
    requests: usize,
    window: usize,
    order: u32,
    kill_conns: usize,
    drain: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: String::new(),
        fleet: Vec::new(),
        conns: 4,
        tenants: 2,
        requests: 20_000,
        window: 64,
        order: 3,
        kill_conns: 0,
        drain: false,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr"),
            "--fleet" => {
                parsed.fleet = value("--fleet").split(',').map(str::to_string).collect();
            }
            "--conns" => parsed.conns = value("--conns").parse().expect("--conns: usize"),
            "--tenants" => {
                parsed.tenants = value("--tenants").parse().expect("--tenants: u64")
            }
            "--requests" => {
                parsed.requests = value("--requests").parse().expect("--requests: usize")
            }
            "--window" => {
                parsed.window = value("--window").parse().expect("--window: usize")
            }
            "--order" => parsed.order = value("--order").parse().expect("--order: u32"),
            "--kill-conns" => {
                parsed.kill_conns =
                    value("--kill-conns").parse().expect("--kill-conns: usize")
            }
            "--drain" => parsed.drain = true,
            "--json" => parsed.json = Some(value("--json")),
            other => panic!("unknown argument {other} (see the module docs for usage)"),
        }
    }
    assert!(
        !parsed.addr.is_empty() || !parsed.fleet.is_empty(),
        "--addr HOST:PORT (or --fleet A,B,...) is required"
    );
    assert!(parsed.conns >= 1, "--conns must be >= 1");
    assert!(parsed.tenants >= 1, "--tenants must be >= 1");
    assert!(parsed.window >= 1, "--window must be >= 1");
    assert!((1..=12).contains(&parsed.order), "--order must be in 1..=12");
    assert!(parsed.kill_conns <= parsed.conns, "--kill-conns cannot exceed --conns");
    if !parsed.fleet.is_empty() {
        assert!(parsed.order >= 2, "--fleet needs --order >= 2 (block decomposition)");
    }
    parsed
}

/// EXP-FLEET: scatter `requests` rounds of random `2^order`
/// permutations across one `RemoteShard` per fleet address, measure
/// per-round wall latency, and reconcile every backend's transport
/// ledger. Panics (nonzero exit) on an unverified round or a
/// conservation violation.
fn run_fleet(args: &Args) {
    use benes_engine::workload::{random_permutation, Rng64};
    use benes_shard::{Backend, RemoteConfig, RemoteShard, ShardConfig, ShardCoordinator};

    let rounds = args.requests;
    let backends: Vec<Box<dyn Backend>> = args
        .fleet
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Box::new(RemoteShard::new(RemoteConfig::new(addr.clone()), i))
                as Box<dyn Backend>
        })
        .collect();
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);

    println!(
        "== EXP-FLEET: remote shard fleet ==\n\
         {} shards ({}), {rounds} rounds of 2^{}",
        args.fleet.len(),
        args.fleet.join(", "),
        args.order,
    );

    let round_latency = Histogram::new();
    let mut rng = Rng64::new(0xf1ee7);
    let mut verified = 0usize;
    let mut units_total = 0usize;
    let start = Instant::now();
    for round in 0..rounds {
        let pi = random_permutation(&mut rng, 1usize << args.order);
        let round_start = Instant::now();
        let out = coord.route(&pi).expect("power-of-two perms decompose");
        let ns = u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        round_latency.record(ns);
        units_total += out.units.len();
        assert!(out.verified, "round {round} failed to verify: {}", out.summary());
        verified += 1;
    }
    let wall = start.elapsed();
    let fleet = coord.fleet_stats();
    let snap = round_latency.snapshot();
    let rps = rounds as f64 / wall.as_secs_f64();

    println!(
        "{verified}/{rounds} rounds verified in {:.1} ms -> {rps:.1} rounds/s \
         ({units_total} units)",
        wall.as_secs_f64() * 1e3,
    );
    println!(
        "round wall latency: p50 {}us p99 {}us max {}us",
        snap.quantile(0.50) / 1_000,
        snap.quantile(0.99) / 1_000,
        snap.max() / 1_000,
    );
    print!("{}", fleet.report());
    assert!(fleet.conserves_requests(), "fleet ledgers must conserve:\n{}", fleet.report());

    if let Some(path) = &args.json {
        let shards_json: Vec<String> = fleet
            .per_shard()
            .iter()
            .enumerate()
            .map(|(i, (_, b))| {
                let l = b.requests;
                format!(
                    "{{\"shard\":{i},\"kind\":\"{}\",\"submitted\":{},\"completed\":{},\
                     \"failed\":{},\"shed\":{},\"canceled\":{},\"healthy\":{},\
                     \"conserved\":{}}}",
                    b.kind,
                    l.submitted,
                    l.completed,
                    l.failed,
                    l.shed,
                    l.canceled,
                    b.healthy,
                    l.conserves_requests(),
                )
            })
            .collect();
        let doc = format!(
            "{{\"experiment\":\"EXP-FLEET\",\"shards\":{},\"rounds\":{rounds},\
             \"order\":{},\"wall_ms\":{:.3},\"rounds_per_s\":{rps:.1},\
             \"verified_rounds\":{verified},\"units_total\":{units_total},\
             \"round_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\
             \"transport\":{{\"retries\":{},\"failovers\":{},\"hedges\":{},\
             \"reconnects\":{},\"conserved\":{}}},\
             \"per_shard\":[{}],\"host\":{}}}\n",
            args.fleet.len(),
            args.order,
            wall.as_secs_f64() * 1e3,
            snap.quantile(0.5),
            snap.quantile(0.9),
            snap.quantile(0.99),
            snap.max(),
            fleet.retries(),
            fleet.failovers(),
            fleet.hedges(),
            fleet.reconnects(),
            fleet.conserves_requests(),
            shards_json.join(","),
            host_json(),
        );
        std::fs::write(path, doc).expect("write --json output");
        println!("machine-readable results written to {path}");
    }
    println!("conservation verified across {} shard ledgers", fleet.shard_count());
}

/// One connection's worth of load: pipeline `share` Route frames with
/// at most `window` outstanding, tallying statuses and latencies.
fn drive_conn(
    addr: &str,
    tenant: u64,
    conn: usize,
    share: usize,
    window: usize,
    order: u32,
    latency: &Histogram,
    by_status: &[AtomicU64],
) {
    let mut client = Client::connect(addr).expect("connect to the server");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    let stream = mixed_workload(order, share, 0x5e12e + conn as u64);
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < share {
        while sent < share && sent - received < window {
            let frame = Frame::Route {
                req_id: ((conn as u64) << 32) | sent as u64,
                tenant,
                deadline_ms: 0,
                destinations: stream[sent].destinations().to_vec(),
            };
            client.send(&frame).expect("send a route frame");
            sent += 1;
        }
        let reply = client.recv().expect("receive a reply");
        let Frame::RouteReply { status, latency_ns, .. } = reply else {
            panic!("unexpected reply frame {reply:?}");
        };
        by_status[status as usize].fetch_add(1, Ordering::Relaxed);
        latency.record(latency_ns);
        received += 1;
    }
}

/// A chaos connection: send half the share, give the server a moment
/// to ingest, then hard-close without reading any reply.
fn kill_conn(addr: &str, tenant: u64, conn: usize, share: usize, order: u32) {
    let mut client = Client::connect(addr).expect("connect a chaos conn");
    let stream = mixed_workload(order, share.div_ceil(2).max(1), 0xdead + conn as u64);
    let frames: Vec<Frame> = stream
        .iter()
        .enumerate()
        .map(|(i, perm)| Frame::Route {
            req_id: 0xc0_0000_0000 | ((conn as u64) << 16) | i as u64,
            tenant,
            deadline_ms: 0,
            destinations: perm.destinations().to_vec(),
        })
        .collect();
    client.send_all(&frames).expect("send the chaos burst");
    // Let the server read the burst before the RST discards it.
    std::thread::sleep(Duration::from_millis(200));
    client.kill();
}

/// One Stats exchange: the server's per-tenant ledgers as they stand.
fn fetch_rows(addr: &str) -> Vec<TenantRow> {
    let mut client = Client::connect(addr).expect("connect for stats");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    client.send(&Frame::Stats).expect("send stats");
    match client.recv().expect("receive stats") {
        Frame::StatsReply { rows } => rows,
        other => panic!("unexpected stats reply {other:?}"),
    }
}

/// Polls the Stats frame until every per-tenant ledger conserves (or
/// the deadline passes). Returns the settled rows.
fn await_conservation(addr: &str, deadline: Instant) -> Vec<TenantRow> {
    let mut client = Client::connect(addr).expect("connect for stats");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    loop {
        client.send(&Frame::Stats).expect("send stats");
        let reply = client.recv().expect("receive stats");
        let Frame::StatsReply { rows } = reply else {
            panic!("unexpected stats reply {reply:?}");
        };
        if rows.iter().all(TenantRow::conserves_requests) {
            return rows;
        }
        assert!(
            Instant::now() < deadline,
            "tenant ledgers did not conserve in time: {rows:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    let args = parse_args();
    if !args.fleet.is_empty() {
        run_fleet(&args);
        return;
    }
    let steady_conns = args.conns - args.kill_conns;
    assert!(steady_conns >= 1, "at least one steady connection is required");
    // Chaos connections get their own tenant so the steady tenants'
    // ledgers stay exactly reconcilable against client-side counts.
    let chaos_tenant = args.tenants + 1;

    println!(
        "== EXP-SERVE: wire-service load ==\n\
         target {}; {} conns ({} chaos) x {} tenants, {} requests, window {}, order {}",
        args.addr,
        args.conns,
        args.kill_conns,
        args.tenants,
        args.requests,
        args.window,
        args.order
    );

    // Ledgers are cumulative over the server's lifetime; reconcile
    // this run's contribution as a delta against a pre-load snapshot,
    // so several load_gen runs can share one daemon.
    let baseline = fetch_rows(&args.addr);
    let baseline_completed = |tenant: u64| {
        baseline.iter().find(|r| r.tenant == tenant).map_or(0, |r| r.completed)
    };

    let latency = Arc::new(Histogram::new());
    let by_status: Arc<Vec<AtomicU64>> =
        Arc::new(Status::ALL.iter().map(|_| AtomicU64::new(0)).collect());

    let base = args.requests / steady_conns;
    let extra = args.requests % steady_conns;
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..steady_conns {
            let share = base + usize::from(c < extra);
            let tenant = c as u64 % args.tenants + 1;
            let (addr, latency, by_status) = (&args.addr, &latency, &by_status);
            let (window, order) = (args.window, args.order);
            s.spawn(move || {
                drive_conn(addr, tenant, c, share, window, order, latency, by_status);
            });
        }
        for k in 0..args.kill_conns {
            let (addr, order) = (&args.addr, args.order);
            let share = base.max(2);
            s.spawn(move || kill_conn(addr, chaos_tenant, steady_conns + k, share, order));
        }
    });
    let wall = start.elapsed();

    let replies: u64 = by_status.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let rps = replies as f64 / wall.as_secs_f64();
    let snap = latency.snapshot();

    println!("\n{replies} replies in {:.1} ms -> {rps:.0} req/s", wall.as_secs_f64() * 1e3);
    for (i, counter) in by_status.iter().enumerate() {
        let count = counter.load(Ordering::Relaxed);
        if count > 0 {
            println!("  {:<14} {count}", Status::ALL[i].name());
        }
    }
    println!(
        "latency (engine-reported): p50 {}us p99 {}us p999 {}us max {}us",
        snap.quantile(0.50) / 1_000,
        snap.quantile(0.99) / 1_000,
        snap.quantile(0.999) / 1_000,
        snap.max() / 1_000,
    );

    // Conservation: every tenant ledger must balance, chaos included.
    let rows = await_conservation(&args.addr, Instant::now() + Duration::from_secs(10));
    let ok_total = by_status[Status::Ok as usize].load(Ordering::Relaxed);
    let steady_completed: u64 = rows
        .iter()
        .filter(|r| r.tenant != chaos_tenant)
        .map(|r| r.completed - baseline_completed(r.tenant))
        .sum();
    println!("\nper-tenant ledgers (server side):");
    for row in &rows {
        println!(
            "  tenant {:>3}{}: submitted {} = completed {} + failed {} + shed {} + \
             canceled {} (rejected {}) — conserved",
            row.tenant,
            if row.tenant == chaos_tenant { " (chaos)" } else { "" },
            row.submitted,
            row.completed,
            row.failed,
            row.shed,
            row.canceled,
            row.rejected,
        );
    }
    assert_eq!(
        steady_completed, ok_total,
        "steady tenants' server-side completions must equal client-side ok replies"
    );

    if let Some(path) = &args.json {
        let status_json: Vec<String> = Status::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!("\"{}\":{}", s.name(), by_status[i].load(Ordering::Relaxed))
            })
            .collect();
        let rows_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"tenant\":{},\"chaos\":{},\"submitted\":{},\"completed\":{},\
                     \"failed\":{},\"shed\":{},\"canceled\":{},\"rejected\":{},\
                     \"conserved\":true}}",
                    r.tenant,
                    r.tenant == chaos_tenant,
                    r.submitted,
                    r.completed,
                    r.failed,
                    r.shed,
                    r.canceled,
                    r.rejected,
                )
            })
            .collect();
        let doc = format!(
            "{{\"experiment\":\"EXP-SERVE\",\"conns\":{},\"kill_conns\":{},\
             \"tenants\":{},\"requests\":{},\"window\":{},\"order\":{},\
             \"wall_ms\":{:.3},\"req_per_s\":{:.1},\"replies\":{replies},\
             \"status\":{{{}}},\
             \"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\
             \"mean\":{},\"max\":{}}},\
             \"tenants_ledger\":[{}],\"host\":{}}}\n",
            args.conns,
            args.kill_conns,
            args.tenants,
            args.requests,
            args.window,
            args.order,
            wall.as_secs_f64() * 1e3,
            rps,
            status_json.join(","),
            snap.quantile(0.5),
            snap.quantile(0.9),
            snap.quantile(0.99),
            snap.quantile(0.999),
            snap.mean(),
            snap.max(),
            rows_json.join(","),
            host_json(),
        );
        std::fs::write(path, doc).expect("write --json output");
        println!("machine-readable results written to {path}");
    }

    if args.drain {
        let mut client = Client::connect(&args.addr).expect("connect for drain");
        client.send(&Frame::Drain).expect("send drain");
        match client.recv() {
            Ok(Frame::StatsReply { .. }) => println!("drain acknowledged, server stopping"),
            Ok(other) => panic!("drain refused: {other:?}"),
            Err(e) => panic!("drain failed: {e}"),
        }
    }
    println!("conservation verified across {} tenant ledgers", rows.len());
}
