//! The command-line explorer behind the `benes-cli` binary.
//!
//! All command logic lives here (returning strings) so it is unit-testable;
//! the binary is a thin wrapper. Run `benes-cli help` for the command
//! catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use benes_core::class_f::check_f;
use benes_core::render::{render_structure, render_trace};
use benes_core::trace::RouteTrace;
use benes_core::{census, waksman, Benes, Control};
use benes_gates::GateBenes;
use benes_networks::cost;
use benes_perm::bpc::Bpc;
use benes_perm::omega::{cyclic_shift, is_inverse_omega, is_omega, p_ordering};
use benes_perm::Permutation;
use benes_simd::ccc::Ccc;
use benes_simd::machine::{records_for, verify_routed};
use benes_simd::mcc::Mcc;
use benes_simd::psc::Psc;

/// Error produced by command parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl CliError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The help text.
#[must_use]
pub fn help() -> String {
    "\
benes-cli — explore the self-routing Benes network (Nassimi & Sahni 1980)

USAGE:
  benes-cli <command> [args]

COMMANDS:
  classify <D...>            class membership of a permutation
                             (destination tags, e.g. `classify 1 3 2 0`)
  route <D...> [mode]        trace a route; mode: self (default) | omega | waksman
  structure <n>              topology and size report for B(n)
  census [n]                 |F(n)| / |BPC| / |Ω| / |Ω⁻¹| (exact to n = 3)
  cost <n>                   the §I network-cost comparison at N = 2^n
  simd <machine> <D...>      route on ccc | psc | mcc, with route counts
  gates <n> [data_width]     synthesize B(n) to gates; counts and depth
  named <name> <n> [k]       generate a named permutation:
                             bit-reversal | transpose | vector-reversal |
                             shuffle | unshuffle | shift (k) | p-order (k)
  gcn <src...>               realize a generalized connection (output o
                             receives input src[o]; broadcasts allowed)
  dual <kappa> <D...>        plan a permutation on the §IV dual machine
                             (kappa = gate delays per SIMD routing step)
  diagnose <D...>            inject each possible stuck switch for D and
                             report how many are detectable / masked
  factor <D...>              split D into inverse-omega * omega factors
  engine [n] [reqs] [wkrs]   drive the batched routing engine over a mixed
                             workload on B(n) and print tier/cache stats
                             (defaults: n=4, 1000 requests, 4 workers)
  faults [n] [k] [reqs] [s]  fault-injection campaign: inject k random
                             stuck-at switch faults on B(n), serve a mixed
                             workload through the engine's reroute ladder,
                             and report degraded-mode stats
                             (defaults: n=3, k=2, 500 requests, seed 1)
  chaos [seed] [reqs]        deterministic chaos soak: a seeded schedule of
                             traffic, a forced-failure burst, a real fault
                             burst and recovery windows; checks the
                             conservation invariant and the breaker cycle,
                             exits nonzero on any violation
                             (defaults: seed 3962, 200 requests)
  analyze plan <D...>        static plan verification: closed forms vs
                             Theorem 1, split conflicts of the symbolic
                             self-route/omega walks, stage-bit invariant
  analyze netlist <n> [w]    lint the synthesized GateBenes(n, w) netlist
                             (loops, widths, fanout, gate budget)
  analyze workspace [root]   workspace invariant linter + domain self-checks;
                             add --json for JSON-lines findings; exits
                             nonzero when any finding survives
  analyze concurrency        exhaustive model check of the engine's
                             run queue (conservation, deadlock
                             freedom, no lost wakeups) plus the seeded-
                             mutant self-test; --budget N caps states
                             (default 4000000, exhaustion fails), --json
                             for JSON-lines findings
  analyze word [max_n]       symbolic equivalence proof: the word-parallel
                             kernels (incl. fault overlays) against the
                             scalar oracle for every n <= max_n (default
                             and cap 8), zero sampled inputs; --json for
                             JSON-lines findings
  obs dump [n] [reqs]        run a mixed workload and print the engine's
                             metrics exposition (Prometheus text; add
                             --json for the JSON document)
  obs histogram [n] [reqs]   per-tier latency quantiles (p50/p90/p99/p999)
                             from a mixed workload on B(n)
  obs flightrec [n] [reqs]   flight-recorder dump: serve a healthy workload,
                             then one victim through an injected dead
                             switch, and render the last route attempts
                             (ladder, phase timings, failing-plan trace)
  shard route [n] [k] [s]    decompose one random 2^n permutation into the
                             three-stage block factorization and route it
                             across k engine shards with bitwise
                             recombination verification
                             (defaults: n=16, k=4 shards, seed 1)
  shard soak [s] [n] [p] [k] deterministic shard soak: p permutations of
                             2^n across k shards with a mid-stream fault
                             injected into exactly one shard; exits
                             nonzero on cross-shard contamination or a
                             conservation violation
                             (defaults: seed 1980, n=12, p=6, k=4)
  serve smoke [r] [t] [c]    loopback wire-service smoke: start an in-process
                             benes-serve on an ephemeral port, pipeline r
                             requests from t tenants over c connections,
                             and report per-tenant ledger conservation
                             (defaults: r=200, t=2, c=2; the long-running
                             daemon is the `benes-serve` binary)
  fleet soak --addrs A,B,..  remote-fleet soak: scatter a seeded permutation
                             stream across running benes-serve processes
                             (one RemoteShard per address) while an external
                             killer takes down --killable shards; exits
                             nonzero on cross-shard contamination, a wrong
                             surviving element, or a conservation violation;
                             optional --spare IDX=ADDR failover targets,
                             --killable I,J, --rounds R, --n N, --seed S,
                             --pause-ms P, --hedge-ms H; streams one
                             fleet-round line per round, then the report
                             and the benes_fleet_* exposition
  help                       this text
"
    .to_string()
}

/// Parses the tail of an argument list as a permutation.
fn parse_permutation(args: &[String]) -> Result<Permutation, CliError> {
    if args.is_empty() {
        return Err(CliError::new("expected destination tags, e.g. `1 3 2 0`"));
    }
    let dest: Result<Vec<u32>, _> = args.iter().map(|a| a.parse::<u32>()).collect();
    let dest = dest.map_err(|_| CliError::new("destination tags must be integers"))?;
    Permutation::from_destinations(dest)
        .map_err(|e| CliError::new(format!("not a permutation: {e}")))
}

fn parse_n(arg: Option<&String>, what: &str) -> Result<u32, CliError> {
    let s = arg.ok_or_else(|| CliError::new(format!("expected {what}")))?;
    let n: u32 =
        s.parse().map_err(|_| CliError::new(format!("{what} must be an integer")))?;
    if n == 0 || n > 20 {
        return Err(CliError::new(format!("{what} must be in 1..=20")));
    }
    Ok(n)
}

fn network_order(d: &Permutation) -> Result<u32, CliError> {
    d.log2_len()
        .filter(|&n| n >= 1)
        .ok_or_else(|| CliError::new(format!("length {} is not 2^n with n >= 1", d.len())))
}

/// Executes one command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing any parse or usage problem.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(help());
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(help()),
        "classify" => classify(rest),
        "route" => route(rest),
        "structure" => structure(rest),
        "census" => census_cmd(rest),
        "cost" => cost_cmd(rest),
        "simd" => simd(rest),
        "gates" => gates(rest),
        "named" => named(rest),
        "gcn" => gcn(rest),
        "dual" => dual(rest),
        "diagnose" => diagnose(rest),
        "factor" => factor(rest),
        "engine" => engine(rest),
        "faults" => faults_cmd(rest),
        "chaos" => chaos_cmd(rest),
        "analyze" => analyze(rest),
        "obs" => obs(rest),
        "shard" => shard_cmd(rest),
        "serve" => serve_cmd(rest),
        "fleet" => fleet_cmd(rest),
        other => {
            Err(CliError::new(format!("unknown command `{other}` (try `benes-cli help`)")))
        }
    }
}

fn gcn(args: &[String]) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::new("expected a request vector, e.g. `gcn 2 0 2 1`"));
    }
    let req: Result<Vec<u32>, _> = args.iter().map(|a| a.parse::<u32>()).collect();
    let req = req.map_err(|_| CliError::new("requests must be integers"))?;
    let n = benes_bits::log2_exact(req.len() as u64)
        .filter(|&n| n >= 1)
        .ok_or_else(|| CliError::new("request count must be 2^n with n >= 1"))?;
    let gcn = benes_networks::GeneralizedConnectionNetwork::new(n);
    let data: Vec<u32> = (0..req.len() as u32).collect();
    let (out, cost) = gcn.realize(&req, &data).map_err(|e| CliError::new(e.to_string()))?;
    let mut s = format!(
        "generalized connection on B({n}): {} levels, {} copies fabricated\n",
        cost.delay_levels, cost.copies_made
    );
    s.push_str("output <- input: ");
    for (o, v) in out.iter().enumerate() {
        if o > 0 {
            s.push(' ');
        }
        s.push_str(&format!("{o}<-{v}"));
    }
    s.push('\n');
    Ok(s)
}

fn dual(args: &[String]) -> Result<String, CliError> {
    let kappa: u64 =
        args.first().and_then(|a| a.parse().ok()).filter(|&k| k >= 1).ok_or_else(|| {
            CliError::new("expected kappa >= 1 (gate delays per routing step)")
        })?;
    let d = parse_permutation(&args[1..])?;
    let n = network_order(&d)?;
    let m = benes_simd::dual::DualMachine::new(n, kappa);
    let plan = m.plan(&d);
    let path = match plan {
        benes_simd::dual::RoutePlan::DirectLink { .. } => "E(n) direct link",
        benes_simd::dual::RoutePlan::BenesNetwork { .. } => "B(n) self-route",
        benes_simd::dual::RoutePlan::LinkSimulation { .. } => "E(n) link simulation",
    };
    let ablation =
        benes_simd::dual::DualMachine::new(n, kappa).without_benes().plan(&d).gate_delays();
    Ok(format!(
        "plan: {path}, {} gate delays (without the Benes attachment: {})\n",
        plan.gate_delays(),
        ablation
    ))
}

fn factor(args: &[String]) -> Result<String, CliError> {
    use benes_perm::omega::{is_inverse_omega, is_omega};
    let d = parse_permutation(args)?;
    let _ = network_order(&d)?;
    let (p, q) = benes_core::factor::factor_inverse_omega_omega(&d)
        .map_err(|e| CliError::new(e.to_string()))?;
    debug_assert_eq!(p.then(&q), d);
    Ok(format!(
        "D = P then Q with\nP = {p}  (inverse-omega: {})\nQ = {q}  (omega: {})\n",
        is_inverse_omega(&p),
        is_omega(&q)
    ))
}

fn diagnose(args: &[String]) -> Result<String, CliError> {
    use benes_core::diagnose::{self_route_with_fault, StuckSwitch};
    let d = parse_permutation(args)?;
    let n = network_order(&d)?;
    if n > 6 {
        return Err(CliError::new("diagnosis sweep supported for n <= 6"));
    }
    let net = Benes::new(n);
    let healthy = net.self_route(&d);
    let mut masked = 0usize;
    let mut visible = 0usize;
    for stage in 0..net.stage_count() {
        for switch in 0..net.switches_per_stage() {
            let intended = healthy.settings().get(stage, switch);
            let fault = StuckSwitch { stage, switch, stuck_at: intended.toggled() };
            if self_route_with_fault(&net, &d, fault) == healthy.outputs() {
                masked += 1;
            } else {
                visible += 1;
            }
        }
    }
    let benign = net.switch_count();
    Ok(format!(
        "single-stuck-switch sweep for D = {d} on B({n}):\n\
         {benign} benign (stuck at the intended state, always invisible),\n\
         {masked} masked (wrong state, later stages re-sort the pair),\n\
         {visible} visible (misroute observable at the outputs)\n"
    ))
}

fn engine(args: &[String]) -> Result<String, CliError> {
    use benes_engine::{workload, Engine, EngineConfig};
    let n = match args.first() {
        Some(_) => parse_n(args.first(), "network order n")?,
        None => 4,
    };
    if !(3..=10).contains(&n) {
        return Err(CliError::new(
            "engine demo needs n in 3..=10 (below B(3) every permutation is in F ∪ Ω)",
        ));
    }
    let requests: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=1_000_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=1000000"))?,
        None => 1000,
    };
    let workers: usize = match args.get(2) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&w| (1..=64).contains(&w))
            .ok_or_else(|| CliError::new("worker count must be in 1..=64"))?,
        None => 4,
    };

    let engine = Engine::new(EngineConfig { workers, ..EngineConfig::default() });
    let stream = workload::mixed_workload(n, requests, 0xbe25);
    let outcomes = engine.run_batch(stream);
    let misrouted = outcomes.iter().filter(|o| !o.is_ok()).count();
    let stats = engine.stats();

    let mut out = format!(
        "engine run: B({n}), {requests} requests, {workers} workers, batch size {}\n",
        engine.config().batch_size
    );
    out.push_str(&stats.report());
    out.push_str(&format!("cache entries      {}\n", engine.cache_len()));
    out.push_str(&format!("misrouted          {misrouted}\n"));
    Ok(out)
}

fn faults_cmd(args: &[String]) -> Result<String, CliError> {
    use benes_core::faults::{setup_avoiding, FaultSet};
    use benes_engine::{workload, Engine, EngineConfig, EngineError};

    let n = match args.first() {
        Some(_) => parse_n(args.first(), "network order n")?,
        None => 3,
    };
    if !(3..=10).contains(&n) {
        return Err(CliError::new(
            "fault campaign needs n in 3..=10 (below B(3) every permutation is in F ∪ Ω)",
        ));
    }
    let net = Benes::new(n);
    let k: usize = match args.get(1) {
        Some(s) => {
            s.parse().ok().filter(|&k| k <= net.switch_count()).ok_or_else(|| {
                CliError::new(format!(
                    "fault count must be in 0..={} (the switch count of B({n}))",
                    net.switch_count()
                ))
            })?
        }
        None => 2,
    };
    let requests: usize = match args.get(2) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=1_000_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=1000000"))?,
        None => 500,
    };
    let seed: u64 = match args.get(3) {
        Some(s) => s.parse().map_err(|_| CliError::new("seed must be an integer"))?,
        None => 1,
    };

    let faults = FaultSet::random_stuck(n, k, seed);
    let engine = Engine::new(EngineConfig::default());
    engine.set_faults(faults.clone());

    let stream = workload::mixed_workload(n, requests, seed);
    let achievable = stream.iter().filter(|d| setup_avoiding(d, &faults).is_ok()).count();
    let outcomes = engine.run_batch(stream);
    let served = outcomes.iter().filter(|o| o.is_ok()).count();
    let unroutable =
        outcomes.iter().filter(|o| o.result == Err(EngineError::Unroutable)).count();
    let stats = engine.stats();

    let mut out = format!(
        "fault-injection campaign: B({n}), {k} stuck switches, {requests} requests, seed {seed}\n"
    );
    out.push_str(&format!("fault set: {faults}\n"));
    out.push_str(&format!(
        "served {served}/{requests} ({:.1}%); planner-achievable {achievable} \
         ({unroutable} unroutable)\n",
        100.0 * served as f64 / requests as f64
    ));
    out.push_str(&stats.report());
    Ok(out)
}

/// The deterministic chaos soak behind `scripts/chaos.sh`: runs the
/// seeded overload schedule and treats any invariant violation as a
/// command failure (nonzero exit), so the soak can gate CI.
fn chaos_cmd(args: &[String]) -> Result<String, CliError> {
    use benes_engine::{run_soak, SoakConfig};
    let seed: u64 = match args.first() {
        Some(s) => s.parse().map_err(|_| CliError::new("seed must be an integer"))?,
        None => 3962,
    };
    let requests: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=100_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=100000"))?,
        None => 200,
    };
    let report = run_soak(&SoakConfig::new(seed, requests));
    let mut out =
        format!("chaos soak: seed {seed}, base traffic {requests} requests per phase\n");
    out.push_str(&report.render());
    if report.healthy() {
        Ok(out)
    } else {
        Err(CliError::new(out))
    }
}

fn obs(args: &[String]) -> Result<String, CliError> {
    let mode = args
        .first()
        .ok_or_else(|| CliError::new("expected obs mode: dump | histogram | flightrec"))?;
    match mode.as_str() {
        "dump" => obs_dump(&args[1..]),
        "histogram" => obs_histogram(&args[1..]),
        "flightrec" => obs_flightrec(&args[1..]),
        other => Err(CliError::new(format!(
            "unknown obs mode `{other}` (dump | histogram | flightrec)"
        ))),
    }
}

/// Shared front half of the `obs` modes: parse `[n] [reqs]` and drive a
/// mixed workload through a fresh engine so there is something to
/// observe.
fn obs_run(args: &[String]) -> Result<(benes_engine::Engine, u32, usize), CliError> {
    use benes_engine::{workload, Engine, EngineConfig};
    let n = match args.first() {
        Some(_) => parse_n(args.first(), "network order n")?,
        None => 4,
    };
    if !(3..=10).contains(&n) {
        return Err(CliError::new(
            "obs demo needs n in 3..=10 (below B(3) every permutation is in F ∪ Ω)",
        ));
    }
    let requests: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=1_000_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=1000000"))?,
        None => 1000,
    };
    let engine = Engine::new(EngineConfig::default());
    let outcomes = engine.run_batch(workload::mixed_workload(n, requests, 0xb0b5));
    debug_assert!(outcomes.iter().all(benes_engine::RequestOutcome::is_ok));
    Ok((engine, n, requests))
}

fn obs_dump(args: &[String]) -> Result<String, CliError> {
    let json = args.iter().any(|a| a == "--json");
    let positional: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let (engine, _, _) = obs_run(&positional)?;
    let exposition = engine.stats().exposition();
    Ok(if json { exposition.to_json() } else { exposition.to_prometheus() })
}

fn obs_histogram(args: &[String]) -> Result<String, CliError> {
    let (engine, n, requests) = obs_run(args)?;
    let stats = engine.stats();

    let mut out = format!(
        "latency histograms: B({n}), {requests} mixed requests (submit → completion, ns)\n"
    );
    out.push_str(&format!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "path", "count", "p50", "p90", "p99", "p999", "max"
    ));
    let mut row = |path: &str, s: &benes_obs::HistogramSnapshot| {
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            path,
            s.count(),
            s.quantile(0.5),
            s.quantile(0.9),
            s.quantile(0.99),
            s.quantile(0.999),
            s.max()
        ));
    };
    row("all", &stats.latency);
    for (tier, snapshot) in &stats.tier_latency {
        if !snapshot.is_empty() {
            row(tier.name(), snapshot);
        }
    }
    if !stats.failed_latency.is_empty() {
        row("failed", &stats.failed_latency);
    }
    Ok(out)
}

fn obs_flightrec(args: &[String]) -> Result<String, CliError> {
    use benes_engine::workload::{self, Rng64};
    use benes_engine::{Engine, EngineConfig, FaultKind, FaultSet};

    let n = match args.first() {
        Some(_) => parse_n(args.first(), "network order n")?,
        None => 3,
    };
    if !(3..=10).contains(&n) {
        return Err(CliError::new(
            "obs demo needs n in 3..=10 (below B(3) every permutation is in F ∪ Ω)",
        ));
    }
    let requests: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=10_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=10000"))?,
        None => 6,
    };
    let show: usize = match args.get(2) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&k| (1..=64).contains(&k))
            .ok_or_else(|| CliError::new("record count must be in 1..=64"))?,
        None => 4,
    };

    // One worker keeps the ring in submission order for the dump.
    let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
    let outcomes = engine.run_batch(workload::mixed_workload(n, requests, 0xf11e));
    let healthy = outcomes.iter().filter(|o| o.is_ok()).count();

    // A dead switch toggles every command it receives, so no set-up can
    // agree with it: the victim deterministically walks the whole
    // reroute ladder and fails, leaving a full trace in the ring.
    let mut faults = FaultSet::new(n);
    faults.insert(0, 0, FaultKind::Dead).map_err(|e| CliError::new(e.to_string()))?;
    engine.set_faults(faults);
    let mut rng = Rng64::new(0x0b5e_55ed);
    let victim = workload::hard_permutation(&mut rng, n);
    let verdict = match engine.submit(victim).wait().result {
        Ok(tier) => format!("served by tier {}", tier.name()),
        Err(e) => format!("FAILED — {e}"),
    };

    let records = engine.flight_records(show);
    let mut out = format!(
        "flight recorder: {healthy}/{requests} healthy requests served on B({n}), then \
         one victim through a dead switch at stage 0 ({verdict})\n"
    );
    out.push_str(&format!(
        "showing the newest {} of {} surviving records ({} dropped under contention)\n\n",
        records.len(),
        engine.flight_records(usize::MAX).len(),
        engine.flight_dropped()
    ));
    for record in &records {
        out.push_str(&record.render());
        out.push('\n');
    }
    Ok(out)
}

fn analyze(args: &[String]) -> Result<String, CliError> {
    let mode = args.first().ok_or_else(|| {
        CliError::new(
            "expected analyze mode: plan | netlist | workspace | concurrency | word",
        )
    })?;
    match mode.as_str() {
        "plan" => analyze_plan(&args[1..]),
        "netlist" => analyze_netlist(&args[1..]),
        "workspace" => analyze_workspace(&args[1..]),
        "concurrency" => analyze_concurrency(&args[1..]),
        "word" => analyze_word(&args[1..]),
        other => Err(CliError::new(format!(
            "unknown analyze mode `{other}` (plan | netlist | workspace | concurrency | word)"
        ))),
    }
}

/// Static verification report for one permutation: closed forms against
/// Theorem 1, the symbolic walks, and the stage-bit invariant. Always
/// informational (a permutation outside `F(n)` is a fact, not a defect).
fn analyze_plan(args: &[String]) -> Result<String, CliError> {
    use benes_analyze::{analyze_omega_route, analyze_self_route, certify_f};

    let d = parse_permutation(args)?;
    let n = network_order(&d)?;
    let mut out = format!("static analysis of D = {d} on B({n})\n");

    let closed = benes_analyze::closed_form_findings(&d);
    if closed.is_empty() {
        out.push_str(
            "closed forms: dataflow walk, Theorem 1, BPC and omega \
                      predicates all agree\n",
        );
    } else {
        out.push_str(&benes_analyze::render_human(&closed));
    }

    let self_walk = analyze_self_route(&d);
    if self_walk.is_conflict_free() {
        out.push_str("self-route: conflict-free — D ∈ F(n), zero set-up\n");
    } else {
        out.push_str(&format!(
            "self-route: {} split conflict(s); first: {}\n",
            self_walk.conflicts.len(),
            self_walk.conflicts[0]
        ));
    }
    let omega_walk = analyze_omega_route(&d);
    if omega_walk.is_conflict_free() {
        out.push_str("omega-route: conflict-free — D ∈ Ω(n), first n−1 stages straight\n");
    } else {
        out.push_str(&format!(
            "omega-route: {} split conflict(s); first: {}\n",
            omega_walk.conflicts.len(),
            omega_walk.conflicts[0]
        ));
    }
    match certify_f(&d) {
        Ok(cert) => {
            out.push_str(&format!(
                "certificate: {} switch settings, symbolically realize D, \
                 zero stage-bit deviations\n",
                benes_core::topology::stage_count(cert.n())
                    * benes_core::topology::switches_per_stage(cert.n())
            ));
        }
        Err(conflicts) => {
            out.push_str(&format!(
                "certificate: none — {} conflicting subnetwork split(s) \
                 (Theorem 1 refuses D)\n",
                conflicts.len()
            ));
        }
    }
    Ok(out)
}

/// Netlist lint for the synthesized hardware; findings are defects.
fn analyze_netlist(args: &[String]) -> Result<String, CliError> {
    let n = parse_n(args.first(), "network order n")?;
    if n > 8 {
        return Err(CliError::new("netlist lint supported for n <= 8"));
    }
    let width = match args.get(1) {
        Some(w) => w
            .parse::<u32>()
            .ok()
            .filter(|&w| w <= 63)
            .ok_or_else(|| CliError::new("data width must be an integer <= 63"))?,
        None => 8,
    };
    let hw = GateBenes::build(n, width);
    let findings = benes_analyze::lint_gate_benes(&hw);
    if findings.is_empty() {
        Ok(format!(
            "GateBenes({n}, {width}): netlist clean — topological order proven, \
             widths and fanout bounds hold, gate budget exact ({} gates)\n",
            hw.gate_counts().total()
        ))
    } else {
        Err(CliError::new(benes_analyze::render_human(&findings)))
    }
}

/// The tier-1 gate: pillar-2 workspace lints plus a battery of domain
/// self-checks. Returns `Err` (nonzero exit) when anything is found.
fn analyze_workspace(args: &[String]) -> Result<String, CliError> {
    let json = args.iter().any(|a| a == "--json");
    let root: &str = args.iter().find(|a| *a != "--json").map_or(".", String::as_str);

    let (mut findings, graph) = benes_analyze::lint_workspace(std::path::Path::new(root))
        .map_err(|e| {
        CliError::new(format!("cannot scan workspace at `{root}`: {e}"))
    })?;
    findings.extend(domain_battery());

    if findings.is_empty() {
        let mut out = String::from("workspace analysis: clean\n");
        out.push_str(&graph.summary());
        out.push_str(
            "domain battery: exhaustive B(2) static-vs-simulation agreement, \
             closed forms on the named families, GateBenes netlist lints — all pass\n",
        );
        Ok(out)
    } else if json {
        Err(CliError::new(benes_analyze::render_json_lines(&findings)))
    } else {
        Err(CliError::new(benes_analyze::render_human(&findings)))
    }
}

/// Pillar 3, gate 1: the concurrency model checker over the engine's
/// run-queue protocol, plus its seeded-mutant self-test.
/// Returns `Err` (nonzero exit) on any counterexample against the
/// current protocol, on budget exhaustion (nothing proven), or when a
/// seeded mutant goes unflagged (the checker itself is broken).
fn analyze_concurrency(args: &[String]) -> Result<String, CliError> {
    let json = args.iter().any(|a| a == "--json");
    let budget = match args.iter().position(|a| a == "--budget") {
        Some(i) => args
            .get(i + 1)
            .and_then(|b| b.parse::<usize>().ok())
            .filter(|&b| b > 0)
            .ok_or_else(|| CliError::new("--budget needs a positive integer"))?,
        None => 4_000_000,
    };

    let (findings, reports) = benes_analyze::model::queue::concurrency_findings(budget);
    if !findings.is_empty() {
        return Err(CliError::new(if json {
            benes_analyze::render_json_lines(&findings)
        } else {
            benes_analyze::render_human(&findings)
        }));
    }

    let mut out = String::from("concurrency model check: certified\n");
    let mut total_states = 0usize;
    for r in &reports {
        total_states += r.states;
        if r.mutant {
            out.push_str(&format!(
                "flagged as expected: {} — property `{}`, {} states explored\n",
                r.name,
                r.property.as_deref().unwrap_or("?"),
                r.states
            ));
        } else {
            out.push_str(&format!(
                "certified: {} — {} states, {} transitions, exhaustive\n",
                r.name, r.states, r.transitions
            ));
        }
    }
    // The mutants' counterexample traces are the self-test's evidence;
    // show the first in full so "readable trace" stays demonstrably true.
    if let Some(cex) = reports.iter().find_map(|r| r.counterexample.as_deref()) {
        out.push_str("first mutant counterexample trace:\n");
        for line in cex.lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out.push_str(&format!(
        "properties proven on the current protocol: request conservation, \
         deadlock freedom, no lost wakeups ({total_states} states total, budget {budget})\n"
    ));
    Ok(out)
}

/// Pillar 3, gate 2: the symbolic word-kernel equivalence prover.
/// Returns `Err` (nonzero exit) on any word/scalar divergence.
fn analyze_word(args: &[String]) -> Result<String, CliError> {
    let json = args.iter().any(|a| a == "--json");
    let max_n = match args.iter().find(|a| *a != "--json") {
        Some(s) => s
            .parse::<u32>()
            .ok()
            .filter(|&n| (1..=8).contains(&n))
            .ok_or_else(|| CliError::new("max_n must be an integer in 1..=8"))?,
        None => 8,
    };

    let (findings, certs) = benes_analyze::prove_all(max_n);
    if !findings.is_empty() {
        return Err(CliError::new(if json {
            benes_analyze::render_json_lines(&findings)
        } else {
            benes_analyze::render_human(&findings)
        }));
    }

    let mut out = String::from("word-kernel equivalence proof: certified\n");
    let total: usize = certs.iter().map(|c| c.checks).sum();
    for c in &certs {
        out.push_str(&format!(
            "proven: B({}) {} kernel ≡ scalar oracle — {} stages, {} per-bit checks\n",
            c.n,
            c.kernel.name(),
            c.stages,
            c.checks
        ));
    }
    out.push_str(&format!(
        "word-parallel ≡ scalar for all n <= {max_n}, tag-routed and commanded, \
         healthy and faulty (symbolic control and fault variables), {total} checks, \
         zero sampled inputs\n"
    ));
    Ok(out)
}

/// Domain self-checks for `analyze workspace`: the static checker must
/// agree with ground truth wherever ground truth is cheap to compute.
fn domain_battery() -> Vec<benes_analyze::Finding> {
    use benes_analyze::{analyze_self_route, closed_form_findings, Finding, Pillar};

    let mut findings = Vec::new();

    // Exhaustive B(2): the symbolic walk's verdict must match the
    // simulated self-route on all 24 permutations of S_4.
    let net = Benes::new(2);
    let mut dest = vec![0u32, 1, 2, 3];
    permute_all(&mut dest, 0, &mut |tags| {
        let d = Permutation::from_destinations(tags.to_vec()).unwrap();
        let static_ok = analyze_self_route(&d).is_conflict_free();
        let sim_ok = net.self_route(&d).is_success();
        if static_ok != sim_ok {
            findings.push(Finding::error(
                Pillar::Domain,
                "static-vs-simulation",
                format!("B(2) D = {d}"),
                0,
                format!("static checker says {static_ok}, simulation says {sim_ok}"),
            ));
        }
    });

    // Closed forms on the named families up to B(5).
    for n in 1..=5u32 {
        let mut family: Vec<Permutation> = vec![
            Bpc::bit_reversal(n).to_permutation(),
            Bpc::vector_reversal(n).to_permutation(),
            Bpc::perfect_shuffle(n).to_permutation(),
            Bpc::unshuffle(n).to_permutation(),
            cyclic_shift(n, 1),
        ];
        if n % 2 == 0 {
            family.push(Bpc::matrix_transpose(n).to_permutation());
        }
        for d in family {
            findings.extend(closed_form_findings(&d));
        }
    }

    // The shipped hardware synthesis lints clean.
    for (n, w) in [(2u32, 4u32), (3, 8)] {
        findings.extend(benes_analyze::lint_gate_benes(&GateBenes::build(n, w)));
    }
    findings
}

/// Heap's algorithm: calls `visit` with every permutation of `v[k..]`.
fn permute_all(v: &mut Vec<u32>, k: usize, visit: &mut impl FnMut(&[u32])) {
    if k + 1 >= v.len() {
        visit(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute_all(v, k + 1, visit);
        v.swap(k, i);
    }
}

fn classify(args: &[String]) -> Result<String, CliError> {
    let d = parse_permutation(args)?;
    let mut out = format!("D = {d}\n");
    match d.log2_len() {
        Some(n) if n >= 1 => out.push_str(&format!("N = {} (n = {n})\n", d.len())),
        _ => {
            out.push_str("length is not a power of two: no class applies\n");
            return Ok(out);
        }
    }
    match Bpc::from_permutation(&d) {
        Some(a) => out.push_str(&format!("BPC:  yes, A-vector {a}\n")),
        None => out.push_str("BPC:  no\n"),
    }
    out.push_str(&format!("Ω:    {}\n", is_omega(&d)));
    out.push_str(&format!("Ω⁻¹:  {}\n", is_inverse_omega(&d)));
    match check_f(&d) {
        Ok(()) => out.push_str("F:    yes — self-routes with zero set-up\n"),
        Err(v) => out.push_str(&format!("F:    no — {v}\n")),
    }
    Ok(out)
}

fn route(args: &[String]) -> Result<String, CliError> {
    let (mode, tag_args) = match args.last().map(String::as_str) {
        Some("self") | Some("omega") | Some("waksman") => {
            (args.last().map(String::to_owned).unwrap_or_default(), &args[..args.len() - 1])
        }
        _ => ("self".to_string(), args),
    };
    let d = parse_permutation(tag_args)?;
    let n = network_order(&d)?;
    let net = Benes::new(n);
    let settings;
    let control = match mode.as_str() {
        "self" => Control::SelfRoute,
        "omega" => Control::OmegaBit,
        "waksman" => {
            settings = waksman::setup(&d)
                .map_err(|e| CliError::new(format!("set-up failed: {e}")))?;
            Control::Settings(&settings)
        }
        _ => unreachable!("mode restricted above"),
    };
    let trace = RouteTrace::capture(&net, &d, control, None)
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok(render_trace(&trace))
}

fn structure(args: &[String]) -> Result<String, CliError> {
    let n = parse_n(args.first(), "network order n")?;
    if n > 6 {
        let net = Benes::new(n);
        return Ok(format!(
            "B({n}): {} terminals, {} stages, {} switches (wiring table omitted for n > 6)\n",
            net.terminal_count(),
            net.stage_count(),
            net.switch_count()
        ));
    }
    Ok(render_structure(&Benes::new(n)))
}

fn census_cmd(args: &[String]) -> Result<String, CliError> {
    let max_n = match args.first() {
        Some(_) => parse_n(args.first(), "census order n")?,
        None => 3,
    };
    if max_n > 3 {
        return Err(CliError::new("exact census supports n <= 3"));
    }
    let mut out = String::from("n  |F(n)|  |BPC|  |Ω| = |Ω⁻¹|   N!\n");
    for n in 1..=max_n {
        let f = census::count_f(n);
        let nn = 1u64 << n;
        let bpc = nn as u128 * (1..=u128::from(n)).product::<u128>();
        let omega: u128 = 1 << (u64::from(n) * nn / 2);
        let fact: u128 = (1..=u128::from(nn)).product();
        out.push_str(&format!("{n}  {f}  {bpc}  {omega}  {fact}\n"));
    }
    Ok(out)
}

fn cost_cmd(args: &[String]) -> Result<String, CliError> {
    let n = parse_n(args.first(), "network order n")?;
    let mut out = format!("network costs at N = {} (n = {n})\n", 1u64 << n);
    for row in cost::comparison(n) {
        out.push_str(&format!(
            "{:<26} {:>14} switches  {:>5} levels  set-up: {}\n",
            row.name, row.switches, row.delay, row.setup
        ));
    }
    Ok(out)
}

fn simd(args: &[String]) -> Result<String, CliError> {
    let machine = args
        .first()
        .ok_or_else(|| CliError::new("expected machine: ccc | psc | mcc"))?
        .clone();
    let d = parse_permutation(&args[1..])?;
    let n = network_order(&d)?;
    let (ok, stats, name) = match machine.as_str() {
        "ccc" => {
            let (out, stats) = Ccc::new(n).route_f(records_for(&d));
            (verify_routed(&d, &out), stats, "cube-connected computer")
        }
        "psc" => {
            let (out, stats) = Psc::new(n).route_f(records_for(&d));
            (verify_routed(&d, &out), stats, "perfect shuffle computer")
        }
        "mcc" => {
            if n % 2 != 0 {
                return Err(CliError::new("the mesh needs even n (square array)"));
            }
            let (out, stats) = Mcc::new(n).route_f(records_for(&d));
            (verify_routed(&d, &out), stats, "mesh-connected computer")
        }
        other => {
            return Err(CliError::new(format!(
                "unknown machine `{other}` (ccc | psc | mcc)"
            )))
        }
    };
    Ok(format!(
        "{name}, N = {}\nrouted: {}\ncost: {stats}\n{}",
        d.len(),
        if ok { "yes" } else { "NO (permutation is outside F(n))" },
        if ok {
            String::new()
        } else {
            "fallback: sort-based routing handles any permutation in O(log² N)\n"
                .to_string()
        }
    ))
}

fn gates(args: &[String]) -> Result<String, CliError> {
    let n = parse_n(args.first(), "network order n")?;
    if n > 8 {
        return Err(CliError::new("gate synthesis supported for n <= 8"));
    }
    let width = match args.get(1) {
        Some(w) => w
            .parse::<u32>()
            .ok()
            .filter(|&w| w <= 63)
            .ok_or_else(|| CliError::new("data width must be an integer <= 63"))?,
        None => 8,
    };
    let hw = GateBenes::build(n, width);
    let counts = hw.gate_counts();
    Ok(format!(
        "gate-level B({n}) with {width}-bit payloads\n{counts}\ncritical path: {} gate levels (7n − 3 = {})\n",
        hw.critical_path(),
        7 * n - 3
    ))
}

fn named(args: &[String]) -> Result<String, CliError> {
    let name = args
        .first()
        .ok_or_else(|| CliError::new("expected a permutation name (see help)"))?
        .clone();
    let n = parse_n(args.get(1), "order n")?;
    let k: i64 = match args.get(2) {
        Some(s) => {
            s.parse().map_err(|_| CliError::new("parameter k must be an integer"))?
        }
        None => 1,
    };
    let d = match name.as_str() {
        "bit-reversal" => Bpc::bit_reversal(n).to_permutation(),
        "transpose" => {
            if n % 2 != 0 {
                return Err(CliError::new("transpose needs even n"));
            }
            Bpc::matrix_transpose(n).to_permutation()
        }
        "vector-reversal" => Bpc::vector_reversal(n).to_permutation(),
        "shuffle" => Bpc::perfect_shuffle(n).to_permutation(),
        "unshuffle" => Bpc::unshuffle(n).to_permutation(),
        "shift" => cyclic_shift(n, k),
        "p-order" => {
            let p = u64::try_from(k).ok().filter(|p| p % 2 == 1).ok_or_else(|| {
                CliError::new("p-order needs an odd positive parameter k")
            })?;
            p_ordering(n, p)
        }
        other => return Err(CliError::new(format!("unknown permutation `{other}`"))),
    };
    Ok(format!("{d}\n"))
}

fn shard_cmd(args: &[String]) -> Result<String, CliError> {
    let mode =
        args.first().ok_or_else(|| CliError::new("expected shard mode: route | soak"))?;
    match mode.as_str() {
        "route" => shard_route(&args[1..]),
        "soak" => shard_soak_cmd(&args[1..]),
        other => Err(CliError::new(format!("unknown shard mode `{other}` (route | soak)"))),
    }
}

/// One demonstration run of the coordinator: decompose a random `2^n`
/// permutation, scatter it across `k` engine shards, verify the bitwise
/// recombination, print the fleet's per-shard ledgers.
fn shard_route(args: &[String]) -> Result<String, CliError> {
    use benes_engine::workload::{random_permutation, Rng64};
    use benes_shard::{ShardConfig, ShardCoordinator};
    let n: u32 = match args.first() {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| (2..=22).contains(&n))
            .ok_or_else(|| CliError::new("order n must be in 2..=22"))?,
        None => 16,
    };
    let shards: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&k| (1..=64).contains(&k))
            .ok_or_else(|| CliError::new("shard count must be in 1..=64"))?,
        None => 4,
    };
    let seed: u64 = match args.get(2) {
        Some(s) => s.parse().map_err(|_| CliError::new("seed must be an integer"))?,
        None => 1,
    };
    let pi = random_permutation(&mut Rng64::new(seed), 1usize << n);
    let coord = ShardCoordinator::new(ShardConfig { shards, ..ShardConfig::default() });
    let outcome = coord.route(&pi).map_err(|e| CliError::new(e.to_string()))?;
    let mut out = format!(
        "routed a random permutation of 2^{n} = {} elements across {shards} shards\n\
         three-stage split: r={} -> {} blocks of {} (and {} colors), {} routing units\n\
         {}\n",
        1u64 << n,
        outcome.block_bits,
        1u64 << (n - outcome.block_bits),
        1u64 << outcome.block_bits,
        1u64 << outcome.block_bits,
        outcome.units.len(),
        outcome.summary(),
    );
    out.push_str(&coord.fleet_stats().report());
    if outcome.verified {
        Ok(out)
    } else {
        Err(CliError::new(out))
    }
}

/// The deterministic shard soak behind `scripts/shard.sh`: routes a
/// stream of giant permutations across in-process engine shards, arms
/// a failpoint on shard 0 for the middle round only, and fails (nonzero
/// exit) on any of [`shard_soak_violations`].
fn shard_soak_cmd(args: &[String]) -> Result<String, CliError> {
    let seed: u64 = match args.first() {
        Some(s) => s.parse().map_err(|_| CliError::new("seed must be an integer"))?,
        None => 1980,
    };
    let n: u32 = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| (2..=20).contains(&n))
            .ok_or_else(|| CliError::new("order n must be in 2..=20"))?,
        None => 12,
    };
    let permutations: usize = match args.get(2) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&p| (2..=1000).contains(&p))
            .ok_or_else(|| CliError::new("permutation count must be in 2..=1000"))?,
        None => 6,
    };
    let shards: usize = match args.get(3) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&k| (2..=64).contains(&k))
            .ok_or_else(|| CliError::new("shard count must be in 2..=64"))?,
        None => 4,
    };
    let fault_round = permutations / 2;
    let (report, fault) = shard_soak(seed, n, permutations, shards, |round| {
        if round == fault_round {
            vec![0]
        } else {
            Vec::new()
        }
    });
    let violations = shard_soak_violations(&report, &fault);
    let mut out = format!(
        "shard soak: seed {seed}, {permutations} permutations of 2^{n} across \
         {shards} shards, fault round {fault_round} targets shard 0\n"
    );
    out.push_str(&report.render());
    out.push_str(&format!(
        "shard-soak: fault round routed {}/{} elements\n",
        fault.routed_elements, fault.total_elements,
    ));
    if violations.is_empty() {
        out.push_str("shard-soak: HEALTHY\n");
        Ok(out)
    } else {
        out.push_str(&format!("shard-soak: UNHEALTHY: {}\n", violations.join("; ")));
        Err(CliError::new(out))
    }
}

/// Runs [`benes_shard::run_fleet_soak`] for `rounds` seeded
/// permutations of `2^n` over `shards` in-process engines with shard 0
/// killable. Before each round, an always-fail failpoint is armed on
/// the engines of the shards `chaos(round)` names and cleared on the
/// rest. Returns the report and the middle round's outcome.
fn shard_soak(
    seed: u64,
    n: u32,
    rounds: usize,
    shards: usize,
    chaos: impl Fn(usize) -> Vec<usize>,
) -> (benes_shard::FleetSoakReport, benes_shard::ShardOutcome) {
    use benes_engine::chaos::ChaosConfig;
    use benes_engine::{Engine, EngineConfig};
    use benes_shard::{
        run_fleet_soak, Backend, FleetSoakConfig, LocalShard, ShardConfig, ShardCoordinator,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let engines: Vec<Arc<Engine>> =
        (0..shards).map(|_| Arc::new(Engine::new(EngineConfig::default()))).collect();
    let backends = engines
        .iter()
        .map(|e| Box::new(LocalShard::new(Arc::clone(e))) as Box<dyn Backend>)
        .collect();
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);
    let arm = |round: usize| {
        let armed = chaos(round);
        for (shard, engine) in engines.iter().enumerate() {
            if armed.contains(&shard) {
                engine.set_chaos(ChaosConfig::always_fail(seed ^ 0xfa17));
            } else {
                engine.clear_chaos();
            }
        }
    };
    let cfg =
        FleetSoakConfig { seed, n, rounds, round_pause: Duration::ZERO, killable: vec![0] };
    let mut fault = None;
    arm(0);
    let report = run_fleet_soak(&coord, &cfg, |round, outcome| {
        if round == rounds / 2 {
            fault = Some(outcome.clone());
        }
        arm(round + 1);
    });
    (report, fault.expect("the middle round ran"))
}

/// Every `scripts/shard.sh` condition that a shard soak's `report` and
/// its fault round's outcome `fault` break; empty means the soak
/// passes. Beyond [`benes_shard::FleetSoakReport::healthy`] (no
/// contamination, no wrong surviving element, every ledger conserving),
/// the fault round must be the only degraded round, every other round
/// must verify, and the fault round must fail on shard 0 and route some
/// but not all elements.
fn shard_soak_violations(
    report: &benes_shard::FleetSoakReport,
    fault: &benes_shard::ShardOutcome,
) -> Vec<String> {
    let mut violations = Vec::new();
    if !report.healthy() {
        violations.push("fleet soak unhealthy".to_string());
    }
    if report.degraded_rounds != 1 {
        violations.push(format!("{} degraded rounds, not 1", report.degraded_rounds));
    }
    if report.verified_rounds + 1 != report.rounds {
        violations.push(format!(
            "{} of {} clean rounds verified",
            report.verified_rounds,
            report.rounds - 1
        ));
    }
    if !fault.units.iter().any(|u| u.shard == 0 && !u.is_ok()) {
        violations.push("no failure on shard 0 in the fault round".to_string());
    }
    if fault.routed_elements == 0 || fault.routed_elements == fault.total_elements {
        violations.push(format!(
            "fault round routed {}/{} elements",
            fault.routed_elements, fault.total_elements
        ));
    }
    violations
}

/// The loopback wire-service smoke behind `benes-cli serve smoke`:
/// starts an in-process server on an ephemeral port, pipelines a small
/// multi-tenant load through real sockets, and reports per-tenant
/// ledger conservation. The long-running daemon is the `benes-serve`
/// binary; this command exists so the wire path can be exercised from
/// the CLI test suite and scripts without process management.
fn serve_cmd(args: &[String]) -> Result<String, CliError> {
    use benes_engine::EngineConfig;
    use benes_serve::{Client, Frame, ServeConfig, Server, Status};
    use std::time::{Duration, Instant};

    let mode = args.first().ok_or_else(|| CliError::new("expected serve mode: smoke"))?;
    if mode != "smoke" {
        return Err(CliError::new(format!("unknown serve mode `{mode}` (smoke)")));
    }
    let requests: usize = match args.get(1) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&r| (1..=100_000).contains(&r))
            .ok_or_else(|| CliError::new("request count must be in 1..=100000"))?,
        None => 200,
    };
    let tenants: u64 = match args.get(2) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&t| (1..=64).contains(&t))
            .ok_or_else(|| CliError::new("tenant count must be in 1..=64"))?,
        None => 2,
    };
    let conns: usize = match args.get(3) {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&c| (1..=32).contains(&c))
            .ok_or_else(|| CliError::new("connection count must be in 1..=32"))?,
        None => 2,
    };

    // The whole batch is pipelined up front, so the per-tenant backlog
    // quota must admit it all; refusals are a separate test's concern.
    let config = ServeConfig {
        threads: 1,
        quota: requests,
        engine: EngineConfig { workers: 2, ..EngineConfig::default() },
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config)
        .map_err(|e| CliError::new(format!("bind loopback server: {e}")))?;
    let addr = server.local_addr();

    // Each connection carries one tenant; requests round-robin across
    // connections. Destinations are small cyclic shifts of 0..8 —
    // valid permutations the planner serves from the cached/self-route
    // tiers.
    let mut clients = Vec::new();
    for c in 0..conns {
        let client = Client::connect(addr)
            .map_err(|e| CliError::new(format!("connect to {addr}: {e}")))?;
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| CliError::new(format!("set read timeout: {e}")))?;
        clients.push((c as u64 % tenants + 1, client, 0usize));
    }
    for req in 0..requests {
        let (tenant, client, sent) = &mut clients[req % conns];
        let destinations: Vec<u32> = (0..8).map(|i| (i + req as u32) % 8).collect();
        let frame = Frame::Route {
            req_id: req as u64,
            tenant: *tenant,
            deadline_ms: 0,
            destinations,
        };
        client.send(&frame).map_err(|e| CliError::new(format!("send: {e}")))?;
        *sent += 1;
    }

    let mut by_status = vec![0u64; Status::ALL.len()];
    let mut latency_sum_ns = 0u128;
    let mut latency_max_ns = 0u64;
    for (_, client, sent) in &mut clients {
        for _ in 0..*sent {
            let reply = client.recv().map_err(|e| CliError::new(format!("recv: {e}")))?;
            let Frame::RouteReply { status, latency_ns, .. } = reply else {
                return Err(CliError::new(format!("unexpected reply frame {reply:?}")));
            };
            by_status[status as usize] += 1;
            latency_sum_ns += u128::from(latency_ns);
            latency_max_ns = latency_max_ns.max(latency_ns);
        }
    }

    // Replies precede the engine's terminal bookkeeping by a hair, so
    // poll the Stats frame until every tenant ledger conserves.
    let mut stats = Client::connect(addr)
        .map_err(|e| CliError::new(format!("connect for stats: {e}")))?;
    stats
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| CliError::new(format!("set read timeout: {e}")))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let rows = loop {
        stats.send(&Frame::Stats).map_err(|e| CliError::new(format!("stats: {e}")))?;
        let reply = stats.recv().map_err(|e| CliError::new(format!("stats: {e}")))?;
        let Frame::StatsReply { rows } = reply else {
            return Err(CliError::new(format!("unexpected stats reply {reply:?}")));
        };
        let settled = !rows.is_empty()
            && rows.iter().all(benes_serve::TenantRow::conserves_requests)
            && rows.iter().map(|r| r.submitted).sum::<u64>() == requests as u64;
        if settled {
            break rows;
        }
        if Instant::now() >= deadline {
            return Err(CliError::new(format!(
                "tenant ledgers did not settle/conserve within 10s: {rows:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(stats);
    drop(clients);

    let mut out = format!(
        "serve smoke: {requests} requests, {tenants} tenants over {conns} connections, \
         loopback {addr}\n"
    );
    for (i, &count) in by_status.iter().enumerate() {
        if count > 0 {
            out.push_str(&format!("  {:<14} {count}\n", Status::ALL[i].name()));
        }
    }
    out.push_str(&format!(
        "latency: mean {:.1}us, max {:.1}us\n",
        latency_sum_ns as f64 / requests as f64 / 1e3,
        latency_max_ns as f64 / 1e3
    ));
    for row in &rows {
        out.push_str(&format!(
            "tenant {:>3}: submitted {} = completed {} + failed {} + shed {} + canceled {} \
             (rejected {}) — conserved\n",
            row.tenant,
            row.submitted,
            row.completed,
            row.failed,
            row.shed,
            row.canceled,
            row.rejected
        ));
    }
    let counters = server.counters();
    let protocol_errors =
        counters.protocol_errors.load(std::sync::atomic::Ordering::Relaxed);
    out.push_str(&format!(
        "server counters: accepted {}, replies {}, protocol errors {protocol_errors}\n",
        counters.accepted.load(std::sync::atomic::Ordering::Relaxed),
        counters.replies.load(std::sync::atomic::Ordering::Relaxed),
    ));
    let report = server.shutdown(Instant::now() + Duration::from_secs(5));
    out.push_str(&format!(
        "drain: canceled {}, timed_out {}\n",
        report.canceled, report.timed_out
    ));
    if protocol_errors == 0 && !report.timed_out {
        Ok(out)
    } else {
        Err(CliError::new(out))
    }
}

fn fleet_cmd(args: &[String]) -> Result<String, CliError> {
    let mode = args.first().ok_or_else(|| CliError::new("expected fleet mode: soak"))?;
    match mode.as_str() {
        "soak" => fleet_soak_cmd(&args[1..]),
        other => Err(CliError::new(format!("unknown fleet mode `{other}` (soak)"))),
    }
}

/// The remote-fleet soak behind `scripts/fleet.sh`: builds a
/// coordinator of [`benes_shard::RemoteShard`] backends over already
/// running `benes-serve` processes, routes a seeded permutation stream
/// while an **external** killer takes down killable shards (the script
/// does `kill -9` when it sees a `fleet-round` line), and exits
/// nonzero on contamination, a wrong surviving element, or a
/// conservation violation. Round progress streams to stdout so the
/// killer can time its strike; the final report and the
/// `benes_fleet_*` exposition follow.
fn fleet_soak_cmd(args: &[String]) -> Result<String, CliError> {
    use benes_engine::BreakerConfig;
    use benes_shard::{
        run_fleet_soak, Backend, FleetSoakConfig, RemoteConfig, RemoteShard, ShardConfig,
        ShardCoordinator,
    };
    use std::time::Duration;

    let mut addrs: Vec<String> = Vec::new();
    let mut spares: Vec<(usize, String)> = Vec::new();
    let mut killable: Vec<usize> = Vec::new();
    let mut rounds = 8usize;
    let mut n = 10u32;
    let mut seed = 2026u64;
    let mut pause_ms = 100u64;
    let mut hedge_ms: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().cloned().ok_or_else(|| CliError::new(format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--addrs" => {
                addrs = value("--addrs")?.split(',').map(str::to_string).collect();
            }
            "--spare" => {
                let v = value("--spare")?;
                let (idx, addr) = v
                    .split_once('=')
                    .ok_or_else(|| CliError::new("--spare expects IDX=HOST:PORT"))?;
                let idx: usize = idx
                    .parse()
                    .map_err(|_| CliError::new("--spare shard index must be an integer"))?;
                spares.push((idx, addr.to_string()));
            }
            "--killable" => {
                killable = value("--killable")?
                    .split(',')
                    .map(|s| {
                        s.parse().map_err(|_| {
                            CliError::new("--killable expects shard indices, e.g. 1,2")
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--rounds" => {
                rounds = value("--rounds")?
                    .parse()
                    .ok()
                    .filter(|&r| (1..=1000).contains(&r))
                    .ok_or_else(|| CliError::new("--rounds must be in 1..=1000"))?;
            }
            "--n" => {
                n = value("--n")?
                    .parse()
                    .ok()
                    .filter(|&n| (2..=16).contains(&n))
                    .ok_or_else(|| CliError::new("--n must be in 2..=16"))?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError::new("--seed must be an integer"))?;
            }
            "--pause-ms" => {
                pause_ms = value("--pause-ms")?
                    .parse()
                    .map_err(|_| CliError::new("--pause-ms must be an integer"))?;
            }
            "--hedge-ms" => {
                hedge_ms = Some(
                    value("--hedge-ms")?
                        .parse()
                        .map_err(|_| CliError::new("--hedge-ms must be an integer"))?,
                );
            }
            other => {
                return Err(CliError::new(format!("unknown fleet soak argument `{other}`")))
            }
        }
    }
    if addrs.is_empty() {
        return Err(CliError::new("--addrs HOST:PORT,HOST:PORT,... is required"));
    }
    if let Some((idx, _)) = spares.iter().find(|(idx, _)| *idx >= addrs.len()) {
        return Err(CliError::new(format!(
            "--spare index {idx} out of range for {} shards",
            addrs.len()
        )));
    }
    if let Some(idx) = killable.iter().find(|&&idx| idx >= addrs.len()) {
        return Err(CliError::new(format!(
            "--killable index {idx} out of range for {} shards",
            addrs.len()
        )));
    }

    // Tight transport budgets: the gate script kills real processes,
    // so dead-endpoint paths must resolve in tens of milliseconds.
    let backends: Vec<Box<dyn Backend>> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let spare = spares.iter().find(|(idx, _)| *idx == i).map(|(_, a)| a.clone());
            let cfg = RemoteConfig {
                spare: spare.clone(),
                connect_timeout: Duration::from_millis(250),
                request_timeout: Duration::from_secs(2),
                attempts: 2,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    base_backoff: Duration::from_millis(20),
                    ..BreakerConfig::default()
                },
                reconnect_base: Duration::from_millis(5),
                reconnect_max: Duration::from_millis(50),
                probe_interval: Duration::from_millis(100),
                hedge: hedge_ms.filter(|_| spare.is_some()).map(Duration::from_millis),
                ..RemoteConfig::new(addr.clone())
            };
            Box::new(RemoteShard::new(cfg, i)) as Box<dyn Backend>
        })
        .collect();
    let coord = ShardCoordinator::with_backends(ShardConfig::default(), backends);

    let cfg = FleetSoakConfig {
        seed,
        n,
        rounds,
        round_pause: Duration::from_millis(pause_ms),
        killable: killable.clone(),
    };
    println!(
        "fleet soak: {} remote shards, {} spares, killable {:?}, {rounds} rounds of 2^{n}",
        addrs.len(),
        spares.len(),
        killable,
    );
    // Stream each round as it lands (stdout is line-buffered) so an
    // external killer can strike mid-soak.
    let report = run_fleet_soak(&coord, &cfg, |round, out| {
        println!("fleet-round {round}: {}", out.summary());
    });

    let mut out = report.render();
    out.push_str(&coord.fleet_stats().exposition().to_prometheus());
    if report.healthy() {
        Ok(out)
    } else {
        Err(CliError::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn empty_args_print_help() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run_str("help").unwrap().contains("classify"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn classify_fig5() {
        let out = run_str("classify 1 3 2 0").unwrap();
        assert!(out.contains("BPC:  no"));
        assert!(out.contains("Ω:    true"));
        assert!(out.contains("Ω⁻¹:  false"));
        assert!(out.contains("F:    no"));
    }

    #[test]
    fn classify_recovers_bpc_vector() {
        let out = run_str("classify 0 4 2 6 1 5 3 7").unwrap();
        assert!(out.contains("BPC:  yes"), "{out}");
        assert!(out.contains("F:    yes"));
    }

    #[test]
    fn classify_rejects_garbage() {
        assert!(run_str("classify 1 1").is_err());
        assert!(run_str("classify x y").is_err());
        assert!(run_str("classify").is_err());
        // Power-of-two check is a report, not an error.
        let out = run_str("classify 2 0 1").unwrap();
        assert!(out.contains("not a power of two"));
    }

    #[test]
    fn route_modes() {
        assert!(run_str("route 0 4 2 6 1 5 3 7").unwrap().contains("SUCCESS"));
        assert!(run_str("route 1 3 2 0").unwrap().contains("FAILURE"));
        assert!(run_str("route 1 3 2 0 omega").unwrap().contains("SUCCESS"));
        assert!(run_str("route 1 3 2 0 waksman").unwrap().contains("SUCCESS"));
    }

    #[test]
    fn structure_reports_sizes() {
        let out = run_str("structure 3").unwrap();
        assert!(out.contains("8 terminals, 5 stages, 20 switches"));
        let big = run_str("structure 10").unwrap();
        assert!(big.contains("1024 terminals"));
        assert!(run_str("structure 0").is_err());
    }

    #[test]
    fn census_defaults_to_three() {
        let out = run_str("census").unwrap();
        assert!(out.contains("11632"));
        assert!(run_str("census 4").is_err());
    }

    #[test]
    fn cost_lists_seven_networks() {
        let out = run_str("cost 6").unwrap();
        assert_eq!(out.matches("switches").count(), 7);
        assert!(out.contains("Crossbar"));
        assert!(out.contains("Waksman A(n)"));
    }

    #[test]
    fn simd_machines() {
        let out = run_str("simd ccc 0 4 2 6 1 5 3 7").unwrap();
        assert!(out.contains("routed: yes"));
        assert!(out.contains("5 steps"));
        let out = run_str("simd psc 0 4 2 6 1 5 3 7").unwrap();
        assert!(out.contains("9 unit-routes"));
        let out = run_str("simd mcc 1 3 2 0").unwrap();
        assert!(out.contains("routed: NO"));
        assert!(run_str("simd mcc 0 4 2 6 1 5 3 7").is_err()); // odd n
        assert!(run_str("simd tpu 0 1").is_err());
    }

    #[test]
    fn gates_report() {
        let out = run_str("gates 3 4").unwrap();
        assert!(out.contains("critical path: 18 gate levels"));
        assert!(run_str("gates 9").is_err());
    }

    #[test]
    fn named_generators() {
        assert_eq!(
            run_str("named bit-reversal 3").unwrap().trim(),
            "(0, 4, 2, 6, 1, 5, 3, 7)"
        );
        assert_eq!(run_str("named shift 2 1").unwrap().trim(), "(1, 2, 3, 0)");
        assert!(run_str("named transpose 3").is_err());
        assert!(run_str("named p-order 3 4").is_err()); // even p
        assert!(run_str("named nonesuch 3").is_err());
    }

    #[test]
    fn shard_route_verifies_recombination() {
        let out = run_str("shard route 10 3 7").unwrap();
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("fleet: shards=3"));
        assert!(run_str("shard route 25").is_err()); // n out of range
        assert!(run_str("shard bogus").is_err());
        assert!(run_str("shard").is_err());
    }

    #[test]
    fn shard_soak_gate_passes_on_defaults() {
        // Small soak (2^8, 4 rounds) so the unit test stays fast; the
        // script runs the full default.
        let out = run_str("shard soak 7 8 4 4").unwrap();
        assert!(out.contains("HEALTHY"), "{out}");
        assert!(out.contains("contaminated_units=0"), "{out}");
    }

    /// The shard soak's gate, judged on a small soak (4 rounds of 2^8;
    /// the fault round is round 2) whose failpoints `chaos` places.
    fn soak_violations(shards: usize, chaos: impl Fn(usize) -> Vec<usize>) -> Vec<String> {
        let (report, fault) = shard_soak(7, 8, 4, shards, chaos);
        shard_soak_violations(&report, &fault)
    }

    #[test]
    fn shard_soak_is_deterministic() {
        let run = || {
            let (report, fault) =
                shard_soak(3, 8, 4, 4, |r| if r == 2 { vec![0] } else { vec![] });
            (report.killable_failures, report.verified_rounds, fault.routed_elements)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shard_soak_gate_fails_on_contamination() {
        let violations = soak_violations(4, |r| if r == 2 { vec![0, 1] } else { vec![] });
        assert_eq!(violations, ["fleet soak unhealthy"]);
    }

    #[test]
    fn shard_soak_gate_fails_on_a_clean_round_failure_on_shard_0() {
        // Shard 0 is killable, so the soak report alone stays healthy.
        let (report, fault) =
            shard_soak(7, 8, 4, 4, |r| if r == 0 || r == 2 { vec![0] } else { vec![] });
        assert!(report.healthy(), "{}", report.render());
        let violations = shard_soak_violations(&report, &fault);
        assert_eq!(
            violations,
            ["2 degraded rounds, not 1", "2 of 3 clean rounds verified"]
        );
    }

    #[test]
    fn shard_soak_gate_fails_on_an_inert_failpoint() {
        let violations = soak_violations(4, |_| vec![]);
        assert!(
            violations.contains(&"no failure on shard 0 in the fault round".to_string())
        );
        assert!(violations.contains(&"fault round routed 256/256 elements".to_string()));
    }

    #[test]
    fn shard_soak_gate_fails_on_a_fault_round_that_routes_nothing() {
        // One shard: every unit of the fault round fails, none of them
        // outside the killable set.
        let violations = soak_violations(1, |r| if r == 2 { vec![0] } else { vec![] });
        assert_eq!(violations, ["fault round routed 0/256 elements"]);
    }

    #[test]
    fn shard_soak_gate_fails_on_a_ledger_that_does_not_conserve() {
        use benes_shard::FleetStats;
        let (mut report, fault) =
            shard_soak(7, 8, 4, 4, |r| if r == 2 { vec![0] } else { vec![] });
        assert!(shard_soak_violations(&report, &fault).is_empty());
        let mut per_shard = report.fleet.per_shard().to_vec();
        per_shard[1].1.requests.completed -= 1;
        report.fleet = FleetStats::new(per_shard);
        report.conservation_ok = report.fleet.conserves_requests();
        assert_eq!(shard_soak_violations(&report, &fault), ["fleet soak unhealthy"]);
    }

    #[test]
    fn serve_smoke_conserves_tenant_ledgers() {
        let out = run_str("serve smoke 60 3 3").unwrap();
        assert!(out.contains("ok             60"), "{out}");
        assert!(out.contains("protocol errors 0"), "{out}");
        for tenant in 1..=3 {
            assert!(out.contains(&format!("tenant   {tenant}: submitted 20")), "{out}");
        }
        assert!(out.matches("— conserved").count() == 3, "{out}");
        assert!(run_str("serve").is_err());
        assert!(run_str("serve bogus").is_err());
        assert!(run_str("serve smoke 0").is_err());
    }

    #[test]
    fn fleet_soak_runs_against_in_process_servers() {
        use benes_engine::EngineConfig;
        use benes_serve::{ServeConfig, Server};
        let servers: Vec<Server> = (0..2)
            .map(|_| {
                let config = ServeConfig {
                    threads: 1,
                    engine: EngineConfig { workers: 2, ..EngineConfig::default() },
                    ..ServeConfig::default()
                };
                Server::start("127.0.0.1:0", config).expect("bind ephemeral port")
            })
            .collect();
        let addrs: Vec<String> =
            servers.iter().map(|s| s.local_addr().to_string()).collect();
        let out = run_str(&format!(
            "fleet soak --addrs {} --rounds 3 --n 6 --pause-ms 0",
            addrs.join(",")
        ))
        .unwrap();
        assert!(out.contains("fleet-soak: HEALTHY"), "{out}");
        assert!(out.contains("benes_fleet_failovers_total"), "{out}");
        assert!(out.contains("benes_fleet_shard_healthy"), "{out}");
        for s in servers {
            s.shutdown(std::time::Instant::now() + std::time::Duration::from_secs(5));
        }
    }

    #[test]
    fn fleet_soak_rejects_bad_usage() {
        assert!(run_str("fleet").is_err());
        assert!(run_str("fleet bogus").is_err());
        assert!(run_str("fleet soak").is_err()); // --addrs required
        assert!(run_str("fleet soak --addrs a --killable 5").is_err());
        assert!(run_str("fleet soak --addrs a --spare 3=b").is_err());
        assert!(run_str("fleet soak --addrs a --rounds 0").is_err());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn gcn_command() {
        let out = run_str("gcn 2 0 2 1").unwrap();
        assert!(out.contains("1 copies fabricated"));
        assert!(out.contains("0<-2"));
        assert!(run_str("gcn 0 1 2").is_err()); // not a power of two
        assert!(run_str("gcn 9 0 0 0").is_err()); // out of range source
        assert!(run_str("gcn").is_err());
    }

    #[test]
    fn dual_command() {
        let out = run_str("dual 25 0 4 2 6 1 5 3 7").unwrap();
        assert!(out.contains("B(n) self-route, 5 gate delays"));
        let out = run_str("dual 25 0 2 1 3").unwrap(); // shuffle on n=2
        assert!(out.contains("E(n) direct link"), "{out}");
        assert!(run_str("dual 0 0 1").is_err()); // kappa must be >= 1
    }

    #[test]
    fn factor_command() {
        let out = run_str("factor 1 3 2 0").unwrap();
        assert!(out.contains("inverse-omega: true"));
        assert!(out.contains("omega: true"));
        assert!(run_str("factor 0 1 2").is_err());
    }

    #[test]
    fn engine_command() {
        let out = run_str("engine 3 200 2").unwrap();
        assert!(out.contains("engine run: B(3), 200 requests, 2 workers"), "{out}");
        assert!(out.contains("200 submitted, 200 completed, 0 failed"), "{out}");
        assert!(out.contains("misrouted          0"), "{out}");
        assert!(run_str("engine 2").is_err()); // no hard perms below B(3)
        assert!(run_str("engine 4 0").is_err());
        assert!(run_str("engine 4 10 0").is_err());
    }

    #[test]
    fn faults_command() {
        let out = run_str("faults 3 2 120 7").unwrap();
        assert!(out.contains("fault-injection campaign: B(3), 2 stuck switches"), "{out}");
        assert!(out.contains("fault set: B(3):"), "{out}");
        assert!(out.contains("degraded mode"), "{out}");
        // A healthy campaign (k = 0) serves everything and stays clean.
        let clean = run_str("faults 3 0 60 7").unwrap();
        assert!(clean.contains("served 60/60"), "{clean}");
        assert!(!clean.contains("degraded mode"), "{clean}");
        assert!(run_str("faults 2").is_err()); // no hard perms below B(3)
        assert!(run_str("faults 3 999").is_err()); // more faults than switches
        assert!(run_str("faults 3 1 0").is_err());
    }

    #[test]
    fn chaos_command() {
        let out = run_str("chaos 3962 100").unwrap();
        assert!(out.contains("chaos soak: seed 3962"), "{out}");
        assert!(out.contains("breaker: opened"), "{out}");
        assert!(out.contains("conserved, no hangs, breaker cycled"), "{out}");
        assert!(run_str("chaos 1 0").is_err()); // zero requests
        assert!(run_str("chaos x").is_err()); // non-integer seed
    }

    #[test]
    fn obs_dump_round_trips_through_both_parsers() {
        let text = run_str("obs dump 3 150").unwrap();
        assert!(text.contains("# TYPE benes_requests_total counter"), "{text}");
        assert!(
            text.contains("benes_latency_ns{path=\"all\",quantile=\"0.99\"}"),
            "{text}"
        );
        let samples = benes_obs::parse_prometheus(&text).expect("exposition must parse");
        assert!(samples.iter().any(|s| s.name == "benes_requests_total"));

        let json = run_str("obs dump 3 150 --json").unwrap();
        let parsed = benes_obs::parse_json(&json).expect("JSON exposition must parse");
        assert!(parsed.iter().any(|s| s.name == "benes_queue_high_water"));
    }

    #[test]
    fn obs_histogram_reports_per_tier_quantiles() {
        // At the cache's admission order (B(10)) the mixed workload
        // exercises the zero-setup, Waksman and cached tiers; each must
        // surface its own histogram row.
        let out = run_str("obs histogram 10 400").unwrap();
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("self-route"), "{out}");
        assert!(out.contains("waksman"), "{out}");
        assert!(out.contains("cached"), "{out}");
        assert!(run_str("obs histogram 2").is_err());
        assert!(run_str("obs histogram 4 0").is_err());
    }

    #[test]
    fn obs_flightrec_renders_the_injected_failure() {
        let out = run_str("obs flightrec 3 6").unwrap();
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("fault-detected"), "{out}");
        assert!(out.contains("unavoidable"), "{out}");
        assert!(out.contains("failing-plan trace:"), "{out}");
        assert!(out.contains("route attempt: fingerprint"), "{out}");
        assert!(run_str("obs flightrec 3 6 999").is_err());
    }

    #[test]
    fn obs_rejects_unknown_modes() {
        assert!(run_str("obs").is_err());
        assert!(run_str("obs spelunk").is_err());
    }

    #[test]
    fn diagnose_command() {
        let out = run_str("diagnose 0 4 2 6 1 5 3 7").unwrap();
        assert!(out.contains("20 benign"));
        assert!(out.contains("visible"));
        assert!(run_str("diagnose 1 0").is_ok());
    }

    #[test]
    fn analyze_concurrency_certifies_and_self_tests() {
        let out = run_str("analyze concurrency").unwrap();
        assert!(out.contains("concurrency model check: certified"), "{out}");
        // All three current-protocol abstractions certify exhaustively.
        assert_eq!(out.matches("certified: run queue").count(), 3, "{out}");
        // All four seeded mutants are flagged, with a readable trace.
        assert_eq!(out.matches("flagged as expected: mutant").count(), 4, "{out}");
        assert!(out.contains("counterexample trace"), "{out}");
        assert!(out.contains("no post-take wake [mutant]"), "{out}");
        assert!(out.contains("no lost wakeups"), "{out}");
    }

    #[test]
    fn analyze_concurrency_budget_exhaustion_is_a_failure() {
        let err = run_str("analyze concurrency --budget 10").unwrap_err();
        assert!(err.to_string().contains("model-budget-exhausted"), "{err}");
        assert!(run_str("analyze concurrency --budget").is_err());
        assert!(run_str("analyze concurrency --budget zero").is_err());
    }

    #[test]
    fn analyze_word_proves_small_orders() {
        let out = run_str("analyze word 3").unwrap();
        assert!(out.contains("word-kernel equivalence proof: certified"), "{out}");
        assert!(out.contains("B(3) self-route kernel"), "{out}");
        assert!(out.contains("B(3) omega-bit kernel"), "{out}");
        assert!(out.contains("B(3) commanded-columns kernel"), "{out}");
        assert!(out.contains("zero sampled inputs"), "{out}");
        assert!(run_str("analyze word 9").is_err());
        assert!(run_str("analyze word 0").is_err());
    }
}
