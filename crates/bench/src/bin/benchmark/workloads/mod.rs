//! The four workloads and the per-layer report they share.

mod engine;
mod fleet;
mod serve;

use std::sync::Arc;

use benes_engine::plan::{self, Plan};
use benes_engine::EngineStats;
use benes_perm::Permutation;
use benes_shard::{BackendLedger, ShardConfig, ShardCoordinator};

use crate::replay::{self, CacheStep, CodecStep, Timed};
use crate::spans::Spans;
use crate::stats::median_f64;
use crate::{Check, Config, Metrics, Report};

/// Permutations in a request workload's stream. The stream is cycled,
/// so the plan cache sees the same reuse pattern for the whole run.
pub const STREAM_LEN: usize = 1 << 16;

/// Requests replayed through the in-process layers per traced run.
pub const REPLAYS: usize = 10_000;

/// Timed set-up launches per run; `setup_s` is their median. A launch
/// takes from tens of microseconds (an engine) to milliseconds (a
/// fleet), so a single one is at the mercy of the scheduler. A fleet's
/// launches fall into two clusters, near 10 and 17 ms on the reference
/// host, so the median of a few flips between them: over twelve runs,
/// the median of 11 launches spread 9.8% and that of 51, 4.7%.
pub const SETUP_LAUNCHES: usize = 51;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineClosed,
    ServeRpc,
    ServeOpen,
    FleetRound,
}

impl Workload {
    pub const ALL: [Self; 4] =
        [Self::EngineClosed, Self::ServeRpc, Self::ServeOpen, Self::FleetRound];

    pub fn name(self) -> &'static str {
        match self {
            Self::EngineClosed => "engine-closed",
            Self::ServeRpc => "serve-rpc",
            Self::ServeOpen => "serve-open",
            Self::FleetRound => "fleet-round",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub fn run(w: Workload, config: &Config) -> Report {
    let mut check = Check::default();
    let mut metrics = Metrics::default();
    let params = match w {
        Workload::EngineClosed => engine::run(config, &mut check, &mut metrics),
        Workload::ServeRpc => {
            serve::run(config, serve::Mode::Rpc, &mut check, &mut metrics)
        }
        Workload::ServeOpen => {
            serve::run(config, serve::Mode::Open, &mut check, &mut metrics)
        }
        Workload::FleetRound => fleet::run(config, &mut check, &mut metrics),
    };
    Report { workload: w.name(), params, check, metrics }
}

/// The thread label every result carries, so oversubscription is never
/// read as scaling.
pub fn threads_json(program: usize, load: usize) -> String {
    let cores = crate::host::cores();
    format!(
        "\"program_threads\":{program},\"load_threads\":{load},\"cores\":{cores},\
         \"oversubscribed\":{}",
        program + load > cores
    )
}

/// Every per-layer reading of one traced run. Each workload fills the
/// fields from its live spans where its path crosses the layer, and from
/// a replay of its own requests where it does not.
#[derive(Default)]
pub struct Layers {
    pub core: Vec<[Timed; 3]>,
    pub plan: Vec<(Timed, Timed)>,
    pub cache: Vec<CacheStep>,
    pub cache_hit_pct: f64,
    pub engine_submit: Vec<u64>,
    pub engine_wait: Vec<u64>,
    pub engine_handoff: Vec<u64>,
    pub engine_stats: Option<EngineStats>,
    pub codec: Vec<CodecStep>,
    pub tenant: Vec<(Timed, Timed)>,
    pub client_send: Vec<u64>,
    pub client_rtt: Vec<u64>,
    pub server_reported: Vec<u64>,
    pub wire_residual: Vec<u64>,
    pub shard: Vec<(Timed, Timed)>,
    pub unit_latency: Vec<u64>,
    pub probe: Vec<(Timed, u64)>,
    pub round_residual: Vec<u64>,
    pub transport: Vec<BackendLedger>,
    pub gen_late: Vec<u64>,
    pub untraced_cpu_us: f64,
    pub traced_cpu_us: f64,
    pub residual_pct: Vec<f64>,
}

impl Layers {
    /// The in-process replays every workload runs on its sampled
    /// permutations: kernels, planner, codec and DRR.
    pub fn replay_common(
        &mut self,
        perms: &[&Permutation],
        check: &mut Check,
    ) -> Vec<Arc<Plan>> {
        self.core = replay::core(perms);
        let plans = replay::plans(perms, check);
        self.plan = plans.iter().map(|(p, e, _)| (*p, *e)).collect();
        self.codec = replay::codec(perms, check);
        self.tenant = replay::tenant(perms, check);
        plans.into_iter().map(|(_, _, p)| p).collect()
    }

    /// Wire replay over a fresh connection to `addr`, for workloads
    /// whose live path does not use `serve::Client`.
    pub fn replay_wire(&mut self, addr: &str, perms: &[&Permutation], check: &mut Check) {
        let steps = replay::wire(addr, REPLAY_TENANT, perms, check);
        for (s, c) in steps.iter().zip(&self.codec) {
            let rtt = s.recv.end - s.send.start;
            self.client_send.push(s.send.ns());
            self.client_rtt.push(rtt);
            self.server_reported.push(s.server_ns);
            self.wire_residual.push(rtt.saturating_sub(s.server_ns + c.total_ns()));
        }
    }

    /// Shard replays for workloads without a fleet: decompose and
    /// recombine each permutation, and probe a `RemoteShard` to `addr`
    /// with it as a one-unit round.
    pub fn replay_shard(&mut self, addr: &str, perms: &[&Permutation], check: &mut Check) {
        let mut remote = benes_shard::RemoteConfig::new(addr);
        remote.tenant = REPLAY_TENANT;
        let coord = ShardCoordinator::with_backends(
            ShardConfig::default(),
            vec![Box::new(benes_shard::RemoteShard::new(remote, 0))],
        );
        self.shard = replay::shard(&coord, perms, check);
        self.probe = replay::probe(coord.backend(0), perms, check);
        self.unit_latency = self.probe.iter().map(|(_, l)| *l).collect();
        // A probe is a one-unit round: nothing to decompose or recombine.
        self.round_residual =
            self.probe.iter().map(|(t, l)| t.ns().saturating_sub(*l)).collect();
        let fleet = coord.fleet_stats();
        self.transport = fleet.per_shard().iter().map(|(_, l)| *l).collect();
        if !fleet.conserves_requests()
            || fleet.retries() + fleet.reconnects() + fleet.hedges() + fleet.failovers() > 0
        {
            check.fail(format!("replay shard ledger:\n{}", fleet.report()));
        }
    }

    /// Engine replay for workloads whose engine runs in another process;
    /// `service` is each request's replayed cache + plan + execute time.
    pub fn replay_engine(
        &mut self,
        perms: &[&Permutation],
        service: &[u64],
        check: &mut Check,
    ) {
        let (steps, stats) = replay::engine(perms, check);
        for ((submit, wait), s) in steps.iter().zip(service) {
            self.engine_submit.push(submit.ns());
            self.engine_wait.push(wait.ns());
            self.engine_handoff.push((wait.end - submit.start).saturating_sub(*s));
        }
        self.engine_stats = Some(stats);
    }

    /// The cache replay step of request `seq`, if it was replayed.
    pub fn cache_step(&self, first: u64, seq: u64) -> Option<CacheStep> {
        let i = usize::try_from(seq.checked_sub(first)?).ok()?;
        self.cache.get(i).copied()
    }

    /// Emits every per-layer metric, in `BENCHMARK.json` order.
    pub fn emit(self, m: &mut Metrics, check: &mut Check) {
        let col =
            |v: &[[Timed; 3]], k: usize| v.iter().map(|t| t[k].ns()).collect::<Vec<_>>();
        m.layer("core.self_route", col(&self.core, 0), false, check);
        m.layer("core.omega_route", col(&self.core, 1), false, check);
        m.layer("core.waksman_setup", col(&self.core, 2), false, check);
        m.layer("plan.plan", self.plan.iter().map(|p| p.0.ns()).collect(), true, check);
        m.layer("plan.execute", self.plan.iter().map(|p| p.1.ns()).collect(), false, check);
        m.layer("cache.get", self.cache.iter().map(|c| c.get.ns()).collect(), false, check);
        let inserts: Vec<u64> =
            self.cache.iter().filter_map(|c| c.insert.map(Timed::ns)).collect();
        m.layer("cache.insert", inserts, false, check);
        m.push("cache.hit_pct", self.cache_hit_pct, "%");
        m.layer("engine.submit", self.engine_submit, false, check);
        m.layer("engine.wait", self.engine_wait, false, check);
        m.layer("engine.handoff", self.engine_handoff, true, check);
        let (wait, service) =
            self.engine_stats.map_or((0, 0), |s| (s.queue_wait.mean(), s.service.mean()));
        m.push("engine.reported_queue_wait_mean_ns", wait as f64, "ns");
        m.push("engine.reported_service_mean_ns", service as f64, "ns");
        let codec =
            |f: fn(&CodecStep) -> Timed| self.codec.iter().map(|c| f(c).ns()).collect();
        m.layer("proto.encode_route", codec(|c| c.encode_route), false, check);
        m.layer("proto.decode_route", codec(|c| c.decode_route), false, check);
        m.layer("proto.encode_reply", codec(|c| c.encode_reply), false, check);
        m.layer("proto.decode_reply", codec(|c| c.decode_reply), false, check);
        m.layer(
            "tenant.enqueue",
            self.tenant.iter().map(|t| t.0.ns()).collect(),
            false,
            check,
        );
        m.layer(
            "tenant.dequeue",
            self.tenant.iter().map(|t| t.1.ns()).collect(),
            false,
            check,
        );
        m.layer("client.send", self.client_send, false, check);
        m.layer("client.rtt", self.client_rtt, true, check);
        m.layer("serve.server_reported", self.server_reported, false, check);
        m.layer("serve.wire_residual", self.wire_residual, true, check);
        m.layer(
            "shard.decompose",
            self.shard.iter().map(|s| s.0.ns()).collect(),
            false,
            check,
        );
        let recombine = self.shard.iter().map(|s| s.1.ns()).collect();
        m.layer("shard.recombine_check", recombine, false, check);
        m.layer("shard.unit_latency", self.unit_latency, true, check);
        m.layer(
            "shard.unit_probe_rtt",
            self.probe.iter().map(|p| p.0.ns()).collect(),
            false,
            check,
        );
        m.layer("shard.round_residual", self.round_residual, false, check);
        let sum =
            |f: fn(&BackendLedger) -> u64| self.transport.iter().map(f).sum::<u64>() as f64;
        m.push("fleet.retries", sum(|l| l.retries), "count");
        m.push("fleet.reconnects", sum(|l| l.reconnects), "count");
        m.push("fleet.hedges", sum(|l| l.hedges), "count");
        m.push("fleet.failovers", sum(|l| l.failovers), "count");
        let mut late = self.gen_late;
        let late_p99 = crate::stats::quantile(&mut late, 0.99).unwrap_or(0);
        m.push("gen.late_p99_us", late_p99 as f64 / 1e3, "us");
        m.push("cpu.us_per_req", self.untraced_cpu_us, "us");
        let overhead = 100.0 * (self.traced_cpu_us / self.untraced_cpu_us - 1.0);
        m.push("trace.overhead_pct", overhead, "%");
        if self.residual_pct.is_empty() {
            check.fail("no traced request to budget");
        }
        let residual =
            if self.residual_pct.is_empty() { 0.0 } else { median_f64(&self.residual_pct) };
        m.push("budget.residual_pct", residual, "%");
    }
}

/// The stream position of request `seq`.
pub fn pos(seq: u64) -> usize {
    (seq % STREAM_LEN as u64) as usize
}

/// At most `max` evenly spaced elements of `v`, in order.
pub fn thin<T>(v: Vec<T>, max: usize) -> Vec<T> {
    if v.len() <= max {
        return v;
    }
    let step = v.len().div_ceil(max);
    v.into_iter().step_by(step).collect()
}

/// Requests fed through the standalone cache per traced run, at most.
const CACHE_REPLAYS: u64 = 4_000_000;

/// Feeds the stream positions of the traced requests `seqs`, in order,
/// through a standalone plan cache warmed by up to one stream length of
/// the requests before them; request `seqs.start + i` is step `i`.
pub fn stream_cache(
    layers: &mut Layers,
    stream: &[Permutation],
    seqs: std::ops::Range<u64>,
) {
    let warm = seqs.start.min(STREAM_LEN as u64);
    let from = seqs.start - warm;
    let end = seqs.end.min(seqs.start + CACHE_REPLAYS);
    let order: Vec<&Permutation> = (from..end).map(|s| &stream[pos(s)]).collect();
    let fallback = benes_engine::EngineConfig::default().fallback;
    let mut memo: Vec<Option<Arc<Plan>>> = vec![None; stream.len()];
    let (steps, rate) = replay::cache(&order, warm as usize, |i| {
        let p = pos(from + i as u64);
        memo[p]
            .get_or_insert_with(|| {
                // Replay planning is checked by `replay::plans`; a stream
                // permutation that cannot be planned is never cached.
                plan::plan(&stream[p], fallback).map_or(Arc::new(Plan::SelfRoute), Arc::new)
            })
            .clone()
    });
    layers.cache = steps;
    layers.cache_hit_pct = rate;
}

/// The engine's work on one request as replayed layer by layer: the
/// cache lookup, planning on a miss, execution, and the insert.
pub fn service_ns(step: Option<&CacheStep>, plan: Timed, exec: Timed) -> u64 {
    let (get, hit, insert) =
        step.map_or((0, false, 0), |c| (c.get.ns(), c.hit, c.insert.map_or(0, Timed::ns)));
    get + if hit { 0 } else { plan.ns() } + exec.ns() + insert
}

/// The replayed engine work of request `req` as spans under `parent`.
pub fn push_service(
    spans: &mut Spans,
    req: u64,
    parent: usize,
    step: Option<&CacheStep>,
    plan: Timed,
    exec: Timed,
) {
    if let Some(c) = step {
        spans.push("replay.cache.get", req, Some(parent), c.get.start, c.get.end);
    }
    if !step.is_some_and(|c| c.hit) {
        spans.push("replay.plan.plan", req, Some(parent), plan.start, plan.end);
    }
    spans.push("replay.plan.execute", req, Some(parent), exec.start, exec.end);
    if let Some(t) = step.and_then(|c| c.insert) {
        spans.push("replay.cache.insert", req, Some(parent), t.start, t.end);
    }
}

/// The tenant replayed wire requests bill against, apart from the
/// workloads' own tenants 1 and 2.
const REPLAY_TENANT: u64 = 99;

/// Writes the spans and adds each traced request's residual share.
pub fn finish_spans(
    spans: &Spans,
    layers: &mut Layers,
    config: &Config,
    workload: &str,
    check: &mut Check,
) {
    for root in spans.roots() {
        let dur = spans.get(root).end_ns - spans.get(root).start_ns;
        if dur > 0 {
            layers.residual_pct.push(100.0 * spans.residual(root) as f64 / dur as f64);
        }
    }
    let path = config.spans_path(workload);
    if let Err(e) = spans.write_jsonl(&path) {
        check.fail(format!("write spans to {}: {e}", path.display()));
    } else {
        eprintln!(
            "benchmark: {workload}: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
}
