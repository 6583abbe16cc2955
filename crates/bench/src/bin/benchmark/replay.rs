//! The replay ladder: after the measured phase, sampled requests are run
//! one at a time through each layer's public call, so every layer gets
//! its own cost on the workload's own permutations.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use benes_core::{waksman, Benes};
use benes_engine::plan::{self, Plan};
use benes_engine::{Engine, EngineConfig, EngineStats, PlanCache};
use benes_perm::Permutation;
use benes_serve::{decode, tier_code, Client, DrrScheduler, Frame, ServeConfig, Status};
use benes_shard::{Backend, ShardCoordinator};

use crate::spans::now_ns;
use crate::Check;

/// Replayed calls whose every sample crosses a socket are capped: a
/// round trip costs a thousand times a kernel call, and a thousand
/// samples still put ten beyond the p99.
pub const WIRE_REPLAYS: usize = 1_000;

/// One replayed call's interval on the benchmark clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub start: u64,
    pub end: u64,
}

impl Timed {
    pub fn ns(self) -> u64 {
        self.end - self.start
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    (out, Timed { start, end })
}

/// One network per order, built once.
#[derive(Default)]
struct Nets(HashMap<usize, Benes>);

impl Nets {
    fn get(&mut self, len: usize) -> &Benes {
        self.0.entry(len).or_insert_with(|| Benes::new(len.trailing_zeros()))
    }
}

/// `Benes::self_route_fast`, `self_route_omega_fast` and
/// `waksman::setup`, timed on each permutation. Self-routing is timed
/// whether or not the permutation is in the class it serves: the
/// kernel does the same work either way.
pub fn core(perms: &[&Permutation]) -> Vec<[Timed; 3]> {
    let mut nets = Nets::default();
    perms
        .iter()
        .map(|p| {
            let net = nets.get(p.len());
            let (_, a) = timed(|| black_box(net.self_route_fast(p)).is_ok());
            let (_, b) = timed(|| black_box(net.self_route_omega_fast(p)).is_ok());
            let (_, c) = timed(|| black_box(waksman::setup(p)).is_ok());
            [a, b, c]
        })
        .collect()
}

/// `plan::plan` then `plan::execute` on each permutation, under the
/// engine's default fallback. A plan that fails or does not execute to
/// its permutation is a failure.
pub fn plans(perms: &[&Permutation], check: &mut Check) -> Vec<(Timed, Timed, Arc<Plan>)> {
    let mut nets = Nets::default();
    let fallback = EngineConfig::default().fallback;
    perms
        .iter()
        .map(|p| {
            let (planned, tp) = timed(|| plan::plan(p, fallback));
            let planned = match planned {
                Ok(pl) => Arc::new(pl),
                Err(e) => {
                    check.fail(format!("replay plan: {e}"));
                    Arc::new(Plan::SelfRoute)
                }
            };
            let net = nets.get(p.len());
            let (ok, te) = timed(|| plan::execute(net, p, &planned));
            if !ok {
                check.fail("replay execute did not realize the permutation");
            }
            (tp, te, planned)
        })
        .collect()
}

/// One request's pass through a standalone plan cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStep {
    pub get: Timed,
    pub insert: Option<Timed>,
    pub hit: bool,
}

/// Feeds `order` through a `PlanCache` at the engine's default capacity
/// and shard count, the way a worker does: `get`, and on a miss `insert`
/// when the plan is worth caching. The first `warm` requests only warm
/// the cache. Returns the timed steps of every later request and the
/// hit rate over them.
pub fn cache(
    order: &[&Permutation],
    warm: usize,
    mut plan_of: impl FnMut(usize) -> Arc<Plan>,
) -> (Vec<CacheStep>, f64) {
    let d = EngineConfig::default();
    let cache = PlanCache::new(d.cache_capacity, d.cache_shards);
    let mut steps = Vec::with_capacity(order.len().saturating_sub(warm));
    for (i, p) in order.iter().enumerate() {
        let (got, get) = timed(|| cache.get(p));
        let hit = got.is_some();
        let mut insert = None;
        if !hit {
            let planned = plan_of(i);
            if planned.is_cacheable() {
                insert = Some(timed(|| cache.insert(p, planned)).1);
            }
        }
        if i >= warm {
            steps.push(CacheStep { get, insert, hit });
        }
    }
    let hits = steps.iter().filter(|s| s.hit).count();
    let rate =
        if steps.is_empty() { 0.0 } else { 100.0 * hits as f64 / steps.len() as f64 };
    (steps, rate)
}

/// An in-process engine shaped like the daemon's (`ServeConfig`
/// defaults, one worker), fed one request at a time: the engine's cost
/// for workloads whose live path reaches it inside another process.
pub fn engine(
    perms: &[&Permutation],
    check: &mut Check,
) -> (Vec<(Timed, Timed)>, EngineStats) {
    let config = EngineConfig { workers: 1, ..ServeConfig::default().engine };
    let engine = Engine::new(config);
    let out = perms
        .iter()
        .map(|p| {
            let perm = (*p).clone();
            let (ticket, submit) = timed(|| engine.submit(perm));
            let (outcome, wait) = timed(|| ticket.wait());
            if let Err(e) = outcome.result {
                check.fail(format!("replay engine: {e}"));
            }
            (submit, wait)
        })
        .collect();
    let stats = engine.stats();
    if !stats.conserves_requests() {
        check.fail("replay engine ledger does not conserve");
    }
    (out, stats)
}

/// One request over the wire: `Client::send`, then the wait for its
/// reply, and the latency the server reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStep {
    pub send: Timed,
    pub recv: Timed,
    pub server_ns: u64,
}

/// Replays up to [`WIRE_REPLAYS`] permutations, one in flight, over a
/// fresh connection to `addr` billed to `tenant`.
pub fn wire(
    addr: &str,
    tenant: u64,
    perms: &[&Permutation],
    check: &mut Check,
) -> Vec<WireStep> {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            check.fail(format!("replay connect: {e}"));
            return Vec::new();
        }
    };
    if let Err(e) = client.set_read_timeout(Some(Duration::from_secs(10))) {
        check.fail(format!("replay read timeout: {e}"));
    }
    let mut steps = Vec::with_capacity(perms.len().min(WIRE_REPLAYS));
    for (i, p) in perms.iter().take(WIRE_REPLAYS).enumerate() {
        let req_id = i as u64;
        let frame = Frame::Route {
            req_id,
            tenant,
            deadline_ms: 0,
            destinations: p.destinations().to_vec(),
        };
        let (sent, send) = timed(|| client.send(&frame));
        if let Err(e) = sent {
            check.fail(format!("replay send: {e}"));
            break;
        }
        let (reply, recv) = timed(|| client.recv());
        match reply {
            Ok(Frame::RouteReply {
                req_id: r,
                status: Status::Ok,
                tier: Some(_),
                latency_ns,
            }) if r == req_id => {
                steps.push(WireStep { send, recv, server_ns: latency_ns });
            }
            other => {
                check.fail(format!("replay reply: {other:?}"));
                break;
            }
        }
    }
    steps
}

/// The four codec calls of one request: the client encodes its Route,
/// the server decodes it and encodes the RouteReply, the client decodes
/// that.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecStep {
    pub encode_route: Timed,
    pub decode_route: Timed,
    pub encode_reply: Timed,
    pub decode_reply: Timed,
}

impl CodecStep {
    pub fn total_ns(&self) -> u64 {
        self.encode_route.ns()
            + self.decode_route.ns()
            + self.encode_reply.ns()
            + self.decode_reply.ns()
    }
}

/// `Frame::encode` and `proto::decode` on the frames each request sends
/// and receives. A frame that does not decode to itself is a failure.
pub fn codec(perms: &[&Permutation], check: &mut Check) -> Vec<CodecStep> {
    let mut buf = Vec::with_capacity(4096);
    perms
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let route = Frame::Route {
                req_id: i as u64,
                tenant: 1,
                deadline_ms: 0,
                destinations: p.destinations().to_vec(),
            };
            let reply = Frame::RouteReply {
                req_id: i as u64,
                status: Status::Ok,
                tier: Some(tier_code(benes_engine::Tier::Cached)),
                latency_ns: 1,
            };
            let mut round = |frame: &Frame| {
                buf.clear();
                let (_, enc) = timed(|| frame.encode(&mut buf));
                let (back, dec) = timed(|| decode(&buf));
                if !matches!(back, Ok(Some((ref f, used))) if f == frame && used == buf.len()) {
                    check.fail("replay codec round trip changed the frame");
                }
                (enc, dec)
            };
            let (encode_route, decode_route) = round(&route);
            let (encode_reply, decode_reply) = round(&reply);
            CodecStep { encode_route, decode_route, encode_reply, decode_reply }
        })
        .collect()
}

/// `DrrScheduler::enqueue` then `dequeue` at the server's default
/// quantum and quota, requests alternating between tenants 1 and 2.
pub fn tenant(perms: &[&Permutation], check: &mut Check) -> Vec<(Timed, Timed)> {
    let d = ServeConfig::default();
    let mut drr = DrrScheduler::new(d.quantum, d.quota);
    perms
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let tenant = 1 + (i as u64 % 2);
            let cost = u32::try_from(p.len()).unwrap_or(u32::MAX);
            let (queued, enq) = timed(|| drr.enqueue(tenant, cost, i));
            let (next, deq) = timed(|| drr.dequeue());
            if queued.is_err() || next.map(|(_, _, item)| item) != Some(i) {
                check.fail("replay DRR lost or reordered a request");
            }
            (enq, deq)
        })
        .collect()
}

/// `ShardCoordinator::decompose_for` and `Decomposition::recombines_to`
/// on each permutation.
pub fn shard(
    coord: &ShardCoordinator,
    perms: &[&Permutation],
    check: &mut Check,
) -> Vec<(Timed, Timed)> {
    perms
        .iter()
        .filter_map(|p| {
            let (d, dec) = timed(|| coord.decompose_for(p));
            match d {
                Ok(d) => {
                    let (ok, rec) = timed(|| d.recombines_to(p));
                    if !ok {
                        check.fail("replay decomposition does not recombine");
                    }
                    Some((dec, rec))
                }
                Err(e) => {
                    check.fail(format!("replay decompose: {e}"));
                    None
                }
            }
        })
        .collect()
}

/// Probes replayed per traced run. A lone unit on an idle `RemoteShard`
/// waits out the shard's I/O polling, milliseconds per probe.
pub const PROBE_REPLAYS: usize = 200;

/// One `Backend::submit(..).wait()` per permutation (up to
/// [`PROBE_REPLAYS`]): the probe's round trip and the unit latency the
/// backend reported.
pub fn probe(
    backend: &dyn Backend,
    perms: &[&Permutation],
    check: &mut Check,
) -> Vec<(Timed, u64)> {
    perms
        .iter()
        .take(PROBE_REPLAYS)
        .filter_map(|p| {
            let perm = (*p).clone();
            let (reply, t) = timed(|| backend.submit(perm, None).wait());
            match reply.result {
                Ok(_) => {
                    Some((t, u64::try_from(reply.latency.as_nanos()).unwrap_or(u64::MAX)))
                }
                Err(e) => {
                    check.fail(format!("replay probe: {e}"));
                    None
                }
            }
        })
        .collect()
}
