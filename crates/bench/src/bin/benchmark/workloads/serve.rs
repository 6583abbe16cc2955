//! `serve-rpc` and `serve-open`: the wire path, against one
//! `benes-serve --threads 1 --workers 1` daemon over two connections
//! (tenants 1 and 2).
//!
//! * `serve-rpc` is a closed loop with one request in flight per
//!   connection on a cycled `mixed_workload(4)` stream: a round trip is
//!   almost all wire, so this is where the server's poll and sleep
//!   floors show and where engine changes should not.
//! * `serve-open` offers a fixed [`OPEN_RATE`] on a cycled
//!   `mixed_workload(8)` stream from one load thread, which sends to the
//!   two connections in turn at Poisson arrival times drawn from the
//!   seed and receives from both in between. A request's latency runs
//!   from when it was due, so a stall also counts against the requests
//!   queued behind it. The rate is
//!   about a fifth of the daemon's pipelined capacity on a 2-core host:
//!   set-up and the kernels dominate its engine's CPU, and a wire change
//!   that lowers the round trip but costs capacity shows in the tail or
//!   as backlog.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use benes_engine::workload::{mixed_workload, Rng64};
use benes_perm::Permutation;
use benes_serve::{decode, Client, Frame, Status, TenantRow};

use super::{
    finish_spans, pos, push_service, service_ns, stream_cache, thin, threads_json,
};
use super::{Layers, REPLAYS, SETUP_LAUNCHES, STREAM_LEN};
use crate::daemon::Daemon;
use crate::live::{self, Drive, Rec, Recording, Seq, Thread};
use crate::spans::{now_ns, Spans};
use crate::{Check, Config, Metrics};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Rpc,
    Open,
}

const CONNS: usize = 2;
/// Offered load of `serve-open` in requests per second, over both
/// connections. Fixed, never recalibrated per run. At 8000 req/s the
/// reference host sat near the daemon's knee: the p90 of one-second
/// windows of a single run ranged from 0.65 to 9 ms, and runs differed
/// by a factor of three.
pub const OPEN_RATE: f64 = 4_000.0;

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Self::Rpc => "serve-rpc",
            Self::Open => "serve-open",
        }
    }

    fn order(self) -> u32 {
        match self {
            Self::Rpc => 4,
            Self::Open => 8,
        }
    }

    /// Threads generating the load: one per connection in a closed
    /// loop, one for both in an open loop.
    fn load_threads(self) -> usize {
        match self {
            Self::Rpc => CONNS,
            Self::Open => 1,
        }
    }

    /// The stride samples about ten thousand requests of a traced phase;
    /// half-second windows hold 1700–2000 requests each.
    fn recording(self) -> Recording {
        let stride = match self {
            Self::Rpc => 2,
            Self::Open => 4,
        };
        Recording { stride, samples: REPLAYS, window: Duration::from_millis(500) }
    }
}

/// One traced request: when it was due (the previous reply, in a
/// closed loop), the ends of `send`, the reply, and the server's own
/// latency for it.
#[derive(Clone, Copy)]
struct Sample {
    seq: u64,
    due: u64,
    t0: u64,
    t1: u64,
    t2: u64,
    server_ns: u64,
}

impl Seq for Sample {
    fn seq(&self) -> u64 {
        self.seq
    }
}

fn route(seq: u64, tenant: u64, perm: &Permutation) -> Frame {
    Frame::Route {
        req_id: seq,
        tenant,
        deadline_ms: 0,
        destinations: perm.destinations().to_vec(),
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(client)
}

/// Set-up: daemon spawn to the first verified reply.
fn launch(first: &Permutation) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn()?;
    let mut client = connect(&daemon.addr)?;
    client.send(&route(0, 1, first)).map_err(|e| format!("send: {e}"))?;
    match client.recv() {
        Ok(Frame::RouteReply { req_id: 0, status: Status::Ok, tier: Some(_), .. }) => {}
        other => return Err(format!("set-up reply: {other:?}")),
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// Whether a reply verifies request `seq`.
fn verified(reply: &Frame, seq: u64) -> Option<u64> {
    match *reply {
        Frame::RouteReply { req_id, status: Status::Ok, tier: Some(_), latency_ns }
            if req_id == seq =>
        {
            Some(latency_ns)
        }
        _ => None,
    }
}

fn closed_loop(
    client: &mut Client,
    tenant: u64,
    stream: &[Permutation],
    next: &AtomicU64,
    t: &mut Thread<Sample>,
    until: u64,
) {
    let mut prev_end = now_ns();
    loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        let frame = route(seq, tenant, &stream[pos(seq)]);
        t.check.attempted += 1;
        let t0 = now_ns();
        if let Err(e) = client.send(&frame) {
            t.check.fail(format!("send {seq}: {e}"));
            return;
        }
        let t1 = now_ns();
        let reply = client.recv();
        let t2 = now_ns();
        match reply.as_ref().ok().and_then(|r| verified(r, seq)) {
            Some(server_ns) => {
                t.done(t2 - t0, t2);
                if t.sampled(seq) {
                    t.sampler.samples.push(Sample {
                        seq,
                        due: prev_end,
                        t0,
                        t1,
                        t2,
                        server_ns,
                    });
                }
            }
            None => {
                t.check.fail(format!("request {seq}: {reply:?}"));
                return;
            }
        }
        prev_end = t2;
        t.last = t2;
        if t2 >= until {
            return;
        }
    }
}

/// One `serve-open` connection: a nonblocking socket spoken through the
/// same public codec `serve::Client` uses. `Client::recv` can only give
/// up at the socket timeout, whose granularity is milliseconds (5–8 ms
/// on the reference kernel), which would make every send that falls
/// due during a wait that late.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

impl Wire {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Self { stream, buf: Vec::with_capacity(1 << 16), out: Vec::with_capacity(4096) })
    }

    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.out.clear();
        frame.encode(&mut self.out);
        let mut rest = &self.out[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next complete frame, if one has arrived.
    fn poll(&mut self) -> Result<Option<Frame>, String> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some((frame, used)) = decode(&self.buf).map_err(|e| e.to_string())? {
                self.buf.drain(..used);
                return Ok(Some(frame));
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// An open loop's send times from `due` until `until`, whatever the
/// replies do: Poisson arrivals, `interval` ns apart on average, drawn
/// from `rng`. Independent users do not send in lockstep. Evenly spaced
/// sends also put a fixed 250 µs gap next to the server's 200 µs idle
/// sleep: on the reference host their p50 moved 13% between runs that
/// moved `serve-rpc` 2.5%, and over ten alternating pairs the runs
/// spread 6.1% at p50 against 4.2% for Poisson arrivals.
struct Schedule<'a> {
    due: u64,
    interval: f64,
    until: u64,
    rng: &'a mut Rng64,
}

impl Schedule<'_> {
    /// The due time of the next send if it is due by `now`. A generator
    /// that fell behind gets every missed slot, each with its own due
    /// time.
    fn take(&mut self, now: u64) -> Option<u64> {
        (self.due < self.until && self.due <= now).then(|| {
            let due = self.due;
            // Uniform in (0, 1], so the logarithm is finite.
            let u = ((self.rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            self.due += (-u.ln() * self.interval) as u64;
            due
        })
    }

    fn done(&self) -> bool {
        self.due >= self.until
    }
}

/// An open-loop request's latency runs from when it was due, not from
/// when it was sent, so a stall counts against every request it delayed.
fn latency_from_due(due: u64, reply: u64) -> u64 {
    reply - due
}

/// Sent requests awaiting their reply, by request id: when each was due
/// and the ends of its send.
type Inflight = HashMap<u64, (u64, u64, u64)>;

/// Sends on schedule, to the connections in turn (connection `i` bills
/// tenant `i + 1`), and receives from all of them in between, sleeping
/// the shortest the OS allows when nothing is ready. Replies are
/// matched by request id, since the server may answer out of order. How
/// late sends ran is reported as `gen.late_p99_us`.
fn open_loop(
    (wires, rng): (&mut [Wire], &mut Rng64),
    stream: &[Permutation],
    next: &AtomicU64,
    t: &mut Thread<Sample>,
    until: u64,
) {
    let mut schedule = Schedule { due: t.last, interval: 1e9 / OPEN_RATE, until, rng };
    let mut inflight = Inflight::with_capacity(4096);
    let give_up = until + 10_000_000_000;
    loop {
        if let Some(due) = schedule.take(now_ns()) {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let conn = (seq % wires.len() as u64) as usize;
            let frame = route(seq, conn as u64 + 1, &stream[pos(seq)]);
            t.check.attempted += 1;
            let t0 = now_ns();
            if let Err(e) = wires[conn].send(&frame) {
                t.check.fail(format!("send {seq}: {e}"));
                return;
            }
            inflight.insert(seq, (due, t0, now_ns()));
            continue;
        }
        let mut idle = true;
        for wire in wires.iter_mut() {
            match wire.poll() {
                Ok(Some(frame)) => {
                    idle = false;
                    if !settle(frame, now_ns(), &mut inflight, t) {
                        return;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    t.check.fail(format!("receive: {e}"));
                    return;
                }
            }
        }
        if !idle {
            continue;
        }
        if schedule.done() && inflight.is_empty() {
            return;
        }
        if now_ns() > give_up {
            t.check.fail(format!("{} replies never arrived", inflight.len()));
            return;
        }
        std::thread::sleep(Duration::from_micros(1));
    }
}

/// Records the reply `frame`, received at `t2`, against its request.
/// False when the stream can no longer be trusted.
fn settle(frame: Frame, t2: u64, inflight: &mut Inflight, t: &mut Thread<Sample>) -> bool {
    let Frame::RouteReply { req_id, .. } = frame else {
        t.check.fail(format!("unexpected frame {frame:?}"));
        return false;
    };
    let Some((due, t0, t1)) = inflight.remove(&req_id) else {
        t.check.fail(format!("reply to unknown request {req_id}"));
        return false;
    };
    match verified(&frame, req_id) {
        Some(server_ns) => {
            t.done(latency_from_due(due, t2), t2);
            if t.sampled(req_id) {
                t.sampler.samples.push(Sample { seq: req_id, due, t0, t1, t2, server_ns });
            }
            t.last = t2;
        }
        None => t.check.fail(format!("request {req_id}: {frame:?}")),
    }
    true
}

/// The load connections of either mode: one closed-loop thread per
/// `Client`, or one open-loop thread over every `Wire` with the
/// generator of its arrival times.
enum Load {
    Rpc(Vec<Client>),
    Open(Vec<Wire>, Rng64),
}

impl Load {
    fn connect(mode: Mode, addr: &str, seed: u64) -> Result<Self, String> {
        match mode {
            Mode::Rpc => {
                (0..CONNS).map(|_| connect(addr)).collect::<Result<_, _>>().map(Self::Rpc)
            }
            Mode::Open => {
                let wires =
                    (0..CONNS).map(|_| Wire::connect(addr)).collect::<Result<_, _>>();
                // Apart from the stream's generator, which takes `seed` as is.
                Ok(Self::Open(wires?, Rng64::new(!seed)))
            }
        }
    }
}

fn drive(
    mode: Mode,
    load: &mut Load,
    stream: &[Permutation],
    next: &AtomicU64,
    pid: &[u32],
    dur: Duration,
    rec: Rec,
    rate: f64,
    check: &mut Check,
) -> Drive<Sample> {
    let recording = mode.recording();
    match load {
        Load::Rpc(clients) => {
            let ctxs: Vec<(usize, &mut Client)> = clients.iter_mut().enumerate().collect();
            live::drive(
                ctxs,
                pid,
                next,
                dur,
                rec,
                rate,
                recording,
                check,
                |(i, c), t, until| {
                    closed_loop(c, i as u64 + 1, stream, next, t, until);
                },
            )
        }
        Load::Open(wires, rng) => {
            let ctxs = vec![(wires.as_mut_slice(), rng)];
            live::drive(ctxs, pid, next, dur, rec, rate, recording, check, |w, t, until| {
                open_loop(w, stream, next, t, until);
            })
        }
    }
}

/// The daemon's per-tenant ledgers, once they all conserve.
fn settled_rows(addr: &str, check: &mut Check) -> Vec<TenantRow> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            check.fail(format!("stats: {e}"));
            return Vec::new();
        }
    };
    loop {
        let rows = match client.send(&Frame::Stats).map(|()| client.recv()) {
            Ok(Ok(Frame::StatsReply { rows })) => rows,
            other => {
                check.fail(format!("stats reply: {other:?}"));
                return Vec::new();
            }
        };
        if rows.iter().all(TenantRow::conserves_requests) {
            return rows;
        }
        if Instant::now() > deadline {
            check.fail(format!("tenant ledgers do not conserve: {rows:?}"));
            return rows;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn run(config: &Config, mode: Mode, check: &mut Check, m: &mut Metrics) -> String {
    let stream = mixed_workload(mode.order(), STREAM_LEN, config.seed);
    let mut params = format!(
        "\"order\":{},\"stream\":{STREAM_LEN},\"loop\":\"{}\",\"conns\":{CONNS},\
         \"tenants\":[1,2],\"daemon_threads\":1,\"daemon_workers\":1,{}",
        mode.order(),
        if mode == Mode::Rpc { "closed, window 1" } else { "open" },
        // The daemon runs one handler and one engine worker.
        threads_json(2, mode.load_threads())
    );
    if mode == Mode::Open {
        params += &format!(",\"rate\":{OPEN_RATE}");
    }

    let mut launches = Vec::with_capacity(SETUP_LAUNCHES);
    let mut daemon = None;
    for _ in 0..SETUP_LAUNCHES {
        if let Some(d) = daemon.take() {
            if let Err(e) = Daemon::drain(d) {
                check.fail(format!("set-up daemon: {e}"));
            }
        }
        check.attempted += 1;
        match launch(&stream[0]) {
            Ok((d, s)) => {
                launches.push(s);
                daemon = Some(d);
            }
            Err(e) => {
                check.fail(format!("set-up: {e}"));
                return params;
            }
        }
    }
    let daemon = daemon.expect("at least one set-up launch");
    let pid: Vec<u32> = daemon.pid().into_iter().collect();
    let mut load = match Load::connect(mode, &daemon.addr, config.seed) {
        Ok(l) => l,
        Err(e) => {
            check.fail(e);
            return params;
        }
    };
    // The last launch's request went to this daemon too.
    let failed_before = check.failed;
    let attempted_before = check.attempted - 1;

    let next = AtomicU64::new(1);
    let warm = config.warm();
    let rate =
        drive(mode, &mut load, &stream, &next, &pid, warm, Rec::Off, 0.0, check).rate();
    if config.trace {
        let half = config.measure() / 2;
        let plain =
            drive(mode, &mut load, &stream, &next, &pid, half, Rec::Latency, rate, check);
        let traced =
            drive(mode, &mut load, &stream, &next, &pid, half, Rec::Traced, rate, check);
        let mut layers = Layers {
            untraced_cpu_us: plain.phase.cpu_us_per_req(),
            traced_cpu_us: traced.phase.cpu_us_per_req(),
            ..Layers::default()
        };
        trace(config, mode, &stream, &daemon, traced, &mut layers, check);
        layers.emit(m, check);
    } else {
        let d = drive(
            mode,
            &mut load,
            &stream,
            &next,
            &pid,
            config.measure(),
            Rec::Latency,
            rate,
            check,
        );
        params += &live::end_to_end(m, d.phase, &launches, check);
    }
    drop(load);

    // Every request this benchmark sent on tenants 1 and 2 of this
    // daemon completed, and every tenant ledger conserves.
    let rows = settled_rows(&daemon.addr, check);
    let completed: u64 = rows.iter().filter(|r| r.tenant <= 2).map(|r| r.completed).sum();
    let ok = (check.attempted - attempted_before) - (check.failed - failed_before);
    if completed != ok {
        check.fail(format!("tenants 1 and 2 completed {completed}, benchmark saw {ok} ok"));
    }
    if let Err(e) = daemon.drain() {
        check.fail(format!("daemon: {e}"));
    }
    params
}

fn trace(
    config: &Config,
    mode: Mode,
    stream: &[Permutation],
    daemon: &Daemon,
    d: Drive<Sample>,
    layers: &mut Layers,
    check: &mut Check,
) {
    let samples = thin(d.samples, REPLAYS);
    let perms: Vec<&Permutation> = samples.iter().map(|s| &stream[pos(s.seq)]).collect();
    layers.replay_common(&perms, check);
    stream_cache(layers, stream, d.seqs.clone());
    let first = d.seqs.start;
    let steps: Vec<_> = samples.iter().map(|s| layers.cache_step(first, s.seq)).collect();
    let service: Vec<u64> = (0..samples.len())
        .map(|i| service_ns(steps[i].as_ref(), layers.plan[i].0, layers.plan[i].1))
        .collect();
    layers.replay_engine(&perms, &service, check);
    layers.replay_shard(&daemon.addr, &perms, check);

    let mut spans = Spans::with_capacity(samples.len() * 12);
    for (i, s) in samples.iter().enumerate() {
        let codec = layers.codec[i];
        let rtt = s.t2 - s.t0;
        layers.client_send.push(s.t1 - s.t0);
        layers.client_rtt.push(rtt);
        layers.server_reported.push(s.server_ns);
        layers.wire_residual.push(rtt.saturating_sub(s.server_ns + codec.total_ns()));
        layers.gen_late.push(s.t0 - s.due);

        let start = if mode == Mode::Open { s.due } else { s.t0 };
        let root = spans.push("request", s.seq, None, start, s.t2);
        let send = spans.push("client.send", s.seq, Some(root), s.t0, s.t1);
        let e = codec.encode_route;
        spans.push("replay.proto.encode_route", s.seq, Some(send), e.start, e.end);
        let recv = spans.push("client.recv", s.seq, Some(root), s.t1, s.t2);
        let d = codec.decode_route;
        spans.push("replay.proto.decode_route", s.seq, Some(recv), d.start, d.end);
        let server = spans.push_reported("reported.serve.server", recv, s.server_ns);
        let (plan, exec) = layers.plan[i];
        push_service(&mut spans, s.seq, server, steps[i].as_ref(), plan, exec);
        let e = codec.encode_reply;
        spans.push("replay.proto.encode_reply", s.seq, Some(recv), e.start, e.end);
        let d = codec.decode_reply;
        spans.push("replay.proto.decode_reply", s.seq, Some(recv), d.start, d.end);
    }
    finish_spans(&spans, layers, config, mode.name(), check);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The due times a schedule from 0 hands out when asked at `now`.
    fn due_by(s: &mut Schedule, now: u64) -> Vec<u64> {
        std::iter::from_fn(|| s.take(now)).collect()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Sends fall due about every 250 ns; the generator stalls until
        // 1000, then sends the backlog at once and every reply lands at
        // 1010.
        let mut rng = Rng64::new(7);
        let mut s = Schedule { due: 0, interval: 250.0, until: 1_250, rng: &mut rng };
        assert_eq!(s.take(0), Some(0));
        let first = s.due;
        assert_eq!(s.take(first - 1), None, "the next send is not due yet");
        let backlog = due_by(&mut s, 1_000);
        assert_eq!(backlog.first(), Some(&first));
        assert!(
            backlog.windows(2).all(|w| w[0] <= w[1]) && backlog.iter().all(|&d| d <= 1_000)
        );
        assert!(s.due > 1_000, "every slot due by 1000 was handed out");
        for &d in &backlog {
            // Timed from the send, each would read 10 ns and hide the stall.
            assert_eq!(latency_from_due(d, 1_010), 1_010 - d);
        }
        let rest = due_by(&mut s, 5_000);
        assert!(rest.iter().all(|&d| d > 1_000 && d < 1_250));
        assert!(s.done());
        assert_eq!(s.take(5_000), None, "nothing is due after the phase ends");
    }

    #[test]
    fn arrivals_are_poisson_at_the_offered_rate_and_follow_the_seed() {
        let draw = |seed: u64| {
            let mut rng = Rng64::new(seed);
            let mut s =
                Schedule { due: 0, interval: 250.0, until: 25_000_000, rng: &mut rng };
            due_by(&mut s, u64::MAX)
        };
        let dues = draw(3);
        assert_eq!(dues, draw(3));
        assert_ne!(dues, draw(4));
        // 100 000 arrivals expected; their count has a standard
        // deviation of about 316.
        assert!((99_000..=101_000).contains(&dues.len()), "{}", dues.len());
        // Exponential gaps: about e^-1 of them exceed their mean.
        let long = dues.windows(2).filter(|w| w[1] - w[0] > 250).count();
        let share = long as f64 / (dues.len() - 1) as f64;
        assert!((share - (-1f64).exp()).abs() < 0.01, "{share}");
    }
}
