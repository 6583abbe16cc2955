//! The remote shard backend: one benes-serve process reached over the
//! wire protocol, wrapped in a full resilience layer.
//!
//! One background I/O thread owns the connections and all transport
//! state; [`Backend::submit_batch`] just hands it the run of units in
//! one event and returns their tickets, so scatter never blocks on the
//! network. The resilience ladder, from cheapest to most drastic:
//!
//! 1. **Batching and pipelining** — everything queued for an endpoint
//!    goes out in one write as `RouteBatch` frames of at most
//!    [`MAX_FRAME_LEN`] bytes each (a coordinator round's share of one
//!    shard is one frame), is answered by one `RouteBatchReply` per
//!    frame, and is matched to its units by per-unit request id, so
//!    every unit keeps its own retries, failover and hedging.
//! 2. **Timeouts** — connects are bounded by
//!    [`RemoteConfig::connect_timeout`]; a unit with no reply after
//!    [`RemoteConfig::request_timeout`] condemns its connection.
//! 3. **Retries** — a unit whose connection failed is re-sent, up to
//!    [`RemoteConfig::attempts`] transport attempts per endpoint,
//!    with reconnects paced by exponential backoff plus deterministic
//!    splitmix64 jitter (the `engine/breaker.rs` discipline).
//! 4. **Circuit breaker** — each endpoint keeps a
//!    [`benes_engine::Breaker`]: consecutive transport failures trip
//!    it open, after which units shed (or fail over) immediately
//!    instead of queueing behind a dead socket; a half-open probe
//!    re-closes it when the endpoint recovers.
//! 5. **Failover** — when the primary is unreachable or breaker-open,
//!    units move to the designated spare endpoint (counted in
//!    `benes_fleet_failovers_total`).
//! 6. **Hedging** — optionally, a unit still unanswered after
//!    [`RemoteConfig::hedge`] is *also* sent on the spare; the first
//!    reply wins and the loser is discarded by request-id matching.
//!
//! # Threads and where each one blocks
//!
//! * **I/O thread** (`benes-remote-io-*`) — a receive on one bounded
//!   channel carrying `Event`s: unit runs and drains from callers, frames
//!   and closes from the readers, and stop. The receive times out at
//!   the next timer the policy holds — a unit deadline, a request
//!   timeout, a hedge delay, a reconnect backoff, or the heartbeat.
//! * **reader** (`benes-remote-rd-*`, one per live endpoint
//!   connection) — a blocking read. Every complete frame from one read
//!   travels as one event tagged with the connection's generation, so
//!   frames from a replaced connection are dropped.
//!
//! # Health
//!
//! The I/O thread heartbeats the primary connection with a `Stats`
//! frame every [`RemoteConfig::probe_interval`]. The shard is healthy
//! while that connection is up and its last heartbeat was answered
//! within [`RemoteConfig::request_timeout`]; a closed connection turns
//! the gauge red at once, an unanswered heartbeat condemns the
//! connection. While the primary is down the I/O thread retries the
//! connect on the heartbeat timer. Heartbeat answers are counted by the
//! reader and never forwarded, so an idle shard's I/O thread wakes
//! only for its own timer.
//!
//! Every unit reaches exactly one terminal state — completed, failed,
//! shed, or canceled — so the coordinator's conservation invariant
//! holds per remote shard exactly as it does per local engine.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::breaker::backoff;
use benes_engine::workload::Rng64;
use benes_engine::{
    terminal, Admission, Breaker, BreakerConfig, EngineError, RequestOutcome, Tier,
};
use benes_obs::LedgerCell;
use benes_perm::Permutation;
use benes_serve::proto::{
    batch_item_len, tier_from_code, BatchItem, Frame, Status, MAX_FRAME_LEN,
    ROUTE_BATCH_HEADER,
};
use benes_serve::Client;

use crate::backend::{Backend, BackendDrain, BackendLedger, Outcomes, UnitTicket};

/// Capacity of the I/O thread's event channel. A full channel blocks
/// submitters and readers until the I/O thread catches up.
const EVENT_QUEUE: usize = 256;

/// Tuning knobs for one [`RemoteShard`].
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// The primary benes-serve endpoint (`host:port`).
    pub addr: String,
    /// Optional spare endpoint for failover and hedging.
    pub spare: Option<String>,
    /// The tenant id this shard's units bill against on the server.
    pub tenant: u64,
    /// Bound on each TCP connect attempt.
    pub connect_timeout: Duration,
    /// A unit with no reply after this long condemns its connection
    /// (and is retried or failed over).
    pub request_timeout: Duration,
    /// Transport attempts per unit per endpoint (first send included).
    pub attempts: u32,
    /// The per-endpoint circuit breaker over transport failures.
    pub breaker: BreakerConfig,
    /// Base pause before a reconnect attempt; doubles per consecutive
    /// failure up to [`RemoteConfig::reconnect_max`], plus up to 25%
    /// deterministic splitmix64 jitter.
    pub reconnect_base: Duration,
    /// Cap on the reconnect backoff.
    pub reconnect_max: Duration,
    /// Seed for the reconnect jitter (xor-ed with the shard index).
    pub jitter_seed: u64,
    /// When set, a unit unanswered by the primary for this long is
    /// also sent on the spare (tail-latency hedging).
    pub hedge: Option<Duration>,
    /// How often the I/O thread heartbeats the primary connection with
    /// a `Stats` frame (and, while it is down, retries the connect).
    pub probe_interval: Duration,
}

impl RemoteConfig {
    /// A config for `addr` with production-shaped defaults: 1s
    /// connect/2s request timeouts, 3 transport attempts, a 3-failure
    /// breaker, no spare, no hedging.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            spare: None,
            tenant: 0,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(2),
            attempts: 3,
            breaker: BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_secs(1),
                jitter_seed: 0xf1ee_75eed,
            },
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_millis(500),
            jitter_seed: 0x5eed_0f1e,
            hedge: None,
            probe_interval: Duration::from_millis(100),
        }
    }
}

/// The unit ledger and transport counters shared between the I/O
/// thread and ledger snapshots. The ledger is a [`LedgerCell`]; the
/// transport counters are statement-position relaxed bumps read at
/// quiescence.
#[derive(Debug, Default)]
struct Shared {
    requests: LedgerCell,
    retries: AtomicU64,
    failovers: AtomicU64,
    hedges: AtomicU64,
    reconnects: AtomicU64,
    healthy: AtomicBool,
}

impl Shared {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A unit's reply slot, which cannot be forgotten: dropped without a
/// reply (its event discarded with a closed channel, or the I/O thread
/// gone), it books the unit canceled and tells the caller so.
struct Reply {
    /// The unit's slot in its call's outcomes.
    slot: Option<(Arc<Outcomes>, usize)>,
    shared: Arc<Shared>,
}

impl Reply {
    /// Books `reply`'s terminal state and delivers it.
    fn send(mut self, reply: RequestOutcome) {
        self.deliver(reply);
    }

    fn deliver(&mut self, reply: RequestOutcome) {
        let Some((outcomes, index)) = self.slot.take() else { return };
        self.shared.requests.finish(terminal(&reply.result));
        outcomes.fill(index, reply);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.deliver(RequestOutcome {
            result: Err(EngineError::Canceled),
            latency: Duration::ZERO,
        });
    }
}

/// Everything that can wake the I/O thread, on its one channel.
enum Event {
    /// The units of one [`Backend::submit_batch`] call.
    Units {
        /// Each unit to route, with where its one terminal reply goes.
        units: Vec<(Permutation, Reply)>,
        /// Resolve them shed once this passes.
        deadline: Option<Instant>,
    },
    /// A drain from [`Backend::drain`].
    Drain {
        /// Give up waiting for the shard's ack at this instant.
        deadline: Instant,
        /// Where the drain report goes.
        reply: SyncSender<BackendDrain>,
    },
    /// Every complete frame one read of endpoint `endpoint`'s
    /// connection `generation` produced (heartbeat answers excluded).
    Frames {
        /// Primary (0) or spare (1).
        endpoint: usize,
        /// Which connection of that endpoint the frames came from.
        generation: u64,
        /// The frames, in wire order.
        frames: Vec<Frame>,
    },
    /// Endpoint `endpoint`'s connection `generation` died: EOF, socket
    /// error, or undecodable bytes.
    Closed {
        /// Primary (0) or spare (1).
        endpoint: usize,
        /// Which connection of that endpoint died.
        generation: u64,
    },
    /// The shard handle was dropped: cancel everything and exit.
    Stop,
}

/// One benes-serve process as a coordinator [`Backend`].
#[derive(Debug)]
pub struct RemoteShard {
    addr: String,
    events: SyncSender<Event>,
    shared: Arc<Shared>,
    io: Option<JoinHandle<()>>,
}

impl RemoteShard {
    /// Spawns the I/O thread for one remote shard; it connects to the
    /// primary at once. The shard index seeds the jitter so a fleet's
    /// backoffs decorrelate deterministically.
    ///
    /// # Panics
    ///
    /// If the OS refuses to spawn the thread.
    #[must_use]
    pub fn new(config: RemoteConfig, shard: usize) -> Self {
        let shared = Arc::new(Shared::default());
        // Optimistic until the first heartbeat settles it: a fleet
        // that has not been probed yet should not report dead shards.
        shared.healthy.store(true, Ordering::Release);
        let (tx, rx) = mpsc::sync_channel(EVENT_QUEUE);
        let addr = config.addr.clone();
        let io = {
            let io = IoThread::new(config, shard, Arc::clone(&shared), tx.clone());
            std::thread::Builder::new()
                .name(format!("benes-remote-io-{shard}"))
                .spawn(move || io.run(rx))
                .expect("spawn remote shard I/O thread")
        };
        Self { addr, events: tx, shared, io: Some(io) }
    }
}

impl Backend for RemoteShard {
    fn describe(&self) -> String {
        format!("remote {}", self.addr)
    }

    fn submit_batch(
        &self,
        perms: Vec<Permutation>,
        deadline: Option<Instant>,
    ) -> Vec<UnitTicket> {
        let count = perms.len();
        let outcomes = Outcomes::new(count);
        let units: Vec<(Permutation, Reply)> = perms
            .into_iter()
            .enumerate()
            .map(|(index, perm)| {
                self.shared.requests.admit();
                let slot = Some((Arc::clone(&outcomes), index));
                (perm, Reply { slot, shared: Arc::clone(&self.shared) })
            })
            .collect();
        if count > 0 {
            // With the I/O thread gone (drained or torn down) the send
            // hands the event back, and dropping it resolves the units
            // canceled: terminal immediately, and still conserved.
            // analyze:allow(discarded-result): a refused event cancels its units on drop
            let _ = self.events.send(Event::Units { units, deadline });
        }
        (0..count).map(|index| UnitTicket::remote(Arc::clone(&outcomes), index)).collect()
    }

    fn ledger(&self) -> BackendLedger {
        let s = &self.shared;
        BackendLedger {
            kind: "remote",
            requests: s.requests.snapshot(),
            retries: s.retries.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            hedges: s.hedges.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
            healthy: s.healthy.load(Ordering::Acquire),
        }
    }

    fn drain(&self, deadline: Instant) -> BackendDrain {
        let (reply, rx) = mpsc::sync_channel(1);
        if self.events.send(Event::Drain { deadline, reply }).is_err() {
            // Already drained or torn down: nothing in flight.
            return BackendDrain { canceled: 0, timed_out: false, unreachable: false };
        }
        let budget = deadline.saturating_duration_since(Instant::now());
        // Headroom over the I/O thread's own deadline handling so a
        // well-behaved drain is reported as such.
        rx.recv_timeout(budget + Duration::from_secs(1)).unwrap_or(BackendDrain {
            canceled: 0,
            timed_out: true,
            unreachable: true,
        })
    }

    fn healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::Acquire)
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        // analyze:allow(discarded-result): an I/O thread that already exited needs no stop
        let _ = self.events.send(Event::Stop);
        if let Some(io) = self.io.take() {
            // analyze:allow(discarded-result): a panicked I/O thread leaves nothing to join
            let _ = io.join();
        }
    }
}

/// What one connection's reader shares with the I/O thread.
#[derive(Debug, Default)]
struct Link {
    /// Heartbeat answers (`StatsReply` frames) read so far.
    pongs: AtomicU64,
    /// Forward `StatsReply` frames as events too (a drain waits for
    /// its ack).
    forward_stats: AtomicBool,
}

/// One endpoint connection's reader: blocks in `read`, counts
/// heartbeat answers, forwards everything else.
fn reader_loop(
    endpoint: usize,
    generation: u64,
    mut wire: Client,
    link: &Link,
    tx: &SyncSender<Event>,
) {
    let mut frames = Vec::new();
    loop {
        if wire.recv_batch(&mut frames).is_err() {
            // analyze:allow(discarded-result): an exited I/O thread needs no close report
            let _ = tx.send(Event::Closed { endpoint, generation });
            return;
        }
        frames.retain(|frame| {
            if !matches!(frame, Frame::StatsReply { .. }) {
                return true;
            }
            link.pongs.fetch_add(1, Ordering::AcqRel);
            link.forward_stats.load(Ordering::Acquire)
        });
        if frames.is_empty() {
            continue;
        }
        let frames = std::mem::take(&mut frames);
        if tx.send(Event::Frames { endpoint, generation, frames }).is_err() {
            return;
        }
    }
}

/// Endpoint index: primary first, spare second.
const PRIMARY: usize = 0;
const SPARE: usize = 1;

/// One endpoint's connection + pacing state.
struct Endpoint {
    addr: Option<String>,
    /// The write side of the live connection (its reader holds a
    /// clone).
    conn: Option<Client>,
    /// Generation of the live connection; bumped on every connect.
    generation: u64,
    link: Arc<Link>,
    reader: Option<JoinHandle<()>>,
    breaker: Breaker,
    /// The next breaker verdict to report carries the probe flag.
    probe_pending: bool,
    /// Consecutive connect failures (drives the reconnect backoff).
    connect_streak: u32,
    not_before: Instant,
    jitter: Rng64,
    /// Units queued for (re)send on this endpoint.
    sendq: VecDeque<u64>,
    /// Outstanding request ids on the **current** connection.
    inflight: u64,
}

impl Endpoint {
    fn exists(&self) -> bool {
        self.addr.is_some()
    }
}

/// One unit in flight inside the I/O thread.
struct Pending {
    perm: Permutation,
    deadline: Option<Instant>,
    reply: Reply,
    started: Instant,
    /// Transport attempts left on the current owner endpoint.
    attempts_left: u32,
    /// Current owner endpoint.
    owner: usize,
    failed_over: bool,
    hedged: bool,
    /// Outstanding request id per endpoint.
    req: [Option<u64>; 2],
    sent_at: Option<Instant>,
    /// A losing (non-Ok) reply parked while a hedge twin is still out.
    fallback: Option<RequestOutcome>,
}

/// Whether `u` still waits on the primary alone and may be hedged.
fn hedge_candidate(u: &Pending) -> bool {
    !u.hedged && u.owner == PRIMARY && u.req[PRIMARY].is_some() && u.req[SPARE].is_none()
}

/// A drain waiting for the primary's ack.
struct Draining {
    deadline: Instant,
    reply: SyncSender<BackendDrain>,
    /// The ack is the heartbeat-answer count reaching this.
    ack_at: u64,
}

/// The primary's heartbeat state.
struct Heartbeat {
    /// When the next heartbeat (or, while disconnected, connect) is due.
    next: Instant,
    /// Heartbeats sent on the current primary connection.
    pings: u64,
    /// When the last heartbeat went out (`None` before the first on a
    /// connection).
    sent: Option<Instant>,
}

struct IoThread {
    cfg: RemoteConfig,
    shard: usize,
    shared: Arc<Shared>,
    /// For the readers this thread spawns.
    tx: SyncSender<Event>,
    endpoints: [Endpoint; 2],
    units: HashMap<u64, Pending>,
    by_req: HashMap<u64, u64>,
    next_unit: u64,
    next_req: u64,
    heartbeat: Heartbeat,
    draining: Option<Draining>,
    /// Readers of replaced connections, joined at exit.
    retired: Vec<JoinHandle<()>>,
}

impl IoThread {
    fn new(
        cfg: RemoteConfig,
        shard: usize,
        shared: Arc<Shared>,
        tx: SyncSender<Event>,
    ) -> Self {
        let now = Instant::now();
        let endpoint = |addr: Option<String>, index: usize| {
            let order = u32::try_from(shard * 2 + index).unwrap_or(u32::MAX);
            Endpoint {
                addr,
                conn: None,
                generation: 0,
                link: Arc::default(),
                reader: None,
                breaker: Breaker::new(cfg.breaker.clone(), order),
                probe_pending: false,
                connect_streak: 0,
                not_before: now,
                jitter: Rng64::new(
                    cfg.jitter_seed ^ (shard as u64) ^ ((index as u64) << 32),
                ),
                sendq: VecDeque::new(),
                inflight: 0,
            }
        };
        let endpoints =
            [endpoint(Some(cfg.addr.clone()), PRIMARY), endpoint(cfg.spare.clone(), SPARE)];
        Self {
            cfg,
            shard,
            shared,
            tx,
            endpoints,
            units: HashMap::new(),
            by_req: HashMap::new(),
            next_unit: 0,
            next_req: 0,
            // Due at once: the first pass connects to the primary.
            heartbeat: Heartbeat { next: now, pings: 0, sent: None },
            draining: None,
            retired: Vec::new(),
        }
    }

    fn run(mut self, rx: Receiver<Event>) {
        'serve: loop {
            let now = Instant::now();
            let first =
                match rx.recv_timeout(self.next_wake().saturating_duration_since(now)) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
            for event in first.into_iter().chain(std::iter::from_fn(|| rx.try_recv().ok()))
            {
                if !self.handle(event) {
                    break 'serve;
                }
            }
            let now = Instant::now();
            if let Some(drain) = &self.draining {
                if now >= drain.deadline {
                    self.finish_drain(true, false);
                    break;
                }
                continue;
            }
            self.scan_time(now);
            let overdue = self
                .unanswered()
                .is_some_and(|sent| now >= sent + self.cfg.request_timeout);
            if overdue || now >= self.heartbeat.next {
                self.beat(now);
            }
            for e in [PRIMARY, SPARE] {
                self.pump_sends(e);
            }
        }
        self.cancel_all();
        let mut readers = std::mem::take(&mut self.retired);
        for e in [PRIMARY, SPARE] {
            if let Some(conn) = self.endpoints[e].conn.take() {
                conn.shutdown();
            }
            readers.extend(self.endpoints[e].reader.take());
        }
        // Readers blocked on a full channel wake with an error once no
        // one can receive.
        drop(rx);
        for r in readers {
            // analyze:allow(discarded-result): a panicked reader leaves nothing to join
            let _ = r.join();
        }
    }

    /// Applies one event. `false` means the thread should exit.
    fn handle(&mut self, event: Event) -> bool {
        match event {
            Event::Units { units, deadline } => {
                for (perm, reply) in units {
                    if self.draining.is_some() {
                        reply.send(RequestOutcome {
                            result: Err(EngineError::Canceled),
                            latency: Duration::ZERO,
                        });
                    } else {
                        self.admit_unit(perm, deadline, reply);
                    }
                }
                true
            }
            Event::Drain { deadline, reply } => self.start_drain(deadline, reply),
            Event::Frames { endpoint, generation, frames } => {
                if generation != self.endpoints[endpoint].generation
                    || self.endpoints[endpoint].conn.is_none()
                {
                    return true; // a replaced connection's leftovers
                }
                for frame in frames {
                    match frame {
                        Frame::RouteBatchReply { items } => {
                            for item in items {
                                self.route_reply(
                                    endpoint,
                                    item.req_id,
                                    item.status,
                                    item.tier,
                                );
                            }
                        }
                        Frame::StatsReply { .. } => {
                            let acked = self.draining.as_ref().is_some_and(|d| {
                                endpoint == PRIMARY
                                    && self.endpoints[PRIMARY]
                                        .link
                                        .pongs
                                        .load(Ordering::Acquire)
                                        >= d.ack_at
                            });
                            if acked {
                                self.finish_drain(false, false);
                                return false;
                            }
                        }
                        _ => {} // error frames: not unit-scoped
                    }
                }
                true
            }
            Event::Closed { endpoint, generation } => {
                if generation != self.endpoints[endpoint].generation
                    || self.endpoints[endpoint].conn.is_none()
                {
                    return true;
                }
                if self.draining.is_some() && endpoint == PRIMARY {
                    self.finish_drain(false, true);
                    return false;
                }
                let busy = self.endpoints[endpoint].inflight > 0
                    || (endpoint == PRIMARY && self.unanswered().is_some());
                if busy {
                    self.endpoint_failed(endpoint, Instant::now());
                } else {
                    // An idle connection closed (the server reaped it,
                    // or went away between requests): nothing was lost,
                    // so reconnect on demand without charging anyone.
                    self.disconnect(endpoint);
                }
                true
            }
            Event::Stop => false,
        }
    }

    /// The earliest instant a timer in the policy falls due.
    fn next_wake(&self) -> Instant {
        if let Some(drain) = &self.draining {
            return drain.deadline;
        }
        let mut wake = self.heartbeat.next;
        if let Some(sent) = self.unanswered() {
            wake = wake.min(sent + self.cfg.request_timeout);
        }
        for ep in &self.endpoints {
            if ep.conn.is_none() && !ep.sendq.is_empty() {
                wake = wake.min(ep.not_before);
            }
        }
        // Mirrors `scan_time`: every timer listed here is consumed
        // there when it falls due.
        let hedge = self.cfg.hedge.filter(|_| self.endpoints[SPARE].exists());
        for u in self.units.values() {
            if let Some(dl) = u.deadline {
                wake = wake.min(dl);
            }
            let Some(at) = u.sent_at else { continue };
            for e in [PRIMARY, SPARE] {
                if u.req[e].is_some() && self.endpoints[e].conn.is_some() {
                    wake = wake.min(at + self.cfg.request_timeout);
                }
            }
            if let Some(hedge) = hedge {
                if hedge_candidate(u) {
                    wake = wake.min(at + hedge);
                }
            }
        }
        wake
    }

    /// When the last heartbeat went out, while it is unanswered. The
    /// reader counts answers without waking this thread, so this is
    /// read, not told.
    fn unanswered(&self) -> Option<Instant> {
        let pongs = self.endpoints[PRIMARY].link.pongs.load(Ordering::Acquire);
        self.heartbeat.sent.filter(|_| pongs < self.heartbeat.pings)
    }

    /// The heartbeat timer: connect the primary if it is down, judge
    /// the last heartbeat, send the next.
    fn beat(&mut self, now: Instant) {
        self.heartbeat.next = now + self.cfg.probe_interval;
        if self.endpoints[PRIMARY].conn.is_none()
            && (now < self.endpoints[PRIMARY].not_before || !self.connect(PRIMARY, now))
        {
            self.shared.healthy.store(false, Ordering::Release);
            return;
        }
        if let Some(sent) = self.unanswered() {
            if now.saturating_duration_since(sent) >= self.cfg.request_timeout {
                // A silent connection is a dead connection.
                self.shared.healthy.store(false, Ordering::Release);
                self.endpoint_failed(PRIMARY, now);
            }
            return;
        }
        if self.heartbeat.sent.is_some() {
            // The last heartbeat on this connection was answered.
            self.shared.healthy.store(true, Ordering::Release);
        }
        let conn = self.endpoints[PRIMARY].conn.as_mut().expect("connected above");
        if conn.send(&Frame::Stats).is_err() {
            self.shared.healthy.store(false, Ordering::Release);
            self.endpoint_failed(PRIMARY, now);
            return;
        }
        self.heartbeat.pings += 1;
        self.heartbeat.sent = Some(now);
    }

    /// Places a fresh unit on an endpoint, applying the breaker's
    /// admission verdict: an open primary fails over immediately, and
    /// with nowhere to go the unit sheds the way an engine breaker
    /// sheds — typed, instant, conserved.
    fn admit_unit(&mut self, perm: Permutation, deadline: Option<Instant>, reply: Reply) {
        let id = self.next_unit;
        self.next_unit += 1;
        let now = Instant::now();
        let mut unit = Pending {
            perm,
            deadline,
            reply,
            started: now,
            attempts_left: self.cfg.attempts.max(1),
            owner: PRIMARY,
            failed_over: false,
            hedged: false,
            req: [None, None],
            sent_at: None,
            fallback: None,
        };
        match self.admit_on(PRIMARY, now) {
            Some(()) => {
                self.units.insert(id, unit);
                self.endpoints[PRIMARY].sendq.push_back(id);
            }
            None => {
                if self.endpoints[SPARE].exists() && self.admit_on(SPARE, now).is_some() {
                    Shared::bump(&self.shared.failovers);
                    unit.owner = SPARE;
                    unit.failed_over = true;
                    self.units.insert(id, unit);
                    self.endpoints[SPARE].sendq.push_back(id);
                } else {
                    let reply = RequestOutcome {
                        result: Err(EngineError::BreakerOpen),
                        latency: now.saturating_duration_since(unit.started),
                    };
                    unit.reply.send(reply);
                }
            }
        }
    }

    /// The breaker's admission verdict for endpoint `e`: `Some(())`
    /// serves (marking the probe slot when half-open), `None` sheds.
    fn admit_on(&mut self, e: usize, now: Instant) -> Option<()> {
        match self.endpoints[e].breaker.admit(now) {
            Admission::Serve => Some(()),
            Admission::Probe => {
                self.endpoints[e].probe_pending = true;
                Some(())
            }
            Admission::Shed => None,
        }
    }

    /// Sends every unit queued on endpoint `e` as `RouteBatch` frames of
    /// at most [`MAX_FRAME_LEN`] bytes, in one write, once the
    /// connection and pacing allow. This is the only way a unit goes
    /// out.
    fn pump_sends(&mut self, e: usize) {
        if self.endpoints[e].sendq.is_empty() {
            return;
        }
        let now = Instant::now();
        if self.endpoints[e].conn.is_none()
            && (now < self.endpoints[e].not_before || !self.connect(e, now))
        {
            return;
        }
        let tenant = self.cfg.tenant;
        let mut frames = Vec::new();
        let mut items: Vec<BatchItem> = Vec::new();
        let mut frame_len = ROUTE_BATCH_HEADER;
        while let Some(id) = self.endpoints[e].sendq.pop_front() {
            let Some(unit) = self.units.get_mut(&id) else { continue };
            if let Some(dl) = unit.deadline {
                if now >= dl {
                    self.resolve(id, Err(EngineError::DeadlineExceeded));
                    continue;
                }
            }
            let req_id = self.next_req;
            self.next_req += 1;
            let unit = self.units.get_mut(&id).expect("checked above");
            let deadline_ms = unit
                .deadline
                .map(|dl| {
                    let ms = dl.saturating_duration_since(now).as_millis();
                    u32::try_from(ms).unwrap_or(u32::MAX).max(1)
                })
                .unwrap_or(0);
            let item_len = batch_item_len(unit.perm.len());
            if !items.is_empty() && frame_len + item_len > MAX_FRAME_LEN as usize {
                frames
                    .push(Frame::RouteBatch { tenant, items: std::mem::take(&mut items) });
                frame_len = ROUTE_BATCH_HEADER;
            }
            frame_len += item_len;
            items.push(BatchItem {
                req_id,
                deadline_ms,
                destinations: unit.perm.destinations().to_vec(),
            });
            unit.req[e] = Some(req_id);
            if unit.owner == e {
                unit.sent_at = Some(now);
            }
            self.by_req.insert(req_id, id);
            self.endpoints[e].inflight += 1;
        }
        if items.is_empty() {
            return;
        }
        frames.push(Frame::RouteBatch { tenant, items });
        let conn = self.endpoints[e].conn.as_mut().expect("connected above");
        if conn.send_all(&frames).is_err() {
            self.endpoint_failed(e, now);
        }
    }

    /// One unit reply off endpoint `e`'s live connection.
    fn route_reply(&mut self, e: usize, req_id: u64, status: Status, tier: Option<u8>) {
        if self.endpoints[e].probe_pending {
            self.endpoints[e].probe_pending = false;
            // analyze:allow(discarded-result): re-close edge is implicit in state()
            let _ = self.endpoints[e].breaker.on_success(true);
        } else {
            // analyze:allow(discarded-result): non-probe successes cannot re-close
            let _ = self.endpoints[e].breaker.on_success(false);
        }
        self.endpoints[e].connect_streak = 0;
        self.endpoints[e].inflight = self.endpoints[e].inflight.saturating_sub(1);
        self.reply_arrived(e, req_id, status, tier);
    }

    /// Routes one wire reply to its unit (stale request ids — hedge
    /// losers, expired deadlines — are discarded here).
    fn reply_arrived(&mut self, e: usize, req_id: u64, status: Status, tier: Option<u8>) {
        let Some(id) = self.by_req.remove(&req_id) else { return };
        let Some(unit) = self.units.get_mut(&id) else { return };
        unit.req[e] = None;
        let twin_out = unit.req[1 - e].is_some();
        let result = match status {
            Status::Ok => tier.and_then(tier_from_code).ok_or(EngineError::Unavailable),
            Status::Shed => Err(EngineError::DeadlineExceeded),
            Status::BreakerOpen => Err(EngineError::BreakerOpen),
            Status::Draining => Err(EngineError::Canceled),
            // Overload or server-side fabric failure: candidates for
            // failover rather than immediate resolution.
            Status::Rejected | Status::QuotaExceeded | Status::Failed => {
                Err(EngineError::FaultDetected)
            }
            Status::PlanError | Status::BadRequest => Err(EngineError::Unavailable),
        };
        let retryable = matches!(
            status,
            Status::Rejected | Status::QuotaExceeded | Status::Failed | Status::BreakerOpen
        );
        if result.is_ok() {
            self.resolve(id, result);
            return;
        }
        // A failure with a hedge twin still out: park it and let the
        // twin decide.
        if twin_out {
            let unit = self.units.get_mut(&id).expect("still pending");
            unit.fallback =
                Some(RequestOutcome { result, latency: unit.started.elapsed() });
            return;
        }
        // Primary said "overloaded/broken" and the spare is untried:
        // fail the unit over instead of surfacing the failure.
        if retryable
            && e == PRIMARY
            && !self.units[&id].failed_over
            && self.endpoints[SPARE].exists()
            && self.admit_on(SPARE, Instant::now()).is_some()
        {
            Shared::bump(&self.shared.failovers);
            let unit = self.units.get_mut(&id).expect("still pending");
            unit.owner = SPARE;
            unit.failed_over = true;
            unit.attempts_left = self.cfg.attempts.max(1);
            unit.sent_at = None;
            self.endpoints[SPARE].sendq.push_back(id);
            return;
        }
        self.resolve(id, result);
    }

    /// Establishes endpoint `e`'s connection and its reader, reporting
    /// the verdict to the breaker and pacing the next attempt on
    /// failure.
    fn connect(&mut self, e: usize, now: Instant) -> bool {
        let Some(addr) = self.endpoints[e].addr.clone() else { return false };
        let installed = Client::connect_timeout(&addr, self.cfg.connect_timeout)
            .and_then(|conn| self.install(e, conn));
        if installed.is_err() {
            self.endpoint_failed(e, now);
            return false;
        }
        // Streak > 0 means a previous connection (or connect attempt)
        // failed: this one is a *re*connect.
        if self.endpoints[e].connect_streak > 0 {
            Shared::bump(&self.shared.reconnects);
        }
        self.endpoints[e].connect_streak = 0;
        true
    }

    /// Makes `conn` endpoint `e`'s live connection under a fresh
    /// generation and starts its reader.
    fn install(&mut self, e: usize, conn: Client) -> std::io::Result<()> {
        let wire = conn.try_clone()?;
        let generation = self.endpoints[e].generation + 1;
        let link = Arc::new(Link::default());
        let reader = {
            let (link, tx) = (Arc::clone(&link), self.tx.clone());
            std::thread::Builder::new()
                .name(format!("benes-remote-rd-{}.{e}", self.shard))
                .spawn(move || reader_loop(e, generation, wire, &link, &tx))?
        };
        self.disconnect(e);
        let ep = &mut self.endpoints[e];
        ep.conn = Some(conn);
        ep.generation = generation;
        ep.link = link;
        ep.reader = Some(reader);
        ep.inflight = 0;
        if e == PRIMARY {
            // A fresh connection is healthy once it answers: beat now.
            self.heartbeat = Heartbeat { next: Instant::now(), pings: 0, sent: None };
        }
        Ok(())
    }

    /// Closes endpoint `e`'s connection (if any) and retires its reader.
    fn disconnect(&mut self, e: usize) {
        let ep = &mut self.endpoints[e];
        ep.inflight = 0;
        let Some(conn) = ep.conn.take() else { return };
        conn.shutdown();
        self.retired.retain(|r| !r.is_finished());
        self.retired.extend(ep.reader.take());
        if e == PRIMARY {
            self.shared.healthy.store(false, Ordering::Release);
            self.heartbeat.sent = None;
        }
    }

    /// One transport failure on endpoint `e`: drop the connection,
    /// advance the breaker, pace the next connect, and charge every
    /// unit that was riding this endpoint one attempt.
    fn endpoint_failed(&mut self, e: usize, now: Instant) {
        self.disconnect(e);
        let probe = std::mem::take(&mut self.endpoints[e].probe_pending);
        // analyze:allow(discarded-result): the open edge is observable via state()
        let _ = self.endpoints[e].breaker.on_failure(probe, now);
        let streak = self.endpoints[e].connect_streak.saturating_add(1);
        self.endpoints[e].connect_streak = streak;
        let ep = &mut self.endpoints[e];
        ep.not_before = now
            + backoff(
                streak,
                self.cfg.reconnect_base,
                self.cfg.reconnect_max,
                &mut ep.jitter,
            );

        // Every unit with a request outstanding here, plus everything
        // still queued, just lost an attempt.
        let affected: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| u.req[e].is_some())
            .map(|(id, _)| *id)
            .chain(self.endpoints[e].sendq.drain(..))
            .collect();
        for id in affected {
            self.charge_attempt(id, e);
        }
    }

    /// Charges unit `id` one failed transport attempt on endpoint `e`:
    /// retry, fail over, or resolve.
    fn charge_attempt(&mut self, id: u64, e: usize) {
        let Some(unit) = self.units.get_mut(&id) else { return };
        if let Some(req) = unit.req[e].take() {
            self.by_req.remove(&req);
        }
        let unit = self.units.get_mut(&id).expect("still pending");
        // A hedged unit whose other copy is still in flight just rides
        // the twin: no attempt charged, no failure surfaced.
        if unit.req[1 - e].is_some() {
            unit.owner = 1 - e;
            unit.sent_at = Some(Instant::now());
            return;
        }
        if unit.owner != e {
            // The failure hit an endpoint the unit no longer rides.
            return;
        }
        unit.attempts_left = unit.attempts_left.saturating_sub(1);
        if unit.attempts_left > 0 {
            Shared::bump(&self.shared.retries);
            unit.sent_at = None;
            self.endpoints[e].sendq.push_back(id);
            return;
        }
        if e == PRIMARY && !unit.failed_over && self.endpoints[SPARE].exists() {
            Shared::bump(&self.shared.failovers);
            unit.owner = SPARE;
            unit.failed_over = true;
            unit.attempts_left = self.cfg.attempts.max(1);
            unit.sent_at = None;
            self.endpoints[SPARE].sendq.push_back(id);
            return;
        }
        self.resolve(id, Err(EngineError::Unavailable));
    }

    /// Deadline, request-timeout and hedge scans.
    fn scan_time(&mut self, now: Instant) {
        // Local deadlines: a unit whose deadline passed resolves shed,
        // no matter what the wire is doing.
        let expired: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| u.deadline.is_some_and(|dl| now >= dl))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.resolve(id, Err(EngineError::DeadlineExceeded));
        }
        // Request timeouts: a silent connection is a dead connection.
        for e in [PRIMARY, SPARE] {
            let stuck = self.units.values().any(|u| {
                u.req[e].is_some()
                    && u.sent_at.is_some_and(|at| {
                        now.saturating_duration_since(at) >= self.cfg.request_timeout
                    })
            });
            if stuck && self.endpoints[e].conn.is_some() {
                self.endpoint_failed(e, now);
            }
        }
        // Hedging: units still waiting on the primary past the hedge
        // delay get a twin on the spare.
        let Some(hedge) = self.cfg.hedge else { return };
        if !self.endpoints[SPARE].exists() {
            return;
        }
        let candidates: Vec<u64> = self
            .units
            .iter()
            .filter(|(_, u)| {
                hedge_candidate(u)
                    && u.sent_at
                        .is_some_and(|at| now.saturating_duration_since(at) >= hedge)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            // One hedge chance per unit: a spare whose breaker sheds it
            // now is not retried on every later pass.
            let admitted = self.admit_on(SPARE, now).is_some();
            let unit = self.units.get_mut(&id).expect("candidate is pending");
            unit.hedged = true;
            if admitted {
                Shared::bump(&self.shared.hedges);
                self.endpoints[SPARE].sendq.push_back(id);
            }
        }
    }

    /// Resolves unit `id` with `result` (preferring a parked hedge
    /// fallback only if `result` itself is a failure), removing every
    /// outstanding request id.
    fn resolve(&mut self, id: u64, result: Result<Tier, EngineError>) {
        let Some(unit) = self.units.remove(&id) else { return };
        for req in unit.req.into_iter().flatten() {
            self.by_req.remove(&req);
        }
        for e in [PRIMARY, SPARE] {
            self.endpoints[e].sendq.retain(|queued| *queued != id);
        }
        let result = match (&result, unit.fallback) {
            // The twin already failed and this arm failed too: either
            // order, the parked arm cannot improve an Ok.
            (Err(_), Some(parked)) => parked.result,
            _ => result,
        };
        unit.reply.send(RequestOutcome { result, latency: unit.started.elapsed() });
    }

    /// Terminal cancel of everything pending (teardown path).
    fn cancel_all(&mut self) {
        let ids: Vec<u64> = self.units.keys().copied().collect();
        for id in ids {
            self.resolve(id, Err(EngineError::Canceled));
        }
    }

    /// Fleet drain, first half: a best-effort `Drain` frame to the
    /// primary (one bounded connect attempt if it is down). `false`
    /// means the drain already finished and the thread should exit.
    fn start_drain(&mut self, deadline: Instant, reply: SyncSender<BackendDrain>) -> bool {
        let ack_at = self.heartbeat.pings + 1;
        self.draining = Some(Draining { deadline, reply, ack_at });
        if self.endpoints[PRIMARY].conn.is_none() {
            // One bounded connect attempt — a dead shard must not hang
            // the fleet drain.
            let connected = self.endpoints[PRIMARY].addr.clone().is_some_and(|addr| {
                Client::connect_timeout(&addr, self.cfg.connect_timeout)
                    .and_then(|conn| self.install(PRIMARY, conn))
                    .is_ok()
            });
            if !connected {
                self.finish_drain(false, true);
                return false;
            }
            // Keep `timed_out` honest even though connect_timeout
            // bounds the attempt.
            if Instant::now() > deadline {
                self.finish_drain(true, false);
                return false;
            }
            if let Some(drain) = &mut self.draining {
                drain.ack_at = 1;
            }
        }
        self.endpoints[PRIMARY].link.forward_stats.store(true, Ordering::Release);
        let conn = self.endpoints[PRIMARY].conn.as_mut().expect("connected above");
        if conn.send(&Frame::Drain).is_err() {
            self.finish_drain(false, true);
            return false;
        }
        true
    }

    /// Fleet drain, second half: the ack arrived, the deadline passed,
    /// or the primary went away. Cancels everything still pending and
    /// reports.
    fn finish_drain(&mut self, timed_out: bool, unreachable: bool) {
        let Some(drain) = self.draining.take() else { return };
        let canceled = u64::try_from(self.units.len()).unwrap_or(u64::MAX);
        self.cancel_all();
        // analyze:allow(discarded-result): the drain caller may have timed out and gone
        let _ = drain.reply.send(BackendDrain { canceled, timed_out, unreachable });
    }
}
