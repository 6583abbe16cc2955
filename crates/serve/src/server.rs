//! The benes-serve server: blocking `std::net` connection handling in
//! which every thread waits in exactly one place, per-tenant DRR fair
//! scheduling in front of the engine's bounded admission, and graceful
//! drain wired to [`Engine::drain`].
//!
//! # Threads and where each one blocks
//!
//! No thread schedules for the others. The connections are dealt over
//! [`ServeConfig::threads`] handler shards; a shard is one lock over
//! its connections, its tenant scheduler, its share of the engine
//! queue and its open batches, and the threads that produce its events
//! drive it under that lock:
//!
//! * **acceptor** (`benes-serve-accept`) — a blocking `accept` on the
//!   listener. Each new connection goes round-robin to one shard, which
//!   keeps it for its whole life; the acceptor adopts it under the
//!   shard's lock and starts its reader and writer.
//! * **reader** (`benes-serve-rd-*`, one per connection) — a blocking
//!   `read` whose `SO_RCVTIMEO` is [`ServeConfig::read_timeout`]. After
//!   each read it takes the shard lock and handles what the read
//!   produced: every complete frame, the close, a wire error, or (on a
//!   read timeout) the idle reap. A reader handles only its own
//!   connection's frames, so a flood queues nothing ahead of anyone
//!   else's next request but its own backlog in the scheduler.
//! * **engine worker** (`benes-engine-*`) — finishing a request runs
//!   its [`Completion`], which takes the shard lock and answers the
//!   request's slot (its `RouteReply`, or its item of a `RouteBatch`
//!   and, after the last item, the batch's reply). A request thus
//!   crosses reader → worker → writer only.
//! * **writer** (`benes-serve-wr-*`, one per connection) — a condvar
//!   wait on the connection's outbox, then a blocking `write` of
//!   everything queued in it. A client that stops reading blocks only
//!   its own writer: its unread replies pile up in the outbox until
//!   `OUTBOX_LIMIT` (4 MiB) or the write timeout (= read timeout) cuts
//!   the connection.
//!
//! Either ends its turn the same way (`Shard::release`): under the
//! lock it takes the next run off the shard's DRR scheduler and the
//! replies ready to go; with the lock released it wakes those writers
//! and hands the run to [`Engine::try_submit_all_to`]. A shard admits
//! at most its share `max_queue_depth / threads` of the engine queue,
//! so it never meets a full queue; the rest waits in the scheduler for
//! the shard's own completions, and an over-quota tenant is refused on
//! the spot. Lock order: a shard lock, then an outbox lock (handing
//! replies over). No wake-up and no engine lock is taken under a shard
//! lock (a reader snapshots the tenant ledgers that Stats and Drain
//! answer with before it locks), the writer takes only its outbox lock,
//! and the engine runs no completion under a lock of its own.
//!
//! Malformed input (oversize length prefix, unknown version or type,
//! torn payloads) gets one [`Frame::ErrorReply`] and the connection is
//! closed: a byte stream that lied once cannot be resynchronized.
//!
//! # Drain
//!
//! A [`Frame::Drain`] (honoured only with
//! [`ServeConfig::allow_drain`]) or [`Server::shutdown`] flips the
//! shared stop flag and wakes the acceptor with a loopback
//! self-connect; the acceptor stops accepting and exits. From then on
//! readers refuse new Route frames with [`Status::Draining`], while
//! completions keep pumping the backlog. [`Server::wait`] (or
//! `shutdown`) then waits on each shard's condvar, which the
//! completion that leaves the shard with nothing queued or in flight
//! signals, bounded by [`ServeConfig::drain_grace`]; closes every
//! connection once its writer has the last replies; joins the readers
//! and writers with no shard lock held; and drains the engine — every
//! admitted request reaches a terminal state, so per-tenant
//! conservation holds through shutdown.

use std::collections::HashMap;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::{
    Completion, DrainReport, Engine, EngineConfig, EngineError, RequestOutcome, Submission,
    SubmitError, SubmitOpts, Tier,
};
use benes_perm::Permutation;

use crate::client::{Client, RecvError};
use crate::proto::{tier_code, Frame, ReplyItem, Status, TenantRow, WireError};
use crate::tenant::DrrScheduler;

/// Most reply bytes one connection's outbox holds. A client this far
/// behind on reading its replies is cut off rather than grow the
/// server's memory without bound.
const OUTBOX_LIMIT: usize = 4 << 20;

/// Most requests the pump hands the engine in one admission (one queue
/// lock); a longer backlog goes over in several.
const PUMP_RUN: usize = 256;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Handler shards; the acceptor deals connections to them
    /// round-robin, and each shard's connections share one lock and
    /// one tenant scheduler (defaults to the machine's available
    /// parallelism).
    pub threads: usize,
    /// The engine the server fronts. Its queue bound
    /// (`max_queue_depth`) must be at least `threads`: each handler
    /// shard admits at most `max_queue_depth / threads`.
    pub engine: EngineConfig,
    /// Reap a connection idle this long with nothing in flight. Also
    /// bounds how long a connection's writer may block on a client
    /// that does not read before the connection is cut.
    pub read_timeout: Duration,
    /// Max requests a tenant may have queued (per handler shard)
    /// before new ones are refused with [`Status::QuotaExceeded`].
    pub quota: usize,
    /// DRR quantum in cost units (one unit per destination word).
    pub quantum: u32,
    /// Whether a [`Frame::Drain`] from a client may stop the server.
    pub allow_drain: bool,
    /// How long a draining shard waits for its queued and in-flight
    /// requests before abandoning them to [`Engine::drain`]'s cancel
    /// sweep.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self {
            threads,
            engine: EngineConfig::default(),
            read_timeout: Duration::from_secs(10),
            quota: 1024,
            quantum: 64,
            allow_drain: false,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Monotonic counters the server keeps about itself (the engine's own
/// stats cover everything past admission).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted over the server's lifetime.
    pub accepted: AtomicU64,
    /// Connections closed (any reason: EOF, error, reap, drain).
    pub closed: AtomicU64,
    /// Protocol errors answered with an `ErrorReply` + close.
    pub protocol_errors: AtomicU64,
    /// Route replies written (every terminal the client heard about).
    pub replies: AtomicU64,
    /// Connections reaped by the read timeout.
    pub timed_out: AtomicU64,
}

impl ServerCounters {
    /// Renders the counters as an exposition fragment, ready to be
    /// merged into the engine's own via [`Exposition::extend`].
    ///
    /// [`Exposition::extend`]: benes_obs::expo::Exposition::extend
    #[must_use]
    pub fn exposition(&self) -> benes_obs::expo::Exposition {
        use benes_obs::expo::{Exposition, MetricKind, Sample};
        let mut e = Exposition::new();
        e.describe(
            "benes_serve_conns_total",
            MetricKind::Counter,
            "Wire-server connections by lifecycle state.",
        );
        e.describe(
            "benes_serve_replies_total",
            MetricKind::Counter,
            "Route replies written to clients.",
        );
        e.describe(
            "benes_serve_protocol_errors_total",
            MetricKind::Counter,
            "Connections closed after a wire-protocol error.",
        );
        for (state, counter) in [
            ("accepted", &self.accepted),
            ("closed", &self.closed),
            ("timed_out", &self.timed_out),
        ] {
            e.push(
                Sample::new(
                    "benes_serve_conns_total",
                    counter.load(Ordering::Relaxed) as f64,
                )
                .label("state", state),
            );
        }
        e.push(Sample::new(
            "benes_serve_replies_total",
            self.replies.load(Ordering::Relaxed) as f64,
        ));
        e.push(Sample::new(
            "benes_serve_protocol_errors_total",
            self.protocol_errors.load(Ordering::Relaxed) as f64,
        ));
        e
    }
}

/// A running benes-serve instance. Dropping the handle does **not**
/// stop the server; call [`Server::shutdown`] or [`Server::wait`].
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<Arc<Shard>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), sets up the
    /// handler shards and spawns the acceptor.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the engine's
    /// `max_queue_depth` is below `threads` (some shard would get no
    /// share of it); any I/O error from binding the listener or
    /// spawning the acceptor.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        let handlers = config.threads.max(1);
        let share = config.engine.max_queue_depth / handlers;
        if share == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the engine queue depth is below the handler shard count",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(config.engine.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let shards: Vec<Arc<Shard>> = (0..handlers)
            .map(|index| {
                Arc::new(Shard {
                    ctx: HandlerCtx {
                        index,
                        addr,
                        engine: Arc::clone(&engine),
                        stop: Arc::clone(&stop),
                        counters: Arc::clone(&counters),
                        config: config.clone(),
                    },
                    handler: Mutex::new(Handler {
                        conns: HashMap::new(),
                        sched: DrrScheduler::new(config.quantum, config.quota),
                        next_conn: 0,
                        share,
                        in_engine: 0,
                        touched: Vec::new(),
                        draining: false,
                    }),
                    quiet: Condvar::new(),
                })
            })
            .collect();
        let acceptor = {
            let (stop, shards) = (Arc::clone(&stop), shards.clone());
            std::thread::Builder::new()
                .name("benes-serve-accept".into())
                .spawn(move || accept_loop(&listener, &stop, &shards))?
        };
        Ok(Self { engine, addr, stop, counters, acceptor: Some(acceptor), shards })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server (for stats and tests).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A cloned handle to the engine, outliving this `Server` value
    /// (e.g. for a metrics thread while the server blocks in
    /// [`Server::wait`]).
    #[must_use]
    pub fn engine_arc(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// The server's own counters.
    #[must_use]
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// A cloned handle to the counters, outliving this `Server` value
    /// (companion to [`Server::engine_arc`] for metrics threads).
    #[must_use]
    pub fn counters_arc(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Whether the stop flag is set (drain requested or shutdown
    /// begun).
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Blocks until the server stops (a client Drain under
    /// `allow_drain`, or a concurrent [`Server::shutdown`]), drains the
    /// handler shards, then drains the engine. Returns the engine's
    /// drain report.
    pub fn wait(mut self) -> DrainReport {
        self.drain_shards();
        self.engine.drain(Instant::now() + Duration::from_secs(5))
    }

    /// Stops the server: the shards finish their queued and in-flight
    /// work (bounded by the drain grace), then the engine drains until
    /// `deadline`.
    pub fn shutdown(mut self, deadline: Instant) -> DrainReport {
        self.stop.store(true, Ordering::Release);
        wake_acceptor(self.addr);
        self.drain_shards();
        self.engine.drain(deadline)
    }

    /// Waits for the acceptor to exit (it does once the stop flag is
    /// up), drains every shard within one shared grace period, and
    /// joins the connections' readers and writers.
    fn drain_shards(&mut self) {
        join_all(self.acceptor.take());
        let started = Instant::now();
        // Every shard drains before any thread is joined: a writer
        // stuck on a client that does not read holds its join up to
        // the write timeout, which must not eat into another shard's
        // grace.
        let threads: Vec<JoinHandle<()>> =
            self.shards.iter().flat_map(|shard| shard.drain(started)).collect();
        join_all(threads);
    }
}

/// Joins `threads`. A panicked reader or writer already lost its
/// connection; the engine drain that follows still resolves every
/// request.
fn join_all(threads: impl IntoIterator<Item = JoinHandle<()>>) {
    for t in threads {
        // analyze:allow(discarded-result): thread panic leaves nothing to join
        let _ = t.join();
    }
}

/// Wakes a thread blocked in `accept` on the listener bound to `addr`
/// by connecting to it (over loopback when it is bound to the
/// unspecified address). The woken thread checks its stop condition
/// before serving what it accepted.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    // A refused connect means the acceptor already exited.
    // analyze:allow(discarded-result): nothing left to wake
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
}

/// The acceptor: blocks in `accept` and deals each connection to the
/// next shard. Once the stop flag is up it stops accepting and exits
/// (dropping the listener).
fn accept_loop(listener: &TcpListener, stop: &AtomicBool, shards: &[Arc<Shard>]) {
    let mut next = 0usize;
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // A failing accept (out of descriptors) fails again at
            // once; pace the retries instead of spinning.
            // analyze:allow(sleep-poll): back-off after an accept error only, never on the idle path
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Frames are small and latency-sensitive.
        // analyze:allow(discarded-result): nodelay is advisory
        let _ = stream.set_nodelay(true);
        let shard = &shards[next % shards.len()];
        shard.ctx.counters.accepted.fetch_add(1, Ordering::Relaxed);
        shard.lock().adopt(shard, stream);
        next = next.wrapping_add(1);
    }
}

/// One connection's reader: blocks in `read`, then handles what the
/// read produced under its shard's lock — frames, the close, a wire
/// error or the idle reap — pumps the shard's backlog into the engine
/// and hands the replies to the writers. Ends with its connection's
/// read side, or once the connection is gone from the shard (closed,
/// reaped or drained).
fn reader_loop(shard: &Arc<Shard>, id: u64, mut wire: Client) {
    let ctx = &shard.ctx;
    let mut frames = Vec::new();
    loop {
        let read = wire.recv_batch(&mut frames);
        let stopping = ctx.stop.load(Ordering::Acquire);
        // `Engine::stats` takes engine locks, which are never taken
        // under a shard lock: snapshot the ledgers before locking.
        let rows = if frames.iter().any(|f| matches!(f, Frame::Stats | Frame::Drain)) {
            stats_rows(&ctx.engine)
        } else {
            Vec::new()
        };
        let mut guard = shard.lock();
        let h = &mut *guard;
        let Some(conn) = h.conns.get_mut(&id) else { return };
        h.touched.push(id);
        let reading = match read {
            Ok(()) => {
                for frame in frames.drain(..) {
                    if conn.poisoned {
                        break;
                    }
                    handle_frame(ctx, conn, id, frame, stopping, &rows, &mut h.sched);
                }
                true
            }
            Err(RecvError::Timeout) => {
                let reap = !stopping
                    && conn.inflight == 0
                    && conn.wbuf.is_empty()
                    && conn.last_write.elapsed() >= ctx.config.read_timeout;
                if reap {
                    ctx.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
                    drop(h.conns.remove(&id).expect("found above").close(false));
                }
                !reap
            }
            Err(RecvError::Wire(err)) => {
                wire_error(&ctx.counters, conn, &err);
                false
            }
            Err(RecvError::Closed | RecvError::Io(_)) => {
                conn.read_closed = true;
                false
            }
        };
        shard.release(guard);
        if !stopping && ctx.stop.load(Ordering::Acquire) {
            // A Drain frame just stopped the server.
            wake_acceptor(ctx.addr);
        }
        if !reading {
            return;
        }
    }
}

/// One connection's writer: waits for replies in its outbox and writes
/// them; once the connection is closing, writes what is left and shuts
/// the socket down, which also ends the reader.
fn writer_loop(outbox: &Outbox) {
    let mut batch = Vec::new();
    loop {
        {
            let state = outbox.state.lock().unwrap_or_else(PoisonError::into_inner);
            let mut state = outbox
                .ready
                .wait_while(state, |s| s.bytes.is_empty() && !s.closing)
                .unwrap_or_else(PoisonError::into_inner);
            if state.bytes.is_empty() {
                break;
            }
            std::mem::swap(&mut state.bytes, &mut batch);
        }
        if (&outbox.stream).write_all(&batch).is_err() {
            let mut state = outbox.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.broken = true;
            state.bytes = Vec::new();
            break;
        }
        batch.clear();
    }
    // analyze:allow(discarded-result): a connection already gone needs no shutdown
    let _ = outbox.stream.shutdown(std::net::Shutdown::Both);
}

/// Replies on their way from a shard to one connection's writer.
struct Outbox {
    /// The connection's write side (the writer writes it; the shard
    /// shuts it down to cut a client off).
    stream: TcpStream,
    state: Mutex<OutboxState>,
    /// Signalled when bytes arrive or the connection starts closing.
    ready: Condvar,
}

#[derive(Default)]
struct OutboxState {
    /// Encoded replies the writer has not taken yet (at most
    /// [`OUTBOX_LIMIT`]).
    bytes: Vec<u8>,
    /// No more replies will come: write what is left, then shut down.
    closing: bool,
    /// A write failed; the writer shut the socket down and left.
    broken: bool,
}

/// Where one request's status goes once it is terminal.
#[derive(Clone, Copy)]
enum Slot {
    /// Its own [`Frame::RouteReply`] to request `.0`.
    Route(u64),
    /// Item `index` of the connection's open batch `batch`.
    Item { batch: u64, index: usize },
}

/// One request decoded off a connection, waiting for an engine slot.
struct Pending {
    conn: u64,
    slot: Slot,
    deadline: Option<Instant>,
    perm: Permutation,
}

/// A [`Frame::RouteBatch`] whose reply waits for its last item.
struct OpenBatch {
    /// One reply item per batch item, in item order.
    items: Vec<ReplyItem>,
    /// Items with no status yet.
    open: usize,
}

/// One client connection, kept by exactly one shard.
struct Conn {
    /// Shared with the writer thread (the reader holds its own clone
    /// of the socket).
    outbox: Arc<Outbox>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    /// Encoded replies not yet handed to the writer.
    wbuf: Vec<u8>,
    /// Requests taken for the engine, neither refused nor completed
    /// yet.
    inflight: usize,
    /// Batches with items still open, by the connection's batch number.
    batches: HashMap<u64, OpenBatch>,
    /// The number the next batch gets.
    next_batch: u64,
    /// The last reply hand-off (or the accept): a read timeout reaps
    /// the connection only when this is a read timeout old too.
    last_write: Instant,
    /// Read side finished (EOF or error): close once quiescent.
    read_closed: bool,
    /// Protocol violation: close as soon as the error reply is out.
    poisoned: bool,
}

impl Conn {
    fn push_frame(&mut self, frame: &Frame) {
        frame.encode(&mut self.wbuf);
    }

    /// Records one request's terminal status: its own `RouteReply`, or
    /// its batch item and, after the batch's last, the batch's one
    /// `RouteBatchReply`. Counts replies per item.
    fn answer(
        &mut self,
        counters: &ServerCounters,
        slot: Slot,
        status: Status,
        tier: Option<u8>,
        latency_ns: u64,
    ) {
        let (batch, index) = match slot {
            Slot::Route(req_id) => {
                counters.replies.fetch_add(1, Ordering::Relaxed);
                return self.push_frame(&Frame::RouteReply {
                    req_id,
                    status,
                    tier,
                    latency_ns,
                });
            }
            Slot::Item { batch, index } => (batch, index),
        };
        let Some(open) = self.batches.get_mut(&batch) else { return };
        let item = &mut open.items[index];
        (item.status, item.tier, item.latency_ns) = (status, tier, latency_ns);
        open.open -= 1;
        if open.open == 0 {
            let items = self.batches.remove(&batch).expect("found above").items;
            counters.replies.fetch_add(items.len() as u64, Ordering::Relaxed);
            self.push_frame(&Frame::RouteBatchReply { items });
        }
    }

    /// Answers a request that never reached (or never left) the engine.
    fn refuse(&mut self, counters: &ServerCounters, slot: Slot, status: Status) {
        self.answer(counters, slot, status, None, 0);
    }

    /// Moves `wbuf` into the outbox, and onto `wake` when the outbox
    /// was empty (its writer may be waiting; a writer with bytes left
    /// is awake or has a wake coming). Returns false, dropping the
    /// bytes, when the connection must be cut: its writer failed, or
    /// the client is [`OUTBOX_LIMIT`] behind.
    fn post(&mut self, wake: &mut Vec<Arc<Outbox>>) -> bool {
        let mut state = self.outbox.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.broken || state.bytes.len() + self.wbuf.len() > OUTBOX_LIMIT {
            self.wbuf.clear();
            return false;
        }
        if state.bytes.is_empty() {
            std::mem::swap(&mut state.bytes, &mut self.wbuf);
            wake.push(Arc::clone(&self.outbox));
        } else {
            state.bytes.extend_from_slice(&self.wbuf);
            self.wbuf.clear();
        }
        drop(state);
        self.last_write = Instant::now();
        true
    }

    /// Lets the writer finish what the outbox holds and then shut the
    /// socket down, which unblocks the reader (it then finds no
    /// connection and exits). With `cut`, shuts the socket down at
    /// once instead, dropping unwritten replies. Returns the reader and
    /// writer for the caller to join (with no shard lock held) or
    /// detach.
    fn close(self, cut: bool) -> [JoinHandle<()>; 2] {
        if cut {
            // analyze:allow(discarded-result): a connection already gone needs no shutdown
            let _ = self.outbox.stream.shutdown(std::net::Shutdown::Both);
        }
        self.outbox.state.lock().unwrap_or_else(PoisonError::into_inner).closing = true;
        self.outbox.ready.notify_one();
        [self.reader, self.writer]
    }
}

/// Maps an engine outcome to its wire status + tier code.
fn classify(result: &Result<Tier, EngineError>) -> (Status, Option<u8>) {
    match result {
        Ok(tier) => (Status::Ok, Some(tier_code(*tier))),
        Err(EngineError::DeadlineExceeded) => (Status::Shed, None),
        Err(EngineError::BreakerOpen) => (Status::BreakerOpen, None),
        Err(EngineError::Canceled) => (Status::Draining, None),
        Err(EngineError::Plan(_)) => (Status::PlanError, None),
        Err(_) => (Status::Failed, None),
    }
}

/// The per-tenant ledger rows for a StatsReply, from a live snapshot.
fn stats_rows(engine: &Engine) -> Vec<TenantRow> {
    engine.stats().tenants.into_iter().map(TenantRow::from).collect()
}

/// What a shard's drivers read without taking its lock.
struct HandlerCtx {
    index: usize,
    /// The listener's address, for waking the acceptor on Drain.
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    config: ServeConfig,
}

/// One handler shard: its connections and tenant scheduler under one
/// lock, driven by the threads whose events concern it (its readers,
/// the acceptor, the engine workers finishing its requests, and the
/// drain).
struct Shard {
    ctx: HandlerCtx,
    handler: Mutex<Handler>,
    /// Signalled by the completion that leaves a draining shard with
    /// nothing queued or in the engine.
    quiet: Condvar,
}

impl Shard {
    /// Locks the shard's state, recovering from poison: a driver that
    /// panicked under the lock leaves counts and queues the others and
    /// the drain still have to walk.
    fn lock(&self) -> MutexGuard<'_, Handler> {
        self.handler.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A finished request, on the engine worker that finished it (or
    /// the thread that canceled it): answers its slot, hands the freed
    /// engine slot to the backlog, and hands the reply to the writer.
    fn complete(self: &Arc<Self>, conn: u64, slot: Slot, outcome: &RequestOutcome) {
        let mut guard = self.lock();
        let h = &mut *guard;
        h.in_engine -= 1;
        // Conn already gone: the reply is dropped, but the engine
        // still booked the tenant's terminal state — conservation
        // survives killed connections.
        if let Some(c) = h.conns.get_mut(&conn) {
            c.inflight -= 1;
            let (status, tier) = classify(&outcome.result);
            let latency_ns = u64::try_from(outcome.latency.as_nanos()).unwrap_or(u64::MAX);
            c.answer(&self.ctx.counters, slot, status, tier, latency_ns);
            h.touched.push(conn);
        }
        self.release(guard);
    }

    /// Ends a driver's turn: takes the next run off the scheduler and
    /// the replies to hand over, releases the lock, then wakes the
    /// writers and submits the run — so no wake-up and no engine queue
    /// lock is ever taken under the shard lock. A run the engine
    /// refuses is answered under the lock again and the turn goes on,
    /// as it does after a full run: every queued request is either
    /// admitted or answered, or waits for a completion of this shard.
    fn release<'a>(self: &'a Arc<Self>, mut guard: MutexGuard<'a, Handler>) {
        loop {
            let h = &mut *guard;
            let (run, keys) = h.take_run(self);
            let wake = h.flush_and_close(&self.ctx.counters);
            if h.draining && h.quiescent() {
                self.quiet.notify_all();
            }
            drop(guard);
            wake_writers(wake);
            let full = keys.len() == PUMP_RUN;
            if run.is_empty() {
                return;
            }
            match self.ctx.engine.try_submit_all_to(run) {
                Ok(()) if !full => return,
                Ok(()) => guard = self.lock(),
                Err((err, tail)) => {
                    guard = self.lock();
                    guard.refuse_run(&self.ctx.counters, err, keys, tail.len());
                }
            }
        }
    }

    /// Drains the shard: waits until nothing is queued or in the
    /// engine, or until `drain_grace` after `started`; drops the
    /// backlog left past the grace (it never reached the engine); and
    /// closes every connection. Returns the connections' readers and
    /// writers, to be joined once the lock is released.
    fn drain(&self, started: Instant) -> Vec<JoinHandle<()>> {
        let mut h = self.lock();
        h.draining = true;
        while !h.quiescent() {
            let left = self.ctx.config.drain_grace.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            h = self.quiet.wait_timeout(h, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        drop(h.sched.drain_all());
        let counters = &self.ctx.counters;
        h.conns
            .drain()
            .flat_map(|(_, conn)| {
                counters.closed.fetch_add(1, Ordering::Relaxed);
                conn.close(false)
            })
            .collect()
    }
}

/// One shard's state, behind [`Shard::handler`].
struct Handler {
    conns: HashMap<u64, Conn>,
    sched: DrrScheduler<Pending>,
    next_conn: u64,
    /// Most requests this shard may have in the engine: the shares add
    /// up to no more than the engine's queue bound.
    share: usize,
    /// Requests taken for the engine, neither refused nor completed
    /// yet, whether or not their connection is still here.
    in_engine: usize,
    /// Connections with replies or a state change not yet seen by
    /// [`Handler::flush_and_close`] (repeats are harmless).
    touched: Vec<u64>,
    /// The server is draining this shard: completions signal `quiet`.
    draining: bool,
}

impl Handler {
    /// Nothing waits in the scheduler and nothing is in the engine.
    fn quiescent(&self) -> bool {
        self.sched.is_empty() && self.in_engine == 0
    }

    /// Takes a new connection and starts its reader and writer.
    fn adopt(&mut self, shard: &Arc<Shard>, stream: TcpStream) {
        let ctx = &shard.ctx;
        let id = self.next_conn;
        self.next_conn += 1;
        let timeout =
            (!ctx.config.read_timeout.is_zero()).then_some(ctx.config.read_timeout);
        let outbox = Arc::new(Outbox {
            stream,
            state: Mutex::new(OutboxState::default()),
            ready: Condvar::new(),
        });
        let name = |role: &str| format!("benes-serve-{role}-{}.{id}", ctx.index);
        let reader = outbox.stream.try_clone().and_then(|rd| {
            // Both timeouts are socket options, shared by the two
            // handles: the reader's reads and the writer's writes.
            rd.set_read_timeout(timeout)?;
            rd.set_write_timeout(timeout)?;
            let shard = Arc::clone(shard);
            // The reader's first event waits for this lock, so it finds
            // the connection inserted below.
            std::thread::Builder::new()
                .name(name("rd"))
                .spawn(move || reader_loop(&shard, id, Client::from_stream(rd)))
        });
        let Ok(reader) = reader else {
            // No reader, no connection: out of threads or descriptors.
            ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::Builder::new().name(name("wr")).spawn(move || writer_loop(&outbox))
        };
        let Ok(writer) = writer else {
            // The reader exits once the socket is shut down.
            // analyze:allow(discarded-result): a connection already gone needs no shutdown
            let _ = outbox.stream.shutdown(std::net::Shutdown::Both);
            ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.conns.insert(
            id,
            Conn {
                outbox,
                reader,
                writer,
                wbuf: Vec::new(),
                inflight: 0,
                batches: HashMap::new(),
                next_batch: 0,
                last_write: Instant::now(),
                read_closed: false,
                poisoned: false,
            },
        );
    }

    /// Takes the next run off the scheduler: at most [`PUMP_RUN`]
    /// requests, and no more than fit in this shard's share of the
    /// engine queue, with the `(connection, slot)` of each. They count
    /// as in the engine from here on, so their completions, which may
    /// run before the submission returns, find the counts raised.
    fn take_run(&mut self, shard: &Arc<Shard>) -> (Vec<Submission>, Vec<(u64, Slot)>) {
        let room = (self.share - self.in_engine).min(PUMP_RUN);
        let (mut run, mut keys) = (Vec::new(), Vec::new());
        while run.len() < room {
            let Some((tenant, _, Pending { conn, slot, deadline, perm })) =
                self.sched.dequeue()
            else {
                break;
            };
            if let Some(c) = self.conns.get_mut(&conn) {
                c.inflight += 1;
            }
            keys.push((conn, slot));
            let shard = Arc::clone(shard);
            let done = Completion::new(move |outcome| shard.complete(conn, slot, &outcome));
            run.push((perm, SubmitOpts { deadline, tenant: Some(tenant) }, done));
        }
        self.in_engine += run.len();
        (run, keys)
    }

    /// Answers the last `refused` requests of a run the engine turned
    /// away. The shares keep the shards' admissions within the bound,
    /// so a full queue means requests submitted around the server
    /// (through `Server::engine`): they are answered Rejected. A
    /// shutting-down engine refuses everything still queued as
    /// Draining.
    fn refuse_run(
        &mut self,
        counters: &ServerCounters,
        err: SubmitError,
        mut keys: Vec<(u64, Slot)>,
        refused: usize,
    ) {
        self.in_engine -= refused;
        let tail = keys.split_off(keys.len() - refused);
        let (status, queued) = match err {
            SubmitError::QueueFull { .. } => (Status::Rejected, Vec::new()),
            _ => (Status::Draining, self.sched.drain_all()),
        };
        for (id, slot) in tail {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.inflight -= 1;
                conn.refuse(counters, slot, status);
                self.touched.push(id);
            }
        }
        for (_, Pending { conn: id, slot, .. }) in queued {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.refuse(counters, slot, status);
                self.touched.push(id);
            }
        }
    }

    /// Hands each touched connection's pending replies to its outbox,
    /// then closes poisoned connections (after their error reply),
    /// EOF'd ones with nothing left in flight, and cuts those whose
    /// writer failed or fell [`OUTBOX_LIMIT`] behind. Returns the
    /// outboxes whose writers to wake once the shard lock is released
    /// ([`wake_writers`]), so no writer wakes only to block on it.
    #[must_use]
    fn flush_and_close(&mut self, counters: &ServerCounters) -> Vec<Arc<Outbox>> {
        let mut wake = Vec::new();
        while let Some(id) = self.touched.pop() {
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            let cut = !conn.wbuf.is_empty() && !conn.post(&mut wake);
            if cut || conn.poisoned || (conn.read_closed && conn.inflight == 0) {
                counters.closed.fetch_add(1, Ordering::Relaxed);
                // Detached: the threads end with the socket.
                drop(self.conns.remove(&id).expect("found above").close(cut));
            }
        }
        wake
    }
}

/// Wakes the writers of outboxes [`Handler::flush_and_close`] filled.
fn wake_writers(outboxes: Vec<Arc<Outbox>>) {
    for outbox in outboxes {
        outbox.ready.notify_one();
    }
}

/// Answers a protocol violation with one `ErrorReply` and poisons the
/// connection (closed after the reply flushes).
fn wire_error(counters: &ServerCounters, conn: &mut Conn, err: &WireError) {
    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    conn.push_frame(&Frame::ErrorReply {
        req_id: 0,
        code: Status::BadRequest,
        message: err.to_string(),
    });
    conn.poisoned = true;
}

/// Processes one decoded frame from connection `id`; `rows` is the
/// ledger snapshot that Stats and Drain answer with.
fn handle_frame(
    ctx: &HandlerCtx,
    conn: &mut Conn,
    id: u64,
    frame: Frame,
    stopping: bool,
    rows: &[TenantRow],
    sched: &mut DrrScheduler<Pending>,
) {
    match frame {
        Frame::Route { req_id, tenant, deadline_ms, destinations } => {
            let request = (Slot::Route(req_id), deadline_ms, destinations);
            queue_requests(ctx, conn, id, sched, stopping, tenant, [request]);
        }
        Frame::RouteBatch { tenant, items } => {
            let batch = conn.next_batch;
            conn.next_batch += 1;
            let replies = items
                .iter()
                .map(|i| ReplyItem {
                    req_id: i.req_id,
                    status: Status::Failed,
                    tier: None,
                    latency_ns: 0,
                })
                .collect();
            if items.is_empty() {
                return conn.push_frame(&Frame::RouteBatchReply { items: replies });
            }
            conn.batches.insert(batch, OpenBatch { items: replies, open: items.len() });
            let requests = items.into_iter().enumerate().map(|(index, i)| {
                let slot = Slot::Item { batch, index };
                (slot, i.deadline_ms, i.destinations)
            });
            queue_requests(ctx, conn, id, sched, stopping, tenant, requests);
        }
        Frame::Stats => {
            conn.push_frame(&Frame::StatsReply { rows: rows.to_vec() });
        }
        Frame::Drain => {
            if ctx.config.allow_drain {
                conn.push_frame(&Frame::StatsReply { rows: rows.to_vec() });
                // The reader wakes the acceptor once it lets the lock go.
                ctx.stop.store(true, Ordering::Release);
            } else {
                conn.push_frame(&Frame::ErrorReply {
                    req_id: 0,
                    code: Status::BadRequest,
                    message: "drain not allowed (start the server with --allow-drain)"
                        .into(),
                });
            }
        }
        // Server-to-client frames arriving at the server are protocol
        // violations.
        Frame::RouteReply { .. }
        | Frame::StatsReply { .. }
        | Frame::ErrorReply { .. }
        | Frame::RouteBatchReply { .. } => {
            wire_error(
                &ctx.counters,
                conn,
                &WireError::Malformed("client sent a server-only frame"),
            );
        }
    }
}

/// Queues requests — a `Route`, or a `RouteBatch`'s items — for the
/// engine, refusing each on the spot when it cannot go: `Draining`
/// while stopping, `BadRequest` for a non-permutation, `QuotaExceeded`
/// past its tenant's backlog quota.
fn queue_requests(
    ctx: &HandlerCtx,
    conn: &mut Conn,
    id: u64,
    sched: &mut DrrScheduler<Pending>,
    stopping: bool,
    tenant: u64,
    requests: impl IntoIterator<Item = (Slot, u32, Vec<u32>)>,
) {
    for (slot, deadline_ms, destinations) in requests {
        if stopping {
            conn.refuse(&ctx.counters, slot, Status::Draining);
            continue;
        }
        let cost = u32::try_from(destinations.len()).unwrap_or(u32::MAX);
        let Ok(perm) = Permutation::from_destinations(destinations) else {
            conn.refuse(&ctx.counters, slot, Status::BadRequest);
            continue;
        };
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        if let Err((_, refused)) =
            sched.enqueue(tenant, cost, Pending { conn: id, slot, deadline, perm })
        {
            conn.refuse(&ctx.counters, refused.slot, Status::QuotaExceeded);
        }
    }
}
