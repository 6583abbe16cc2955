//! The benes-serve server: blocking `std::net` connection handling in
//! which every thread waits in exactly one place, per-tenant DRR fair
//! scheduling in front of the engine's bounded admission, and graceful
//! drain wired to [`Engine::drain`].
//!
//! # Threads and where each one blocks
//!
//! * **acceptor** (`benes-serve-accept`) — a blocking `accept` on the
//!   listener. Each new connection goes round-robin to one handler,
//!   which owns it for its whole life.
//! * **reader** (`benes-serve-rd-*`, one per connection) — a blocking
//!   `read` whose `SO_RCVTIMEO` is [`ServeConfig::read_timeout`]. Every
//!   complete frame decoded from one read travels to the handler as
//!   one event; a read timeout travels as an idle event, which is how
//!   a silent connection gets reaped. At most `READER_CREDIT` (2) of one
//!   reader's events wait in the handler's channel; past that the
//!   reader waits for the handler (and, through TCP, so does its
//!   client), so a flooding connection cannot queue its frames ahead of
//!   everyone else's.
//! * **writer** (`benes-serve-wr-*`, one per connection) — a condvar
//!   wait on the connection's outbox, then a blocking `write` of
//!   everything queued in it. A client that stops reading blocks only
//!   its own writer: its unread replies pile up in the outbox until
//!   `OUTBOX_LIMIT` (4 MiB) or the write timeout (= read timeout) cuts the
//!   connection.
//! * **handler** (`benes-serve-{i}`, [`ServeConfig::threads`] of them)
//!   — a receive on one bounded channel that carries every event that
//!   can concern it: accepted connections, frames, closes and wire
//!   errors, idle reports, engine completions, and stop. After each
//!   wake it drains the channel, takes the outcomes the engine
//!   finished, pumps its DRR scheduler into
//!   [`Engine::try_submit_all_to`] (backpressure: it admits at most its
//!   share `max_queue_depth / threads` of the engine queue, so it never
//!   meets a full queue, and the rest waits for its own completions; an
//!   over-quota tenant is refused on the spot), and hands each
//!   connection's pending replies to its writer once. It never blocks
//!   anywhere else. The engine's workers finish a request by pushing
//!   its outcome onto the handler's done list and, unless a wake-up is
//!   already pending, sending a token into the same channel with
//!   `try_send` — so nothing polls a ticket, and no worker ever waits
//!   on a handler.
//!
//! A [`Frame::RouteBatch`] enters the scheduler one entry per item, so
//! cost, quota and fairness stay per item. The batch is answered once,
//! when its last item is terminal, and only the engine completion of
//! that last item wakes the handler.
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
//! self-connect; the acceptor stops accepting and sends every handler
//! a stop event. Handlers then refuse new Route frames with
//! [`Status::Draining`], finish pumping their backlog, wait out their
//! in-flight requests (bounded by a grace period), flush, and exit;
//! then the engine itself drains — every admitted request reaches a
//! terminal state, so per-tenant conservation holds through shutdown.

use std::collections::HashMap;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benes_engine::{
    Completion, DrainReport, Engine, EngineConfig, EngineError, RequestOutcome,
    SubmitError, SubmitOpts, Tier,
};
use benes_perm::Permutation;

use crate::client::{Client, RecvError};
use crate::proto::{tier_code, Frame, ReplyItem, Status, TenantRow, WireError};
use crate::tenant::DrrScheduler;

/// Capacity of each handler's event channel. A full channel blocks the
/// readers (and so, through TCP, the clients) until the handler, which
/// never blocks on anything else, catches up. Engine workers never wait
/// on it (see [`DoneList`]).
const EVENT_QUEUE: usize = 1024;

/// Most events one connection's reader may have waiting in its
/// handler's channel. The handler serves connections in the order
/// their events arrive, so this bounds how many of a flooding
/// connection's batches another connection's frames can queue behind.
const READER_CREDIT: usize = 2;

/// Events besides the readers' that can wait in a handler's channel:
/// one engine-completion token (workers send one only while none is
/// pending) and the stop.
const CONTROL_EVENTS: usize = 2;

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
    /// Handler threads; the acceptor deals connections to them
    /// round-robin (thread-per-core: defaults to the machine's
    /// available parallelism).
    pub threads: usize,
    /// The engine the server fronts. Its queue bound
    /// (`max_queue_depth`) must be at least `threads`: each handler
    /// admits at most `max_queue_depth / threads`.
    pub engine: EngineConfig,
    /// Reap a connection idle this long with nothing in flight. Also
    /// bounds how long a connection's writer may block on a client
    /// that does not read before the connection is cut.
    pub read_timeout: Duration,
    /// Max requests a tenant may have queued (per handler thread)
    /// before new ones are refused with [`Status::QuotaExceeded`].
    pub quota: usize,
    /// DRR quantum in cost units (one unit per destination word).
    pub quantum: u32,
    /// Whether a [`Frame::Drain`] from a client may stop the server.
    pub allow_drain: bool,
    /// How long a draining handler waits for its in-flight requests
    /// before abandoning them to [`Engine::drain`]'s cancel sweep.
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
    /// The acceptor first, then the handlers.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// acceptor and handler threads.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the engine's
    /// `max_queue_depth` is below `threads` (some handler would get no
    /// share of it); any I/O error from binding the listener or
    /// spawning a thread.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        let handlers = config.threads.max(1);
        let share = config.engine.max_queue_depth / handlers;
        if share == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the engine queue depth is below the handler thread count",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(config.engine.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let mut threads = Vec::new();
        let mut inboxes = Vec::new();
        for index in 0..handlers {
            let (tx, rx) = sync_channel(EVENT_QUEUE);
            inboxes.push(tx.clone());
            let handler = Handler {
                ctx: HandlerCtx {
                    index,
                    addr,
                    engine: Arc::clone(&engine),
                    stop: Arc::clone(&stop),
                    counters: Arc::clone(&counters),
                    config: config.clone(),
                    tx,
                    done: Arc::new(DoneList::default()),
                },
                conns: HashMap::new(),
                sched: DrrScheduler::new(config.quantum, config.quota),
                next_conn: 0,
                share,
                in_engine: 0,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("benes-serve-{index}"))
                    .spawn(move || handler.run(rx))?,
            );
        }
        let acceptor = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("benes-serve-accept".into())
                .spawn(move || accept_loop(&listener, &stop, &counters, &inboxes))?
        };
        threads.insert(0, acceptor);
        Ok(Self { engine, addr, stop, counters, threads })
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
    /// `allow_drain`, or a concurrent [`Server::shutdown`]), then
    /// drains the engine. Returns the engine's drain report.
    pub fn wait(mut self) -> DrainReport {
        self.join();
        self.engine.drain(Instant::now() + Duration::from_secs(5))
    }

    /// Stops the server: handlers finish their in-flight work (bounded
    /// by the drain grace), then the engine drains until `deadline`.
    pub fn shutdown(mut self, deadline: Instant) -> DrainReport {
        self.stop.store(true, Ordering::Release);
        wake_acceptor(self.addr);
        self.join();
        self.engine.drain(deadline)
    }

    fn join(&mut self) {
        for t in self.threads.drain(..) {
            // A panicked handler already lost its connections; the
            // engine drain that follows still resolves every request.
            // analyze:allow(discarded-result): thread panic leaves nothing to join
            let _ = t.join();
        }
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
/// next handler. Once the stop flag is up it stops accepting, tells
/// every handler to drain, and exits (dropping the listener).
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    counters: &ServerCounters,
    handlers: &[SyncSender<Event>],
) {
    let mut next = 0usize;
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            break;
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
        counters.accepted.fetch_add(1, Ordering::Relaxed);
        if handlers[next % handlers.len()].send(Event::Accepted(stream)).is_err() {
            break;
        }
        next = next.wrapping_add(1);
    }
    for h in handlers {
        // analyze:allow(discarded-result): an exited handler needs no stop
        let _ = h.send(Event::Stop);
    }
}

/// Everything that can wake a handler, on its one channel.
enum Event {
    /// A new connection from the acceptor.
    Accepted(TcpStream),
    /// Every complete frame one read of connection `.0` produced.
    Frames(u64, Vec<Frame>),
    /// Connection `.0` sent undecodable bytes (after its good frames).
    WireError(u64, WireError),
    /// Connection `.0`'s read side ended (EOF or socket error).
    Closed(u64),
    /// Connection `.0` sent nothing for a whole read timeout.
    Idle(u64),
    /// The engine finished requests: their outcomes wait on the
    /// handler's [`DoneList`].
    Completed,
    /// The server is stopping: drain.
    Stop,
}

/// The events one handler pass handles: `first`, then what the channel
/// holds, `bound` at most. Each handled reader event returns a credit,
/// so without a bound a reader as fast as the handler would keep the
/// pass from ever reaching done, pump and flush; events past the bound
/// wait for the next pass.
fn pass<'a>(
    first: Option<Event>,
    rx: &'a Receiver<Event>,
    bound: usize,
) -> impl Iterator<Item = Event> + 'a {
    first.into_iter().chain(std::iter::from_fn(|| rx.try_recv().ok())).take(bound)
}

/// One connection's reader: blocks in `read`, forwards what it decoded.
/// Each event first takes a token from `credit`, which the handler
/// returns once it has handled the event; the handler drops the other
/// end when it lets the connection go, which ends a reader waiting
/// for a token.
fn reader_loop(id: u64, mut wire: Client, credit: &SyncSender<()>, tx: &SyncSender<Event>) {
    let mut frames = Vec::new();
    loop {
        let event = match wire.recv_batch(&mut frames) {
            Ok(()) => Event::Frames(id, std::mem::take(&mut frames)),
            Err(RecvError::Timeout) => Event::Idle(id),
            Err(RecvError::Wire(err)) => Event::WireError(id, err),
            Err(RecvError::Closed | RecvError::Io(_)) => Event::Closed(id),
        };
        let last = matches!(event, Event::WireError(..) | Event::Closed(_));
        if credit.send(()).is_err() || tx.send(event).is_err() || last {
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

/// Replies on their way from a handler to one connection's writer.
struct Outbox {
    /// The connection's write side (the writer writes it; the handler
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
#[derive(Clone)]
enum Slot {
    /// Its own [`Frame::RouteReply`] to request `.0`.
    Route(u64),
    /// Item `index` of the connection's open batch `batch`, whose items
    /// not yet terminal `unfinished` counts.
    Item { batch: u64, index: usize, unfinished: Arc<AtomicUsize> },
}

impl Slot {
    /// Counts the request terminal; true for a lone `Route` or a
    /// batch's last item.
    fn finish(&self) -> bool {
        match self {
            Self::Route(_) => true,
            Self::Item { unfinished, .. } => unfinished.fetch_sub(1, Ordering::AcqRel) == 1,
        }
    }
}

/// One finished request, handed from an engine worker to its handler.
struct Done {
    conn: u64,
    slot: Slot,
    outcome: RequestOutcome,
}

/// Engine outcomes for one handler's requests. A worker finishing a
/// request pushes onto `outcomes` under a short lock and, for a batch's
/// last item or while `backlogged`, sends the handler a
/// [`Event::Completed`] token — only when `wake_pending` was clear,
/// and with `try_send`: a channel full of reader events is about to
/// wake the handler anyway, so the worker never waits. The list holds
/// at most as many entries as its handler has requests in flight.
#[derive(Default)]
struct DoneList {
    outcomes: Mutex<Vec<Done>>,
    /// Set by the worker that sends a token, cleared by the handler
    /// just before it takes the list.
    wake_pending: AtomicBool,
    /// Requests wait in the handler's scheduler for room in its share
    /// of the engine queue, which every finished request of its own
    /// frees: each one wakes the handler.
    backlogged: AtomicBool,
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

/// One client connection, owned by exactly one handler thread.
struct Conn {
    /// Shared with the writer thread (the reader holds its own clone
    /// of the socket).
    outbox: Arc<Outbox>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    /// Tokens of the reader's events in the channel ([`READER_CREDIT`]
    /// at most); one is returned per event handled.
    credit: Receiver<()>,
    /// Encoded replies not yet handed to the writer.
    wbuf: Vec<u8>,
    /// Requests the engine admitted and has not finished.
    inflight: usize,
    /// Batches with items still open, by the connection's batch number.
    batches: HashMap<u64, OpenBatch>,
    /// The number the next batch gets.
    next_batch: u64,
    /// The last reply hand-off (or the accept): an idle report reaps
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
        slot: &Slot,
        status: Status,
        tier: Option<u8>,
        latency_ns: u64,
    ) {
        let (batch, index) = match *slot {
            Slot::Route(req_id) => {
                counters.replies.fetch_add(1, Ordering::Relaxed);
                return self.push_frame(&Frame::RouteReply {
                    req_id,
                    status,
                    tier,
                    latency_ns,
                });
            }
            Slot::Item { batch, index, .. } => (batch, index),
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
    fn refuse(&mut self, counters: &ServerCounters, slot: &Slot, status: Status) {
        slot.finish();
        self.answer(counters, slot, status, None, 0);
    }

    /// Moves `wbuf` into the outbox and wakes the writer. Returns
    /// false, dropping the bytes, when the connection must be cut: its
    /// writer failed, or the client is [`OUTBOX_LIMIT`] behind.
    fn post(&mut self) -> bool {
        let mut state = self.outbox.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.broken || state.bytes.len() + self.wbuf.len() > OUTBOX_LIMIT {
            self.wbuf.clear();
            return false;
        }
        if state.bytes.is_empty() {
            std::mem::swap(&mut state.bytes, &mut self.wbuf);
        } else {
            state.bytes.extend_from_slice(&self.wbuf);
            self.wbuf.clear();
        }
        drop(state);
        self.outbox.ready.notify_one();
        self.last_write = Instant::now();
        true
    }

    /// Lets the writer finish what the outbox holds and then shut the
    /// socket down, which unblocks the reader (its `Closed` report
    /// finds no connection and is ignored). With `cut`, shuts the
    /// socket down at once instead, dropping unwritten replies.
    /// Returns the reader and writer for the caller to join or detach.
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

/// Everything one handler thread holds a handle to.
struct HandlerCtx {
    index: usize,
    /// The listener's address, for waking the acceptor on Drain.
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    config: ServeConfig,
    /// The sending side of this handler's own channel (for readers and
    /// engine completions).
    tx: SyncSender<Event>,
    /// Where engine workers leave this handler's outcomes.
    done: Arc<DoneList>,
}

/// One handler thread: its connections and its tenant scheduler.
struct Handler {
    ctx: HandlerCtx,
    conns: HashMap<u64, Conn>,
    sched: DrrScheduler<Pending>,
    next_conn: u64,
    /// Most requests this handler may have in the engine: the shares
    /// add up to no more than the engine's queue bound.
    share: usize,
    /// Requests admitted and not yet taken off the done list, whether
    /// or not their connection is still here.
    in_engine: usize,
}

impl Handler {
    fn run(mut self, rx: Receiver<Event>) {
        let mut drain_started: Option<Instant> = None;
        loop {
            let first = match drain_started {
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                // The one timed wait: the drain grace.
                Some(started) => rx.recv_timeout(
                    self.ctx.config.drain_grace.saturating_sub(started.elapsed()),
                ),
            };
            let first = match first {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let stopping = self.ctx.stop.load(Ordering::Acquire);
            if stopping && drain_started.is_none() {
                drain_started = Some(Instant::now());
            }
            let bound = READER_CREDIT * self.conns.len() + CONTROL_EVENTS;
            for event in pass(first, &rx, bound) {
                self.handle(event, stopping);
            }
            self.take_done();
            self.pump();
            self.flush_and_close();

            // Drain exit: backlog refused/pumped, in-flight resolved
            // (or the grace expired), replies flushed.
            if let Some(started) = drain_started {
                if (self.sched.is_empty() && self.in_engine == 0)
                    || started.elapsed() >= self.ctx.config.drain_grace
                {
                    let threads: Vec<JoinHandle<()>> = self
                        .conns
                        .drain()
                        .flat_map(|(_, conn)| {
                            self.ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
                            conn.close(false)
                        })
                        .collect();
                    // Readers blocked on a full channel wake with an
                    // error once no one can receive. Writers finish
                    // the last replies, bounded by the write timeout.
                    drop(rx);
                    for t in threads {
                        // analyze:allow(discarded-result): thread panic leaves nothing to join
                        let _ = t.join();
                    }
                    return;
                }
            }
        }
    }

    fn handle(&mut self, event: Event, stopping: bool) {
        if let Event::Frames(id, _)
        | Event::WireError(id, _)
        | Event::Closed(id)
        | Event::Idle(id) = &event
        {
            if let Some(conn) = self.conns.get(id) {
                // analyze:allow(discarded-result): every reader event holds exactly one token
                let _ = conn.credit.try_recv();
            }
        }
        match event {
            Event::Accepted(stream) => self.adopt(stream),
            Event::Frames(id, frames) => {
                for frame in frames {
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    if conn.poisoned {
                        return;
                    }
                    handle_frame(&self.ctx, conn, id, frame, stopping, &mut self.sched);
                }
            }
            Event::WireError(id, err) => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    wire_error(&self.ctx.counters, conn, &err);
                }
            }
            Event::Closed(id) => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.read_closed = true;
                }
            }
            Event::Idle(id) => {
                let reap = self.conns.get(&id).is_some_and(|c| {
                    !stopping
                        && c.inflight == 0
                        && c.wbuf.is_empty()
                        && c.last_write.elapsed() >= self.ctx.config.read_timeout
                });
                if reap {
                    self.ctx.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    self.ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
                    self.conns.remove(&id).expect("checked above").close(false);
                }
            }
            // The outcomes are taken after the channel is drained.
            Event::Completed => {}
            // The stop flag is already up; the caller reads it.
            Event::Stop => {}
        }
    }

    /// Turns every outcome the engine finished into a reply.
    fn take_done(&mut self) {
        // Clear before taking: a worker pushing after the take sees the
        // flag down and sends a fresh token.
        self.ctx.done.wake_pending.store(false, Ordering::SeqCst);
        let done = std::mem::take(
            &mut *self.ctx.done.outcomes.lock().unwrap_or_else(PoisonError::into_inner),
        );
        self.in_engine -= done.len();
        for Done { conn, slot, outcome } in done {
            // Conn already gone: the reply is dropped, but the engine
            // still booked the tenant's terminal state — conservation
            // survives killed connections.
            let Some(conn) = self.conns.get_mut(&conn) else { continue };
            conn.inflight -= 1;
            let (status, tier) = classify(&outcome.result);
            let latency_ns = u64::try_from(outcome.latency.as_nanos()).unwrap_or(u64::MAX);
            conn.answer(&self.ctx.counters, &slot, status, tier, latency_ns);
        }
    }

    /// Takes ownership of a new connection and starts its reader and
    /// writer.
    fn adopt(&mut self, stream: TcpStream) {
        let id = self.next_conn;
        self.next_conn += 1;
        let timeout = (!self.ctx.config.read_timeout.is_zero())
            .then_some(self.ctx.config.read_timeout);
        let outbox = Arc::new(Outbox {
            stream,
            state: Mutex::new(OutboxState::default()),
            ready: Condvar::new(),
        });
        let name = |role: &str| format!("benes-serve-{role}-{}.{id}", self.ctx.index);
        let (credit_tx, credit) = sync_channel(READER_CREDIT);
        let reader = outbox.stream.try_clone().and_then(|rd| {
            // Both timeouts are socket options, shared by the two
            // handles: the reader's reads and the writer's writes.
            rd.set_read_timeout(timeout)?;
            rd.set_write_timeout(timeout)?;
            let tx = self.ctx.tx.clone();
            std::thread::Builder::new()
                .name(name("rd"))
                .spawn(move || reader_loop(id, Client::from_stream(rd), &credit_tx, &tx))
        });
        let Ok(reader) = reader else {
            // No reader, no connection: out of threads or descriptors.
            self.ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
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
            self.ctx.counters.closed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.conns.insert(
            id,
            Conn {
                outbox,
                reader,
                writer,
                credit,
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

    /// Pumps the scheduler into the engine, one admission per run of
    /// requests, until the scheduler is empty or this handler's share
    /// of the engine queue is full. Stopping at the share sets
    /// `backlogged`, so each of its requests that finishes wakes the
    /// handler to pump again.
    fn pump(&mut self) {
        loop {
            let room = self.share - self.in_engine;
            if room == 0 && !self.sched.is_empty() {
                if self.ctx.done.backlogged.swap(true, Ordering::SeqCst) {
                    return;
                }
                // From here every finished request wakes us; the ones
                // that finished before are on the list now.
                self.take_done();
                continue;
            }
            let (mut run, mut keys) = (Vec::new(), Vec::new());
            while run.len() < room.min(PUMP_RUN) {
                let Some((tenant, _, Pending { conn, slot, deadline, perm })) =
                    self.sched.dequeue()
                else {
                    break;
                };
                keys.push((conn, slot.clone()));
                let (list, tx) = (Arc::clone(&self.ctx.done), self.ctx.tx.clone());
                let done = Completion::new(move |outcome| {
                    // Counted under the list's lock: the wake of a
                    // batch's last item finds every item on the list.
                    let mut outcomes =
                        list.outcomes.lock().unwrap_or_else(PoisonError::into_inner);
                    let wake = slot.finish() | list.backlogged.load(Ordering::SeqCst);
                    outcomes.push(Done { conn, slot, outcome });
                    drop(outcomes);
                    if wake && !list.wake_pending.swap(true, Ordering::SeqCst) {
                        // Full: queued events wake the handler, which
                        // takes the list after draining them.
                        // Disconnected: the handler exited; the engine
                        // booked the outcome.
                        // analyze:allow(discarded-result): see above
                        let _ = tx.try_send(Event::Completed);
                    }
                });
                run.push((perm, SubmitOpts { deadline, tenant: Some(tenant) }, done));
            }
            if run.is_empty() {
                self.ctx.done.backlogged.store(false, Ordering::SeqCst);
                return;
            }
            let refused = self.ctx.engine.try_submit_all_to(run).err();
            let admitted = keys.len() - refused.as_ref().map_or(0, |(_, tail)| tail.len());
            self.in_engine += admitted;
            let mut keys = keys.into_iter();
            for (conn, _) in keys.by_ref().take(admitted) {
                if let Some(conn) = self.conns.get_mut(&conn) {
                    conn.inflight += 1;
                }
            }
            let Some((err, _)) = refused else { continue };
            // The shares keep the handlers' admissions within the bound,
            // so a full queue means requests submitted around the server
            // (through `Server::engine`): the refused run is answered
            // Rejected. A shutting-down engine refuses everything still
            // queued as Draining.
            let (status, queued) = match err {
                SubmitError::QueueFull { .. } => (Status::Rejected, Vec::new()),
                _ => (Status::Draining, self.sched.drain_all()),
            };
            for (conn, slot) in
                keys.chain(queued.into_iter().map(|(_, p)| (p.conn, p.slot)))
            {
                if let Some(conn) = self.conns.get_mut(&conn) {
                    conn.refuse(&self.ctx.counters, &slot, status);
                }
            }
            // A refusal can finish a batch whose other items the engine
            // finished without waking us.
            self.take_done();
        }
    }

    /// Hands each connection's pending replies to its writer, then
    /// closes poisoned connections (after their error reply), EOF'd
    /// ones with nothing left in flight, and cuts those whose writer
    /// failed or fell [`OUTBOX_LIMIT`] behind.
    fn flush_and_close(&mut self) {
        let counters = &self.ctx.counters;
        let mut gone = Vec::new();
        for (id, conn) in &mut self.conns {
            let cut = !conn.wbuf.is_empty() && !conn.post();
            if cut || conn.poisoned || (conn.read_closed && conn.inflight == 0) {
                gone.push((*id, cut));
            }
        }
        for (id, cut) in gone {
            counters.closed.fetch_add(1, Ordering::Relaxed);
            // Detached: the threads end with the socket.
            drop(self.conns.remove(&id).expect("listed above").close(cut));
        }
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

/// Processes one decoded frame from connection `id`.
fn handle_frame(
    ctx: &HandlerCtx,
    conn: &mut Conn,
    id: u64,
    frame: Frame,
    stopping: bool,
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
            let unfinished = Arc::new(AtomicUsize::new(items.len()));
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
                let slot = Slot::Item { batch, index, unfinished: Arc::clone(&unfinished) };
                (slot, i.deadline_ms, i.destinations)
            });
            queue_requests(ctx, conn, id, sched, stopping, tenant, requests);
        }
        Frame::Stats => {
            conn.push_frame(&Frame::StatsReply { rows: stats_rows(&ctx.engine) });
        }
        Frame::Drain => {
            if ctx.config.allow_drain {
                conn.push_frame(&Frame::StatsReply { rows: stats_rows(&ctx.engine) });
                ctx.stop.store(true, Ordering::Release);
                wake_acceptor(ctx.addr);
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
            conn.refuse(&ctx.counters, &slot, Status::Draining);
            continue;
        }
        let cost = u32::try_from(destinations.len()).unwrap_or(u32::MAX);
        let Ok(perm) = Permutation::from_destinations(destinations) else {
            conn.refuse(&ctx.counters, &slot, Status::BadRequest);
            continue;
        };
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        if let Err((_, refused)) =
            sched.enqueue(tenant, cost, Pending { conn: id, slot, deadline, perm })
        {
            conn.refuse(&ctx.counters, &refused.slot, Status::QuotaExceeded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_ends_at_its_bound_while_a_reader_keeps_refilling() {
        let (tx, rx) = sync_channel(EVENT_QUEUE);
        for _ in 0..READER_CREDIT {
            tx.send(Event::Idle(0)).unwrap();
        }
        tx.send(Event::Completed).unwrap();
        let bound = READER_CREDIT + CONTROL_EVENTS;
        let first = rx.recv().ok();
        // Like a reader whose credit comes back with each handled
        // event: every event handled queues another.
        let handled = pass(first, &rx, bound)
            .take(100)
            .inspect(|_| tx.send(Event::Idle(0)).unwrap())
            .count();
        assert_eq!(handled, bound);
        assert!(rx.try_recv().is_ok(), "the refills wait for the next pass");
    }
}
