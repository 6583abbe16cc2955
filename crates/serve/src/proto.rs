//! The benes-serve wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! +----------------+---------+------+------------------------+
//! | length: u32 LE | version | type | type-specific payload  |
//! +----------------+---------+------+------------------------+
//! ```
//!
//! where `length` counts everything *after* the length field (version
//! and type bytes included). All multi-byte integers are little-endian.
//! The decoder is incremental: [`decode`] returns `Ok(None)` for a
//! partial frame (read more bytes), `Ok(Some((frame, consumed)))` for a
//! complete one, and a typed [`WireError`] — never a panic — for
//! anything malformed: oversize length prefixes, unknown versions or
//! frame types, payloads shorter or longer than their declared fields.
//!
//! Frame types:
//!
//! | type | frame        | direction        | payload |
//! |------|--------------|------------------|---------|
//! | 1    | `Route`      | client → server  | req id u64, tenant u64, deadline-ms u32 (0 = none), len u32, destinations `len × u32` |
//! | 2    | `RouteReply` | server → client  | req id u64, status u8, tier u8 (255 = none), latency-ns u64 |
//! | 3    | `Stats`      | client → server  | empty |
//! | 4    | `StatsReply` | server → client  | tenant count u32, rows of 7 × u64 (tenant id + submitted/completed/failed/shed/canceled/rejected) |
//! | 5    | `Drain`      | client → server  | empty (honoured only when the server runs `--allow-drain`) |
//! | 6    | `ErrorReply` | server → client  | req id u64 (0 = not request-scoped), code u8, message len u16 + UTF-8 bytes |
//! | 7    | `RouteBatch` | client → server  | tenant u64, item count u32, then per item: req id u64, deadline-ms u32, len u32, destinations `len × u32` |
//! | 8    | `RouteBatchReply` | server → client | item count u32, then per item: req id u64, status u8, tier u8, latency-ns u64 |
//!
//! One `RouteBatchReply` answers a whole `RouteBatch`, item by item in
//! order. A peer that predates types 7 and 8 rejects them with
//! [`WireError::UnknownType`], so the version byte stays 1.

use benes_engine::Tier;
use benes_obs::Ledger;

/// The protocol version this build speaks. A frame with any other
/// version byte decodes to [`WireError::UnknownVersion`].
pub const VERSION: u8 = 1;

/// Hard ceiling on the payload length prefix: `2^20` bytes covers a
/// `B(18)` permutation (1 MiB of destination words) with room to
/// spare, and caps what a hostile length prefix can make the server
/// buffer.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Per-request outcome codes carried in [`Frame::RouteReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Routed and verified.
    Ok = 0,
    /// Shed by the engine: the deadline passed before dequeue.
    Shed = 1,
    /// Refused at engine admission: the bounded queue was full.
    Rejected = 2,
    /// Refused at the server: the tenant was over its outstanding
    /// quota (the request never reached the engine).
    QuotaExceeded = 3,
    /// Shed by the engine: the order's circuit breaker was open.
    BreakerOpen = 4,
    /// The permutation cannot be planned (bad length / too large).
    PlanError = 5,
    /// Planned and executed but failed (misroute, faults, panic).
    Failed = 6,
    /// The server is draining; the request was not (or no longer)
    /// served.
    Draining = 7,
    /// The request itself was invalid (e.g. not a permutation).
    BadRequest = 8,
}

impl Status {
    /// All status codes, for tests and table-driven rendering.
    pub const ALL: [Self; 9] = [
        Self::Ok,
        Self::Shed,
        Self::Rejected,
        Self::QuotaExceeded,
        Self::BreakerOpen,
        Self::PlanError,
        Self::Failed,
        Self::Draining,
        Self::BadRequest,
    ];

    /// Decodes a status byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| *s as u8 == b)
    }

    /// A stable lowercase name for reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Shed => "shed",
            Self::Rejected => "rejected",
            Self::QuotaExceeded => "quota_exceeded",
            Self::BreakerOpen => "breaker_open",
            Self::PlanError => "plan_error",
            Self::Failed => "failed",
            Self::Draining => "draining",
            Self::BadRequest => "bad_request",
        }
    }
}

/// The stable wire code for a serving tier (engine [`Tier`] order).
/// This is the byte carried in [`Frame::RouteReply`]'s `tier` field.
#[must_use]
pub fn tier_code(tier: Tier) -> u8 {
    match tier {
        Tier::Cached => 0,
        Tier::SelfRoute => 1,
        Tier::OmegaBit => 2,
        Tier::Factored => 3,
        Tier::Waksman => 4,
    }
}

/// Decodes a wire tier byte back to the engine [`Tier`], or `None` for
/// bytes this build does not know (a newer peer's tier degrades to
/// "unknown", never to a wrong tier).
#[must_use]
pub fn tier_from_code(code: u8) -> Option<Tier> {
    match code {
        0 => Some(Tier::Cached),
        1 => Some(Tier::SelfRoute),
        2 => Some(Tier::OmegaBit),
        3 => Some(Tier::Factored),
        4 => Some(Tier::Waksman),
        _ => None,
    }
}

/// One tenant's ledger row in a [`Frame::StatsReply`]: the wire form
/// of a `(tenant, Ledger)` pair from [`benes_engine::EngineStats::tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantRow {
    /// The tenant namespace id.
    pub tenant: u64,
    /// Requests admitted into the engine.
    pub submitted: u64,
    /// Requests routed and verified.
    pub completed: u64,
    /// Requests that failed planning or execution.
    pub failed: u64,
    /// Requests shed (deadline or breaker).
    pub shed: u64,
    /// Requests canceled by drain.
    pub canceled: u64,
    /// Requests refused admission (queue full).
    pub rejected: u64,
}

impl TenantRow {
    /// The row's counts as a [`Ledger`].
    #[must_use]
    pub fn ledger(&self) -> Ledger {
        Ledger {
            submitted: self.submitted,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            canceled: self.canceled,
            rejected: self.rejected,
        }
    }

    /// [`Ledger::conserves_requests`] on the row (exact at quiescence).
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.ledger().conserves_requests()
    }
}

impl From<(u64, Ledger)> for TenantRow {
    fn from((tenant, l): (u64, Ledger)) -> Self {
        Self {
            tenant,
            submitted: l.submitted,
            completed: l.completed,
            failed: l.failed,
            shed: l.shed,
            canceled: l.canceled,
            rejected: l.rejected,
        }
    }
}

/// One unit of a [`Frame::RouteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// Client-chosen request id, echoed in the unit's reply item.
    pub req_id: u64,
    /// Relative deadline in milliseconds; 0 means no deadline.
    pub deadline_ms: u32,
    /// The unit's permutation as a destination vector.
    pub destinations: Vec<u32>,
}

/// One unit's outcome: the body of a [`Frame::RouteReply`] and one item
/// of a [`Frame::RouteBatchReply`] (the same 18 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyItem {
    /// The request id of the unit answered.
    pub req_id: u64,
    /// The outcome code.
    pub status: Status,
    /// The serving tier index (engine `Tier` order), when routed.
    pub tier: Option<u8>,
    /// Submit → terminal latency as the engine measured it.
    pub latency_ns: u64,
}

impl ReplyItem {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(self.status as u8);
        out.push(self.tier.unwrap_or(u8::MAX));
        out.extend_from_slice(&self.latency_ns.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let req_id = r.u64("reply: request id")?;
        let status = Status::from_u8(r.u8("reply: status")?)
            .ok_or(WireError::Malformed("reply: unknown status code"))?;
        let tier = match r.u8("reply: tier")? {
            u8::MAX => None,
            t => Some(t),
        };
        let latency_ns = r.u64("reply: latency")?;
        Ok(Self { req_id, status, tier, latency_ns })
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: route one permutation.
    Route {
        /// Client-chosen request id, echoed in the reply.
        req_id: u64,
        /// The tenant namespace the request bills against.
        tenant: u64,
        /// Relative deadline in milliseconds; 0 means no deadline.
        deadline_ms: u32,
        /// The permutation as a destination vector.
        destinations: Vec<u32>,
    },
    /// Server → client: outcome of one [`Frame::Route`].
    RouteReply {
        /// The request id from the matching `Route`.
        req_id: u64,
        /// The outcome code.
        status: Status,
        /// The serving tier index (engine `Tier` order), when routed.
        tier: Option<u8>,
        /// Submit → terminal latency as the engine measured it.
        latency_ns: u64,
    },
    /// Client → server: snapshot the per-tenant ledgers.
    Stats,
    /// Server → client: the per-tenant ledgers, sorted by tenant id.
    StatsReply {
        /// One row per tenant the engine has seen.
        rows: Vec<TenantRow>,
    },
    /// Client → server: ask the server to drain and exit (gated by
    /// `--allow-drain`).
    Drain,
    /// Server → client: a protocol-level error; the server closes the
    /// connection after sending one with `req_id == 0`.
    ErrorReply {
        /// The offending request id, or 0 when not request-scoped.
        req_id: u64,
        /// The status code classifying the error.
        code: Status,
        /// A short human-readable explanation.
        message: String,
    },
    /// Client → server: route many units of one tenant.
    RouteBatch {
        /// The tenant namespace every item bills against.
        tenant: u64,
        /// The units, each with its own request id and deadline.
        items: Vec<BatchItem>,
    },
    /// Server → client: one status per [`Frame::RouteBatch`] item, in
    /// item order.
    RouteBatchReply {
        /// The items' outcomes.
        items: Vec<ReplyItem>,
    },
}

const TYPE_ROUTE: u8 = 1;
const TYPE_ROUTE_REPLY: u8 = 2;
const TYPE_STATS: u8 = 3;
const TYPE_STATS_REPLY: u8 = 4;
const TYPE_DRAIN: u8 = 5;
const TYPE_ERROR_REPLY: u8 = 6;
const TYPE_ROUTE_BATCH: u8 = 7;
const TYPE_ROUTE_BATCH_REPLY: u8 = 8;

/// What a [`Frame::RouteBatch`]'s length prefix counts before its
/// items (version, type, tenant id, item count); each item adds
/// [`batch_item_len`]. A sender starts a new frame to stay within
/// [`MAX_FRAME_LEN`].
pub const ROUTE_BATCH_HEADER: usize = 2 + 8 + 4;

/// What one [`BatchItem`] of `len` destinations adds to a
/// [`Frame::RouteBatch`]'s length prefix.
#[must_use]
pub fn batch_item_len(len: usize) -> usize {
    16 + 4 * len
}

/// Typed decode failure. Every arm means "this connection is speaking
/// garbage" — the server answers with one [`Frame::ErrorReply`] and
/// closes; it never panics and never silently resynchronizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared payload length.
        len: u32,
    },
    /// The version byte is not [`VERSION`].
    UnknownVersion(u8),
    /// The type byte names no known frame.
    UnknownType(u8),
    /// The payload is shorter than its declared fields, longer than
    /// them, or internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversize { len } => {
                write!(f, "length prefix {len} exceeds the {MAX_FRAME_LEN}-byte frame cap")
            }
            Self::UnknownVersion(v) => {
                write!(f, "unknown protocol version {v} (this build speaks {VERSION})")
            }
            Self::UnknownType(t) => write!(f, "unknown frame type {t}"),
            Self::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked little-endian reader over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn destinations(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        let n = self.u32(what)? as usize;
        // The count must agree with the bytes actually present — a
        // hostile count cannot make us allocate past the frame.
        let bytes = n.checked_mul(4).ok_or(WireError::Malformed(what))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the frame's declared fields"))
        }
    }
}

impl Frame {
    /// Appends this frame's wire encoding (length prefix included) to
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]); // length back-patched below
        out.push(VERSION);
        match self {
            Self::Route { req_id, tenant, deadline_ms, destinations } => {
                out.push(TYPE_ROUTE);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                put_destinations(out, destinations);
            }
            Self::RouteReply { req_id, status, tier, latency_ns } => {
                out.push(TYPE_ROUTE_REPLY);
                ReplyItem {
                    req_id: *req_id,
                    status: *status,
                    tier: *tier,
                    latency_ns: *latency_ns,
                }
                .encode(out);
            }
            Self::Stats => out.push(TYPE_STATS),
            Self::StatsReply { rows } => {
                out.push(TYPE_STATS_REPLY);
                let n = u32::try_from(rows.len()).unwrap_or(u32::MAX);
                out.extend_from_slice(&n.to_le_bytes());
                for r in rows {
                    out.extend_from_slice(&r.tenant.to_le_bytes());
                    // The six counts in `Ledger::states` order, as tabled above.
                    for (_, v) in r.ledger().states() {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Self::Drain => out.push(TYPE_DRAIN),
            Self::ErrorReply { req_id, code, message } => {
                out.push(TYPE_ERROR_REPLY);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.push(*code as u8);
                let msg = message.as_bytes();
                let n = u16::try_from(msg.len()).unwrap_or(u16::MAX);
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(&msg[..usize::from(n)]);
            }
            Self::RouteBatch { tenant, items } => {
                out.push(TYPE_ROUTE_BATCH);
                out.extend_from_slice(&tenant.to_le_bytes());
                put_count(out, items.len());
                for item in items {
                    out.extend_from_slice(&item.req_id.to_le_bytes());
                    out.extend_from_slice(&item.deadline_ms.to_le_bytes());
                    put_destinations(out, &item.destinations);
                }
            }
            Self::RouteBatchReply { items } => {
                out.push(TYPE_ROUTE_BATCH_REPLY);
                put_count(out, items.len());
                for item in items {
                    item.encode(out);
                }
            }
        }
        let payload = u32::try_from(out.len() - len_at - 4).expect("frame under 4 GiB");
        out[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
    }

    /// This frame's full wire encoding as a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
}

fn put_destinations(out: &mut Vec<u8>, destinations: &[u32]) {
    put_count(out, destinations.len());
    for d in destinations {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Incremental frame decode from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds only part of a frame; read more bytes.
/// * `Ok(Some((frame, consumed)))` — one complete frame; drop
///   `consumed` bytes from the front of the buffer before the next
///   call.
///
/// # Errors
///
/// A typed [`WireError`] for any malformed input; the caller should
/// answer with [`Frame::ErrorReply`] and close the connection (the
/// stream cannot be resynchronized).
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = Reader::new(&buf[4..total]);
    let version = r.u8("missing version byte")?;
    if version != VERSION {
        return Err(WireError::UnknownVersion(version));
    }
    let ty = r.u8("missing type byte")?;
    let frame = match ty {
        TYPE_ROUTE => {
            let req_id = r.u64("route: request id")?;
            let tenant = r.u64("route: tenant id")?;
            let deadline_ms = r.u32("route: deadline")?;
            let destinations =
                r.destinations("route: destinations disagree with their count")?;
            Frame::Route { req_id, tenant, deadline_ms, destinations }
        }
        TYPE_ROUTE_REPLY => {
            let ReplyItem { req_id, status, tier, latency_ns } = ReplyItem::decode(&mut r)?;
            Frame::RouteReply { req_id, status, tier, latency_ns }
        }
        TYPE_STATS => Frame::Stats,
        TYPE_STATS_REPLY => {
            let n = r.u32("stats: row count")? as usize;
            let bytes = n
                .checked_mul(56)
                .ok_or(WireError::Malformed("stats: row count overflows"))?;
            // Bounds-check the whole table before allocating rows.
            let raw = r.take(bytes, "stats: rows shorter than their count")?;
            let mut rows = Vec::with_capacity(n);
            for row in raw.chunks_exact(56) {
                let mut v = [0u64; 7];
                for (i, c) in row.chunks_exact(8).enumerate() {
                    v[i] = u64::from_le_bytes([
                        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                    ]);
                }
                rows.push(TenantRow {
                    tenant: v[0],
                    submitted: v[1],
                    completed: v[2],
                    failed: v[3],
                    shed: v[4],
                    canceled: v[5],
                    rejected: v[6],
                });
            }
            Frame::StatsReply { rows }
        }
        TYPE_DRAIN => Frame::Drain,
        TYPE_ERROR_REPLY => {
            let req_id = r.u64("error: request id")?;
            let code = Status::from_u8(r.u8("error: code")?)
                .ok_or(WireError::Malformed("error: unknown status code"))?;
            let n = usize::from(r.u16("error: message length")?);
            let raw = r.take(n, "error: message shorter than its length")?;
            let message = String::from_utf8(raw.to_vec())
                .map_err(|_| WireError::Malformed("error: message is not UTF-8"))?;
            Frame::ErrorReply { req_id, code, message }
        }
        // Batch items are read, never reserved: a lying item count fails
        // at the first item the payload does not hold, and a short one
        // leaves trailing bytes.
        TYPE_ROUTE_BATCH => {
            let tenant = r.u64("batch: tenant id")?;
            let items = (0..r.u32("batch: item count")?)
                .map(|_| {
                    Ok(BatchItem {
                        req_id: r.u64("batch: request id")?,
                        deadline_ms: r.u32("batch: deadline")?,
                        destinations: r.destinations("batch: destinations")?,
                    })
                })
                .collect::<Result<_, WireError>>()?;
            Frame::RouteBatch { tenant, items }
        }
        TYPE_ROUTE_BATCH_REPLY => {
            let items = (0..r.u32("batch reply: item count")?)
                .map(|_| ReplyItem::decode(&mut r))
                .collect::<Result<_, _>>()?;
            Frame::RouteBatchReply { items }
        }
        other => return Err(WireError::UnknownType(other)),
    };
    r.finish()?;
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) {
        let bytes = frame.to_bytes();
        let (decoded, consumed) = decode(&bytes).expect("decodes").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(&decoded, frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(&Frame::Route {
            req_id: 7,
            tenant: 3,
            deadline_ms: 250,
            destinations: vec![3, 1, 0, 2],
        });
        roundtrip(&Frame::Route {
            req_id: u64::MAX,
            tenant: 0,
            deadline_ms: 0,
            destinations: vec![],
        });
        roundtrip(&Frame::RouteReply {
            req_id: 9,
            status: Status::Ok,
            tier: Some(1),
            latency_ns: 1234,
        });
        roundtrip(&Frame::RouteReply {
            req_id: 9,
            status: Status::QuotaExceeded,
            tier: None,
            latency_ns: 0,
        });
        roundtrip(&Frame::Stats);
        roundtrip(&Frame::StatsReply {
            rows: vec![
                TenantRow { tenant: 1, submitted: 5, completed: 5, ..TenantRow::default() },
                TenantRow { tenant: 2, rejected: 9, ..TenantRow::default() },
            ],
        });
        roundtrip(&Frame::Drain);
        roundtrip(&Frame::ErrorReply {
            req_id: 0,
            code: Status::BadRequest,
            message: "nope".into(),
        });
        roundtrip(&Frame::RouteBatch {
            tenant: 4,
            items: vec![
                BatchItem { req_id: 1, deadline_ms: 0, destinations: vec![1, 0] },
                BatchItem { req_id: 2, deadline_ms: 9, destinations: vec![] },
            ],
        });
        roundtrip(&Frame::RouteBatch { tenant: 0, items: vec![] });
        roundtrip(&Frame::RouteBatchReply {
            items: vec![ReplyItem {
                req_id: 1,
                status: Status::Ok,
                tier: Some(2),
                latency_ns: 5,
            }],
        });
    }

    #[test]
    fn batch_reply_items_are_route_reply_bodies() {
        let item =
            ReplyItem { req_id: 7, status: Status::Shed, tier: None, latency_ns: 99 };
        let single = Frame::RouteReply {
            req_id: item.req_id,
            status: item.status,
            tier: item.tier,
            latency_ns: item.latency_ns,
        }
        .to_bytes();
        let batch = Frame::RouteBatchReply { items: vec![item] }.to_bytes();
        // Same 18 body bytes after each frame's header (the batch's
        // header carries a 4-byte item count).
        assert_eq!(single[6..], batch[10..]);
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let bytes =
            Frame::Route { req_id: 1, tenant: 2, deadline_ms: 0, destinations: vec![1, 0] }
                .to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]).expect("prefix never errors"),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let mut buf = Frame::Stats.to_bytes();
        Frame::Drain.encode(&mut buf);
        let (first, used) = decode(&buf).unwrap().unwrap();
        assert_eq!(first, Frame::Stats);
        let (second, used2) = decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, Frame::Drain);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn oversize_length_prefix_is_a_typed_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(decode(&buf), Err(WireError::Oversize { len: MAX_FRAME_LEN + 1 }));
    }

    #[test]
    fn unknown_version_and_type_are_typed_errors() {
        let mut bad_version = Frame::Stats.to_bytes();
        bad_version[4] = 9;
        assert_eq!(decode(&bad_version), Err(WireError::UnknownVersion(9)));
        let mut bad_type = Frame::Stats.to_bytes();
        bad_type[5] = 200;
        assert_eq!(decode(&bad_type), Err(WireError::UnknownType(200)));
    }

    #[test]
    fn destination_count_cannot_read_past_the_frame() {
        let mut bytes =
            Frame::Route { req_id: 1, tenant: 1, deadline_ms: 0, destinations: vec![0, 1] }
                .to_bytes();
        // Inflate the destination count without adding bytes: offset =
        // 4 (len) + 1 (ver) + 1 (type) + 8 + 8 + 4 (deadline) = 26.
        bytes[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_inside_the_declared_length_are_rejected() {
        let mut bytes = Frame::Drain.to_bytes();
        bytes.push(0xAB); // junk after the payload…
        let len = (bytes.len() - 4) as u32;
        bytes[0..4].copy_from_slice(&len.to_le_bytes()); // …inside the length
        assert!(matches!(decode(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn tier_codes_round_trip_and_reject_unknowns() {
        for tier in
            [Tier::Cached, Tier::SelfRoute, Tier::OmegaBit, Tier::Factored, Tier::Waksman]
        {
            assert_eq!(tier_from_code(tier_code(tier)), Some(tier));
        }
        assert_eq!(tier_from_code(5), None);
        assert_eq!(tier_from_code(u8::MAX), None);
    }

    #[test]
    fn status_codes_round_trip_and_stay_distinct() {
        for s in Status::ALL {
            assert_eq!(Status::from_u8(s as u8), Some(s));
        }
        assert_eq!(Status::from_u8(99), None);
        let names: Vec<_> = Status::ALL.iter().map(|s| s.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
