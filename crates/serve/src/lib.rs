//! **benes-serve** — the network serving layer over the Benes routing
//! engine: every earlier PR built the machinery (tiered planning, plan
//! cache, bounded admission, deadlines, breakers, drain); this crate
//! puts it behind a socket.
//!
//! * [`proto`] — the **wire protocol**: small length-prefixed binary
//!   frames (versioned header, request id, tenant id, permutation
//!   payload; replies carry outcome + latency), with an incremental
//!   decoder that returns typed errors — never panics — on torn,
//!   oversize or unknown input;
//! * [`tenant`] — **fair scheduling**: deficit-round-robin over
//!   per-tenant bounded backlogs, so one flooding tenant gets its
//!   round share of engine slots instead of all of them;
//! * [`server`] — the **server**: blocking `std::net` connection
//!   handling in which every thread waits in one place (an acceptor,
//!   and a reader and a writer per connection), handler shards whose
//!   state the readers and the engine's completions drive under one
//!   lock each, with no scheduler thread, read-timeout reaping,
//!   shed/rejected surfaced as protocol status codes, and graceful
//!   drain wired to [`benes_engine::Engine::drain`];
//! * [`client`] — a small blocking client (the load generator and the
//!   tests speak through it);
//! * [`http`] — a pooled HTTP/1.0 metrics endpoint with per-connection
//!   read timeouts (a silent scraper cannot wedge the exposition).
//!
//! # Quick start
//!
//! ```
//! use benes_serve::{Client, Frame, ServeConfig, Server, Status};
//!
//! let mut config = ServeConfig::default();
//! config.threads = 1;
//! let server = Server::start("127.0.0.1:0", config).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client
//!     .send(&Frame::Route {
//!         req_id: 1,
//!         tenant: 42,
//!         deadline_ms: 0,
//!         destinations: (0..8).rev().collect(), // bit-reversal-ish
//!     })
//!     .unwrap();
//! match client.recv().unwrap() {
//!     Frame::RouteReply { req_id, status, .. } => {
//!         assert_eq!(req_id, 1);
//!         assert_eq!(status, Status::Ok);
//!     }
//!     other => panic!("unexpected frame {other:?}"),
//! }
//! drop(client);
//! server.shutdown(std::time::Instant::now() + std::time::Duration::from_secs(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::{Client, RecvError};
pub use http::{serve_http, HttpOptions, HttpResponse};
pub use proto::{
    decode, tier_code, tier_from_code, Frame, Status, TenantRow, WireError, MAX_FRAME_LEN,
    VERSION,
};
pub use server::{ServeConfig, Server, ServerCounters};
pub use tenant::{DrrScheduler, QuotaExceeded};
