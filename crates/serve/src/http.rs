//! A minimal pooled HTTP/1.0 server for metrics expositions.
//!
//! This replaces the single-threaded blocking scrape loop the
//! observability example used to hand-roll, which had two wedges:
//! a client that connected and sent nothing stalled every later scrape
//! forever (blocking `read_line`, no read timeout, one connection at a
//! time), and the handler asserted on workload outcomes before even
//! routing the request path. Here every connection is served by a
//! small handler pool with a per-connection **read timeout**: a silent
//! connection times out and is dropped without ever delaying another
//! scrape, and the route handler is a plain closure — policy (what a
//! 404 does, what runs per scrape) stays with the caller.
//!
//! The accept loop blocks in `accept`. With a request cap, the handler
//! that serves the last request wakes it with a loopback self-connect,
//! so stopping needs no polling either.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::server::wake_acceptor;

/// One HTTP response, produced by the route handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status line text, e.g. `"200 OK"` or `"404 Not Found"`.
    pub status: String,
    /// The `Content-Type` header value.
    pub content_type: String,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` with the given content type.
    #[must_use]
    pub fn ok(content_type: &str, body: String) -> Self {
        Self { status: "200 OK".into(), content_type: content_type.into(), body }
    }

    /// A `404 Not Found` with a plain-text hint.
    #[must_use]
    pub fn not_found(hint: &str) -> Self {
        Self {
            status: "404 Not Found".into(),
            content_type: "text/plain".into(),
            body: hint.to_string(),
        }
    }
}

/// Tuning for [`serve_http`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Handler pool size (concurrent scrapes served).
    pub threads: usize,
    /// Per-connection read timeout: a connection that sends no request
    /// line within this window is dropped.
    pub read_timeout: Duration,
    /// Stop after this many *served* responses (`None`: run forever).
    /// Timed-out or malformed connections do not count.
    pub max_requests: Option<u64>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        Self { threads: 4, read_timeout: Duration::from_secs(2), max_requests: None }
    }
}

/// Serves `GET` requests on `listener` through a pool of
/// `opts.threads` handler threads, routing each request's path through
/// `handler`. Blocks until `opts.max_requests` responses have been
/// served (forever when `None`). Returns the number served.
///
/// The request path (everything after the method, before the HTTP
/// version) is passed to `handler` verbatim; the handler's response is
/// written back HTTP/1.0-style with `Connection: close`.
pub fn serve_http<F>(listener: TcpListener, opts: HttpOptions, handler: F) -> u64
where
    F: Fn(&str) -> HttpResponse + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let served = Arc::new(AtomicU64::new(0));
    let done = |served: &AtomicU64| {
        opts.max_requests.is_some_and(|max| served.load(Ordering::Acquire) >= max)
    };
    let Ok(addr) = listener.local_addr() else { return 0 };
    // Bounded: with every handler busy, accepted connections wait in
    // the kernel's backlog rather than in an unbounded queue here.
    let (tx, rx) = sync_channel::<TcpStream>(opts.threads.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let pool: Vec<_> = (0..opts.threads.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let served = Arc::clone(&served);
            let read_timeout = opts.read_timeout;
            let max = opts.max_requests;
            std::thread::Builder::new()
                .name(format!("benes-http-{i}"))
                .spawn(move || loop {
                    // Take the next connection; the channel closing is
                    // the pool's shutdown signal.
                    let stream = {
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    let Ok(stream) = stream else { return };
                    if handle_conn(stream, read_timeout, handler.as_ref()) {
                        let now = served.fetch_add(1, Ordering::AcqRel) + 1;
                        if max == Some(now) {
                            // The last request: wake the blocked accept
                            // so it sees the cap.
                            wake_acceptor(addr);
                        }
                    }
                })
                .expect("spawn http handler")
        })
        .collect();

    while !done(&served) {
        let Ok((stream, _)) = listener.accept() else {
            // A failing accept (out of descriptors) fails again at
            // once; pace the retries instead of spinning.
            // analyze:allow(sleep-poll): back-off after an accept error only, never on the idle path
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if done(&served) || tx.send(stream).is_err() {
            break;
        }
    }
    // Close the channel; handlers finish their current connection and
    // exit.
    drop(tx);
    for h in pool {
        // analyze:allow(discarded-result): a panicked handler has nothing to report
        let _ = h.join();
    }
    served.load(Ordering::Acquire)
}

/// Serves one connection: reads the request line under the timeout,
/// routes the path, writes the response. `true` iff a response was
/// written.
fn handle_conn<F>(mut stream: TcpStream, read_timeout: Duration, handler: &F) -> bool
where
    F: Fn(&str) -> HttpResponse + ?Sized,
{
    // The whole point: a silent connection must release this handler
    // thread after `read_timeout`, not hold it forever.
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return false;
    }
    let mut line = String::new();
    if BufReader::new(&mut stream).read_line(&mut line).is_err() || line.is_empty() {
        return false;
    }
    let Some(path) = line.split_whitespace().nth(1) else {
        return false;
    };
    let resp = handler(path);
    let payload = format!(
        "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    // A scraper hanging up mid-response is its problem, not ours.
    // analyze:allow(discarded-result): peer may disconnect early
    let _ = stream.write_all(payload.as_bytes());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpStream;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn routes_and_counts_served_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            serve_http(
                listener,
                HttpOptions { max_requests: Some(2), ..HttpOptions::default() },
                |path| match path {
                    "/ping" => HttpResponse::ok("text/plain", "pong".into()),
                    other => HttpResponse::not_found(&format!("no {other}")),
                },
            )
        });
        let ok = get(addr, "/ping");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        assert!(ok.ends_with("pong"), "{ok}");
        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404 Not Found"), "{missing}");
        assert_eq!(t.join().unwrap(), 2);
    }

    #[test]
    fn silent_connection_does_not_stall_other_scrapes() {
        // Regression for the obs_service wedge: a client that connects
        // and sends nothing used to block the single-threaded accept
        // loop forever. With the pool + read timeout, scrapes keep
        // flowing while the silent connection idles and is dropped.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            serve_http(
                listener,
                HttpOptions {
                    threads: 2,
                    read_timeout: Duration::from_millis(200),
                    max_requests: Some(3),
                },
                |_| HttpResponse::ok("text/plain", "metrics".into()),
            )
        });
        // Hold a silent connection open for the whole test.
        let silent = TcpStream::connect(addr).expect("silent connect");
        for _ in 0..3 {
            let resp = get(addr, "/metrics");
            assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
        }
        assert_eq!(t.join().unwrap(), 3, "silent conn never counted as served");
        drop(silent);
    }
}
