//! Client-side regressions for the typed recv error and the bounded
//! connect: a read timeout must leave the decode buffer (and the
//! connection) intact so a later `recv` resumes the same byte stream,
//! and `connect_timeout` must behave like `connect` against a live
//! listener while bounding the handshake against a dead one.

use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

use benes_serve::proto::{Frame, Status};
use benes_serve::{Client, RecvError};

/// A raw listener standing in for a server we control byte-by-byte.
fn raw_peer() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound").to_string();
    (listener, addr)
}

#[test]
fn recv_timeout_is_typed_and_preserves_the_partial_frame() {
    let (listener, addr) = raw_peer();
    let mut client = Client::connect(&addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
    let (mut peer, _) = listener.accept().expect("accept");

    let reply =
        Frame::RouteReply { req_id: 42, status: Status::Ok, tier: Some(2), latency_ns: 7 };
    let bytes = reply.to_bytes();
    let cut = bytes.len() - 3; // stop mid-payload

    // First half only: recv must report a retry-safe timeout, not EOF,
    // not a wire error, and must NOT throw the buffered prefix away.
    peer.write_all(&bytes[..cut]).expect("write prefix");
    peer.flush().expect("flush");
    match client.recv() {
        Err(e) if e.is_timeout() => {}
        other => panic!("expected RecvError::Timeout, got {other:?}"),
    }
    // A second timeout in a row is equally harmless.
    assert!(matches!(client.recv(), Err(RecvError::Timeout)));

    // Now the rest of the frame, plus a whole second frame: the stream
    // must NOT be desynchronized by the earlier timeouts.
    peer.write_all(&bytes[cut..]).expect("write rest");
    peer.write_all(&Frame::Drain.to_bytes()).expect("write second frame");
    peer.flush().expect("flush");
    assert_eq!(client.recv().expect("first frame"), reply);
    assert_eq!(client.recv().expect("second frame"), Frame::Drain);
}

#[test]
fn recv_batch_returns_a_burst_at_once_and_bad_bytes_after_it() {
    let (listener, addr) = raw_peer();
    let mut client = Client::connect(&addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let (mut peer, _) = listener.accept().expect("accept");

    // Three whole frames, half a fourth, in one write.
    let frames: Vec<Frame> = (0..4)
        .map(|i| Frame::RouteReply {
            req_id: i,
            status: Status::Ok,
            tier: None,
            latency_ns: 1,
        })
        .collect();
    let mut burst = Vec::new();
    for f in &frames {
        f.encode(&mut burst);
    }
    let cut = burst.len() - 5;
    peer.write_all(&burst[..cut]).expect("write burst");
    let mut out = Vec::new();
    client.recv_batch(&mut out).expect("one batch");
    assert_eq!(out, frames[..3], "every complete frame, the partial one kept back");

    // The rest of the fourth, then garbage: the good frame comes first,
    // the wire error on the next call.
    let mut bad = Frame::Stats.to_bytes();
    bad[4] = 99; // unknown version
    peer.write_all(&burst[cut..]).expect("write rest");
    peer.write_all(&bad).expect("write garbage");
    out.clear();
    while out.is_empty() {
        client.recv_batch(&mut out).expect("the fourth frame");
    }
    assert_eq!(out, frames[3..]);
    assert!(matches!(client.recv_batch(&mut out), Err(RecvError::Wire(_))));
}

#[test]
fn shutdown_wakes_a_reader_blocked_on_a_clone() {
    let (listener, addr) = raw_peer();
    let writer = Client::connect(&addr).expect("connect");
    let _peer = listener.accept().expect("accept");
    let mut reader = writer.try_clone().expect("clone");
    let blocked = std::thread::spawn(move || reader.recv());
    std::thread::sleep(Duration::from_millis(50));
    writer.shutdown();
    let woke = blocked.join().expect("reader thread");
    assert!(matches!(woke, Err(RecvError::Closed | RecvError::Io(_))), "{woke:?}");
}

#[test]
fn recv_reports_eof_as_closed() {
    let (listener, addr) = raw_peer();
    let mut client = Client::connect(&addr).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    drop(peer); // clean close before any frame
    assert!(matches!(client.recv(), Err(RecvError::Closed)));
}

#[test]
fn connect_timeout_reaches_a_live_listener() {
    let (listener, addr) = raw_peer();
    let mut client =
        Client::connect_timeout(&addr, Duration::from_secs(2)).expect("connect in time");
    // Prove the connection is usable end to end.
    let (mut peer, _) = listener.accept().expect("accept");
    peer.write_all(&Frame::Stats.to_bytes()).expect("write");
    assert_eq!(client.recv().expect("frame"), Frame::Stats);
}

#[test]
fn connect_timeout_errors_fast_on_a_dead_port() {
    // Bind-then-drop guarantees the port is closed: the connect must
    // come back with an error (refused on loopback) well inside the
    // budget instead of hanging for the OS default.
    let (listener, addr) = raw_peer();
    drop(listener);
    let started = std::time::Instant::now();
    let err = Client::connect_timeout(&addr, Duration::from_millis(500));
    assert!(err.is_err(), "connecting to a closed port must fail");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connect_timeout must not block for the OS default"
    );
}
