//! A small blocking client for the benes-serve wire protocol, used by
//! the load generator, the remote shard fleet, the smoke script and
//! the integration tests.
//!
//! The client owns one TCP connection and an incremental decode
//! buffer; [`Client::send`] writes frames (pipelining is just calling
//! it repeatedly before reading), [`Client::recv`] blocks until the
//! next complete frame arrives, and [`Client::recv_batch`] until at
//! least one has, returning every complete frame buffered by then.
//! [`Client::try_clone`] splits one connection into a writer and a
//! reader that blocks on its own thread.
//!
//! Failure reporting is typed ([`RecvError`]) because callers react
//! very differently to the arms: a [`RecvError::Timeout`] leaves the
//! connection and the partial decode buffer intact — retrying `recv`
//! later picks up exactly where the stream left off — while
//! [`RecvError::Closed`] and [`RecvError::Wire`] mean the connection
//! is dead and must be re-established.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{decode, Frame, WireError};

/// Why [`Client::recv`] could not produce a frame.
#[derive(Debug)]
pub enum RecvError {
    /// The read timeout configured via [`Client::set_read_timeout`]
    /// expired before a complete frame arrived. **The connection is
    /// still good**: any partial frame bytes stay in the decode
    /// buffer, so calling `recv` again resumes the same frame rather
    /// than desynchronizing the stream.
    Timeout,
    /// The peer closed the connection (EOF) before a complete frame
    /// arrived.
    Closed,
    /// The peer sent bytes that do not decode as a frame. The stream
    /// cannot be resynchronized; drop the connection.
    Wire(WireError),
    /// Any other socket error.
    Io(std::io::Error),
}

impl RecvError {
    /// Whether this error is the retry-safe timeout arm.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(self, Self::Timeout)
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => write!(f, "read timed out before a complete frame arrived"),
            Self::Closed => write!(f, "peer closed the connection mid-frame"),
            Self::Wire(e) => write!(f, "undecodable bytes from peer: {e}"),
            Self::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::Timeout | Self::Closed => None,
        }
    }
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running benes-serve instance.
    ///
    /// # Errors
    ///
    /// Any socket error from connecting or configuring the stream.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // analyze:allow(discarded-result): nodelay is advisory
        let _ = stream.set_nodelay(true);
        Ok(Self { stream, buf: Vec::new() })
    }

    /// Connects with a bound on how long the TCP handshake may take.
    /// Plain [`Client::connect`] blocks for the OS default (minutes
    /// against a black-holed address) — a remote-shard coordinator
    /// cannot afford that, so its connect attempts go through here.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::TimedOut`] when the handshake exceeds `timeout`;
    /// [`ErrorKind::InvalidInput`] when `addr` resolves to nothing;
    /// otherwise any socket error from connecting.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        // TcpStream::connect_timeout wants one resolved SocketAddr;
        // try each resolution until one connects inside its budget.
        let mut last_err = None;
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        for sa in &addrs {
            match TcpStream::connect_timeout(sa, timeout) {
                Ok(stream) => {
                    // analyze:allow(discarded-result): nodelay is advisory
                    let _ = stream.set_nodelay(true);
                    return Ok(Self { stream, buf: Vec::new() });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Wraps an already-connected stream (the server's per-connection
    /// readers decode through the same code as the client).
    pub(crate) fn from_stream(stream: TcpStream) -> Self {
        Self { stream, buf: Vec::new() }
    }

    /// A second handle on the same connection with its own (empty)
    /// decode buffer: one thread writes through one handle while
    /// another blocks reading through the other. Socket options such
    /// as the read timeout are shared between the two.
    ///
    /// # Errors
    ///
    /// Any socket error from duplicating the handle.
    pub fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self::from_stream(self.stream.try_clone()?))
    }

    /// Shuts the connection down in both directions without consuming
    /// the handle: a thread blocked reading it through a clone wakes
    /// with [`RecvError::Closed`] (or an I/O error).
    pub fn shutdown(&self) {
        // analyze:allow(discarded-result): a connection already gone needs no shutdown
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Bounds how long [`Client::recv`] blocks for bytes.
    ///
    /// # Errors
    ///
    /// Any socket error from setting the timeout.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Writes one frame. Pipelines naturally: call repeatedly before
    /// reading replies.
    ///
    /// # Errors
    ///
    /// Any socket write error.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.stream.write_all(&frame.to_bytes())
    }

    /// Writes many frames in one syscall-friendly burst.
    ///
    /// # Errors
    ///
    /// Any socket write error.
    pub fn send_all(&mut self, frames: &[Frame]) -> std::io::Result<()> {
        let mut out = Vec::new();
        for f in frames {
            f.encode(&mut out);
        }
        self.stream.write_all(&out)
    }

    /// Blocks until the next complete frame arrives and returns it.
    ///
    /// # Errors
    ///
    /// * [`RecvError::Timeout`] — the configured read timeout expired;
    ///   the decode buffer is preserved, so a later `recv` resumes the
    ///   stream without desynchronizing;
    /// * [`RecvError::Closed`] — the server closed the connection
    ///   mid-frame (or before one arrived);
    /// * [`RecvError::Wire`] — the bytes received are not a valid
    ///   frame;
    /// * [`RecvError::Io`] — any other socket read error.
    pub fn recv(&mut self) -> Result<Frame, RecvError> {
        loop {
            match decode(&self.buf) {
                Ok(Some((frame, used))) => {
                    self.buf.drain(..used);
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(e) => return Err(RecvError::Wire(e)),
            }
            self.fill()?;
        }
    }

    /// Blocks until at least one complete frame has arrived, then
    /// appends every complete frame buffered by then to `out`: one
    /// wake-up for a whole burst of pipelined frames.
    ///
    /// Frames decoded ahead of undecodable bytes are returned first;
    /// the next call reports the bad bytes as [`RecvError::Wire`].
    ///
    /// # Errors
    ///
    /// As [`Client::recv`], when no complete frame arrived.
    pub fn recv_batch(&mut self, out: &mut Vec<Frame>) -> Result<(), RecvError> {
        let start = out.len();
        loop {
            let mut consumed = 0;
            let bad = loop {
                match decode(&self.buf[consumed..]) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        out.push(frame);
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            self.buf.drain(..consumed);
            if out.len() > start {
                return Ok(());
            }
            if let Some(e) = bad {
                return Err(RecvError::Wire(e));
            }
            self.fill()?;
        }
    }

    /// One blocking read onto the decode buffer.
    fn fill(&mut self) -> Result<(), RecvError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(RecvError::Closed),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Both kinds appear for an expired SO_RCVTIMEO
                // depending on platform; either way the stream (and
                // our partial decode buffer) is still intact.
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut =>
                {
                    return Err(RecvError::Timeout)
                }
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
    }

    /// Drops the connection abruptly (no drain, no close handshake) —
    /// the chaos path: kill a connection with requests still in
    /// flight.
    pub fn kill(self) {
        self.shutdown();
    }
}
