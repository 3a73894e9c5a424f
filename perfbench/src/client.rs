//! One nonblocking loopback client connection with its undecoded
//! backlog. Encoding and decoding run inside `wire.*` spans, socket
//! calls inside `client.*` spans.

use crate::trace::span;
use rotary::serve::{decode_frame, encode_frame, Frame};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A client socket plus its read backlog.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// False once the server closed the connection.
    pub open: bool,
}

impl Client {
    /// Connects to `addr` in nonblocking mode with Nagle off.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("client connect: {e}"))?;
        stream
            .set_nonblocking(true)
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("client socket options: {e}"))?;
        Ok(Client { stream, buf: Vec::with_capacity(1 << 12), open: true })
    }

    /// Writes all of `bytes`. A full socket buffer is an error: with one
    /// request outstanding and small frames it never happens on loopback.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        span("client.write", || self.stream.write_all(bytes))
            .map_err(|e| format!("client write: {e}"))
    }

    /// Reads whatever is available without blocking. Marks the client
    /// closed on end of stream or a socket error.
    pub fn receive(&mut self) {
        if !self.open {
            return;
        }
        let mut chunk = [0u8; 4096];
        span("client.read", || loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.open = false;
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.open = false;
                    return;
                }
            }
        });
    }

    /// The next complete frame in the backlog, if any. A decode failure
    /// is a wire error: the stream cannot be resynchronised, so the
    /// backlog is dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        match span("wire.decode", || decode_frame(&self.buf)) {
            Ok(Some((frame, used))) => {
                self.buf.drain(..used);
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.buf.clear();
                Err(format!("server sent a malformed frame: {e}"))
            }
        }
    }
}

/// Encodes a frame inside a `wire.encode` span.
pub fn encode(frame: &Frame) -> Vec<u8> {
    span("wire.encode", || encode_frame(frame))
}
