//! A keep-alive HTTP/1.1 client.
//!
//! `core::http::client` sends `Connection: close` on every request, so
//! a load generator built on it mostly measures connect/accept churn.
//! This one holds its connection open, follows the server's own
//! `Connection: close` (sent after `--keep-alive` requests) with a
//! fresh dial before the next request, and retries a request once on a
//! new connection when the old one is closed or reset under it —
//! `/expand` is a pure function of its body, so a retry is safe.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status and body, exactly as received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code of the status line.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A persistent connection to one server.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    pub dials: u64,
    /// Requests re-sent on a fresh connection after a transport error.
    pub retries: u64,
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Client {
    /// A client for `addr`; connects lazily. `timeout` bounds connect
    /// and every read and write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            dials: 0,
            retries: 0,
        }
    }

    /// Drop the connection; the next request dials a fresh one.
    pub fn close(&mut self) {
        self.stream = None;
    }

    fn dial(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        self.dials += 1;
        Ok(())
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, body.as_bytes())
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, b"")
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        match self.exchange(&wire) {
            // A connection the server closed or reset (idle keep-alive
            // expiry, a cut response) gets one retry on a fresh dial; a
            // timeout does not, or a stalled server would be waited on
            // twice.
            Err(e)
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                self.retries += 1;
                self.exchange(&wire)
            }
            other => other,
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        if self.stream.is_none() {
            self.dial()?;
        }
        let result = self.exchange_on_stream(wire);
        match &result {
            Ok((_, close)) if !*close => {}
            _ => self.stream = None,
        }
        result.map(|(response, _)| response)
    }

    /// One request/response on the open stream; the flag says whether
    /// the server announced it will close the connection.
    fn exchange_on_stream(&mut self, wire: &[u8]) -> std::io::Result<(Response, bool)> {
        let stream = self.stream.as_mut().expect("dialled above");
        stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed before the response head".into())),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .strip_prefix("HTTP/1.")
            .and_then(|rest| rest.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut content_length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad Content-Length {value:?}")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let want = content_length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = self.buf[head_end + 4..].to_vec();
        while body.len() < want {
            match stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed mid-body".into())),
                n => body.extend_from_slice(&chunk[..n]),
            }
        }
        body.truncate(want);
        Ok((Response { status, body }, close))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Read one request (head + Content-Length body) off `stream`.
    fn read_request(stream: &mut TcpStream) -> Option<Vec<u8>> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..pos]).to_string();
                let want: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                while buf.len() < pos + 4 + want {
                    let n = stream.read(&mut chunk).ok()?;
                    if n == 0 {
                        return None;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                return Some(buf[pos + 4..pos + 4 + want].to_vec());
            }
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn respond(stream: &mut TcpStream, body: &[u8], close: bool) {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if close { "close" } else { "keep-alive" }
        );
        // One write: head and body in separate segments would wait on
        // the peer's delayed ACK.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        stream.write_all(&wire).unwrap();
    }

    #[test]
    fn survives_connection_close_after_100_requests_and_a_reset_mid_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: echo 100 requests, announce close on the
            // 100th, as `qgx serve --keep-alive 100` does.
            let (mut s, _) = listener.accept().unwrap();
            for i in 1..=100 {
                let body = read_request(&mut s).unwrap();
                respond(&mut s, &body, i == 100);
            }
            drop(s);
            // Connection 2: promise 64 bytes, send 5, reset.
            let (mut s, _) = listener.accept().unwrap();
            read_request(&mut s).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\nshort")
                .unwrap();
            drop(s);
            // Connection 3: the client's retry, then one more request
            // on the same connection.
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let body = read_request(&mut s).unwrap();
                respond(&mut s, &body, false);
            }
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        for i in 0..100 {
            let body = format!("{{\"n\":{i}}}");
            let r = client.post("/expand", &body).unwrap();
            assert_eq!((r.status, r.body), (200, body.into_bytes()));
        }
        assert_eq!(client.dials, 1);
        // Request 101 dials connection 2, is cut mid-body, and succeeds
        // on connection 3.
        let r = client.post("/expand", "after-close").unwrap();
        assert_eq!(r.body, b"after-close");
        assert_eq!((client.dials, client.retries), (3, 1));
        let r = client.post("/expand", "same-connection").unwrap();
        assert_eq!(r.body, b"same-connection");
        assert_eq!(client.dials, 3);
        server.join().unwrap();
    }
}
