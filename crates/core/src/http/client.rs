//! A minimal blocking HTTP/1.1 client over `std::net::TcpStream`.
//!
//! Exactly enough protocol for smoke tests, replay drivers, and the
//! `qgx client` CLI: one request, one `Content-Length`-framed response
//! (or read-to-EOF on close), all under one wall-clock timeout. Not a
//! general client — no redirects, no TLS, no chunked bodies.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub(crate) headers: Vec<(String, String)>,
    /// The response body, exactly as received.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy — diagnostics only).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Send one request and read the full response.
///
/// `timeout` bounds connect, write, and every read; a dead or stalled
/// server surfaces as an `Err`, never a hang.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let addr = addr
        .parse()
        .map_err(|e| bad_data(format!("bad address {addr:?}: {e}")))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or(b"");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(&mut stream)
}

/// `GET path` — health probes and `/statz` polls.
pub fn get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON body.
pub fn post_json(
    addr: &str,
    path: &str,
    json: &str,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, Some(json.as_bytes()), timeout)
}

/// Read and parse one full response from `stream` (timeouts already
/// set by the caller).
fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    // Head first: everything up to the blank line.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        match stream.read(&mut tmp)? {
            0 => {
                return Err(bad_data(
                    "connection closed before response head".to_string(),
                ))
            }
            n => buf.extend_from_slice(&tmp[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| bad_data("response head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (proto, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !proto.starts_with("HTTP/1.") {
        return Err(bad_data(format!("bad status line {status_line:?}")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| bad_data(format!("bad status in {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_data(format!("bad response header {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad_data(format!("bad Content-Length {v:?}")))
        })
        .transpose()?;
    let mut body = buf[head_end + 4..].to_vec();
    match content_length {
        Some(want) => {
            while body.len() < want {
                match stream.read(&mut tmp)? {
                    0 => return Err(bad_data("connection closed mid-body".to_string())),
                    n => body.extend_from_slice(&tmp[..n]),
                }
            }
            body.truncate(want);
        }
        None => {
            // No framing: the body runs to EOF (Connection: close).
            loop {
                match stream.read(&mut tmp)? {
                    0 => break,
                    n => body.extend_from_slice(&tmp[..n]),
                }
            }
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Position of the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}
