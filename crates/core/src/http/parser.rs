//! Minimal, strict HTTP/1.1 request parsing over raw bytes.
//!
//! The parser is pure — it consumes a byte buffer and either produces a
//! [`RequestHead`], asks for more bytes (`Ok(None)`), or rejects with a
//! typed [`ParseError`] that knows its HTTP status code. Every limit in
//! [`HttpLimits`] is enforced *while the bytes arrive*, so a hostile
//! client can never make the server buffer an unbounded head or body.
//!
//! Scope is deliberately small: request line + headers + an optional
//! `Content-Length` body. No chunked transfer encoding (typed 501), no
//! multiline header folding (typed 400), no trailers. Lines terminate
//! on `\n` with an optional preceding `\r`, which accepts every
//! well-formed HTTP client and keeps hand-written test requests honest.

use std::fmt;

/// Hard ceilings on what one request may ask the server to buffer.
///
/// Defaults are generous for JSON expansion requests and hostile to
/// abuse: an 8 KiB request line, 64 headers in 16 KiB of head, a 1 MiB
/// body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes in the request line (method + target + version).
    pub(crate) max_request_line: usize,
    /// Maximum number of header lines.
    pub(crate) max_headers: usize,
    /// Maximum total bytes in the head (request line + all headers).
    pub(crate) max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub(crate) max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Typed protocol rejection; every variant maps to one HTTP status and
/// a wire-stable code string (the same shape `ServiceError::code` uses,
/// so error bodies are uniform across protocol and service failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line exceeded `HttpLimits::max_request_line`.
    RequestLineTooLong {
        /// The configured ceiling.
        limit: usize,
    },
    /// The head (request line + headers) exceeded
    /// `HttpLimits::max_head_bytes`.
    HeadTooLarge {
        /// The configured ceiling.
        limit: usize,
    },
    /// More header lines than `HttpLimits::max_headers`.
    TooManyHeaders {
        /// The configured ceiling.
        limit: usize,
    },
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    MalformedRequestLine,
    /// The version is not `HTTP/1.0` or `HTTP/1.1`.
    UnsupportedVersion {
        /// The version token as sent.
        version: String,
    },
    /// A header line without a colon, or with whitespace in the name.
    MalformedHeader,
    /// `Content-Length` is non-numeric or repeated with different
    /// values.
    BadContentLength,
    /// The declared body exceeds `HttpLimits::max_body_bytes`.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// `Transfer-Encoding` was sent; this server only speaks
    /// `Content-Length`.
    UnsupportedTransferEncoding,
    /// A method that requires a body arrived without `Content-Length`.
    LengthRequired,
}

impl ParseError {
    /// Every code [`ParseError::code`] can produce, in variant
    /// declaration order (the protocol half of the closed wire-code
    /// universe; [`ServiceError::CODES`] is the service half). The
    /// server's lock-free per-code counters enumerate exactly this
    /// union, so adding a variant without extending the list is a
    /// test-time error, never a silently dropped counter.
    ///
    /// [`ServiceError::CODES`]: crate::service::ServiceError::CODES
    #[cfg(test)]
    pub(crate) const CODES: [&'static str; 10] = [
        "request_line_too_long",
        "head_too_large",
        "too_many_headers",
        "malformed_request_line",
        "unsupported_version",
        "malformed_header",
        "bad_content_length",
        "body_too_large",
        "unsupported_transfer_encoding",
        "length_required",
    ];

    /// The HTTP status this rejection is answered with.
    pub(crate) fn status(&self) -> u16 {
        match self {
            ParseError::RequestLineTooLong { .. }
            | ParseError::HeadTooLarge { .. }
            | ParseError::TooManyHeaders { .. } => 431,
            ParseError::MalformedRequestLine
            | ParseError::MalformedHeader
            | ParseError::BadContentLength => 400,
            ParseError::UnsupportedVersion { .. } => 505,
            ParseError::BodyTooLarge { .. } => 413,
            ParseError::UnsupportedTransferEncoding => 501,
            ParseError::LengthRequired => 411,
        }
    }

    /// The wire-stable machine-readable code for the error body.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ParseError::RequestLineTooLong { .. } => "request_line_too_long",
            ParseError::HeadTooLarge { .. } => "head_too_large",
            ParseError::TooManyHeaders { .. } => "too_many_headers",
            ParseError::MalformedRequestLine => "malformed_request_line",
            ParseError::UnsupportedVersion { .. } => "unsupported_version",
            ParseError::MalformedHeader => "malformed_header",
            ParseError::BadContentLength => "bad_content_length",
            ParseError::BodyTooLarge { .. } => "body_too_large",
            ParseError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            ParseError::LengthRequired => "length_required",
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ParseError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header lines")
            }
            ParseError::MalformedRequestLine => {
                write!(f, "malformed request line")
            }
            ParseError::UnsupportedVersion { version } => {
                write!(f, "unsupported HTTP version {version:?}")
            }
            ParseError::MalformedHeader => write!(f, "malformed header line"),
            ParseError::BadContentLength => write!(f, "bad Content-Length"),
            ParseError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds {limit}")
            }
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported (use Content-Length)")
            }
            ParseError::LengthRequired => {
                write!(f, "a request body requires Content-Length")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed request head: line + headers, body not yet read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The method token, as sent (`GET`, `POST`, …).
    pub(crate) method: String,
    /// The request target (`/expand`, `/healthz?x=1`, …).
    pub(crate) target: String,
    /// `HTTP/1.0` or `HTTP/1.1` (anything else is rejected).
    pub(crate) version: String,
    /// Header `(name, value)` pairs in arrival order; names keep their
    /// sent casing, lookups are case-insensitive.
    pub(crate) headers: Vec<(String, String)>,
    /// Bytes of the buffer the head consumed (body starts here).
    pub(crate) head_len: usize,
}

impl RequestHead {
    /// The first value of `name`, matched case-insensitively.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length under `limits`. `Ok(0)` when absent
    /// (per [`ParseError::LengthRequired`], callers that *need* a body
    /// reject that case themselves).
    pub(crate) fn content_length(&self, limits: &HttpLimits) -> Result<usize, ParseError> {
        if self.header("transfer-encoding").is_some() {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        let mut declared: Option<usize> = None;
        for (name, value) in &self.headers {
            if !name.eq_ignore_ascii_case("content-length") {
                continue;
            }
            let parsed: usize = value
                .trim()
                .parse()
                .map_err(|_| ParseError::BadContentLength)?;
            match declared {
                // Repeated identical Content-Length is tolerated;
                // conflicting values are request smuggling, rejected.
                Some(prev) if prev != parsed => return Err(ParseError::BadContentLength),
                _ => declared = Some(parsed),
            }
        }
        let declared = declared.unwrap_or(0);
        if declared > limits.max_body_bytes {
            return Err(ParseError::BodyTooLarge {
                declared,
                limit: limits.max_body_bytes,
            });
        }
        Ok(declared)
    }

    /// Whether the connection stays open after this exchange:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection` header overrides either way.
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Find the end of the next line (`\n`) in `buf[from..]`; returns
/// `(content_end, next_line_start)` with an optional `\r` stripped.
fn next_line(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    let nl = buf[from..].iter().position(|&b| b == b'\n')? + from;
    let end = if nl > from && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    Some((end, nl + 1))
}

/// Parse a request head from the start of `buf`.
///
/// * `Ok(Some(head))` — a complete head; `head.head_len` is where the
///   body begins in `buf`.
/// * `Ok(None)` — the head is incomplete *and* still within limits;
///   read more bytes and call again.
/// * `Err(e)` — the bytes can never become an acceptable head.
pub fn parse_head(buf: &[u8], limits: &HttpLimits) -> Result<Option<RequestHead>, ParseError> {
    // Request line first, with its own tighter limit.
    let (line_end, mut cursor) = match next_line(buf, 0) {
        Some(pos) => pos,
        None => {
            if buf.len() > limits.max_request_line {
                return Err(ParseError::RequestLineTooLong {
                    limit: limits.max_request_line,
                });
            }
            return Ok(None);
        }
    };
    if line_end > limits.max_request_line {
        return Err(ParseError::RequestLineTooLong {
            limit: limits.max_request_line,
        });
    }
    let line =
        std::str::from_utf8(&buf[..line_end]).map_err(|_| ParseError::MalformedRequestLine)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::MalformedRequestLine),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion {
            version: version.to_string(),
        });
    }

    // Header lines until the empty line, all within the head budget.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let (end, next) = match next_line(buf, cursor) {
            Some(pos) => pos,
            None => {
                if buf.len() > limits.max_head_bytes {
                    return Err(ParseError::HeadTooLarge {
                        limit: limits.max_head_bytes,
                    });
                }
                return Ok(None);
            }
        };
        if next > limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
        if end == cursor {
            // Empty line: the head is complete.
            return Ok(Some(RequestHead {
                method: method.to_string(),
                target: target.to_string(),
                version: version.to_string(),
                headers,
                head_len: next,
            }));
        }
        if headers.len() >= limits.max_headers {
            return Err(ParseError::TooManyHeaders {
                limit: limits.max_headers,
            });
        }
        let line =
            std::str::from_utf8(&buf[cursor..end]).map_err(|_| ParseError::MalformedHeader)?;
        // Obsolete line folding (a continuation starting with
        // whitespace) is a smuggling vector — rejected outright.
        let colon = line.find(':').ok_or(ParseError::MalformedHeader)?;
        let name = &line[..colon];
        if name.is_empty()
            || name
                .chars()
                .any(|c| c.is_ascii_whitespace() || c.is_ascii_control())
        {
            return Err(ParseError::MalformedHeader);
        }
        headers.push((name.to_string(), line[colon + 1..].trim().to_string()));
        cursor = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<RequestHead>, ParseError> {
        parse_head(bytes, &HttpLimits::default())
    }

    #[test]
    fn codes_list_matches_every_variant_in_order() {
        let samples = [
            ParseError::RequestLineTooLong { limit: 1 },
            ParseError::HeadTooLarge { limit: 1 },
            ParseError::TooManyHeaders { limit: 1 },
            ParseError::MalformedRequestLine,
            ParseError::UnsupportedVersion {
                version: "HTTP/0.9".to_string(),
            },
            ParseError::MalformedHeader,
            ParseError::BadContentLength,
            ParseError::BodyTooLarge {
                declared: 2,
                limit: 1,
            },
            ParseError::UnsupportedTransferEncoding,
            ParseError::LengthRequired,
        ];
        assert_eq!(samples.len(), ParseError::CODES.len());
        for (sample, &code) in samples.iter().zip(ParseError::CODES.iter()) {
            assert_eq!(sample.code(), code, "CODES order must match variants");
        }
    }

    #[test]
    fn parses_a_full_post_head() {
        let head =
            parse(b"POST /expand HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\nbody follows")
                .unwrap()
                .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.target, "/expand");
        assert_eq!(head.version, "HTTP/1.1");
        assert_eq!(head.header("HOST"), Some("x"));
        assert_eq!(head.content_length(&HttpLimits::default()).unwrap(), 12);
        assert!(head.keep_alive());
        assert_eq!(&b"body follows"[..], &b"body follows"[..]);
        assert_eq!(
            head.head_len,
            b"POST /expand HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n".len()
        );
    }

    #[test]
    fn incomplete_heads_ask_for_more_bytes() {
        assert_eq!(parse(b""), Ok(None));
        assert_eq!(parse(b"POST /expand HT"), Ok(None));
        assert_eq!(parse(b"POST /expand HTTP/1.1\r\nHost: x\r\n"), Ok(None));
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let head = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.target, "/healthz");
        assert_eq!(head.header("host"), Some("x"));
    }

    #[test]
    fn malformed_request_lines_are_typed_400s() {
        for bad in [
            &b"GET/expand HTTP/1.1\r\n\r\n"[..],
            b"GET /expand HTTP/1.1 extra\r\n\r\n",
            b" GET /expand HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, ParseError::MalformedRequestLine, "{bad:?}");
            assert_eq!(err.status(), 400);
        }
        let err = parse(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 505);
        assert_eq!(err.code(), "unsupported_version");
    }

    #[test]
    fn malformed_headers_are_typed_400s() {
        for bad in [
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, ParseError::MalformedHeader, "{bad:?}");
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn oversized_heads_are_rejected_while_arriving() {
        let limits = HttpLimits {
            max_request_line: 32,
            max_headers: 2,
            max_head_bytes: 128,
            max_body_bytes: 64,
        };
        // Request line over budget without a newline yet — rejected
        // *before* the attacker finishes it.
        let long_line = vec![b'A'; 33];
        assert_eq!(
            parse_head(&long_line, &limits),
            Err(ParseError::RequestLineTooLong { limit: 32 })
        );
        // Too many headers.
        let heads = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        assert_eq!(
            parse_head(heads, &limits),
            Err(ParseError::TooManyHeaders { limit: 2 })
        );
        // Head bytes over budget with no terminator in sight.
        let mut creep = b"GET / HTTP/1.1\r\n".to_vec();
        while creep.len() <= 128 {
            creep.extend_from_slice(b"A: x\r\n".as_ref());
        }
        assert!(matches!(
            parse_head(&creep, &limits),
            Err(ParseError::TooManyHeaders { .. }) | Err(ParseError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn content_length_abuse_is_typed() {
        let limits = HttpLimits::default();
        let head = parse(b"POST / HTTP/1.1\r\nContent-Length: huge\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            head.content_length(&limits),
            Err(ParseError::BadContentLength)
        );
        let head = parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            head.content_length(&limits),
            Err(ParseError::BadContentLength)
        );
        let head = parse(b"POST / HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            head.content_length(&limits),
            Err(ParseError::BodyTooLarge {
                declared: 2_000_000,
                limit: limits.max_body_bytes,
            })
        );
        let head = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap()
            .unwrap();
        let err = head.content_length(&limits).unwrap_err();
        assert_eq!(err, ParseError::UnsupportedTransferEncoding);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let head = |bytes: &[u8]| parse(bytes).unwrap().unwrap();
        assert!(head(b"GET / HTTP/1.1\r\n\r\n").keep_alive());
        assert!(!head(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
        assert!(!head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn parse_error_codes_are_distinct_and_statused() {
        let all = [
            ParseError::RequestLineTooLong { limit: 1 },
            ParseError::HeadTooLarge { limit: 1 },
            ParseError::TooManyHeaders { limit: 1 },
            ParseError::MalformedRequestLine,
            ParseError::UnsupportedVersion {
                version: "HTTP/9".to_string(),
            },
            ParseError::MalformedHeader,
            ParseError::BadContentLength,
            ParseError::BodyTooLarge {
                declared: 2,
                limit: 1,
            },
            ParseError::UnsupportedTransferEncoding,
            ParseError::LengthRequired,
        ];
        let mut codes: Vec<&str> = all.iter().map(ParseError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "codes must be distinct");
        for e in &all {
            assert!((400..=599).contains(&e.status()), "{e:?}");
            assert!(!e.to_string().is_empty());
        }
    }
}
