//! QGRP — the length-prefixed binary frame protocol shard processes
//! speak over local sockets.
//!
//! One frame per request and per response:
//!
//! ```text
//! magic "QGRP" (4)   version u32 LE      request_id u64 LE
//! op u8              status u8           payload_len u32 LE
//! payload (payload_len bytes)
//! checksum u64 LE — FNV-1a of every preceding byte of the frame
//! ```
//!
//! * `request_id` echoes back in the response so a client can detect a
//!   desynchronized stream.
//! * `status` is 0 on requests and successful responses; 1 marks an
//!   error response whose payload is `{code, message}` (two length-
//!   prefixed strings).
//! * `payload_len` is bounded by `MAX_PAYLOAD`; every integer is
//!   little-endian; strings are u32 length + UTF-8 bytes; vectors are
//!   u32 count + elements. `f64`s travel as `to_bits()` so global
//!   smoothing inputs arrive **bit-exactly** — the byte-identity
//!   contract of [`crate::backend::RetrievalBackend`] extends across
//!   the socket.
//!
//! The op set mirrors the backend surface one shard can answer:
//! [`Op::Hello`] (identity + per-shard collection stats),
//! [`Op::LeafCfs`] (phase 1 of a search: local per-leaf collection
//! frequencies), [`Op::ScoreTopK`] (phase 2: score with global inputs),
//! [`Op::ResolvePhrase`], [`Op::DocLen`], [`Op::Stats`], and
//! [`Op::Shutdown`].

use crate::ondisk::fnv1a;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: "QGRP" (QueryGraph RPC).
pub(crate) const MAGIC: [u8; 4] = *b"QGRP";

/// Protocol version; both ends refuse other versions.
pub(crate) const VERSION: u32 = 1;

/// Upper bound on a frame payload (16 MiB) — a desynchronized or
/// hostile peer cannot make either end allocate unboundedly.
pub(crate) const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Fixed frame header length: magic + version + request id + op +
/// status + payload length.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 1 + 4;

/// Status byte of a successful request or response.
pub(crate) const STATUS_OK: u8 = 0;

/// Status byte of an error response (payload is `{code, message}`).
pub(crate) const STATUS_ERROR: u8 = 1;

/// Operations a shard process serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Identity handshake → fingerprint, shard index, num docs, total
    /// tokens. The client verifies the segment fingerprint before
    /// trusting the shard.
    Hello = 1,
    /// Phase 1 of a search: flatten the query locally and return this
    /// shard's per-leaf collection frequencies (flatten order). The
    /// coordinator sends it only for a query with a leaf unseen in this
    /// generation; it remembers the summed counts, one key and one
    /// `u64` per distinct leaf, until the generation is replaced.
    LeafCfs = 2,
    /// Phase 2 of a search: score locally with the caller's global
    /// smoothing inputs (μ, ε, per-leaf probabilities as f64 bits) and
    /// return the local top-k keyed by global doc id.
    ScoreTopK = 3,
    /// Resolve one exact phrase → local `(doc, tf)` hits.
    ResolvePhrase = 4,
    /// Length of one local document.
    DocLen = 5,
    /// Observability: phrase-cache entry count.
    Stats = 6,
    /// Ask the process to drain and exit.
    Shutdown = 7,
}

impl Op {
    /// Decode an op byte.
    pub(crate) fn from_u8(v: u8) -> Option<Op> {
        match v {
            1 => Some(Op::Hello),
            2 => Some(Op::LeafCfs),
            3 => Some(Op::ScoreTopK),
            4 => Some(Op::ResolvePhrase),
            5 => Some(Op::DocLen),
            6 => Some(Op::Stats),
            7 => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// Typed QGRP failure — transport, framing, or a server-reported error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The socket read/write itself failed (includes EOF mid-frame).
    Io(String),
    /// The frame does not start with `MAGIC`.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The declared payload length exceeds `MAX_PAYLOAD`.
    OversizedPayload {
        /// The declared length.
        len: u32,
    },
    /// The frame checksum did not match its contents.
    ChecksumMismatch,
    /// The op byte names no known operation.
    UnknownOp {
        /// The byte found.
        found: u8,
    },
    /// A payload was structurally invalid (short, trailing bytes,
    /// bad UTF-8).
    Malformed {
        /// What was inconsistent.
        context: &'static str,
    },
    /// The response's request id does not echo the request's.
    IdMismatch {
        /// The id sent.
        sent: u64,
        /// The id received.
        received: u64,
    },
    /// The server answered with a typed error (status byte 1).
    Remote {
        /// Machine-readable error code.
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(m) => write!(f, "io: {m}"),
            ProtoError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            ProtoError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            ProtoError::OversizedPayload { len } => {
                write!(f, "payload of {len} bytes exceeds the {MAX_PAYLOAD} cap")
            }
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::UnknownOp { found } => write!(f, "unknown op byte {found}"),
            ProtoError::Malformed { context } => write!(f, "malformed payload: {context}"),
            ProtoError::IdMismatch { sent, received } => {
                write!(f, "request id mismatch: sent {sent}, received {received}")
            }
            ProtoError::Remote { code, message } => write!(f, "shard error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Echoed request id.
    pub request_id: u64,
    /// Raw op byte (validated by the dispatcher, not the framing).
    pub op: u8,
    /// `STATUS_OK` or `STATUS_ERROR`.
    pub status: u8,
    /// Operation payload.
    pub payload: Vec<u8>,
}

/// Serialize and send one frame (header + payload + FNV-1a checksum).
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    op: u8,
    status: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.push(op);
    frame.push(status);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    w.write_all(&frame)
}

/// Read and validate one frame. `Io` on transport failure (including
/// EOF mid-frame); the caller handles clean EOF *before* the first
/// header byte itself if it wants to distinguish it.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    if head[0..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&head[0..4]);
        return Err(ProtoError::BadMagic { found });
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("bounds"));
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    let request_id = u64::from_le_bytes(head[8..16].try_into().expect("bounds"));
    let op = head[16];
    let status = head[17];
    let payload_len = u32::from_le_bytes(head[18..22].try_into().expect("bounds"));
    if payload_len > MAX_PAYLOAD {
        return Err(ProtoError::OversizedPayload { len: payload_len });
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    let mut recorded = [0u8; 8];
    r.read_exact(&mut recorded)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    let mut whole = Vec::with_capacity(HEADER_LEN + payload.len());
    whole.extend_from_slice(&head);
    whole.extend_from_slice(&payload);
    if fnv1a(&whole) != u64::from_le_bytes(recorded) {
        return Err(ProtoError::ChecksumMismatch);
    }
    Ok(Frame {
        request_id,
        op,
        status,
        payload,
    })
}

// ── payload codec ───────────────────────────────────────────────────

/// Append a u32 (LE).
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64 (LE).
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader.
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Reader over one payload.
    pub(crate) fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Malformed { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next u8.
    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Next u32 (LE).
    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("len 4"),
        ))
    }

    /// Next u64 (LE).
    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("len 8"),
        ))
    }

    /// Next length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed {
            context: "string is not UTF-8",
        })
    }

    /// Next u32 element count of a vector whose elements occupy at
    /// least `min_elem_bytes` each, checked against the bytes left in
    /// the payload — so a count is safe to allocate for before the
    /// elements are read, whatever the peer wrote.
    pub(crate) fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let count = self.u32()? as usize;
        if count > (self.buf.len() - self.pos) / min_elem_bytes {
            return Err(ProtoError::Malformed {
                context: "element count exceeds the payload",
            });
        }
        Ok(count)
    }

    /// The payload must be fully consumed.
    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed {
                context: "trailing payload bytes",
            })
        }
    }
}

/// Encode a typed error response payload.
pub(crate) fn encode_error(code: &str, message: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, code);
    put_str(&mut buf, message);
    buf
}

/// Decode a typed error response payload into [`ProtoError::Remote`].
pub(crate) fn decode_error(payload: &[u8]) -> ProtoError {
    let mut r = PayloadReader::new(payload);
    match (r.string(), r.string()) {
        (Ok(code), Ok(message)) => ProtoError::Remote { code, message },
        _ => ProtoError::Malformed {
            context: "undecodable error payload",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello shard".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, 42, Op::Hello as u8, STATUS_OK, &payload).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.op, Op::Hello as u8);
        assert_eq!(frame.status, STATUS_OK);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn every_corruption_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, Op::Stats as u8, STATUS_OK, b"abc").unwrap();
        for i in 0..wire.len() {
            let mut corrupt = wire.clone();
            corrupt[i] ^= 0xFF;
            let result = read_frame(&mut corrupt.as_slice());
            assert!(result.is_err(), "flip at byte {i} must fail");
        }
        // Truncations: every prefix fails as Io (EOF mid-frame).
        for len in 0..wire.len() {
            assert!(
                matches!(
                    read_frame(&mut wire[..len].as_ref()),
                    Err(ProtoError::Io(_))
                ),
                "truncation to {len}"
            );
        }
    }

    #[test]
    fn oversized_payload_refused_without_allocation() {
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&1u64.to_le_bytes());
        head.push(Op::Hello as u8);
        head.push(STATUS_OK);
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut head.as_slice()),
            Err(ProtoError::OversizedPayload { len: u32::MAX })
        ));
    }

    #[test]
    fn payload_reader_checks_bounds_and_trailing() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 9);
        put_str(&mut buf, "venice");
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.string().unwrap(), "venice");
        r.finish().unwrap();

        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 9);
        assert!(r.finish().is_err(), "trailing bytes must be refused");

        let mut r = PayloadReader::new(&buf[..2]);
        assert!(matches!(r.u32(), Err(ProtoError::Malformed { .. })));
    }

    #[test]
    fn error_payload_round_trips() {
        let payload = encode_error("bad_query", "unbalanced paren");
        match decode_error(&payload) {
            ProtoError::Remote { code, message } => {
                assert_eq!(code, "bad_query");
                assert_eq!(message, "unbalanced paren");
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn op_bytes_round_trip() {
        for op in [
            Op::Hello,
            Op::LeafCfs,
            Op::ScoreTopK,
            Op::ResolvePhrase,
            Op::DocLen,
            Op::Stats,
            Op::Shutdown,
        ] {
            assert_eq!(Op::from_u8(op as u8), Some(op));
        }
        assert_eq!(Op::from_u8(0), None);
        assert_eq!(Op::from_u8(200), None);
    }
}
