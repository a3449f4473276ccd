//! Streaming, bounded-memory dump ingest.
//!
//! A "dump" is a concatenation of ImageCLEF-shaped `<image>` records as
//! emitted by [`crate::writer::to_xml`] — each record may carry its own
//! `<?xml ?>` declaration, mirroring how the real collection ships one
//! metadata file per image and how Wikipedia-style dumps concatenate
//! page records. [`DumpStream`] scans the byte stream incrementally,
//! buffering at most one record (capped by `max_doc_bytes`) plus one
//! read chunk at a time, so peak memory is independent of dump size.
//!
//! Record boundaries are found by scanning for `<image` / `</image>`
//! literals. The writer escapes `<` in text content, so a close tag can
//! never appear inside a record's character data; CDATA sections
//! containing `</image>` are not supported at the framing layer (the
//! writer never emits CDATA).

use crate::document::ImageDoc;
use crate::imageclef::parse_image_doc;
use crate::writer::to_xml;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Default cap on one record's byte length (and thus on buffered memory).
pub(crate) const DEFAULT_MAX_DOC_BYTES: usize = 4 << 20;

/// Bytes read from the underlying reader per refill.
const CHUNK: usize = 64 * 1024;

const OPEN: &[u8] = b"<image";
const CLOSE: &[u8] = b"</image>";

/// Typed streaming-ingest errors, with absolute byte offsets into the
/// dump for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Underlying reader failed.
    Io {
        /// Absolute offset reached when the read failed.
        offset: u64,
        /// The I/O error, stringified.
        message: String,
    },
    /// A record contained invalid UTF-8.
    Utf8 {
        /// Absolute offset of the first invalid byte.
        offset: u64,
    },
    /// A record failed XML parsing (truncated tags, unbalanced tags,
    /// oversized fields — see `crate::xml::XmlLimits`).
    Xml {
        /// Absolute offset of the XML error.
        offset: u64,
        /// The parser's message.
        message: String,
    },
    /// A record exceeded the configured `max_doc_bytes` cap.
    DocTooLarge {
        /// Absolute offset where the record starts.
        offset: u64,
        /// Bytes buffered before giving up.
        buffered: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The dump ended inside a record.
    Truncated {
        /// Absolute offset where the unterminated record starts.
        offset: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { offset, message } => {
                write!(f, "ingest I/O error at byte {offset}: {message}")
            }
            IngestError::Utf8 { offset } => {
                write!(f, "invalid UTF-8 at byte {offset}")
            }
            IngestError::Xml { offset, message } => {
                write!(f, "XML error at byte {offset}: {message}")
            }
            IngestError::DocTooLarge {
                offset,
                buffered,
                cap,
            } => write!(
                f,
                "record at byte {offset} exceeds {cap} bytes ({buffered} buffered)"
            ),
            IngestError::Truncated { offset } => {
                write!(f, "dump truncated inside record starting at byte {offset}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Writes documents to a dump file (concatenated `to_xml` records).
pub struct DumpWriter<W: Write> {
    out: W,
    docs: u64,
}

impl DumpWriter<BufWriter<File>> {
    /// Create (truncate) a dump file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(DumpWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> DumpWriter<W> {
    /// Writer over an arbitrary sink.
    pub(crate) fn new(out: W) -> Self {
        DumpWriter { out, docs: 0 }
    }

    /// Append one document record.
    pub fn write_doc(&mut self, doc: &ImageDoc) -> io::Result<()> {
        self.out.write_all(to_xml(doc).as_bytes())?;
        self.docs += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn docs_written(&self) -> u64 {
        self.docs
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Incremental reader over a dump: an iterator of
/// `Result<ImageDoc, IngestError>` that never buffers more than one
/// record (plus one read chunk).
///
/// Bytes between records — XML declarations, whitespace, comments — are
/// skipped. After the first error the stream is fused and yields `None`.
pub struct DumpStream<R: Read> {
    input: R,
    buf: Vec<u8>,
    /// Absolute offset of `buf[0]` in the dump.
    base: u64,
    eof: bool,
    fused: bool,
    max_doc_bytes: usize,
    peak_buf: usize,
}

impl DumpStream<io::BufReader<File>> {
    /// Stream the dump file at `path`.
    pub fn from_path(path: &Path) -> Result<Self, IngestError> {
        let file = File::open(path).map_err(|e| IngestError::Io {
            offset: 0,
            message: format!("{}: {e}", path.display()),
        })?;
        Ok(DumpStream::new(io::BufReader::new(file)))
    }
}

impl<R: Read> DumpStream<R> {
    /// Stream with the default record-size cap.
    pub(crate) fn new(input: R) -> Self {
        DumpStream::with_max_doc_bytes(input, DEFAULT_MAX_DOC_BYTES)
    }

    /// Stream with an explicit record-size cap (the memory bound).
    pub(crate) fn with_max_doc_bytes(input: R, max_doc_bytes: usize) -> Self {
        DumpStream {
            input,
            buf: Vec::new(),
            base: 0,
            eof: false,
            fused: false,
            max_doc_bytes,
            peak_buf: 0,
        }
    }

    /// High-water mark of the internal buffer — the observable memory
    /// bound (≤ `max_doc_bytes` + one read chunk).
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buf
    }

    /// Read one chunk; returns `Ok(false)` only at EOF.
    fn refill(&mut self) -> Result<bool, IngestError> {
        if self.eof {
            return Ok(false);
        }
        let old = self.buf.len();
        self.buf.resize(old + CHUNK, 0);
        match self.input.read(&mut self.buf[old..]) {
            Ok(0) => {
                self.buf.truncate(old);
                self.eof = true;
                Ok(false)
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                self.peak_buf = self.peak_buf.max(self.buf.len());
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                self.buf.truncate(old);
                Ok(true)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(IngestError::Io {
                    offset: self.base + old as u64,
                    message: e.to_string(),
                })
            }
        }
    }

    fn discard(&mut self, n: usize) {
        self.buf.drain(..n);
        self.base += n as u64;
    }

    fn next_doc(&mut self) -> Result<Option<ImageDoc>, IngestError> {
        // Phase 1: align the buffer on the next record start, discarding
        // inter-record bytes as we go (this is what bounds memory while
        // skipping declarations and junk).
        loop {
            match find_open(&self.buf) {
                FindOpen::Found(p) => {
                    if p > 0 {
                        self.discard(p);
                    }
                    break;
                }
                FindOpen::NeedMore(keep_from) => {
                    if keep_from > 0 {
                        self.discard(keep_from);
                    }
                    if !self.refill()? {
                        // EOF. A dangling `<image` prefix is a truncated
                        // record; anything else is trailing junk.
                        if find_sub(&self.buf, OPEN, 0).is_some() {
                            return Err(IngestError::Truncated { offset: self.base });
                        }
                        return Ok(None);
                    }
                }
            }
        }
        // Phase 2: buffer until the matching close tag, bounded by the cap.
        let mut scan = 0usize;
        loop {
            if let Some(e) = find_sub(&self.buf, CLOSE, scan) {
                let end = e + CLOSE.len();
                if end > self.max_doc_bytes {
                    return Err(IngestError::DocTooLarge {
                        offset: self.base,
                        buffered: end,
                        cap: self.max_doc_bytes,
                    });
                }
                let text =
                    std::str::from_utf8(&self.buf[..end]).map_err(|err| IngestError::Utf8 {
                        offset: self.base + err.valid_up_to() as u64,
                    })?;
                let doc = parse_image_doc(text).map_err(|e| IngestError::Xml {
                    offset: self.base + e.offset as u64,
                    message: e.message,
                })?;
                self.discard(end);
                return Ok(Some(doc));
            }
            if self.buf.len() > self.max_doc_bytes {
                return Err(IngestError::DocTooLarge {
                    offset: self.base,
                    buffered: self.buf.len(),
                    cap: self.max_doc_bytes,
                });
            }
            scan = self.buf.len().saturating_sub(CLOSE.len() - 1);
            if !self.refill()? {
                return Err(IngestError::Truncated { offset: self.base });
            }
        }
    }
}

impl<R: Read> Iterator for DumpStream<R> {
    type Item = Result<ImageDoc, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        match self.next_doc() {
            Ok(Some(doc)) => Some(Ok(doc)),
            Ok(None) => {
                self.fused = true;
                None
            }
            Err(e) => {
                self.fused = true;
                Some(Err(e))
            }
        }
    }
}

enum FindOpen {
    /// A confirmed record start at this buffer index.
    Found(usize),
    /// No confirmed start; bytes before this index can be discarded.
    NeedMore(usize),
}

/// Locate a confirmed `<image` start (followed by whitespace, `>` or
/// `/` so `<images>` etc. don't match).
fn find_open(buf: &[u8]) -> FindOpen {
    let mut from = 0;
    loop {
        match find_sub(buf, OPEN, from) {
            Some(p) => match buf.get(p + OPEN.len()) {
                Some(&b) if b == b' ' || b == b'>' || b == b'/' || b.is_ascii_whitespace() => {
                    return FindOpen::Found(p)
                }
                Some(_) => from = p + 1,
                None => return FindOpen::NeedMore(p),
            },
            None => {
                // Keep a tail that could still be an OPEN prefix.
                return FindOpen::NeedMore(buf.len().saturating_sub(OPEN.len() - 1));
            }
        }
    }
}

fn find_sub(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Caption, LangSection};

    fn doc(i: usize) -> ImageDoc {
        ImageDoc {
            id: format!("{i}"),
            file: format!("images/{}/{i}.jpg", i % 10),
            name: format!("Sample image {i} & friends.jpg"),
            texts: vec![LangSection {
                lang: "en".into(),
                description: format!("Description of image {i} <with> markup."),
                comment: String::new(),
                captions: vec![Caption {
                    article: format!("text/en/{}/{i}", i % 7),
                    text: format!("Caption {i}."),
                }],
            }],
            comment: format!("({{{{Information |Description= Photo {i} |Source= X }}}})"),
            license: "GFDL".into(),
        }
    }

    fn dump_of(n: usize) -> Vec<u8> {
        let mut w = DumpWriter::new(Vec::new());
        for i in 0..n {
            w.write_doc(&doc(i)).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_many_docs() {
        let bytes = dump_of(200);
        let docs: Vec<ImageDoc> = DumpStream::new(&bytes[..]).map(|r| r.unwrap()).collect();
        assert_eq!(docs.len(), 200);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(*d, doc(i));
        }
    }

    #[test]
    fn skips_inter_record_junk() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"<!-- header junk -->\n\n");
        bytes.extend_from_slice(to_xml(&doc(0)).as_bytes());
        bytes.extend_from_slice(b"stray text between records\n");
        bytes.extend_from_slice(to_xml(&doc(1)).as_bytes());
        bytes.extend_from_slice(b"\ntrailing junk without a record\n");
        let docs: Vec<ImageDoc> = DumpStream::new(&bytes[..]).map(|r| r.unwrap()).collect();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = dump_of(3);
        // Cut inside the last record.
        let cut = bytes.len() - 10;
        let mut s = DumpStream::new(&bytes[..cut]);
        assert!(s.next().unwrap().is_ok());
        assert!(s.next().unwrap().is_ok());
        match s.next().unwrap() {
            Err(IngestError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(s.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn every_truncation_point_never_panics() {
        let bytes = dump_of(2);
        for cut in 0..=bytes.len() {
            for r in DumpStream::new(&bytes[..cut]) {
                if r.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn oversized_record_is_rejected_and_memory_stays_bounded() {
        let bytes = dump_of(1);
        let mut s = DumpStream::with_max_doc_bytes(&bytes[..], 64);
        match s.next().unwrap() {
            Err(IngestError::DocTooLarge { cap: 64, .. }) => {}
            other => panic!("expected DocTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn peak_memory_independent_of_dump_size() {
        let small = dump_of(20);
        let large = dump_of(2000);
        let mut s1 = DumpStream::new(&small[..]);
        while s1.next().is_some() {}
        let mut s2 = DumpStream::new(&large[..]);
        let mut yielded = 0;
        for doc in s2.by_ref() {
            doc.unwrap();
            yielded += 1;
        }
        assert_eq!(yielded, 2000);
        // The rolling window never holds more than ~one record + chunks.
        assert!(s2.peak_buffer_bytes() <= s1.peak_buffer_bytes() + 2 * CHUNK);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut bytes = to_xml(&doc(0)).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = 0xFF;
        let mut s = DumpStream::new(&bytes[..]);
        match s.next().unwrap() {
            Err(IngestError::Utf8 { .. }) | Err(IngestError::Xml { .. }) => {}
            other => panic!("expected Utf8/Xml error, got {other:?}"),
        }
    }

    #[test]
    fn similar_tag_names_do_not_frame() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"<imagesets>ignored</imagesets>\n");
        bytes.extend_from_slice(to_xml(&doc(5)).as_bytes());
        let docs: Vec<ImageDoc> = DumpStream::new(&bytes[..]).map(|r| r.unwrap()).collect();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0], doc(5));
    }

    #[test]
    fn tiny_reader_chunks_work() {
        // A reader that returns one byte at a time exercises every
        // refill boundary.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let bytes = dump_of(3);
        let docs: Vec<ImageDoc> = DumpStream::new(OneByte(&bytes))
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(docs.len(), 3);
    }
}
