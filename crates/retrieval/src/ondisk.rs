//! Versioned on-disk index format with a zero-copy loader.
//!
//! The pipeline rebuilds the whole inverted index from the synthetic
//! corpus on every run, which caps experiments near seed scale. This
//! module persists the retrieval state — term dictionary, the
//! contiguous delta-varint postings buffers from [`crate::postings`],
//! per-document statistics, and the phrase dictionary — into a single
//! binary artifact, and loads it back by wrapping the file bytes in one
//! [`bytes::Bytes`] buffer: every postings list becomes an
//! offset/length *view* into that buffer (mmap-shaped; no per-term
//! reallocation or re-encoding).
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! ┌ header ────────────────────────────────────────────────────────┐
//! │ magic "QGIX" (4)  version u32  meta_fingerprint u64  count u32 │
//! ├ section table (count × 28 bytes) ──────────────────────────────┤
//! │ id u32   offset u64   len u64   checksum u64 (FNV-1a of bytes) │
//! ├────────────────────────────────────────────────────────────────┤
//! │ header_checksum u64 — FNV-1a of header + table                 │
//! ├ section payloads, contiguous, in table order ──────────────────┤
//! │ TERMS · POSTINGS · DOCSTATS · PHRASES · BOUNDS                 │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **TERMS** — term count, cumulative end offsets (u32 each), then
//!   the UTF-8 term bytes concatenated in id order.
//! * **POSTINGS** — term count, per-term directory entries
//!   `(offset u64, len u32, doc_count u32, collection_freq u64)`, then
//!   the concatenated encoded postings blob. Directory offsets are
//!   relative to the blob, so a loaded list is `blob.slice(off..off+len)`.
//! * **DOCSTATS** — document count, total token count, one u32 length
//!   per document.
//! * **PHRASES** — the exported phrase dictionary
//!   ([`crate::engine::SearchEngine::export_phrase_cache`]): per
//!   phrase its words,
//!   delta-varint `(doc, tf)` hits, and the collection probability.
//! * **BOUNDS** — term count, per-term `(max_tf u32, min_len u32)`
//!   score-bound statistics ([`crate::index::TermBound`]) feeding the
//!   WAND-style pruned search. Stored μ-independently as raw counts;
//!   the loader cross-checks every entry against the validating
//!   postings walk, so a corrupted or crafted bound can never loosen
//!   (or silently tighten) pruning.
//!
//! ## Versioning and integrity
//!
//! `FORMAT_VERSION` is bumped on any layout change. The loader reads
//! exactly that version and refuses every other outright (no migration
//! — artifacts are caches, the corpus can always be re-indexed).
//! `meta_fingerprint` identifies the
//! world configuration that produced the index so a cache directory can
//! hold artifacts for several configurations side by side. Integrity is
//! checked *before* any content is trusted: the header checksum covers
//! the header and section table, per-section checksums cover every
//! payload byte, and the file length must equal the last section's end.
//! Checksums only defend against *accidental* corruption (FNV-1a is
//! not collision-resistant), so structural validation backs them up:
//! allocation sizes are clamped to what the bytes can hold, and every
//! postings stream is walked once, allocation-free, at load time
//! (canonical varints, ascending in-bounds doc ids, directory-consistent
//! frequencies) — the query-time decoder can then stay lean. Every
//! failure is a typed [`OndiskError`] — the loader never panics and
//! never silently mis-decodes (see the corruption battery in this
//! module's tests, which flips every byte of an artifact).

use crate::engine::PhraseCacheEntry;
use crate::index::{InvertedIndex, TermBound};
use crate::phrase::PhraseHit;
use crate::postings::{read_varint, write_varint, PostingsList};
use bytes::{BufMut, Bytes, BytesMut};
use querygraph_text::{Interner, TermId};
use std::fmt;
use std::path::Path;

/// File magic: "QGIX" (QueryGraph IndeX).
pub const MAGIC: [u8; 4] = *b"QGIX";

/// The one format version written and read (v2 appended the BOUNDS
/// section). Bumped on any layout change; the loader refuses all others.
pub const FORMAT_VERSION: u32 = 2;

const SEC_TERMS: u32 = 1;
const SEC_POSTINGS: u32 = 2;
const SEC_DOCSTATS: u32 = 3;
const SEC_PHRASES: u32 = 4;
const SEC_BOUNDS: u32 = 5;
const SECTION_IDS: [u32; 5] = [
    SEC_TERMS,
    SEC_POSTINGS,
    SEC_DOCSTATS,
    SEC_PHRASES,
    SEC_BOUNDS,
];

const HEADER_LEN: usize = 4 + 4 + 8 + 4; // magic + version + fingerprint + count
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// Typed loader failure. Corrupted, truncated, or foreign files always
/// surface as one of these — never a panic, never a wrong index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OndiskError {
    /// Reading the file itself failed.
    Io(String),
    /// Fewer bytes than a structure needs.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A checksum did not match its recorded value.
    ChecksumMismatch {
        /// `"header"` or the section name.
        section: &'static str,
    },
    /// A section's offset/length falls outside the file.
    SectionBounds {
        /// The section name.
        section: &'static str,
    },
    /// Structurally invalid content (inconsistent counts, bad UTF-8,
    /// non-canonical varints, …).
    Malformed {
        /// What was inconsistent.
        context: &'static str,
    },
    /// Bytes beyond the last section (appended garbage).
    TrailingBytes {
        /// Where the artifact should end.
        expected_len: usize,
        /// The actual file length.
        actual_len: usize,
    },
    /// The artifact was built for a different world configuration.
    MetaMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint recorded in the artifact.
        found: u64,
    },
}

impl fmt::Display for OndiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OndiskError::Io(e) => write!(f, "index artifact io error: {e}"),
            OndiskError::Truncated { context } => {
                write!(f, "index artifact truncated while reading {context}")
            }
            OndiskError::BadMagic { found } => {
                write!(f, "not an index artifact (magic {found:02x?})")
            }
            OndiskError::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {found} (supported: {FORMAT_VERSION})"
            ),
            OndiskError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
            OndiskError::SectionBounds { section } => {
                write!(f, "section {section} exceeds file bounds")
            }
            OndiskError::Malformed { context } => {
                write!(f, "malformed index artifact: {context}")
            }
            OndiskError::TrailingBytes {
                expected_len,
                actual_len,
            } => write!(
                f,
                "trailing bytes after index artifact (expected {expected_len}, got {actual_len})"
            ),
            OndiskError::MetaMismatch { expected, found } => write!(
                f,
                "index artifact built for another configuration \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for OndiskError {}

/// A successfully loaded artifact.
#[derive(Debug)]
pub struct LoadedIndex {
    /// The reconstructed inverted index (postings share the file buffer).
    pub index: InvertedIndex,
    /// The persisted phrase dictionary, ready for
    /// [`crate::engine::SearchEngine::seed_phrase_cache`].
    pub phrases: Vec<PhraseCacheEntry>,
    /// World-configuration fingerprint recorded at write time.
    pub meta_fingerprint: u64,
}

/// FNV-1a 64 — the workspace's standard stable fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ─── writing ────────────────────────────────────────────────────────

/// Encode `index` (and the phrase dictionary) into artifact bytes.
pub fn encode_index(
    index: &InvertedIndex,
    phrases: &[PhraseCacheEntry],
    meta_fingerprint: u64,
) -> Vec<u8> {
    assemble(
        &[
            (SEC_TERMS, encode_terms(index)),
            (SEC_POSTINGS, encode_postings(index)),
            (SEC_DOCSTATS, encode_docstats(index)),
            (SEC_PHRASES, encode_phrases(phrases)),
            (SEC_BOUNDS, encode_bounds(index)),
        ],
        meta_fingerprint,
    )
}

fn assemble(sections: &[(u32, Vec<u8>)], meta_fingerprint: u64) -> Vec<u8> {
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let payload_base = HEADER_LEN + table_len + 8; // + header checksum
    let mut head = BytesMut::with_capacity(payload_base);
    head.put_slice(&MAGIC);
    head.put_u32_le(FORMAT_VERSION);
    head.put_u64_le(meta_fingerprint);
    head.put_u32_le(sections.len() as u32);
    let mut offset = payload_base as u64;
    for (id, payload) in sections {
        head.put_u32_le(*id);
        head.put_u64_le(offset);
        head.put_u64_le(payload.len() as u64);
        head.put_u64_le(fnv1a(payload));
        offset += payload.len() as u64;
    }
    let header_checksum = fnv1a(&head);

    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(&head);
    out.extend_from_slice(&header_checksum.to_le_bytes());
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

/// Write the artifact to `path` (via [`encode_index`]), atomically.
pub fn save_index(
    path: &Path,
    index: &InvertedIndex,
    phrases: &[PhraseCacheEntry],
    meta_fingerprint: u64,
) -> std::io::Result<()> {
    write_atomic(path, &encode_index(index, phrases, meta_fingerprint))
}

/// Write `bytes` to `path` via a same-directory temp file + rename.
///
/// Never truncates or mutates the destination inode in place: a
/// concurrent reader — in particular a long-lived server that
/// *memory-mapped* the old artifact ([`ArtifactSource::Mmap`]) — keeps
/// its old inode alive and intact, instead of having pages shrink
/// (SIGBUS) or silently change under an already-validated mapping.
/// Also means a crashed write leaves the old artifact, not half a new
/// one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

// The encoders build `Vec<u8>` directly (via the shim's
// `BufMut for Vec<u8>`, mirroring the real crate) so `encode_index`
// assembles the artifact with exactly one copy per payload byte — at
// stress scale the phrase dictionary alone is several MB.

fn encode_terms(index: &InvertedIndex) -> Vec<u8> {
    let interner = index.interner();
    let mut b = Vec::new();
    b.put_u32_le(interner.len() as u32);
    let mut end = 0u32;
    for (_, term) in interner.iter() {
        end += term.len() as u32;
        b.put_u32_le(end);
    }
    for (_, term) in interner.iter() {
        b.put_slice(term.as_bytes());
    }
    b
}

fn encode_postings(index: &InvertedIndex) -> Vec<u8> {
    let n = index.num_terms();
    let mut b = Vec::new();
    b.put_u32_le(n as u32);
    let mut offset = 0u64;
    for t in 0..n {
        let list = index.postings(TermId(t as u32));
        b.put_u64_le(offset);
        b.put_u32_le(list.encoded_len() as u32);
        b.put_u32_le(list.doc_count());
        b.put_u64_le(list.collection_freq());
        offset += list.encoded_len() as u64;
    }
    for t in 0..n {
        b.put_slice(index.postings(TermId(t as u32)).encoded_bytes());
    }
    b
}

fn encode_docstats(index: &InvertedIndex) -> Vec<u8> {
    let mut b = Vec::new();
    b.put_u32_le(index.num_docs() as u32);
    b.put_u64_le(index.total_tokens());
    for &len in index.doc_lengths() {
        b.put_u32_le(len);
    }
    b
}

fn encode_bounds(index: &InvertedIndex) -> Vec<u8> {
    let n = index.num_terms();
    let mut b = Vec::with_capacity(4 + n * 8);
    b.put_u32_le(n as u32);
    for t in 0..n {
        let bound = index.term_bound(TermId(t as u32));
        b.put_u32_le(bound.max_tf);
        b.put_u32_le(bound.min_len);
    }
    b
}

fn encode_phrases(phrases: &[PhraseCacheEntry]) -> Vec<u8> {
    let mut b = Vec::new();
    b.put_u32_le(phrases.len() as u32);
    for p in phrases {
        b.put_u32_le(p.words.len() as u32);
        for w in &p.words {
            b.put_u32_le(w.len() as u32);
            b.put_slice(w.as_bytes());
        }
        b.put_u32_le(p.hits.len() as u32);
        let mut last_doc = 0u32;
        for (i, h) in p.hits.iter().enumerate() {
            let delta = if i == 0 { h.doc } else { h.doc - last_doc };
            last_doc = h.doc;
            write_varint(&mut b, delta);
            write_varint(&mut b, h.tf);
        }
        b.put_u64_le(p.collection_prob.to_bits());
    }
    b
}

// ─── loading ────────────────────────────────────────────────────────

/// How artifact bytes reach memory.
///
/// The format is offset/length-shaped precisely so the buffer's origin
/// doesn't matter: every postings list is a view into one `Bytes`,
/// whether that wraps a heap read or a mapped file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArtifactSource {
    /// Read the whole file into memory once (the default).
    #[default]
    Read,
    /// Memory-map the file (opt-in; unix only). Falls back to
    /// [`ArtifactSource::Read`] on **any** mapping error — including
    /// unsupported platforms — so the knob can only change paging
    /// behaviour, never correctness or availability.
    Mmap,
}

impl ArtifactSource {
    /// Lower-case name for logs and records.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactSource::Read => "read",
            ArtifactSource::Mmap => "mmap",
        }
    }
}

/// The artifact's bytes via the selected source. `Mmap` falls back to a
/// plain read on any error.
pub fn artifact_bytes(path: &Path, source: ArtifactSource) -> Result<Bytes, OndiskError> {
    if source == ArtifactSource::Mmap {
        if let Ok(bytes) = crate::mmap::map_file(path) {
            return Ok(bytes);
        }
    }
    let data = std::fs::read(path).map_err(|e| OndiskError::Io(e.to_string()))?;
    Ok(Bytes::from(data))
}

/// Load an artifact from `path`. IO failures map to [`OndiskError::Io`].
pub fn load_index(path: &Path) -> Result<LoadedIndex, OndiskError> {
    load_index_with(path, ArtifactSource::Read)
}

/// [`load_index`] with an explicit byte source ([`ArtifactSource`]).
/// With `Mmap`, postings become zero-copy views into the mapping —
/// pages fault in on demand instead of being copied up front.
pub fn load_index_with(path: &Path, source: ArtifactSource) -> Result<LoadedIndex, OndiskError> {
    load_index_bytes(artifact_bytes(path, source)?)
}

/// Decode an artifact from an in-memory buffer. Postings lists become
/// zero-copy views into `data`.
pub fn load_index_bytes(data: Bytes) -> Result<LoadedIndex, OndiskError> {
    // Header.
    if data.len() < HEADER_LEN {
        return Err(OndiskError::Truncated { context: "header" });
    }
    if data[0..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&data[0..4]);
        return Err(OndiskError::BadMagic { found });
    }
    let version = read_u32_at(&data, 4);
    if version != FORMAT_VERSION {
        return Err(OndiskError::UnsupportedVersion { found: version });
    }
    let meta_fingerprint = read_u64_at(&data, 8);
    let count = read_u32_at(&data, 16) as usize;
    if count != SECTION_IDS.len() {
        return Err(OndiskError::Malformed {
            context: "section count",
        });
    }

    // Section table + header checksum.
    let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
    if data.len() < table_end + 8 {
        return Err(OndiskError::Truncated {
            context: "section table",
        });
    }
    let recorded = read_u64_at(&data, table_end);
    if fnv1a(&data[..table_end]) != recorded {
        return Err(OndiskError::ChecksumMismatch { section: "header" });
    }

    // Sections: exactly the known ids, in order, within bounds, with
    // matching checksums; the file ends where the last section does.
    let mut sections: Vec<Bytes> = Vec::with_capacity(count);
    let mut expected_end = table_end + 8;
    for (i, &want_id) in SECTION_IDS.iter().enumerate() {
        let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let id = read_u32_at(&data, base);
        let name = section_name(want_id);
        if id != want_id {
            return Err(OndiskError::Malformed {
                context: "section table ids",
            });
        }
        let offset = usize::try_from(read_u64_at(&data, base + 4))
            .map_err(|_| OndiskError::SectionBounds { section: name })?;
        let len = usize::try_from(read_u64_at(&data, base + 12))
            .map_err(|_| OndiskError::SectionBounds { section: name })?;
        let checksum = read_u64_at(&data, base + 20);
        let end = offset
            .checked_add(len)
            .ok_or(OndiskError::SectionBounds { section: name })?;
        if offset != expected_end || end > data.len() {
            return Err(OndiskError::SectionBounds { section: name });
        }
        expected_end = end;
        let payload = data.slice(offset..end);
        if fnv1a(&payload) != checksum {
            return Err(OndiskError::ChecksumMismatch { section: name });
        }
        sections.push(payload);
    }
    if expected_end != data.len() {
        return Err(OndiskError::TrailingBytes {
            expected_len: expected_end,
            actual_len: data.len(),
        });
    }

    let interner = decode_terms(&sections[0])?;
    // Docstats first: postings validation bounds doc ids (and reads doc
    // lengths for the score bounds) through `doc_lengths`.
    let (doc_lengths, total_tokens) = decode_docstats(&sections[2])?;
    let (postings, walked_bounds) = decode_postings(&sections[1], interner.len(), &doc_lengths)?;
    let phrases = decode_phrases(&sections[3], doc_lengths.len() as u32)?;
    // The stored bounds must agree entry-for-entry with what the
    // validating postings walk just recomputed — a checksum-consistent
    // forgery (or writer bug) can neither loosen nor tighten pruning.
    let bounds = decode_bounds(&sections[4], interner.len())?;
    if bounds != walked_bounds {
        return Err(OndiskError::Malformed {
            context: "bounds section inconsistent with postings",
        });
    }
    Ok(LoadedIndex {
        index: InvertedIndex::from_parts(interner, postings, bounds, doc_lengths, total_tokens),
        phrases,
        meta_fingerprint,
    })
}

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_TERMS => "terms",
        SEC_POSTINGS => "postings",
        SEC_DOCSTATS => "docstats",
        SEC_PHRASES => "phrases",
        SEC_BOUNDS => "bounds",
        _ => "unknown",
    }
}

fn read_u32_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("bounds checked"))
}

/// Bounds-checked sequential reader over one section payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8], context: &'static str) -> Cursor<'a> {
        Cursor {
            data,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], OndiskError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(OndiskError::Truncated {
                context: self.context,
            })?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, OndiskError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, OndiskError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn varint(&mut self) -> Result<u32, OndiskError> {
        read_varint(self.data, &mut self.pos).ok_or(OndiskError::Malformed {
            context: self.context,
        })
    }

    /// Safe pre-allocation for `n` upcoming entries of at least
    /// `min_entry_len` bytes each: never more than the remaining bytes
    /// could possibly hold, so a crafted count (e.g. `0xFFFF_FFFF` with
    /// a recomputed checksum — FNV-1a only defends against *accidental*
    /// corruption) cannot force a giant allocation. Decoding still
    /// fails with a typed error when the entries don't materialize.
    fn capacity(&self, n: usize, min_entry_len: usize) -> usize {
        n.min((self.data.len() - self.pos) / min_entry_len.max(1))
    }

    fn finish(&self) -> Result<(), OndiskError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(OndiskError::Malformed {
                context: self.context,
            })
        }
    }
}

fn decode_terms(section: &[u8]) -> Result<Interner, OndiskError> {
    let mut c = Cursor::new(section, "terms section");
    let n = c.u32()? as usize;
    let mut ends = Vec::with_capacity(c.capacity(n, 4));
    let mut last = 0u32;
    for _ in 0..n {
        let end = c.u32()?;
        if end < last {
            return Err(OndiskError::Malformed {
                context: "term offsets not ascending",
            });
        }
        ends.push(end);
        last = end;
    }
    let blob = c.take(last as usize)?;
    c.finish()?;
    let mut interner = Interner::with_capacity(n);
    let mut start = 0usize;
    for &end in &ends {
        let term = std::str::from_utf8(&blob[start..end as usize]).map_err(|_| {
            OndiskError::Malformed {
                context: "term not utf-8",
            }
        })?;
        let id = interner.intern(term);
        if id.index() + 1 != interner.len() {
            return Err(OndiskError::Malformed {
                context: "duplicate term in dictionary",
            });
        }
        start = end as usize;
    }
    Ok(interner)
}

fn decode_postings(
    section: &Bytes,
    num_terms: usize,
    doc_lengths: &[u32],
) -> Result<(Vec<PostingsList>, Vec<TermBound>), OndiskError> {
    let mut c = Cursor::new(section, "postings section");
    let n = c.u32()? as usize;
    if n != num_terms {
        return Err(OndiskError::Malformed {
            context: "postings/terms count mismatch",
        });
    }
    struct Dir {
        offset: u64,
        len: u32,
        doc_count: u32,
        collection_freq: u64,
    }
    let mut dirs = Vec::with_capacity(c.capacity(n, 24));
    for _ in 0..n {
        dirs.push(Dir {
            offset: c.u64()?,
            len: c.u32()?,
            doc_count: c.u32()?,
            collection_freq: c.u64()?,
        });
    }
    let blob_base = c.pos;
    let blob_len = section.len() - blob_base;
    let mut lists = Vec::with_capacity(n);
    let mut bounds = Vec::with_capacity(n);
    for d in &dirs {
        let off = usize::try_from(d.offset).map_err(|_| OndiskError::Malformed {
            context: "postings offset overflow",
        })?;
        let end = off
            .checked_add(d.len as usize)
            .filter(|&e| e <= blob_len)
            .ok_or(OndiskError::Malformed {
                context: "postings entry out of blob bounds",
            })?;
        // Zero-copy: the list's data is a view into the file buffer.
        let data = section.slice(blob_base + off..blob_base + end);
        // One linear, allocation-free pass over the stream: checksums
        // only defend against accidental corruption, so a *crafted*
        // artifact could otherwise smuggle wrapping doc deltas or a
        // giant tf into the trusting query-time decoder. After this,
        // `PostingsIter` can stay lean. The same pass derives the
        // term's exact score-bound statistics as a byproduct — ground
        // truth for the BOUNDS section.
        let stats = crate::postings::validate_stream(&data, d.doc_count, doc_lengths).ok_or(
            OndiskError::Malformed {
                context: "postings stream invalid",
            },
        )?;
        if stats.cf != d.collection_freq {
            return Err(OndiskError::Malformed {
                context: "postings collection frequency mismatch",
            });
        }
        bounds.push(TermBound {
            max_tf: stats.max_tf,
            min_len: stats.min_len,
        });
        lists.push(PostingsList::from_encoded(
            data,
            d.doc_count,
            d.collection_freq,
        ));
    }
    Ok((lists, bounds))
}

fn decode_bounds(section: &[u8], num_terms: usize) -> Result<Vec<TermBound>, OndiskError> {
    let mut c = Cursor::new(section, "bounds section");
    let n = c.u32()? as usize;
    if n != num_terms {
        return Err(OndiskError::Malformed {
            context: "bounds/terms count mismatch",
        });
    }
    let mut out = Vec::with_capacity(c.capacity(n, 8));
    for _ in 0..n {
        out.push(TermBound {
            max_tf: c.u32()?,
            min_len: c.u32()?,
        });
    }
    c.finish()?;
    Ok(out)
}

fn decode_docstats(section: &[u8]) -> Result<(Vec<u32>, u64), OndiskError> {
    let mut c = Cursor::new(section, "docstats section");
    let n = c.u32()? as usize;
    let total_tokens = c.u64()?;
    let mut doc_lengths = Vec::with_capacity(c.capacity(n, 4));
    for _ in 0..n {
        doc_lengths.push(c.u32()?);
    }
    c.finish()?;
    Ok((doc_lengths, total_tokens))
}

fn decode_phrases(section: &[u8], num_docs: u32) -> Result<Vec<PhraseCacheEntry>, OndiskError> {
    let mut c = Cursor::new(section, "phrases section");
    let n = c.u32()? as usize;
    // Minimal phrase entry: word count + one word length + hit count
    // + collection prob = 20 bytes.
    let mut out = Vec::with_capacity(c.capacity(n, 20));
    for _ in 0..n {
        let n_words = c.u32()? as usize;
        if n_words == 0 {
            return Err(OndiskError::Malformed {
                context: "empty phrase",
            });
        }
        let mut words = Vec::with_capacity(c.capacity(n_words, 4));
        for _ in 0..n_words {
            let len = c.u32()? as usize;
            let word = std::str::from_utf8(c.take(len)?).map_err(|_| OndiskError::Malformed {
                context: "phrase word not utf-8",
            })?;
            words.push(word.to_owned());
        }
        let n_hits = c.u32()? as usize;
        let mut hits = Vec::with_capacity(c.capacity(n_hits, 2));
        let mut last_doc = 0u32;
        // Structural validation, like `validate_stream` for postings:
        // these hits are seeded straight into the engine's phrase cache
        // and then indexed into per-doc tables, so a crafted entry with
        // an out-of-range doc id would panic at query time, and a
        // duplicate doc, zero tf, or non-finite probability would
        // silently poison scores.
        for i in 0..n_hits {
            let delta = c.varint()?;
            let tf = c.varint()?;
            let doc = if i == 0 {
                delta
            } else {
                if delta == 0 {
                    return Err(OndiskError::Malformed {
                        context: "phrase hit docs not ascending",
                    });
                }
                last_doc.checked_add(delta).ok_or(OndiskError::Malformed {
                    context: "phrase hit doc overflow",
                })?
            };
            if doc >= num_docs {
                return Err(OndiskError::Malformed {
                    context: "phrase hit doc out of range",
                });
            }
            if tf == 0 {
                return Err(OndiskError::Malformed {
                    context: "phrase hit with zero tf",
                });
            }
            last_doc = doc;
            hits.push(PhraseHit { doc, tf });
        }
        let collection_prob = f64::from_bits(c.u64()?);
        if !collection_prob.is_finite() || !(0.0..=1.0).contains(&collection_prob) {
            return Err(OndiskError::Malformed {
                context: "phrase collection probability out of range",
            });
        }
        out.push(PhraseCacheEntry {
            words,
            hits,
            collection_prob,
        });
    }
    c.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::index::IndexBuilder;
    use crate::query_lang::parse;

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document("a gondola on the grand canal of venice");
        b.add_document("the grand hotel beside a small canal");
        b.add_document("");
        b.add_document("venice has many bridges and one grand canal");
        b.build()
    }

    fn artifact() -> Vec<u8> {
        let engine = SearchEngine::new(small_index());
        engine.search(&parse("#1(grand canal)").unwrap(), 5);
        engine.search(&parse("#1(venice)").unwrap(), 5);
        let phrases = engine.export_phrase_cache();
        encode_index(engine.index(), &phrases, 0xFEED_F00D)
    }

    fn assert_index_eq(a: &InvertedIndex, b: &InvertedIndex) {
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.num_terms(), b.num_terms());
        assert_eq!(a.total_tokens(), b.total_tokens());
        for d in 0..a.num_docs() as u32 {
            assert_eq!(a.doc_len(d), b.doc_len(d));
        }
        for t in 0..a.num_terms() {
            let t = TermId(t as u32);
            assert_eq!(a.interner().resolve(t), b.interner().resolve(t));
            let pa = a.postings(t);
            let pb = b.postings(t);
            assert_eq!(pa.doc_count(), pb.doc_count());
            assert_eq!(pa.collection_freq(), pb.collection_freq());
            assert_eq!(pa.iter().collect::<Vec<_>>(), pb.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let built = small_index();
        let engine = SearchEngine::new(built);
        engine.search(&parse("#1(grand canal)").unwrap(), 5);
        let phrases = engine.export_phrase_cache();
        let bytes = encode_index(engine.index(), &phrases, 42);
        let loaded = load_index_bytes(Bytes::from(bytes)).expect("round trip");
        assert_eq!(loaded.meta_fingerprint, 42);
        assert_eq!(loaded.phrases, phrases);
        assert_index_eq(engine.index(), &loaded.index);
    }

    #[test]
    fn loaded_engine_searches_identically() {
        let engine = SearchEngine::new(small_index());
        let bytes = encode_index(engine.index(), &[], 0);
        let loaded = load_index_bytes(Bytes::from(bytes)).expect("loads");
        let loaded_engine = SearchEngine::new(loaded.index);
        for q in [
            "#1(grand canal)",
            "#combine(#1(grand canal) venice)",
            "#weight(0.9 venice 0.1 canal)",
            "the",
        ] {
            let q = parse(q).unwrap();
            assert_eq!(engine.search(&q, 10), loaded_engine.search(&q, 10), "{q:?}");
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = IndexBuilder::new().build();
        let bytes = encode_index(&idx, &[], 7);
        let loaded = load_index_bytes(Bytes::from(bytes)).expect("empty loads");
        assert_eq!(loaded.index.num_docs(), 0);
        assert_eq!(loaded.index.num_terms(), 0);
        assert!(loaded.phrases.is_empty());
    }

    #[test]
    fn save_and_load_via_file() {
        let dir = std::env::temp_dir().join("querygraph-ondisk-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("roundtrip.qgidx");
        let idx = small_index();
        save_index(&path, &idx, &[], 9).expect("saves");
        let loaded = load_index(&path).expect("loads");
        assert_eq!(loaded.meta_fingerprint, 9);
        assert_index_eq(&idx, &loaded.index);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_index(Path::new("/nonexistent/nope.qgidx")).unwrap_err();
        assert!(matches!(err, OndiskError::Io(_)), "{err:?}");
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = artifact();
        bytes[0..4].copy_from_slice(b"NOPE");
        assert_eq!(
            load_index_bytes(Bytes::from(bytes)).unwrap_err(),
            OndiskError::BadMagic { found: *b"NOPE" }
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = artifact();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            load_index_bytes(Bytes::from(bytes)).unwrap_err(),
            OndiskError::UnsupportedVersion { found: 99 }
        );
    }

    #[test]
    fn loaded_bounds_match_built_bounds() {
        let idx = small_index();
        let bytes = encode_index(&idx, &[], 0);
        let loaded = load_index_bytes(Bytes::from(bytes)).expect("loads");
        for t in 0..idx.num_terms() {
            let t = TermId(t as u32);
            assert_eq!(loaded.index.term_bound(t), idx.term_bound(t));
        }
        assert_eq!(loaded.index.min_doc_len(), idx.min_doc_len());
    }

    #[test]
    fn lying_bounds_section_rejected() {
        // Checksums can be recomputed by a forger; the loader must
        // still reject a bounds section that disagrees with the
        // postings (it would silently mis-prune).
        let idx = small_index();
        let craft = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bounds = encode_bounds(&idx);
            mutate(&mut bounds);
            assemble(
                &[
                    (SEC_TERMS, encode_terms(&idx)),
                    (SEC_POSTINGS, encode_postings(&idx)),
                    (SEC_DOCSTATS, encode_docstats(&idx)),
                    (SEC_PHRASES, encode_phrases(&[])),
                    (SEC_BOUNDS, bounds),
                ],
                0,
            )
        };
        // Loosened max_tf of term 0 (first u32 after the count).
        let loose = craft(&|b| b[4..8].copy_from_slice(&u32::MAX.to_le_bytes()));
        assert_eq!(
            load_index_bytes(Bytes::from(loose)).unwrap_err(),
            OndiskError::Malformed {
                context: "bounds section inconsistent with postings",
            }
        );
        // Tightened min_len of term 0 (would over-prune).
        let tight = craft(&|b| b[8..12].copy_from_slice(&u32::MAX.to_le_bytes()));
        assert_eq!(
            load_index_bytes(Bytes::from(tight)).unwrap_err(),
            OndiskError::Malformed {
                context: "bounds section inconsistent with postings",
            }
        );
        // Wrong count.
        let short = craft(&|b| {
            let n = u32::from_le_bytes(b[0..4].try_into().unwrap());
            b[0..4].copy_from_slice(&(n - 1).to_le_bytes());
            b.truncate(b.len() - 8);
        });
        assert_eq!(
            load_index_bytes(Bytes::from(short)).unwrap_err(),
            OndiskError::Malformed {
                context: "bounds/terms count mismatch",
            }
        );
        // Untampered control still loads.
        let good = craft(&|_| {});
        load_index_bytes(Bytes::from(good)).expect("consistent bounds load");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = artifact();
        bytes.push(0xAB);
        assert!(matches!(
            load_index_bytes(Bytes::from(bytes)).unwrap_err(),
            OndiskError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = artifact();
        for len in 0..bytes.len() {
            let result = load_index_bytes(Bytes::from(bytes[..len].to_vec()));
            assert!(
                result.is_err(),
                "truncation to {len}/{} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_byte_flip_errors_never_panics() {
        // The corruption battery: flipping any single byte anywhere in
        // the artifact must produce a typed error. Header and table are
        // covered by the header checksum, payloads by their section
        // checksums, the fingerprint by the header checksum, and
        // appended bytes by the length check — so no flip can load.
        let bytes = artifact();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let result = load_index_bytes(Bytes::from(corrupt));
            assert!(result.is_err(), "flip at byte {i} must fail, not load");
        }
    }

    #[test]
    fn crafted_phrase_entries_rejected_at_load() {
        // A forger can recompute FNV-1a checksums, so structural
        // validation must catch phrase entries that would panic or
        // poison scores at query time.
        let idx = small_index(); // 4 docs
        let entry = |hits: Vec<PhraseHit>, prob: f64| PhraseCacheEntry {
            words: vec!["grand".into(), "canal".into()],
            hits,
            collection_prob: prob,
        };
        let cases = [
            // Hit doc beyond the collection (would index OOB in the
            // workspace's doc_len lookup).
            entry(vec![PhraseHit { doc: 4, tf: 1 }], 0.01),
            // Duplicate / non-ascending hit docs.
            entry(
                vec![PhraseHit { doc: 1, tf: 1 }, PhraseHit { doc: 1, tf: 1 }],
                0.01,
            ),
            // Zero tf.
            entry(vec![PhraseHit { doc: 1, tf: 0 }], 0.01),
            // Non-finite / out-of-range collection probability.
            entry(vec![PhraseHit { doc: 1, tf: 1 }], f64::NAN),
            entry(vec![PhraseHit { doc: 1, tf: 1 }], 2.0),
        ];
        for (i, bad) in cases.into_iter().enumerate() {
            let bytes = encode_index(&idx, std::slice::from_ref(&bad), 0);
            let err = load_index_bytes(Bytes::from(bytes));
            assert!(
                matches!(err, Err(OndiskError::Malformed { .. })),
                "crafted phrase case {i} must be rejected, got {err:?}"
            );
        }
        // A well-formed entry still loads.
        let good = entry(vec![PhraseHit { doc: 1, tf: 2 }], 0.01);
        let bytes = encode_index(&idx, std::slice::from_ref(&good), 0);
        let loaded = load_index_bytes(Bytes::from(bytes)).expect("good entry loads");
        assert_eq!(loaded.phrases, vec![good]);
    }

    #[test]
    fn single_bit_flips_in_checksums_and_counts_error() {
        // Denser probe around the most safety-critical fields: every
        // bit of the header (version, fingerprint, section count) and
        // of the first table entry.
        let bytes = artifact();
        let probe = HEADER_LEN + TABLE_ENTRY_LEN;
        for byte in 4..probe {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    load_index_bytes(Bytes::from(corrupt)).is_err(),
                    "bit {bit} of byte {byte} must not load"
                );
            }
        }
    }

    proptest::proptest! {
        /// Write → load is lossless for arbitrary indexed content.
        #[test]
        fn round_trip_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..8, 0..40),
                0..12,
            ),
            fingerprint in 0u64..=u64::MAX,
        ) {
            const VOCAB: [&str; 8] = [
                "alpha", "beta", "gamma", "delta",
                "epsilon", "zeta", "eta", "theta",
            ];
            let mut b = IndexBuilder::new();
            for d in &docs {
                let text: Vec<&str> =
                    d.iter().map(|&x| VOCAB[x as usize]).collect();
                b.add_document(&text.join(" "));
            }
            let idx = b.build();
            let engine = SearchEngine::new(idx);
            engine.search(&parse("#1(alpha beta)").unwrap(), 5);
            let phrases = engine.export_phrase_cache();
            let bytes = encode_index(engine.index(), &phrases, fingerprint);
            let loaded = load_index_bytes(Bytes::from(bytes)).expect("loads");
            proptest::prop_assert_eq!(loaded.meta_fingerprint, fingerprint);
            proptest::prop_assert_eq!(&loaded.phrases, &phrases);
            assert_index_eq(engine.index(), &loaded.index);
        }
    }
}
