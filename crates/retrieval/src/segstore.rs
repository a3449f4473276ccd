//! LSM-style generational segment store for incrementally grown indexes.
//!
//! The one sharded on-disk layout. The paper-scale corpus (237k
//! ImageCLEF docs) arrives as a *dump* that we want to index in bounded
//! memory and keep serving while it grows, and a `--shards N` index
//! cache is the same thing published once — so both are a directory of
//! `QGIX` segments under a generational manifest:
//!
//! * **Segments** — each ingest batch freezes into one independently
//!   checksummed `QGIX` file (`seg-<seq>.qgidx`, local doc ids), written
//!   atomically and never modified afterwards.
//! * **Generational manifest** — `segstore.qgss` lists the live
//!   segments in global doc-id order. Every publish bumps `generation`
//!   and replaces the manifest via temp + rename: the rename *is* the
//!   commit point. A crash between segment write and manifest swap
//!   leaves orphan segment files that no manifest references — the old
//!   generation still loads cleanly.
//! * **Serving** — a generation's segments are contiguous doc-id
//!   slices, which is exactly what
//!   [`ShardedEngine::from_shards`](crate::sharded::ShardedEngine)
//!   accepts: the generation serves directly as a K-shard engine,
//!   byte-identical to a monolithic build over the same docs (global
//!   stats aggregated once; see `sharded`'s identity argument).
//! * **Compaction** — [`reslice`] merges a generation's postings into N
//!   balanced shards (`doc_ranges` partition) without re-tokenizing:
//!   postings, positions, doc lengths and totals are preserved exactly,
//!   and per-term bounds are recomputed with the builder's formula, so
//!   reports from a compacted index are byte-identical to a from-scratch
//!   rebuild. Compacted output replaces the store's segments
//!   ([`SegStore::replace_segments`]).
//!
//! Manifest layout (little-endian):
//!
//! ```text
//! magic "QGSS" (4)  version u32  fingerprint u64  generation u64
//! next_seq u64      segment_count u32
//! per segment: seq u64  num_docs u32  total_tokens u64
//! checksum u64 — FNV-1a of every preceding byte
//! ```

use crate::engine::{PhraseCacheEntry, SearchEngine};
use crate::index::{InvertedIndex, TermBound};
use crate::lm::LmParams;
use crate::ondisk::{
    encode_index, fnv1a, load_index_with, write_atomic, ArtifactSource, LoadedIndex, OndiskError,
};
use crate::par::parallel_map;
use crate::postings::PostingsBuilder;
use crate::sharded::doc_ranges;
use querygraph_text::{Interner, TermId};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Manifest magic: "QGSS" (QueryGraph Segment Store).
pub const SEGSTORE_MAGIC: [u8; 4] = *b"QGSS";

/// Manifest format version; the loader refuses other versions.
pub const SEGSTORE_FORMAT_VERSION: u32 = 1;

/// Manifest file name inside a segstore directory.
pub const MANIFEST_FILE: &str = "segstore.qgss";

/// Typed segstore failure. Loading never panics; every error names the
/// failing piece.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegStoreError {
    /// Filesystem-level failure (directory, segment write, ...).
    Io(String),
    /// The manifest failed to read or validate.
    Manifest(OndiskError),
    /// A listed segment failed to load or disagreed with the manifest.
    Segment {
        /// The failing segment's sequence number.
        seq: u64,
        /// The segment loader's typed failure.
        source: OndiskError,
    },
}

impl fmt::Display for SegStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegStoreError::Io(m) => write!(f, "segstore I/O: {m}"),
            SegStoreError::Manifest(e) => write!(f, "segstore manifest: {e}"),
            SegStoreError::Segment { seq, source } => write!(f, "segment {seq}: {source}"),
        }
    }
}

impl std::error::Error for SegStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegStoreError::Io(_) => None,
            SegStoreError::Manifest(e) => Some(e),
            SegStoreError::Segment { source, .. } => Some(source),
        }
    }
}

/// One live segment as listed in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotonic sequence number; names the file and keys its embedded
    /// fingerprint.
    pub seq: u64,
    /// Documents in the segment.
    pub num_docs: u32,
    /// Token total of the segment.
    pub total_tokens: u64,
}

/// The decoded generational manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Store fingerprint (world configuration); segments embed a
    /// per-seq derivative of it.
    pub fingerprint: u64,
    /// Publish counter; bumped by every commit.
    pub generation: u64,
    /// Next unused segment sequence number.
    pub next_seq: u64,
    /// Live segments in global doc-id order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Total documents across live segments.
    pub fn total_docs(&self) -> u64 {
        self.segments.iter().map(|s| s.num_docs as u64).sum()
    }

    /// Total tokens across live segments.
    pub fn total_tokens(&self) -> u64 {
        self.segments.iter().map(|s| s.total_tokens).sum()
    }

    /// A fingerprint of this exact generation (store fingerprint,
    /// generation counter, live segment set) — the cache-epoch key that
    /// makes expansions from different generations distinguishable.
    pub fn generation_fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 + self.segments.len() * 8);
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        bytes.extend_from_slice(&self.generation.to_le_bytes());
        for s in &self.segments {
            bytes.extend_from_slice(&s.seq.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    fn encode(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut m: Vec<u8> = Vec::new();
        m.put_slice(&SEGSTORE_MAGIC);
        m.put_u32_le(SEGSTORE_FORMAT_VERSION);
        m.put_u64_le(self.fingerprint);
        m.put_u64_le(self.generation);
        m.put_u64_le(self.next_seq);
        m.put_u32_le(self.segments.len() as u32);
        for s in &self.segments {
            m.put_u64_le(s.seq);
            m.put_u32_le(s.num_docs);
            m.put_u64_le(s.total_tokens);
        }
        let checksum = fnv1a(&m);
        m.put_u64_le(checksum);
        m
    }

    fn decode(m: &[u8]) -> Result<Manifest, OndiskError> {
        const HEAD: usize = 4 + 4 + 8 + 8 + 8 + 4;
        if m.len() < HEAD + 8 {
            return Err(OndiskError::Truncated {
                context: "segstore manifest",
            });
        }
        if m[0..4] != SEGSTORE_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&m[0..4]);
            return Err(OndiskError::BadMagic { found });
        }
        let u32_at =
            |at: usize| u32::from_le_bytes(m[at..at + 4].try_into().expect("bounds checked"));
        let u64_at =
            |at: usize| u64::from_le_bytes(m[at..at + 8].try_into().expect("bounds checked"));
        let version = u32_at(4);
        if version != SEGSTORE_FORMAT_VERSION {
            return Err(OndiskError::UnsupportedVersion { found: version });
        }
        let fingerprint = u64_at(8);
        let generation = u64_at(16);
        let next_seq = u64_at(24);
        let count = u32_at(32) as usize;
        let expected_len = HEAD + count * 20 + 8;
        if m.len() != expected_len {
            return Err(if m.len() < expected_len {
                OndiskError::Truncated {
                    context: "segstore manifest",
                }
            } else {
                OndiskError::TrailingBytes {
                    expected_len,
                    actual_len: m.len(),
                }
            });
        }
        let recorded = u64_at(expected_len - 8);
        if fnv1a(&m[..expected_len - 8]) != recorded {
            return Err(OndiskError::ChecksumMismatch {
                section: "segstore manifest",
            });
        }
        let mut segments = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEAD + i * 20;
            let seq = u64_at(at);
            if seq >= next_seq {
                return Err(OndiskError::Malformed {
                    context: "segment seq beyond next_seq",
                });
            }
            segments.push(SegmentMeta {
                seq,
                num_docs: u32_at(at + 8),
                total_tokens: u64_at(at + 12),
            });
        }
        Ok(Manifest {
            fingerprint,
            generation,
            next_seq,
            segments,
        })
    }
}

/// The embedded fingerprint of segment `seq` in a store keyed by
/// `store_fingerprint` — a renamed or cross-copied segment file is
/// rejected at load.
pub fn segment_fp(store_fingerprint: u64, seq: u64) -> u64 {
    let mut bytes = [0u8; 17];
    bytes[..8].copy_from_slice(&store_fingerprint.to_le_bytes());
    bytes[8..16].copy_from_slice(&seq.to_le_bytes());
    bytes[16] = b'S'; // domain tag, part of every written segment's identity
    fnv1a(&bytes)
}

/// Segment file name for a sequence number.
pub fn segment_file(seq: u64) -> String {
    format!("seg-{seq:06}.qgidx")
}

/// Manifest path inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Read and validate the manifest in `dir`; `Ok(None)` when the store
/// has never published (no manifest file).
pub fn read_manifest(
    dir: &Path,
    expected_fingerprint: u64,
) -> Result<Option<Manifest>, SegStoreError> {
    let path = manifest_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SegStoreError::Manifest(OndiskError::Io(e.to_string()))),
    };
    let manifest = Manifest::decode(&bytes).map_err(SegStoreError::Manifest)?;
    if manifest.fingerprint != expected_fingerprint {
        return Err(SegStoreError::Manifest(OndiskError::MetaMismatch {
            expected: expected_fingerprint,
            found: manifest.fingerprint,
        }));
    }
    Ok(Some(manifest))
}

/// A writable segment store rooted at one directory.
///
/// Writes follow the two-phase LSM discipline: [`SegStore::stage_segment`]
/// writes an (unreferenced) segment file, [`SegStore::publish`] appends
/// the staged set to the manifest in one atomic swap. A crash at any
/// point between the two leaves the previous generation intact.
#[derive(Debug)]
pub struct SegStore {
    dir: PathBuf,
    manifest: Manifest,
    /// Next sequence number to hand out to staged segments (runs ahead
    /// of `manifest.next_seq` until publish).
    alloc_seq: u64,
}

impl SegStore {
    /// Open (creating the directory if needed) the store at `dir`,
    /// keyed by the world-configuration `fingerprint`. An existing
    /// manifest with a different fingerprint is a typed error.
    pub fn open(dir: &Path, fingerprint: u64) -> Result<SegStore, SegStoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SegStoreError::Io(format!("{}: {e}", dir.display())))?;
        let manifest = read_manifest(dir, fingerprint)?.unwrap_or(Manifest {
            fingerprint,
            generation: 0,
            next_seq: 0,
            segments: Vec::new(),
        });
        let alloc_seq = manifest.next_seq;
        Ok(SegStore {
            dir: dir.to_path_buf(),
            manifest,
            alloc_seq,
        })
    }

    /// The current (last-published or initial) manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Phase 1: write one batch's index — and the phrase dictionary
    /// to embed with it (`&[]` for none) — as a new segment file. The
    /// segment is durable but *not live* until [`SegStore::publish`]
    /// lists it — a crash here leaves only an orphan file.
    pub fn stage_segment(
        &mut self,
        index: &InvertedIndex,
        phrases: &[PhraseCacheEntry],
    ) -> Result<SegmentMeta, SegStoreError> {
        let seq = self.alloc_seq;
        let bytes = encode_index(index, phrases, segment_fp(self.manifest.fingerprint, seq));
        write_atomic(&self.dir.join(segment_file(seq)), &bytes)
            .map_err(|e| SegStoreError::Io(format!("segment {seq}: {e}")))?;
        self.alloc_seq += 1;
        Ok(SegmentMeta {
            seq,
            num_docs: index.num_docs() as u32,
            total_tokens: index.total_tokens(),
        })
    }

    /// Phase 2: append staged segments to the live set and swap the
    /// manifest atomically (the commit point). Bumps the generation
    /// even when `staged` is empty.
    pub fn publish(&mut self, staged: &[SegmentMeta]) -> Result<&Manifest, SegStoreError> {
        let mut next = self.manifest.clone();
        next.segments.extend_from_slice(staged);
        next.generation += 1;
        next.next_seq = self.alloc_seq;
        self.write_manifest(next)
    }

    /// Convenience: stage one segment and publish it (one generation
    /// bump per batch).
    pub fn commit_segment(&mut self, index: &InvertedIndex) -> Result<SegmentMeta, SegStoreError> {
        let meta = self.stage_segment(index, &[])?;
        self.publish(&[meta])?;
        Ok(meta)
    }

    /// Replace the *entire* live segment set with `staged` (compaction's
    /// commit): atomic manifest swap first, then best-effort removal of
    /// the replaced segment files. Readers holding the old generation
    /// keep their loaded data; new loads see only the new set.
    pub fn replace_segments(&mut self, staged: &[SegmentMeta]) -> Result<&Manifest, SegStoreError> {
        let old: Vec<u64> = self.manifest.segments.iter().map(|s| s.seq).collect();
        let mut next = self.manifest.clone();
        next.segments = staged.to_vec();
        next.generation += 1;
        next.next_seq = self.alloc_seq;
        self.write_manifest(next)?;
        for seq in old {
            if !staged.iter().any(|s| s.seq == seq) {
                std::fs::remove_file(self.dir.join(segment_file(seq))).ok();
            }
        }
        Ok(&self.manifest)
    }

    fn write_manifest(&mut self, next: Manifest) -> Result<&Manifest, SegStoreError> {
        write_atomic(&manifest_path(&self.dir), &next.encode())
            .map_err(|e| SegStoreError::Io(format!("manifest: {e}")))?;
        self.manifest = next;
        Ok(&self.manifest)
    }
}

/// A fully loaded generation: the manifest plus one loaded index per
/// live segment, in global doc-id order.
#[derive(Debug)]
pub struct LoadedGeneration {
    /// The manifest this load observed.
    pub manifest: Manifest,
    /// Loaded segments (index + phrase dictionary), manifest order.
    pub segments: Vec<LoadedIndex>,
    /// Wall-clock seconds each segment took to read + decode, manifest
    /// order (segments load in parallel, so these can sum past the
    /// call's own wall clock).
    pub segment_load_seconds: Vec<f64>,
}

impl LoadedGeneration {
    /// Wrap every segment in a [`SearchEngine`] (manifest order) — the
    /// shard vector for
    /// [`ShardedEngine::from_shards`](crate::sharded::ShardedEngine::from_shards).
    pub fn into_engines(self, params: LmParams) -> Vec<SearchEngine> {
        self.segments
            .into_iter()
            .map(|l| {
                let engine = SearchEngine::with_params(l.index, params);
                engine.seed_phrase_cache(l.phrases);
                engine
            })
            .collect()
    }
}

/// Load the current generation in `dir`; `Ok(None)` when the store has
/// never published. Segments load in parallel (one worker per core, at
/// most one per segment); each is independently checksummed by the
/// `QGIX` loader and pinned to its manifest slot via [`segment_fp`], and
/// the first failure in manifest order is the one reported. A
/// generation no engine could serve — no segments, or more documents
/// than the `u32` doc-id space holds — is a typed manifest error.
pub fn load_generation(
    dir: &Path,
    expected_fingerprint: u64,
    source: ArtifactSource,
) -> Result<Option<LoadedGeneration>, SegStoreError> {
    let Some(manifest) = read_manifest(dir, expected_fingerprint)? else {
        return Ok(None);
    };
    if manifest.segments.is_empty() {
        return Err(SegStoreError::Manifest(OndiskError::Malformed {
            context: "generation lists no segments",
        }));
    }
    if u32::try_from(manifest.total_docs()).is_err() {
        return Err(SegStoreError::Manifest(OndiskError::Malformed {
            context: "generation doc count exceeds the u32 doc-id space",
        }));
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(manifest.segments.len());
    let results = parallel_map(manifest.segments.len(), threads, |slot| {
        let t = Instant::now();
        let result = load_segment(dir, manifest.fingerprint, &manifest.segments[slot], source);
        (result, t.elapsed().as_secs_f64())
    });
    let mut segments = Vec::with_capacity(results.len());
    let mut segment_load_seconds = Vec::with_capacity(results.len());
    for (meta, (result, seconds)) in manifest.segments.iter().zip(results) {
        segments.push(result.map_err(|source| SegStoreError::Segment {
            seq: meta.seq,
            source,
        })?);
        segment_load_seconds.push(seconds);
    }
    Ok(Some(LoadedGeneration {
        manifest,
        segments,
        segment_load_seconds,
    }))
}

/// Load one listed segment and hold it to its manifest entry.
fn load_segment(
    dir: &Path,
    store_fingerprint: u64,
    meta: &SegmentMeta,
    source: ArtifactSource,
) -> Result<LoadedIndex, OndiskError> {
    let loaded = load_index_with(&dir.join(segment_file(meta.seq)), source)?;
    let want = segment_fp(store_fingerprint, meta.seq);
    if loaded.meta_fingerprint != want {
        return Err(OndiskError::MetaMismatch {
            expected: want,
            found: loaded.meta_fingerprint,
        });
    }
    if loaded.index.num_docs() != meta.num_docs as usize
        || loaded.index.total_tokens() != meta.total_tokens
    {
        return Err(OndiskError::Malformed {
            context: "segment stats disagree with manifest",
        });
    }
    Ok(loaded)
}

/// Merge `segments` (contiguous doc-id slices in order) into `shards`
/// balanced indexes along the [`doc_ranges`] partition — compaction's
/// core. No re-tokenization: postings, positions, per-doc lengths and
/// token totals are copied exactly; per-term bounds are recomputed with
/// the builder's formula over the copied postings. Scoring reads terms
/// by string and statistics as integer sums, so an engine over the
/// resliced shards is report-byte-identical to a from-scratch build
/// over the same documents.
pub fn reslice(segments: &[&InvertedIndex], shards: usize) -> Vec<InvertedIndex> {
    let total_docs: usize = segments.iter().map(|s| s.num_docs()).sum();
    let mut bases = Vec::with_capacity(segments.len());
    let mut next = 0usize;
    for s in segments {
        bases.push(next);
        next += s.num_docs();
    }
    doc_ranges(total_docs, shards)
        .into_iter()
        .map(|range| reslice_one(segments, &bases, range))
        .collect()
}

fn reslice_one(segments: &[&InvertedIndex], bases: &[usize], range: Range<usize>) -> InvertedIndex {
    let mut interner = Interner::default();
    let mut accum: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
    let mut doc_lengths: Vec<u32> = vec![0; range.len()];
    let mut total_tokens = 0u64;
    for (si, seg) in segments.iter().enumerate() {
        let base = bases[si];
        let lo = range.start.max(base);
        let hi = range.end.min(base + seg.num_docs());
        if lo >= hi {
            continue;
        }
        for g in lo..hi {
            let len = seg.doc_len((g - base) as u32);
            doc_lengths[g - range.start] = len;
            total_tokens += len as u64;
        }
        for t in 0..seg.num_terms() {
            let tid = TermId(t as u32);
            let mut out_id: Option<TermId> = None;
            for p in seg.postings(tid).iter() {
                let g = base + p.doc as usize;
                if g < lo {
                    continue;
                }
                if g >= hi {
                    break; // postings are doc-ascending
                }
                let id =
                    *out_id.get_or_insert_with(|| interner.intern(seg.interner().resolve(tid)));
                if id.index() >= accum.len() {
                    accum.push(Vec::new());
                }
                accum[id.index()].push(((g - range.start) as u32, p.positions));
            }
        }
    }
    let bounds = accum
        .iter()
        .map(|entries| {
            let mut bound = TermBound::EMPTY;
            for (doc, positions) in entries {
                bound.max_tf = bound.max_tf.max(positions.len() as u32);
                bound.min_len = bound.min_len.min(doc_lengths[*doc as usize]);
            }
            bound.normalized()
        })
        .collect();
    let postings = accum
        .into_iter()
        .map(|entries| {
            let mut b = PostingsBuilder::new();
            for (doc, positions) in entries {
                b.push(doc, &positions);
            }
            b.build()
        })
        .collect();
    InvertedIndex::from_parts(interner, postings, bounds, doc_lengths, total_tokens)
}

/// Compact the store in place: load the current generation, reslice it
/// into `shards` segments, stage them, and atomically replace the live
/// set. Returns the new manifest's generation fingerprint. No-op
/// (returns `None`) when the store has never published.
pub fn compact(
    store: &mut SegStore,
    shards: usize,
    source: ArtifactSource,
) -> Result<Option<u64>, SegStoreError> {
    let Some(generation) = load_generation(store.dir(), store.manifest().fingerprint, source)?
    else {
        return Ok(None);
    };
    let indexes: Vec<&InvertedIndex> = generation.segments.iter().map(|l| &l.index).collect();
    let merged = reslice(&indexes, shards);
    let mut staged = Vec::with_capacity(merged.len());
    for index in &merged {
        staged.push(store.stage_segment(index, &[])?);
    }
    store.replace_segments(&staged)?;
    Ok(Some(store.manifest().generation_fingerprint()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RetrievalBackend;
    use crate::index::IndexBuilder;
    use crate::query_lang::parse;
    use crate::sharded::ShardedEngine;

    const DOCS: [&str; 9] = [
        "a gondola on the grand canal of venice",
        "the grand hotel beside a small canal",
        "",
        "venice has many bridges and one grand canal",
        "completely unrelated text about mountains",
        "gondola gondola gondola",
        "the grand canal venice gondola rides",
        "canal boats and bridges of venice",
        "mountain huts far from any canal",
    ];

    const QUERIES: [&str; 6] = [
        "#1(grand canal)",
        "#combine(#1(grand canal) venice)",
        "#combine(gondola venice #1(small canal))",
        "#weight(0.9 venice 0.1 canal)",
        "the",
        "#combine(zzzz gondola)",
    ];

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("querygraph-segstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn index_of(docs: &[&str]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build()
    }

    fn mono(docs: &[&str]) -> SearchEngine {
        SearchEngine::new(index_of(docs))
    }

    /// Commit `docs` in batches of `batch` docs each.
    fn ingest(store: &mut SegStore, docs: &[&str], batch: usize) {
        for chunk in docs.chunks(batch.max(1)) {
            store.commit_segment(&index_of(chunk)).expect("commit");
        }
    }

    fn engine_of(dir: &Path, fp: u64) -> ShardedEngine {
        let gen = load_generation(dir, fp, ArtifactSource::Read)
            .expect("load")
            .expect("published");
        ShardedEngine::from_shards(gen.into_engines(LmParams::default()), LmParams::default())
    }

    #[test]
    fn incremental_generation_matches_monolithic() {
        let dir = temp_dir("inc");
        let fp = 0x5EC5;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS, 2);
        assert_eq!(store.manifest().segments.len(), 5);
        assert_eq!(store.manifest().total_docs(), DOCS.len() as u64);
        let engine = engine_of(&dir, fp);
        let m = mono(&DOCS);
        for q in QUERIES {
            let q = parse(q).unwrap();
            assert_eq!(engine.search(&q, 10), m.search(&q, 10), "{q:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_grow_and_fingerprints_change() {
        let dir = temp_dir("gens");
        let mut store = SegStore::open(&dir, 1).expect("open");
        assert_eq!(store.manifest().generation, 0);
        store.commit_segment(&index_of(&DOCS[..3])).unwrap();
        let g1 = store.manifest().generation_fingerprint();
        assert_eq!(store.manifest().generation, 1);
        store.commit_segment(&index_of(&DOCS[3..])).unwrap();
        assert_eq!(store.manifest().generation, 2);
        let g2 = store.manifest().generation_fingerprint();
        assert_ne!(g1, g2, "generation fingerprint must change on publish");
        // Reopen sees the published state.
        let reopened = SegStore::open(&dir, 1).expect("reopen");
        assert_eq!(reopened.manifest(), store.manifest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_fingerprint_rejected() {
        let dir = temp_dir("wrongfp");
        let mut store = SegStore::open(&dir, 7).expect("open");
        store.commit_segment(&index_of(&DOCS[..2])).unwrap();
        match SegStore::open(&dir, 8) {
            Err(SegStoreError::Manifest(OndiskError::MetaMismatch { expected, found })) => {
                assert_eq!((expected, found), (8, 7));
            }
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        assert!(matches!(
            load_generation(&dir, 8, ArtifactSource::Read),
            Err(SegStoreError::Manifest(OndiskError::MetaMismatch { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_loads_as_none() {
        let dir = temp_dir("empty");
        let store = SegStore::open(&dir, 1).expect("open");
        assert_eq!(store.manifest().generation, 0);
        assert!(load_generation(&dir, 1, ArtifactSource::Read)
            .expect("load")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    // ── crash consistency ───────────────────────────────────────────
    //
    // Simulate a kill at every step between segment write and manifest
    // swap: after each intermediate on-disk state, the *old* generation
    // must still load cleanly.

    #[test]
    fn crash_after_stage_before_publish_keeps_old_generation() {
        let dir = temp_dir("crash-stage");
        let fp = 0xC;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS[..4], 2);
        let old = store.manifest().clone();

        // "Crash": stage a new segment but never publish.
        store.stage_segment(&index_of(&DOCS[4..]), &[]).unwrap();
        drop(store);

        let gen = load_generation(&dir, fp, ArtifactSource::Read)
            .expect("old generation loads")
            .expect("published");
        assert_eq!(gen.manifest, old);
        assert_eq!(gen.manifest.total_docs(), 4);
        // Reopening and committing later re-uses a fresh seq (no clash
        // with the orphan — the orphan is simply overwritten or ignored).
        let mut store = SegStore::open(&dir, fp).expect("reopen");
        store.commit_segment(&index_of(&DOCS[4..])).unwrap();
        let engine = engine_of(&dir, fp);
        let m = mono(&DOCS);
        for q in QUERIES {
            let q = parse(q).unwrap();
            assert_eq!(engine.search(&q, 10), m.search(&q, 10), "{q:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_with_truncated_staged_segment_keeps_old_generation() {
        let dir = temp_dir("crash-trunc");
        let fp = 0xD;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS[..4], 4);
        let old = store.manifest().clone();
        let meta = store.stage_segment(&index_of(&DOCS[4..]), &[]).unwrap();
        // Corrupt the staged (unreferenced) file in every truncation.
        let staged_path = dir.join(segment_file(meta.seq));
        let bytes = std::fs::read(&staged_path).unwrap();
        for len in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&staged_path, &bytes[..len]).unwrap();
            let gen = load_generation(&dir, fp, ArtifactSource::Read)
                .expect("old generation loads")
                .expect("published");
            assert_eq!(gen.manifest, old, "truncation to {len}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_leaving_tmp_manifest_keeps_old_generation() {
        let dir = temp_dir("crash-tmp");
        let fp = 0xE;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS[..4], 4);
        let old = store.manifest().clone();
        // "Crash" mid-rename: a temp manifest file exists beside the
        // real one (any name the atomic writer might have used).
        std::fs::write(
            manifest_path(&dir).with_extension("qgss.tmp.12345"),
            b"junk",
        )
        .unwrap();
        let gen = load_generation(&dir, fp, ArtifactSource::Read)
            .expect("old generation loads")
            .expect("published");
        assert_eq!(gen.manifest, old);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_write_is_typed_never_panics() {
        let dir = temp_dir("torn");
        let fp = 0xF;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS, 3);
        let path = manifest_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        // Every prefix of the manifest (a torn non-atomic write) and
        // every single-byte flip must be a typed error or a valid load.
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            match load_generation(&dir, fp, ArtifactSource::Read) {
                Err(SegStoreError::Manifest(_)) => {}
                other => panic!("torn manifest at {len}: {other:?}"),
            }
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            std::fs::write(&path, &corrupt).unwrap();
            let _ = load_generation(&dir, fp, ArtifactSource::Read);
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_generation(&dir, fp, ArtifactSource::Read).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    // ── compaction ──────────────────────────────────────────────────

    #[test]
    fn reslice_preserves_search_exactly() {
        let m = mono(&DOCS);
        // Build segments of uneven sizes, then reslice to various
        // shard counts; every engine must match the monolithic one.
        let segs = [
            index_of(&DOCS[..1]),
            index_of(&DOCS[1..5]),
            index_of(&DOCS[5..]),
        ];
        let seg_refs: Vec<&InvertedIndex> = segs.iter().collect();
        for n in [1usize, 2, 3, 4, 7] {
            let shards = reslice(&seg_refs, n);
            assert_eq!(shards.len(), n);
            let engines: Vec<SearchEngine> = shards.into_iter().map(SearchEngine::new).collect();
            let engine = ShardedEngine::from_shards(engines, LmParams::default());
            assert_eq!(engine.num_docs(), DOCS.len());
            assert_eq!(engine.total_tokens(), m.index().total_tokens());
            for q in QUERIES {
                let q = parse(q).unwrap();
                assert_eq!(engine.search(&q, 10), m.search(&q, 10), "n={n} {q:?}");
            }
        }
    }

    #[test]
    fn reslice_to_one_matches_fresh_build_statistics() {
        let segs = [index_of(&DOCS[..4]), index_of(&DOCS[4..])];
        let seg_refs: Vec<&InvertedIndex> = segs.iter().collect();
        let merged = reslice(&seg_refs, 1).remove(0);
        let fresh = index_of(&DOCS);
        assert_eq!(merged.num_docs(), fresh.num_docs());
        assert_eq!(merged.num_terms(), fresh.num_terms());
        assert_eq!(merged.total_tokens(), fresh.total_tokens());
        assert_eq!(merged.min_doc_len(), fresh.min_doc_len());
        for doc in 0..fresh.num_docs() as u32 {
            assert_eq!(merged.doc_len(doc), fresh.doc_len(doc));
        }
        // Every term's postings (docs, tf, positions) and bounds match.
        for t in 0..fresh.num_terms() {
            let tid = TermId(t as u32);
            let term = fresh.interner().resolve(tid);
            let mid = merged.term_id(term).expect("term present after merge");
            let a: Vec<(u32, Vec<u32>)> = fresh
                .postings(tid)
                .iter()
                .map(|p| (p.doc, p.positions))
                .collect();
            let b: Vec<(u32, Vec<u32>)> = merged
                .postings(mid)
                .iter()
                .map(|p| (p.doc, p.positions))
                .collect();
            assert_eq!(a, b, "postings for {term:?}");
            assert_eq!(
                fresh.term_bound(tid),
                merged.term_bound(mid),
                "bounds for {term:?}"
            );
        }
    }

    #[test]
    fn compact_in_place_shrinks_segments_and_preserves_results() {
        let dir = temp_dir("compact");
        let fp = 0xAB;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS, 1); // 9 tiny segments
        assert_eq!(store.manifest().segments.len(), 9);
        let before = engine_of(&dir, fp);
        let gen_fp = compact(&mut store, 2, ArtifactSource::Read)
            .expect("compacts")
            .expect("published store");
        assert_eq!(store.manifest().segments.len(), 2);
        assert_eq!(store.manifest().generation_fingerprint(), gen_fp);
        // Replaced segment files are gone; live ones load.
        let after = engine_of(&dir, fp);
        let m = mono(&DOCS);
        for q in QUERIES {
            let q = parse(q).unwrap();
            let expected = m.search(&q, 10);
            assert_eq!(before.search(&q, 10), expected, "{q:?} before");
            assert_eq!(after.search(&q, 10), expected, "{q:?} after");
        }
        let live: Vec<String> = store
            .manifest()
            .segments
            .iter()
            .map(|s| segment_file(s.seq))
            .collect();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".qgidx") {
                assert!(live.contains(&name), "orphan {name} should be removed");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        /// Random worlds, random batch splits, random compaction width:
        /// the segstore engine (raw generation and compacted) must match
        /// the monolithic engine exactly.
        #[test]
        fn segstore_equals_monolithic_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 0..16),
                1..14,
            ),
            batch in 1usize..6,
            shards in 1usize..5,
            qpick in 0u8..6,
        ) {
            const VOCAB: [&str; 6] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "alpha beta"];
            let texts: Vec<String> = docs
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|&x| VOCAB[x as usize])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let m = mono(&refs);
            let queries = [
                "#combine(alpha beta)",
                "#1(beta gamma)",
                "#weight(0.7 alpha 0.3 #1(alpha beta))",
                "#combine(#1(gamma delta) delta)",
                "delta",
                "#combine(alpha #1(beta gamma) zeta)",
            ];
            let q = parse(queries[qpick as usize % queries.len()]).unwrap();
            let expected = m.search(&q, 10);

            // Raw generation: per-batch segments as shards.
            let seg_indexes: Vec<InvertedIndex> =
                refs.chunks(batch).map(index_of).collect();
            let gen_engines: Vec<SearchEngine> = refs
                .chunks(batch)
                .map(|c| SearchEngine::new(index_of(c)))
                .collect();
            let gen = ShardedEngine::from_shards(gen_engines, LmParams::default());
            proptest::prop_assert_eq!(&gen.search(&q, 10), &expected);

            // Compacted: reslice the same segments into `shards`.
            let seg_refs: Vec<&InvertedIndex> = seg_indexes.iter().collect();
            let compacted: Vec<SearchEngine> = reslice(&seg_refs, shards)
                .into_iter()
                .map(SearchEngine::new)
                .collect();
            let comp = ShardedEngine::from_shards(compacted, LmParams::default());
            proptest::prop_assert_eq!(&comp.search(&q, 10), &expected);
        }
    }

    // ── load failures: typed, slot-ordered, never a panic ───────────

    /// A store whose live seqs differ from their manifest slots (nine
    /// one-doc segments compacted to three: seqs 9, 10, 11).
    fn compacted_store(tag: &str, fp: u64) -> (PathBuf, Manifest) {
        let dir = temp_dir(tag);
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS, 1);
        compact(&mut store, 3, ArtifactSource::Read).expect("compacts");
        let manifest = store.manifest().clone();
        assert_eq!(
            manifest.segments.iter().map(|s| s.seq).collect::<Vec<_>>(),
            [9, 10, 11]
        );
        (dir, manifest)
    }

    #[test]
    fn staged_phrase_dictionaries_arrive_warm() {
        let dir = temp_dir("staged-phrases");
        let fp = 0x9A;
        let engines: Vec<SearchEngine> = DOCS.chunks(3).map(mono).collect();
        for engine in &engines {
            engine.warm_phrase(&["grand".to_string(), "canal".to_string()]);
            engine.warm_phrase(&["venice".to_string()]);
        }
        let mut store = SegStore::open(&dir, fp).expect("open");
        let staged: Vec<SegmentMeta> = engines
            .iter()
            .map(|e| store.stage_segment(e.index(), &e.export_phrase_cache()))
            .collect::<Result<_, _>>()
            .expect("stages");
        store.publish(&staged).expect("publishes");
        let generation = load_generation(&dir, fp, ArtifactSource::Read)
            .expect("loads")
            .expect("published");
        assert_eq!(generation.segment_load_seconds.len(), 3);
        let loaded = generation.into_engines(LmParams::default());
        for (built, loaded) in engines.iter().zip(&loaded) {
            assert_eq!(built.export_phrase_cache(), loaded.export_phrase_cache());
            assert_eq!(loaded.phrase_cache_len(), 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_names_its_seq_never_panics() {
        let (dir, _) = compacted_store("corrupt", 0x99);
        let victim = dir.join(segment_file(10));
        let bytes = std::fs::read(&victim).expect("segment exists");
        let load = || load_generation(&dir, 0x99, ArtifactSource::Read).map(|_| ());
        // Flip a sample of bytes across the whole segment, then
        // truncate it: every damage is a typed error naming seq 10.
        let step = (bytes.len() / 200).max(1);
        for i in (0..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            std::fs::write(&victim, &corrupt).expect("write corrupt segment");
            match load() {
                Err(SegStoreError::Segment { seq: 10, .. }) => {}
                other => panic!("flip at byte {i}: expected Segment{{10}}, got {other:?}"),
            }
        }
        for len in [0, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&victim, &bytes[..len]).expect("truncate segment");
            let err = load().expect_err("truncated segment must fail");
            assert!(
                matches!(err, SegStoreError::Segment { seq: 10, .. }),
                "truncation to {len}: {err:?}"
            );
            assert!(err.to_string().contains("segment 10"), "{err}");
        }
        // Two damaged segments: the lower manifest slot is the one
        // reported, however the parallel loads interleave.
        std::fs::write(dir.join(segment_file(11)), b"junk").expect("damage the last segment");
        for _ in 0..8 {
            assert!(matches!(
                load(),
                Err(SegStoreError::Segment { seq: 10, .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapped_segment_files_are_rejected_by_segment_fp() {
        let (dir, _) = compacted_store("swap", 0x77);
        let (a, b) = (dir.join(segment_file(9)), dir.join(segment_file(10)));
        let tmp = dir.join("swap.tmp");
        std::fs::rename(&a, &tmp).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(&tmp, &b).unwrap();
        match load_generation(&dir, 0x77, ArtifactSource::Read) {
            Err(SegStoreError::Segment {
                seq: 9,
                source: OndiskError::MetaMismatch { expected, found },
            }) => assert_eq!(
                (expected, found),
                (segment_fp(0x77, 9), segment_fp(0x77, 10))
            ),
            other => panic!("expected seq-9 MetaMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unservable_generations_are_typed_manifest_errors() {
        // Both manifests are checksum-valid on-disk bytes: one lists no
        // segments, one lists more documents than u32 doc ids can name.
        let (dir, manifest) = compacted_store("unservable", 0x55);
        let huge = SegmentMeta {
            seq: 9,
            num_docs: u32::MAX,
            total_tokens: 1,
        };
        for segments in [Vec::new(), vec![huge, SegmentMeta { seq: 10, ..huge }]] {
            let crafted = Manifest {
                segments,
                ..manifest.clone()
            };
            std::fs::write(manifest_path(&dir), crafted.encode()).expect("plant manifest");
            assert_eq!(
                read_manifest(&dir, 0x55).expect("decodes"),
                Some(crafted),
                "the manifest itself is well-formed"
            );
            match load_generation(&dir, 0x55, ArtifactSource::Read) {
                Err(SegStoreError::Manifest(OndiskError::Malformed { .. })) => {}
                other => panic!("expected a typed manifest error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_generation_exposes_phrase_surface() {
        let dir = temp_dir("phrases");
        let fp = 0x11;
        let mut store = SegStore::open(&dir, fp).expect("open");
        ingest(&mut store, &DOCS, 3);
        let engine = engine_of(&dir, fp);
        let m = mono(&DOCS);
        let phrase = vec!["grand".to_string(), "canal".to_string()];
        let a = RetrievalBackend::resolve_phrase(&m, &phrase);
        let b = engine.resolve_phrase(&phrase);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.collection_prob.to_bits(), b.collection_prob.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }
}
