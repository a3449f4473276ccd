//! Positional postings lists with delta-varint encoding.
//!
//! Each term's postings are a sequence of documents; each document entry
//! stores the term's positions in that document. The on-heap layout is a
//! single contiguous [`bytes::Bytes`] buffer:
//!
//! ```text
//! ┌ per document ──────────────────────────────────────────────┐
//! │ varint(doc_id delta)  varint(tf)  varint(pos delta) × tf   │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Doc ids and positions are strictly increasing, so deltas are small
//! and LEB128 varints keep the index compact (the real ImageCLEF
//! collection has 237k documents; compactness is not cosmetic).
//!
//! One walker decodes the stream: [`PostingsCursor`] reads each entry's
//! `(doc, tf)` and decodes its positions only when asked, stepping over
//! their bytes otherwise. Term leaves and single-word phrases never
//! touch positions, and phrase matching decodes them only for documents
//! every phrase term shares. [`PostingsIter`] is the cursor decoding
//! every entry's positions into a fresh [`DocPosting`].

use bytes::{BufMut, Bytes, BytesMut};

/// Append `v` as a LEB128 varint.
pub(crate) fn write_varint(buf: &mut impl BufMut, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a LEB128 varint at `pos`, advancing it. Returns `None` on
/// truncated input and on **non-canonical** encodings: a fifth byte
/// whose high bits would overflow `u32` (`> 0x0F`), any encoding longer
/// than five bytes, and zero-padded continuations (`0x80 0x00` for 0).
/// [`write_varint`] only ever produces canonical encodings, so every
/// valid buffer round-trips; rejecting the rest means corrupted or
/// adversarial buffers fail loudly instead of silently mis-decoding.
///
/// This runs in the scoring hot loop, so the dominant case — a
/// single-byte varint (small postings deltas) — takes the early return
/// below and pays nothing for the canonicality checks; only
/// continuation bytes enter the checked loop.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Option<u32> {
    let &first = data.get(*pos)?;
    *pos += 1;
    if first & 0x80 == 0 {
        return Some(first as u32);
    }
    let mut out = (first & 0x7F) as u32;
    let mut shift = 7u32;
    loop {
        let &byte = data.get(*pos)?;
        *pos += 1;
        if byte == 0 {
            // Trailing zero byte: the same value encodes in fewer
            // bytes, so this encoding is non-canonical.
            return None;
        }
        if shift == 28 && byte > 0x0F {
            // Fifth byte: only 4 value bits fit in a u32; higher value
            // bits or a set continuation bit would overflow (this also
            // bounds the loop at five bytes).
            return None;
        }
        out |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
    }
}

/// What one [`validate_stream`] pass proves about a postings stream:
/// the collection frequency the directory must agree with, plus the
/// term's score-bound statistics ([`crate::index::TermBound`] inputs) —
/// computed here because the validating walk already touches every
/// entry, so the pruning bounds cost nothing extra to derive and the
/// loader can cross-check (or reconstruct) the artifact's stored bounds
/// against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamStats {
    /// Sum of tfs across the stream.
    pub(crate) cf: u64,
    /// Highest tf of any entry; 0 for an empty stream.
    pub(crate) max_tf: u32,
    /// Shortest document (token count) among the stream's docs; 0 for
    /// an empty stream.
    pub(crate) min_len: u32,
}

/// Walk an encoded postings stream **without allocating**, verifying it
/// is exactly what a [`PostingsBuilder`] could have produced: exactly
/// `doc_count` entries of canonical varints, strictly ascending
/// non-wrapping doc ids (all `< doc_lengths.len()`), `tf ≥ 1`, strictly
/// ascending non-wrapping positions, and full consumption of the
/// buffer. Returns the stream's [`StreamStats`] on success — the
/// on-disk loader compares the collection frequency against the
/// directory's recorded value and the bound statistics against the
/// artifact's bounds section. Cost is one linear pass; crafted counts
/// can't balloon memory because nothing here allocates ([`PostingsIter`]
/// allocates a position vector per entry and checks neither order nor
/// doc range).
pub(crate) fn validate_stream(
    data: &[u8],
    doc_count: u32,
    doc_lengths: &[u32],
) -> Option<StreamStats> {
    let num_docs = doc_lengths.len() as u32;
    let mut pos = 0usize;
    let mut last_doc = 0u32;
    let mut cf = 0u64;
    let mut max_tf = 0u32;
    let mut min_len = u32::MAX;
    for i in 0..doc_count {
        let delta = read_varint(data, &mut pos)?;
        let doc = if i == 0 {
            delta
        } else {
            if delta == 0 {
                return None; // docs must be strictly ascending
            }
            last_doc.checked_add(delta)?
        };
        if doc >= num_docs {
            return None;
        }
        last_doc = doc;
        min_len = min_len.min(doc_lengths[doc as usize]);
        let tf = read_varint(data, &mut pos)?;
        if tf == 0 {
            return None; // builder requires ≥ 1 position per entry
        }
        max_tf = max_tf.max(tf);
        let mut last_position = 0u32;
        for j in 0..tf {
            let pdelta = read_varint(data, &mut pos)?;
            last_position = if j == 0 {
                pdelta
            } else {
                if pdelta == 0 {
                    return None; // positions must be strictly ascending
                }
                last_position.checked_add(pdelta)?
            };
        }
        cf += tf as u64;
    }
    if pos != data.len() {
        return None; // trailing bytes the doc_count doesn't account for
    }
    Some(StreamStats {
        cf,
        max_tf,
        // Match `TermBound`'s all-zero convention for empty postings.
        min_len: if doc_count == 0 { 0 } else { min_len },
    })
}

/// One decoded document entry of a postings list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DocPosting {
    /// Document id.
    pub(crate) doc: u32,
    /// Term positions in the document, ascending.
    pub(crate) positions: Vec<u32>,
}

/// An immutable, encoded postings list.
#[derive(Debug, Clone, Default)]
pub(crate) struct PostingsList {
    data: Bytes,
    doc_count: u32,
    collection_freq: u64,
}

impl PostingsList {
    /// Reassemble a list from its encoded parts — the on-disk loader's
    /// entry point ([`crate::ondisk`]). `data` is trusted to be the
    /// exact encoding a [`PostingsBuilder`] produced (the artifact's
    /// per-section checksums vouch for it before this is called).
    pub(crate) fn from_encoded(data: Bytes, doc_count: u32, collection_freq: u64) -> PostingsList {
        PostingsList {
            data,
            doc_count,
            collection_freq,
        }
    }

    /// The encoded postings bytes (delta-varint stream).
    pub(crate) fn encoded_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of documents containing the term.
    pub(crate) fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Total occurrences of the term across the collection.
    pub(crate) fn collection_freq(&self) -> u64 {
        self.collection_freq
    }

    /// Encoded size in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        self.data.len()
    }

    /// Iterate decoded document entries in doc-id order.
    pub(crate) fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            cursor: self.cursor(),
        }
    }

    /// A position-lazy cursor over the entries in doc-id order: each
    /// entry yields `(doc, tf)`, and its positions are decoded only on
    /// request.
    pub(crate) fn cursor(&self) -> PostingsCursor<'_> {
        PostingsCursor {
            data: &self.data,
            pos: 0,
            last_doc: 0,
            first: true,
            remaining: self.doc_count,
            unread_positions: 0,
        }
    }
}

/// Position-lazy decoder over a [`PostingsList`] — the one varint
/// walker behind [`PostingsIter`], phrase matching and term leaves.
///
/// [`PostingsCursor::next_entry`] yields `(doc, tf)`; the entry's
/// position bytes stay unread until [`PostingsCursor::positions_into`]
/// decodes them, and the next `next_entry` steps over them if nobody
/// asked. Both return `None` on a truncated or non-canonical varint,
/// after which the cursor yields nothing further — as they do on a doc
/// id or position that would overflow `u32`, so garbled bytes end the
/// walk instead of panicking.
pub(crate) struct PostingsCursor<'a> {
    data: &'a [u8],
    pos: usize,
    last_doc: u32,
    first: bool,
    remaining: u32,
    /// Positions of the current entry whose bytes are not yet read.
    unread_positions: u32,
}

impl PostingsCursor<'_> {
    /// The next entry's `(doc, tf)`, stepping over the previous entry's
    /// unread positions.
    #[inline]
    pub(crate) fn next_entry(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let entry = self.read_entry();
        if entry.is_none() {
            self.remaining = 0;
        }
        entry
    }

    #[inline]
    fn read_entry(&mut self) -> Option<(u32, u32)> {
        for _ in 0..self.unread_positions {
            read_varint(self.data, &mut self.pos)?;
        }
        let delta = read_varint(self.data, &mut self.pos)?;
        let doc = if self.first {
            self.first = false;
            delta
        } else {
            self.last_doc.checked_add(delta)?
        };
        self.last_doc = doc;
        let tf = read_varint(self.data, &mut self.pos)?;
        self.unread_positions = tf;
        self.remaining -= 1;
        Some((doc, tf))
    }

    /// Decode the current entry's positions (ascending) into `out`,
    /// replacing its contents. Call at most once per entry, after
    /// [`PostingsCursor::next_entry`]; a second call yields no
    /// positions.
    #[inline]
    pub(crate) fn positions_into(&mut self, out: &mut Vec<u32>) -> Option<()> {
        out.clear();
        let decoded = self.read_positions(out);
        if decoded.is_none() {
            self.remaining = 0;
        }
        decoded
    }

    #[inline]
    fn read_positions(&mut self, out: &mut Vec<u32>) -> Option<()> {
        let tf = std::mem::take(&mut self.unread_positions);
        if tf == 0 {
            return Some(());
        }
        let mut last = read_varint(self.data, &mut self.pos)?;
        out.push(last);
        for _ in 1..tf {
            last = last.checked_add(read_varint(self.data, &mut self.pos)?)?;
            out.push(last);
        }
        Some(())
    }
}

/// Decoding iterator over a [`PostingsList`]: a [`PostingsCursor`] that
/// decodes every entry's positions.
pub(crate) struct PostingsIter<'a> {
    cursor: PostingsCursor<'a>,
}

impl Iterator for PostingsIter<'_> {
    type Item = DocPosting;

    fn next(&mut self) -> Option<DocPosting> {
        let (doc, tf) = self.cursor.next_entry()?;
        // Each position takes at least one byte: capping by the bytes
        // left keeps a garbled tf from pre-sizing a huge vector.
        let bytes_left = self.cursor.data.len() - self.cursor.pos;
        let mut positions = Vec::with_capacity((tf as usize).min(bytes_left));
        self.cursor.positions_into(&mut positions)?;
        Some(DocPosting { doc, positions })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.cursor.remaining as usize;
        (remaining, Some(remaining))
    }
}

/// Incremental encoder. Documents must be appended in ascending doc-id
/// order with ascending positions.
#[derive(Debug, Default)]
pub(crate) struct PostingsBuilder {
    buf: BytesMut,
    last_doc: u32,
    first: bool,
    doc_count: u32,
    collection_freq: u64,
}

impl PostingsBuilder {
    /// An empty builder.
    pub(crate) fn new() -> Self {
        PostingsBuilder {
            first: true,
            ..Default::default()
        }
    }

    /// Append one document's positions.
    ///
    /// # Panics
    /// If `doc` is not strictly greater than the previous doc, or
    /// `positions` is empty or not strictly ascending.
    pub(crate) fn push(&mut self, doc: u32, positions: &[u32]) {
        assert!(!positions.is_empty(), "postings entry needs ≥1 position");
        if self.first {
            write_varint(&mut self.buf, doc);
            self.first = false;
        } else {
            assert!(doc > self.last_doc, "docs must be strictly ascending");
            write_varint(&mut self.buf, doc - self.last_doc);
        }
        self.last_doc = doc;
        write_varint(&mut self.buf, positions.len() as u32);
        let mut last = 0u32;
        for (i, &p) in positions.iter().enumerate() {
            if i == 0 {
                write_varint(&mut self.buf, p);
            } else {
                assert!(p > last, "positions must be strictly ascending");
                write_varint(&mut self.buf, p - last);
            }
            last = p;
        }
        self.doc_count += 1;
        self.collection_freq += positions.len() as u64;
    }

    /// Freeze into an immutable list.
    pub(crate) fn build(self) -> PostingsList {
        PostingsList {
            data: self.buf.freeze(),
            doc_count: self.doc_count,
            collection_freq: self.collection_freq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        let mut buf = BytesMut::new();
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let data = buf.freeze();
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), Some(v));
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn truncated_varint_returns_none() {
        let data = [0x80u8]; // continuation bit with no next byte
        let mut pos = 0;
        assert_eq!(read_varint(&data, &mut pos), None);
    }

    #[test]
    fn oversized_fifth_byte_rejected() {
        // Regression: `shift >= 32` alone let a 5-byte varint whose
        // last byte had high bits set decode by silently dropping them.
        // 0xFF×4 + 0x1F claims 35 value bits — must be rejected, not
        // truncated to a wrong u32.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x1F];
        let mut pos = 0;
        assert_eq!(read_varint(&data, &mut pos), None);
        // The largest canonical 5-byte encoding (u32::MAX) still reads.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let mut pos = 0;
        assert_eq!(read_varint(&data, &mut pos), Some(u32::MAX));
    }

    #[test]
    fn fifth_byte_continuation_rejected() {
        // A fifth byte with the continuation bit set can never finish
        // inside u32 range, canonical or not.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0x00];
        let mut pos = 0;
        assert_eq!(read_varint(&data, &mut pos), None);
    }

    #[test]
    fn zero_padded_encodings_rejected() {
        // 0x80 0x00 is a non-canonical encoding of 0.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80, 0x00], &mut pos), None);
        // 0xFF 0x00 is a non-canonical encoding of 127.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xFF, 0x00], &mut pos), None);
        // Plain 0x00 (single byte zero) stays valid.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x00], &mut pos), Some(0));
    }

    #[test]
    fn validate_stream_accepts_builder_output() {
        let mut b = PostingsBuilder::new();
        b.push(0, &[0, 3, 7]);
        b.push(5, &[1]);
        b.push(6, &[0, 2]);
        let list = b.build();
        // Doc lengths chosen so min_len comes from doc 5, not doc 0.
        let doc_lengths = [9u32, 8, 8, 8, 8, 4, 6];
        assert_eq!(
            validate_stream(list.encoded_bytes(), list.doc_count(), &doc_lengths),
            Some(StreamStats {
                cf: list.collection_freq(),
                max_tf: 3,
                min_len: 4,
            })
        );
        // Empty list validates too, with the all-zero bound convention.
        let empty = PostingsBuilder::new().build();
        assert_eq!(
            validate_stream(empty.encoded_bytes(), 0, &[]),
            Some(StreamStats {
                cf: 0,
                max_tf: 0,
                min_len: 0,
            })
        );
    }

    #[test]
    fn validate_stream_rejects_crafted_streams() {
        let mut good = BytesMut::new();
        // One entry: doc 3, tf 2, positions [1, 4].
        for v in [3u32, 2, 1, 3] {
            write_varint(&mut good, v);
        }
        let cf = |r: Option<StreamStats>| r.map(|s| s.cf);
        assert_eq!(cf(validate_stream(&good, 1, &[5; 10])), Some(2));
        // Doc id beyond the collection.
        assert_eq!(validate_stream(&good, 1, &[5; 3]), None);
        // Wrong doc_count (too many / too few entries for the bytes).
        assert_eq!(validate_stream(&good, 2, &[5; 10]), None);
        assert_eq!(validate_stream(&good, 0, &[5; 10]), None);
        // tf = 0 (builder can never produce it).
        let mut tf0 = BytesMut::new();
        for v in [3u32, 0] {
            write_varint(&mut tf0, v);
        }
        assert_eq!(validate_stream(&tf0, 1, &[5; 10]), None);
        // Huge tf claiming more positions than the stream holds must
        // fail on truncation, never allocate.
        let mut huge = BytesMut::new();
        for v in [3u32, u32::MAX, 1] {
            write_varint(&mut huge, v);
        }
        assert_eq!(validate_stream(&huge, 1, &[5; 10]), None);
        // Zero doc delta on a non-first entry (non-ascending docs).
        let mut dup = BytesMut::new();
        for v in [3u32, 1, 0, 0, 1, 0] {
            write_varint(&mut dup, v);
        }
        assert_eq!(validate_stream(&dup, 2, &[5; 10]), None);
    }

    proptest::proptest! {
        /// Every canonical encoding (what `write_varint` emits) reads
        /// back; and reading never panics on arbitrary bytes.
        #[test]
        fn varint_canonical_round_trip_and_total_reader(
            v in 0u32..=u32::MAX,
            junk in proptest::collection::vec(0u8..=255, 0..12),
        ) {
            let mut buf = BytesMut::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            proptest::prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
            proptest::prop_assert_eq!(pos, buf.len());
            // Total on junk: Some or None, never a panic; on Some the
            // cursor stays in bounds.
            let mut pos = 0;
            if read_varint(&junk, &mut pos).is_some() {
                proptest::prop_assert!(pos <= junk.len());
            }
        }
    }

    #[test]
    fn postings_round_trip() {
        let mut b = PostingsBuilder::new();
        b.push(0, &[3, 7, 20]);
        b.push(5, &[0]);
        b.push(6, &[1, 2]);
        let list = b.build();
        assert_eq!(list.doc_count(), 3);
        assert_eq!(list.collection_freq(), 6);
        let decoded: Vec<DocPosting> = list.iter().collect();
        assert_eq!(
            decoded,
            vec![
                DocPosting {
                    doc: 0,
                    positions: vec![3, 7, 20]
                },
                DocPosting {
                    doc: 5,
                    positions: vec![0]
                },
                DocPosting {
                    doc: 6,
                    positions: vec![1, 2]
                },
            ]
        );
    }

    #[test]
    fn empty_list_iterates_nothing() {
        let list = PostingsBuilder::new().build();
        assert_eq!(list.iter().count(), 0);
        assert_eq!(list.doc_count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_non_ascending_docs() {
        let mut b = PostingsBuilder::new();
        b.push(5, &[0]);
        b.push(5, &[1]);
    }

    #[test]
    #[should_panic(expected = "needs ≥1 position")]
    fn rejects_empty_positions() {
        PostingsBuilder::new().push(0, &[]);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut b = PostingsBuilder::new();
        for d in 0..10u32 {
            b.push(d, &[d]);
        }
        let list = b.build();
        let mut it = list.iter();
        assert_eq!(it.size_hint(), (10, Some(10)));
        it.next();
        assert_eq!(it.size_hint(), (9, Some(9)));
    }

    #[test]
    fn encoding_is_compact_for_dense_ids() {
        let mut b = PostingsBuilder::new();
        for d in 0..1000u32 {
            b.push(d, &[0]);
        }
        let list = b.build();
        // delta=1 ids + tf=1 + pos=0 → 3 bytes per entry (first entry 3).
        assert!(list.encoded_len() <= 3000, "got {}", list.encoded_len());
    }

    proptest::proptest! {
        #[test]
        fn round_trip_random(entries in proptest::collection::vec(
            (0u32..10_000, proptest::collection::btree_set(0u32..5_000, 1..20)),
            0..50,
        )) {
            // Deduplicate and sort docs.
            let mut map = std::collections::BTreeMap::new();
            for (d, ps) in entries {
                map.entry(d).or_insert(ps);
            }
            let mut b = PostingsBuilder::new();
            for (d, ps) in &map {
                let positions: Vec<u32> = ps.iter().copied().collect();
                b.push(*d, &positions);
            }
            let list = b.build();
            let decoded: Vec<(u32, Vec<u32>)> =
                list.iter().map(|p| (p.doc, p.positions)).collect();
            let expected: Vec<(u32, Vec<u32>)> = map
                .into_iter()
                .map(|(d, ps)| (d, ps.into_iter().collect()))
                .collect();
            proptest::prop_assert_eq!(decoded, expected);
        }

        /// The cursor decodes exactly what `PostingsIter` does — on
        /// builder output, and on truncated or garbled copies of it,
        /// where both stop at the same entry. Stepping over positions
        /// without decoding them yields the same `(doc, tf)` sequence.
        #[test]
        fn cursor_matches_iter(
            entries in proptest::collection::vec(
                (0u32..10_000, proptest::collection::btree_set(0u32..5_000, 1..20)),
                0..40,
            ),
            cut in 0usize..600,
            flip_at in 0usize..600,
            flip_mask in 1u8..=255,
        ) {
            let mut map = std::collections::BTreeMap::new();
            for (d, ps) in entries {
                map.entry(d).or_insert(ps);
            }
            let mut b = PostingsBuilder::new();
            for (d, ps) in &map {
                let positions: Vec<u32> = ps.iter().copied().collect();
                b.push(*d, &positions);
            }
            let list = b.build();
            let via_cursor = |list: &PostingsList| {
                let mut out = Vec::new();
                let mut cursor = list.cursor();
                while let Some((doc, tf)) = cursor.next_entry() {
                    let mut positions = Vec::new();
                    if cursor.positions_into(&mut positions).is_none() {
                        break;
                    }
                    assert_eq!(positions.len(), tf as usize);
                    out.push((doc, positions));
                }
                out
            };
            let via_iter = |list: &PostingsList| -> Vec<(u32, Vec<u32>)> {
                list.iter().map(|p| (p.doc, p.positions)).collect()
            };
            proptest::prop_assert_eq!(via_cursor(&list), via_iter(&list));

            let mut skipped = Vec::new();
            let mut cursor = list.cursor();
            while let Some(entry) = cursor.next_entry() {
                skipped.push(entry);
            }
            let tfs: Vec<(u32, u32)> = list.iter().map(|p| (p.doc, p.positions.len() as u32)).collect();
            proptest::prop_assert_eq!(skipped, tfs);

            let data = list.encoded_bytes().to_vec();
            let truncated = PostingsList::from_encoded(
                Bytes::from(data[..cut.min(data.len())].to_vec()),
                list.doc_count(),
                list.collection_freq(),
            );
            proptest::prop_assert_eq!(via_cursor(&truncated), via_iter(&truncated));
            if !data.is_empty() {
                let mut garbled = data.clone();
                garbled[flip_at % data.len()] ^= flip_mask;
                let garbled = PostingsList::from_encoded(
                    Bytes::from(garbled),
                    list.doc_count(),
                    list.collection_freq(),
                );
                proptest::prop_assert_eq!(via_cursor(&garbled), via_iter(&garbled));
            }
        }
    }
}
