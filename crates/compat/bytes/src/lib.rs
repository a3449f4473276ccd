//! Offline shim of the `bytes` crate's append-and-freeze surface.
//!
//! [`Bytes`] is a view into an `Arc<[u8]>` — immutable, O(1) to clone,
//! and O(1) to [`Bytes::slice`]: sub-views share the same allocation,
//! which is the property the postings lists and the on-disk index
//! loader rely on (one file buffer, many section/postings views, no
//! copying). [`BytesMut`] is a growable buffer that freezes into one.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer (a view into shared storage).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing this buffer's storage — no copy, O(1).
    ///
    /// # Panics
    /// If the range is out of bounds or reversed, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds of {} bytes",
            self.len
        );
        Bytes {
            data: self.data.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: Arc::from(&[][..]),
            offset: 0,
            len: 0,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            offset: 0,
            len,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Append-side trait, as the real crate structures it.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);

    /// Append a byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append a `u32` little-endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.data.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

// The real crate implements `BufMut` for `Vec<u8>` too; encoders that
// hand their buffer onward (e.g. the on-disk index writer) use it to
// avoid a copy through `BytesMut`.
impl BufMut for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::{BufMut, Bytes, BytesMut};

    #[test]
    fn append_and_freeze() {
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_slice(&[2, 3]);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[1, 2, 3]);
        assert_eq!(frozen.len(), 3);
    }

    #[test]
    fn clone_is_shared() {
        let mut b = BytesMut::new();
        b.put_slice(&[9; 64]);
        let a = b.freeze();
        let c = a.clone();
        assert_eq!(&a[..], &c[..]);
    }

    #[test]
    fn default_is_empty() {
        assert!(Bytes::default().is_empty());
        assert!(BytesMut::new().is_empty());
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let whole = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let mid = whole.slice(8..16);
        assert_eq!(&mid[..], &(8u8..16).collect::<Vec<u8>>()[..]);
        // A slice of a slice composes offsets.
        let inner = mid.slice(2..4);
        assert_eq!(&inner[..], &[10, 11]);
        // Unbounded / inclusive bounds.
        assert_eq!(whole.slice(..).len(), 32);
        assert_eq!(whole.slice(30..).len(), 2);
        assert_eq!(&whole.slice(..=1)[..], &[0, 1]);
    }

    #[test]
    fn empty_slice_at_end_is_fine() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert!(b.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1, 2, 3]).slice(2..5);
    }

    #[test]
    fn from_vec_round_trips() {
        let v = vec![5u8, 6, 7];
        let b = Bytes::from(v.clone());
        assert_eq!(&b[..], &v[..]);
        assert_eq!(b, Bytes::from(v));
    }

    #[test]
    fn u64_le_append() {
        let mut b = BytesMut::new();
        b.put_u64_le(0x0102_0304_0506_0708);
        assert_eq!(&b[..], &[8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn vec_u8_implements_buf_mut() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u8(1);
        v.put_slice(&[2, 3]);
        v.put_u32_le(4);
        assert_eq!(v, vec![1, 2, 3, 4, 0, 0, 0]);
    }
}
