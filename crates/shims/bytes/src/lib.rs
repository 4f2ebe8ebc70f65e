//! Offline stand-in for `bytes`.
//!
//! Implements `Bytes` / `BytesMut` and the `Buf` / `BufMut` accessors the
//! transfer wire uses, with the real crate's conventions: network byte
//! order, panics on buffer underflow (callers guard with `remaining()`),
//! cheap clones and slices via a shared backing allocation.

use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

/// Immutable shared byte view with a read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view relative to the current view (no copy).
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "bytes: buffer underflow");
        let out = &self.data[self.start..self.start + n];
        self.start += n;
        out
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

/// Big-endian reads off the front of a buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u32(&mut self) -> u32;
    fn get_u64(&mut self) -> u64;
    fn get_i64(&mut self) -> i64;
    fn get_f64(&mut self) -> f64;
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    /// The next `len` bytes as a view sharing this buffer's allocation
    /// (as the real crate does for `Bytes`); the cursor moves past them.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.len() >= len, "bytes: buffer underflow");
        let out = self.slice(0..len);
        self.start += len;
        out
    }
}

/// Growable write buffer.
#[derive(Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Make room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

/// The written bytes, mutable in place (as in the real crate), so a
/// writer can patch a count it only knows after writing what it counts.
impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Big-endian writes onto the end of a buffer.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_i64(&mut self, v: i64);
    fn put_f64(&mut self, v: f64);
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_slicing() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_i64(-42);
        w.put_f64(1.5);
        w.put_slice(b"xyz");
        let mut b = w.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 3);
        let cut = b.slice(0..b.len() - 1);
        assert_eq!(cut.len(), b.len() - 1);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_i64(), -42);
        assert_eq!(b.get_f64(), 1.5);
        let tail = b.copy_to_bytes(3);
        assert_eq!(&*tail, b"xyz");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn copy_to_bytes_shares_the_buffer_and_advances() {
        let mut b = Bytes::from(b"headbody".to_vec());
        let head = b.copy_to_bytes(4);
        assert_eq!(&*head, b"head");
        assert!(Arc::ptr_eq(&head.data, &b.data));
        assert_eq!(&*b, b"body");
        assert_eq!(b.remaining(), 4);
    }

    #[test]
    fn clear_keeps_the_capacity() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"headbody");
        w.clear();
        assert!(w.is_empty() && w.data.capacity() >= 64);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn copy_to_bytes_past_the_end_panics() {
        Bytes::from(vec![1, 2]).copy_to_bytes(3);
    }
}
