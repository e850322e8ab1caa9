//! The `bytes` 1.x surface this workspace uses, implemented in-tree:
//! [`Bytes`], [`BytesMut`] and the [`Buf`]/[`BufMut`] traits, backed by a
//! plain `Arc<Vec<u8>>` window. Semantics match the published crate for
//! the operations exercised here (little-endian gets/puts, `split_to`,
//! `advance`, `freeze`). This is the `bytes` every build of the
//! workspace links, `benchmark/` included.

use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer (a window into shared storage).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Borrow a static slice (stub copies it).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Copy an arbitrary slice.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off the first `n` bytes into a new `Bytes`, advancing self.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// The viewed slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}
impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}
impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}
impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is it empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Append a slice (inherent on the real `BytesMut` too).
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte source (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The current readable slice.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Copy out `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian i64.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }
}

/// Write cursor into a byte sink (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian i64.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_split() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u8(7);
        b.put_u32_le(0xdead_beef);
        let mut frozen = b.freeze();
        assert_eq!(frozen.len(), 5);
        let head = frozen.split_to(1);
        assert_eq!(head.as_slice(), &[7]);
        let mut rest = frozen;
        assert_eq!(rest.get_u32_le(), 0xdead_beef);
        assert_eq!(rest.remaining(), 0);
    }
}
