//! Minimal canonical binary encoding.
//!
//! Endorsement signatures and block hashes must be computed over a *byte
//! string*, so every signed or hashed structure needs one unambiguous
//! encoding. This module provides a tiny length-prefixed little-endian
//! format: fixed-width integers plus `u32`-length-prefixed byte strings.
//! It is deliberately not a general serialization framework — it only has to
//! be *canonical* (equal values encode to equal bytes) and cheap.

use crate::error::{Error, Result};

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed byte string.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than `u32::MAX` (never the case for keys,
    /// values, or transactions in this system).
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let len = u32::try_from(bytes.len()).expect("byte string exceeds u32::MAX");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Raw bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// An encoder appending to `buf` after what it already holds, so one
/// buffer's capacity can serve encoding after encoding
/// ([`Encoder::into_bytes`] hands it back).
impl From<Vec<u8>> for Encoder {
    fn from(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Codec(format!(
                "unexpected end of input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error if any input remains (catches trailing garbage).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::Codec(format!("{} trailing bytes", self.remaining())))
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }
}

/// Types decodable from the canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the cursor.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Convenience: decode a value that must occupy the whole buffer.
    fn decode_exact(buf: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut enc = Encoder::new();
        enc.put_u8(7).put_u32(0xdead_beef).put_u64(u64::MAX).put_bytes(b"hello");
        let buf = enc.into_bytes();

        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_bytes().unwrap(), b"hello");
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn truncated_input_errors() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"abcdef");
        let buf = enc.into_bytes();
        // Cut the payload short.
        let mut dec = Decoder::new(&buf[..buf.len() - 2]);
        assert!(dec.get_bytes().is_err());
    }

    #[test]
    fn truncated_length_prefix_errors() {
        let mut dec = Decoder::new(&[0x01, 0x00]);
        assert!(dec.get_u32().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        let mut buf = enc.into_bytes();
        buf.push(99);
        let mut dec = Decoder::new(&buf);
        dec.get_u8().unwrap();
        assert!(dec.finish().is_err());
        assert_eq!(dec.remaining(), 1);
    }

    #[test]
    fn empty_byte_string() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"");
        let buf = enc.into_bytes();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_bytes().unwrap(), b"");
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn encoder_capacity_and_len() {
        let mut enc = Encoder::with_capacity(64);
        assert!(enc.is_empty());
        enc.put_u64(1);
        assert_eq!(enc.len(), 8);
        assert_eq!(enc.as_slice().len(), 8);
    }
}
