//! Little-endian wire primitives shared by every section codec.
//!
//! [`ByteWriter`] appends to an in-memory buffer; [`ByteReader`] walks a
//! byte slice and returns [`StoreError::Truncated`] instead of panicking
//! when the input runs out. All multi-byte integers are little-endian;
//! floats travel as their IEEE-754 bit patterns so round-trips are
//! bit-exact (including negative zero and subnormals).

use bclean_data::Value;

use crate::error::StoreError;

/// Append-only encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64` (the format is 64-bit regardless of host).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, values: &[u32]) {
        self.usize(values.len());
        for &v in values {
            self.u32(v);
        }
    }

    /// Write a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self, values: &[usize]) {
        self.usize(values.len());
        for &v in values {
            self.usize(v);
        }
    }

    /// Write a [`Value`] (tag byte + payload).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Text(s) => {
                self.u8(1);
                self.string(s);
            }
            Value::Number(n) => {
                self.u8(2);
                self.f64(*n);
            }
        }
    }
}

/// Cursor-style decoder over a byte slice. Every accessor reports
/// [`StoreError::Truncated`] with the caller-provided context when the
/// input is too short.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// What this reader is decoding; used in truncation errors.
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Read from `bytes`, labelling truncation errors with `context`.
    pub fn new(bytes: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error unless every byte has been consumed (sections must not carry
    /// trailing garbage — it would mean reader and writer disagree on the
    /// layout, exactly what the format version is supposed to rule out).
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{} bytes of trailing data after {}",
                self.remaining(),
                self.context
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context: self.context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, StoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    /// Read a `usize` stored as `u64`, rejecting values the host cannot
    /// address.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("length {v} exceeds address space")))
    }

    /// Read a `usize` and additionally bound it, so corrupted lengths fail
    /// cleanly instead of attempting absurd allocations.
    pub fn bounded_len(&mut self, max: usize, what: &str) -> Result<usize, StoreError> {
        let v = self.usize()?;
        if v > max {
            return Err(StoreError::Corrupt(format!("{what} length {v} exceeds bound {max}")));
        }
        Ok(v)
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StoreError> {
        let len = self.bounded_len(self.remaining(), "string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt("non-UTF-8 string".to_string()))
    }

    /// Read the length of a run of items of at least `size` bytes each. A
    /// length the remaining bytes cannot hold means the input ended before
    /// the items it announces, so it fails as [`StoreError::Truncated`]
    /// before anything is allocated for them.
    pub fn item_count(&mut self, size: usize) -> Result<usize, StoreError> {
        let len = self.usize()?;
        if len > self.remaining() / size {
            return Err(StoreError::Truncated { context: self.context });
        }
        Ok(len)
    }

    /// Read a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, StoreError> {
        let len = self.item_count(4)?;
        (0..len).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self) -> Result<Vec<usize>, StoreError> {
        let len = self.item_count(8)?;
        (0..len).map(|_| self.usize()).collect()
    }

    /// Read a [`Value`].
    pub fn value(&mut self) -> Result<Value, StoreError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Text(self.string()?)),
            2 => Ok(Value::Number(self.f64()?)),
            tag => Err(StoreError::Corrupt(format!("invalid value tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(1 << 100);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE / 2.0); // subnormal
        w.bool(true);
        w.string("héllo");
        w.u32_slice(&[1, 2, 3]);
        w.usize_slice(&[9, 8]);
        w.value(&Value::Null);
        w.value(&Value::text("x"));
        w.value(&Value::Number(1.5));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usize_slice().unwrap(), vec![9, 8]);
        assert_eq!(r.value().unwrap(), Value::Null);
        assert_eq!(r.value().unwrap(), Value::text("x"));
        assert_eq!(r.value().unwrap(), Value::Number(1.5));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(123);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..3], "unit");
        assert!(matches!(r.u64(), Err(StoreError::Truncated { context: "unit" })));
    }

    #[test]
    fn corrupt_lengths_fail_cleanly() {
        let mut w = ByteWriter::new();
        w.usize(usize::MAX / 2); // an absurd string length with no payload
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "unit");
        assert!(matches!(r.string(), Err(StoreError::Corrupt(_))));

        let mut w = ByteWriter::new();
        w.u8(9); // invalid value tag
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "unit");
        assert!(matches!(r.value(), Err(StoreError::Corrupt(_))));

        let mut w = ByteWriter::new();
        w.u8(2); // invalid bool
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "unit");
        assert!(matches!(r.bool(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "unit");
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(StoreError::Corrupt(_))));
    }
}
