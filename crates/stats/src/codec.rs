//! Hand-rolled versioned binary codec for monitor-state checkpoints.
//!
//! The serving layer (`kg-serve`) needs evaluator state to survive process
//! restarts **bitwise**: a monitor checkpointed mid-stream and restored in a
//! fresh process must produce byte-identical estimates to the uninterrupted
//! run. No external crates are available (no serde), so this module is a
//! minimal, explicit wire format:
//!
//! * **Record header** — 4-byte ASCII magic + little-endian `u16` version.
//!   Each snapshottable type owns its magic (`KGRM` moments, `KGRV`
//!   reservoir, `KGPP` PPS, `KGMS` monitor state, `KGSN` session) and bumps
//!   its version independently. Decoders accept exactly the versions they
//!   know; anything else is [`CodecError::UnsupportedVersion`], never a
//!   guess.
//! * **Scalars** — fixed-width little-endian. Floats travel as their exact
//!   IEEE-754 `u64` bit patterns ([`f64::to_bits`]), so restore is bitwise
//!   even for values like `-0.0` or the `f64::INFINITY` skip sentinel that a
//!   round-trip through decimal text would disturb.
//! * **Sequences** — `u64` length prefix followed by the elements. Decoders
//!   bound every claimed length by the bytes actually remaining before
//!   allocating, so truncated or hostile payloads fail with a typed error
//!   instead of aborting on an absurd `Vec::with_capacity`.
//!
//! Corrupt input must **never panic**: every decode path returns
//! [`CodecError`]. The snapshot side is infallible (state in memory is
//! always encodable).

use std::fmt;

/// Typed decode failure. Snapshot never fails; restore fails only with one
/// of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the decoder read what the format requires.
    UnexpectedEof {
        /// What the decoder was trying to read.
        what: &'static str,
    },
    /// The 4-byte magic did not match the expected record type.
    BadMagic {
        /// Magic the decoder expected.
        expected: [u8; 4],
        /// Magic actually present.
        found: [u8; 4],
    },
    /// The record's version is not one this build knows how to decode.
    UnsupportedVersion {
        /// Record magic (identifies the type).
        magic: [u8; 4],
        /// Version found in the header.
        found: u16,
        /// Newest version this build supports.
        supported: u16,
    },
    /// Bytes remained after the decoder consumed a complete record.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A length prefix claims more elements than the remaining bytes could
    /// possibly hold.
    LengthOverflow {
        /// What sequence carried the bad length.
        what: &'static str,
        /// Claimed element count.
        claimed: u64,
    },
    /// The payload decoded structurally but violates a semantic invariant
    /// of the target type (e.g. a NaN reservoir key, a decreasing prefix).
    Invalid {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while reading {what}")
            }
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::UnsupportedVersion {
                magic,
                found,
                supported,
            } => write!(
                f,
                "unsupported {} version {found} (this build supports <= {supported})",
                String::from_utf8_lossy(magic)
            ),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after complete record")
            }
            CodecError::LengthOverflow { what, claimed } => {
                write!(f, "length prefix for {what} claims {claimed} elements, more than the payload holds")
            }
            CodecError::Invalid { what } => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink with the primitive writers of the wire format.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder that starts with a `magic` + `version` record header.
    pub fn with_header(magic: [u8; 4], version: u16) -> Self {
        let mut e = Self::new();
        e.put_header(magic, version);
        e
    }

    /// Write a record header (4-byte magic + LE u16 version).
    pub fn put_header(&mut self, magic: [u8; 4], version: u16) {
        self.buf.extend_from_slice(&magic);
        self.put_u16(version);
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as a u64 (the format is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an f64 as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed u64 slice, growing the buffer once.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a length-prefixed u32 slice, growing the buffer once.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a length-prefixed usize slice (as u64s).
    pub fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    /// Write length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bs: &[u8]) {
        self.put_usize(bs.len());
        self.buf.extend_from_slice(bs);
    }

    /// Consume the encoder, returning the snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor over snapshot bytes with the primitive readers of the wire
/// format. Every reader returns `Result`; nothing panics on bad input.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read and check a record header; returns the version for the caller
    /// to dispatch on.
    pub fn expect_header(&mut self, magic: [u8; 4]) -> Result<u16, CodecError> {
        let found = self.take(4, "record magic")?;
        let found: [u8; 4] = found.try_into().expect("take(4) returned 4 bytes");
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        self.get_u16("record version")
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a u64 and narrow it to the host usize.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| CodecError::LengthOverflow { what, claimed: v })
    }

    /// Read an f64 from its exact bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a sequence length prefix, bounding it by the bytes remaining
    /// (`elem_bytes` per element) so hostile lengths cannot drive a huge
    /// allocation.
    pub fn get_len(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let claimed = self.get_u64(what)?;
        let max = match self.remaining().checked_div(elem_bytes) {
            Some(n) => n as u64,
            None => u64::MAX,
        };
        if claimed > max {
            return Err(CodecError::LengthOverflow { what, claimed });
        }
        Ok(claimed as usize)
    }

    /// Read a length-prefixed u64 vector in one pass over its bytes.
    pub fn get_u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let n = self.get_len(8, what)?;
        let bytes = self.take(8 * n, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Read a length-prefixed u32 vector in one pass over its bytes.
    pub fn get_u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, CodecError> {
        let n = self.get_len(4, what)?;
        let bytes = self.take(4 * n, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Read a length-prefixed usize vector.
    pub fn get_usize_vec(&mut self, what: &'static str) -> Result<Vec<usize>, CodecError> {
        let n = self.get_len(8, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_usize(what)?);
        }
        Ok(v)
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.get_len(1, what)?;
        self.take(n, what)
    }

    /// Assert the record consumed every byte; trailing garbage is an error
    /// so concatenation bugs surface immediately.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_exact() {
        let mut e = Encoder::with_header(*b"KGTT", 3);
        e.put_u8(0xAB);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_f64(f64::INFINITY);
        e.put_f64(0.1 + 0.2); // not representable exactly in decimal
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.expect_header(*b"KGTT").unwrap(), 3);
        assert_eq!(d.get_u8("a").unwrap(), 0xAB);
        assert_eq!(d.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(d.get_f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64("e").unwrap(), f64::INFINITY);
        assert_eq!(d.get_f64("f").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        d.finish().unwrap();
    }

    #[test]
    fn slice_round_trip() {
        let mut e = Encoder::new();
        e.put_u64_slice(&[0, 1, u64::MAX]);
        e.put_u32_slice(&[7; 4]);
        e.put_bytes(b"payload");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u64_vec("xs").unwrap(), vec![0, 1, u64::MAX]);
        assert_eq!(d.get_u32_vec("ys").unwrap(), vec![7; 4]);
        assert_eq!(d.get_bytes("zs").unwrap(), b"payload");
        d.finish().unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let bytes = Encoder::with_header(*b"KGAA", 1).finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.expect_header(*b"KGBB"),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncation_is_eof_not_panic() {
        let mut e = Encoder::new();
        e.put_u64(42);
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(matches!(
                d.get_u64("x"),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        // Claims u64::MAX elements with 0 bytes of payload behind it.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.get_u64_vec("xs"),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.get_u8("x").unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn errors_display_without_panicking() {
        let errors: Vec<CodecError> = vec![
            CodecError::UnexpectedEof { what: "x" },
            CodecError::BadMagic {
                expected: *b"KGRM",
                found: [0xFF, 0x00, 0x41, 0x42],
            },
            CodecError::UnsupportedVersion {
                magic: *b"KGRV",
                found: 9,
                supported: 1,
            },
            CodecError::TrailingBytes { remaining: 3 },
            CodecError::LengthOverflow {
                what: "xs",
                claimed: u64::MAX,
            },
            CodecError::Invalid { what: "nan key" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
