//! A tiny self-describing binary codec for model checkpoints.
//!
//! The deployment story of the paper (train COM-AID offline, serve it
//! online inside DICE) needs durable model files; this module is the
//! byte-level substrate those checkpoints are built on. It is
//! deliberately minimal — little-endian fixed-width scalars,
//! length-prefixed sequences — so that the serving layer can wrap a
//! versioned, checksummed container around it (see `ncl-core`'s
//! `comaid::persist`) without pulling a serialisation framework into an
//! offline build.
//!
//! Decoding is *hostile-input safe*: every read is bounds-checked, every
//! length prefix is validated against the remaining buffer before any
//! allocation, and all failures surface as [`WireError`] — never a panic
//! or an OOM abort. This is what lets checkpoint corruption degrade into
//! a typed load error instead of taking down a serving process.

use crate::{Matrix, Vector};

/// Decode failure: the buffer does not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Eof {
        /// Bytes needed by the read that failed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The bytes were readable but semantically invalid (bad enum tag,
    /// non-UTF-8 string, inconsistent dimensions, ...).
    Invalid(String),
    /// A parameter section decoded to a NaN or an infinity: no model
    /// trained to a finite loss holds one.
    NonFinite {
        /// The section holding the value (`"embedding"`, `"encoder"`, …).
        section: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Eof { needed, remaining } => write!(
                f,
                "unexpected end of buffer: needed {needed} bytes, {remaining} remaining"
            ),
            Self::Invalid(m) => write!(f, "invalid encoding: {m}"),
            Self::NonFinite { section } => {
                write!(f, "non-finite parameter value in section '{section}'")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length prefix and validates that at least
    /// `len * min_elem_bytes` bytes remain, so corrupt prefixes can
    /// never trigger huge allocations.
    pub fn length(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = usize::decode(self)?;
        let need = len.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(WireError::Invalid(format!(
                "length prefix {len} exceeds remaining buffer ({} bytes)",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

/// Binary encode/decode for checkpointable values.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! impl_scalar_wire {
    ($t:ty) => {
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    };
}

impl_scalar_wire!(u8);
impl_scalar_wire!(u32);
impl_scalar_wire!(u64);
impl_scalar_wire!(f32);
impl_scalar_wire!(f64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError::Invalid(format!("usize overflow: {v}")))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid(format!("bad bool byte {b}"))),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.length(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Invalid(format!("non-UTF-8 string: {e}")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Every element encodes to at least one byte, which bounds the
        // allocation by the remaining buffer size.
        let len = r.length(1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::Invalid(format!("bad Option tag {b}"))),
        }
    }
}

impl Wire for Vector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for &x in self.as_slice() {
            x.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.length(4)?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f32::decode(r)?);
        }
        Ok(Vector::from_vec(data))
    }
}

impl Wire for Matrix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows().encode(out);
        self.cols().encode(out);
        for &x in self.as_slice() {
            x.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rows = usize::decode(r)?;
        let cols = usize::decode(r)?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| WireError::Invalid(format!("matrix shape overflow: {rows}x{cols}")))?;
        if n.saturating_mul(4) > r.remaining() {
            return Err(WireError::Invalid(format!(
                "matrix {rows}x{cols} exceeds remaining buffer ({} bytes)",
                r.remaining()
            )));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(f32::decode(r)?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

/// One entry of an `NCLMODEL` v2 offset table ([`SectionIndex`]): a
/// named byte range within the container's section region, plus its own
/// integrity checksum so a reader can verify exactly the sections it
/// touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section name (unique within an index).
    pub name: String,
    /// Byte offset of the section payload, relative to the start of the
    /// section region (the first byte after the encoded index).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// [`fnv1a64`] of the payload bytes.
    pub checksum: u64,
}

impl Wire for SectionEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.offset.encode(out);
        self.len.encode(out);
        self.checksum.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            name: String::decode(r)?,
            offset: u64::decode(r)?,
            len: u64::decode(r)?,
            checksum: u64::decode(r)?,
        })
    }
}

/// The offset table of an `NCLMODEL` v2 container: per-section byte
/// offsets, lengths, and checksums. A serving process reads *only* this
/// index at open time and fetches section payloads on demand
/// (`comaid::persist` in `ncl-core` wraps it in the versioned,
/// checksummed container).
///
/// Offsets handed out by [`SectionIndex::append`] are contiguous and
/// ascending; decode accepts any bounds-checked layout so readers stay
/// hostile-input safe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SectionIndex {
    /// The table entries, in the order the sections were appended.
    pub entries: Vec<SectionEntry>,
}

impl SectionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `payload` as the next contiguous section and returns the
    /// offset it must be written at (relative to the section region).
    pub fn append(&mut self, name: &str, payload: &[u8]) -> u64 {
        let offset = self.entries.last().map(|e| e.offset + e.len).unwrap_or(0);
        self.entries.push(SectionEntry {
            name: name.to_string(),
            offset,
            len: payload.len() as u64,
            checksum: fnv1a64(payload),
        });
        offset
    }

    /// Looks up a section by name.
    pub fn find(&self, name: &str) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Total bytes of the section region the index describes (the
    /// furthest byte any entry reaches). Errors on offset + len
    /// overflow, so hostile length fields cannot wrap around.
    pub fn region_len(&self) -> Result<u64, WireError> {
        let mut end = 0u64;
        for e in &self.entries {
            let e_end = e.offset.checked_add(e.len).ok_or_else(|| {
                WireError::Invalid(format!(
                    "section '{}' offset {} + len {} overflows",
                    e.name, e.offset, e.len
                ))
            })?;
            end = end.max(e_end);
        }
        Ok(end)
    }

    /// Verifies and returns section `name`'s payload out of an in-memory
    /// section region (bounds-checked slice + checksum).
    pub fn slice<'a>(&self, name: &str, region: &'a [u8]) -> Result<&'a [u8], WireError> {
        let e = self
            .find(name)
            .ok_or_else(|| WireError::Invalid(format!("missing section '{name}'")))?;
        let start = usize::try_from(e.offset)
            .map_err(|_| WireError::Invalid(format!("section '{name}' offset overflow")))?;
        let len = usize::try_from(e.len)
            .map_err(|_| WireError::Invalid(format!("section '{name}' length overflow")))?;
        let end = start.checked_add(len).filter(|&end| end <= region.len());
        let Some(end) = end else {
            return Err(WireError::Eof {
                needed: start.saturating_add(len),
                remaining: region.len(),
            });
        };
        let bytes = &region[start..end];
        let computed = fnv1a64(bytes);
        if computed != e.checksum {
            return Err(WireError::Invalid(format!(
                "section '{name}' checksum mismatch (stored {:#018x}, computed {computed:#018x})",
                e.checksum
            )));
        }
        Ok(bytes)
    }
}

impl Wire for SectionIndex {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            entries: Vec::<SectionEntry>::decode(r)?,
        })
    }
}

/// FNV-1a 64-bit hash — the checkpoint container's integrity checksum.
/// Not cryptographic; it guards against truncation and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "trailing bytes after decode");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-1.5f32);
        round_trip(std::f64::consts::PI);
        round_trip(true);
        round_trip(String::from("chronic kidney disease — ❤"));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<String>::None);
        round_trip(Some(vec![0.5f32, -0.25]));
        round_trip(Vector::from_vec(vec![1.0, 2.0, 3.0]));
        round_trip(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        Matrix::from_vec(8, 8, vec![0.25; 64]).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Matrix::decode(&mut r).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn hostile_length_prefix_cannot_allocate() {
        // A Vec<f32> claiming u64::MAX elements in a 16-byte buffer.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        let mut r = Reader::new(&buf);
        let err = Vec::<f32>::decode(&mut r).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn bad_tags_are_invalid() {
        let mut r = Reader::new(&[7u8]);
        assert!(matches!(bool::decode(&mut r), Err(WireError::Invalid(_))));
        let mut r = Reader::new(&[9u8]);
        assert!(matches!(
            Option::<u8>::decode(&mut r),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn section_index_round_trips_and_slices() {
        let a = vec![1u8, 2, 3, 4, 5];
        let b = vec![9u8; 300];
        let mut idx = SectionIndex::new();
        assert_eq!(idx.append("alpha", &a), 0);
        assert_eq!(idx.append("beta", &b), 5);
        round_trip(idx.clone());

        let mut region = a.clone();
        region.extend_from_slice(&b);
        assert_eq!(idx.region_len().unwrap(), region.len() as u64);
        assert_eq!(idx.slice("alpha", &region).unwrap(), &a[..]);
        assert_eq!(idx.slice("beta", &region).unwrap(), &b[..]);
        assert!(matches!(
            idx.slice("gamma", &region),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn truncated_section_region_is_eof_not_panic() {
        let payload = vec![0xABu8; 64];
        let mut idx = SectionIndex::new();
        idx.append("w", &payload);
        // Cut the region anywhere mid-section: bounds-checked Eof.
        for cut in 0..payload.len() {
            let err = idx.slice("w", &payload[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Eof { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_section_length_fields_are_rejected() {
        // Forged length beyond the region: Eof, never an allocation.
        let idx = SectionIndex {
            entries: vec![SectionEntry {
                name: "big".into(),
                offset: 0,
                len: u64::MAX - 7,
                checksum: 0,
            }],
        };
        assert!(idx.slice("big", &[0u8; 16]).is_err());
        // offset + len overflowing u64 is Invalid at region_len time.
        let idx = SectionIndex {
            entries: vec![SectionEntry {
                name: "wrap".into(),
                offset: u64::MAX - 3,
                len: 8,
                checksum: 0,
            }],
        };
        assert!(matches!(idx.region_len(), Err(WireError::Invalid(_))));
    }

    #[test]
    fn section_checksum_mismatch_is_detected() {
        let payload = vec![0x5Au8; 128];
        let mut idx = SectionIndex::new();
        idx.append("p", &payload);
        let mut bad = payload.clone();
        bad[77] ^= 0x01;
        let err = idx.slice("p", &bad).unwrap_err();
        assert!(
            matches!(&err, WireError::Invalid(m) if m.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn multi_megabyte_tensor_round_trips() {
        // A ~4.6 MB matrix: exercises the length-validation paths at a
        // size where a wrong prefix would visibly over-allocate.
        let rows = 768;
        let cols = 1500;
        let data: Vec<f32> = (0..rows * cols).map(|i| (i as f32).sin()).collect();
        let m = Matrix::from_vec(rows, cols, data);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert!(buf.len() > 4 << 20, "encoded {} bytes", buf.len());
        let mut r = Reader::new(&buf);
        let back = Matrix::decode(&mut r).unwrap();
        assert_eq!(back.rows(), rows);
        assert_eq!(back.cols(), cols);
        assert_eq!(back.as_slice(), m.as_slice());
        assert_eq!(r.remaining(), 0);

        // Truncating mid-payload errors at every sampled cut.
        for cut in [16, buf.len() / 3, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Matrix::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let data = b"the quick brown fox";
        let h = fnv1a64(data);
        let mut flipped = data.to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(h, fnv1a64(&flipped));
        assert_eq!(h, fnv1a64(data));
    }
}
