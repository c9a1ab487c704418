//! Checked little-endian byte encoding for section payloads.
//!
//! Everything in a snapshot beyond raw page images goes through this pair:
//! the writer appends fixed-width little-endian fields, the reader pulls
//! them back with explicit bounds checks. Floating-point values travel as
//! raw IEEE-754 bit patterns, so a save/open round trip is *bit-exact* —
//! the property the parity tests assert on distances.

use crate::error::{PersistError, Result};

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (the on-disk width is fixed regardless of
    /// the host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a `u64` as a LEB128 varint: seven bits a byte, low group
    /// first, the high bit set on every byte but the last (1 to 10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed list of ids as zig-zag varints of each
    /// id's difference from the one before it (from 0, wrapping): a byte
    /// an id where the list mostly ascends by small steps, as a cluster's
    /// member list does, and any order and any value round-trip.
    pub fn put_id_list(&mut self, ids: &[usize]) {
        self.put_usize(ids.len());
        let mut prev = 0u64;
        for &id in ids {
            let delta = (id as u64).wrapping_sub(prev) as i64;
            self.put_varint(((delta << 1) ^ (delta >> 63)) as u64);
            prev = id as u64;
        }
    }
}

/// Bounds-checked little-endian decoder over a section payload.
///
/// Overruns report [`PersistError::Malformed`]: the section already passed
/// its CRC, so running out of bytes means the *writer* produced a
/// structurally invalid section, not that the file was damaged in transit.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Region name used in error messages.
    region: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Reader over a section payload; `region` names it in errors.
    pub fn new(buf: &'a [u8], region: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            region,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — a decoded structure must
    /// account for its entire section.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(PersistError::malformed(format!(
                "{}: {} unconsumed bytes after decoding",
                self.region,
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::malformed(format!(
                "{}: needed {n} more bytes, only {} left",
                self.region,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the host (only possible for hostile inputs on 32-bit).
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| {
            PersistError::malformed(format!(
                "{}: length {v} exceeds the address space",
                self.region
            ))
        })
    }

    /// Reads a `u64` meant to be a collection length, additionally bounding
    /// it by the bytes actually available (each element needs at least
    /// `min_elem_bytes`) so a corrupt length cannot trigger a huge
    /// allocation before the overrun is noticed.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.get_usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PersistError::malformed(format!(
                "{}: length {n} larger than the bytes backing it",
                self.region
            )));
        }
        Ok(n)
    }

    /// Reads a [`ByteWriter::put_varint`] value, rejecting one that runs
    /// past ten bytes or whose tenth byte overflows 64 bits.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                break;
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(PersistError::malformed(format!(
            "{}: varint does not fit 64 bits",
            self.region
        )))
    }

    /// Reads a [`ByteWriter::put_id_list`] list.
    pub fn get_id_list(&mut self) -> Result<Vec<usize>> {
        let n = self.get_len(1)?;
        let mut prev = 0u64;
        (0..n)
            .map(|_| {
                let z = self.get_varint()?;
                let delta = (z >> 1) as i64 ^ -((z & 1) as i64);
                prev = prev.wrapping_add(delta as u64);
                usize::try_from(prev).map_err(|_| {
                    PersistError::malformed(format!(
                        "{}: id {prev} exceeds the address space",
                        self.region
                    ))
                })
            })
            .collect()
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id_list_roundtrip(ids: &[usize]) -> usize {
        let mut w = ByteWriter::new();
        w.put_id_list(ids);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "ids");
        assert_eq!(r.get_id_list().unwrap(), ids);
        r.expect_end().unwrap();
        bytes.len()
    }

    #[test]
    fn an_ascending_id_list_costs_a_byte_a_member() {
        assert_eq!(id_list_roundtrip(&[]), 8);
        let ascending: Vec<usize> = (1000..2000).map(|i| i * 3).collect();
        assert_eq!(id_list_roundtrip(&ascending), 8 + 2 + 999);
        id_list_roundtrip(&[usize::MAX, 0, usize::MAX, usize::MAX - 1, 1 << 63, 5, 5]);
    }

    #[test]
    fn a_varint_that_overflows_or_never_ends_is_malformed() {
        for bad in [
            &[0xFF; 9][..],
            &[0x80; 12][..],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02][..],
        ] {
            let mut r = ByteReader::new(bad, "varint");
            assert!(matches!(r.get_varint(), Err(PersistError::Malformed(_))));
        }
        let mut w = ByteWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        assert_eq!(
            ByteReader::new(&bytes, "max").get_varint().unwrap(),
            u64::MAX
        );
        // A list that claims more ids than it has bytes for.
        let mut w = ByteWriter::new();
        w.put_usize(9);
        w.put_varint(3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "short");
        assert!(matches!(r.get_id_list(), Err(PersistError::Malformed(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any list round-trips: unsorted, with repeats, with the extremes.
        #[test]
        fn id_lists_roundtrip(
            ids in proptest::collection::vec(0usize..=usize::MAX, 0..200),
            near in proptest::collection::vec(0usize..50, 0..200),
            base in 0usize..=usize::MAX,
        ) {
            id_list_roundtrip(&ids);
            let walk: Vec<usize> = near.iter().map(|&d| base.wrapping_add(d * 7919)).collect();
            id_list_roundtrip(&walk);
            let mixed: Vec<usize> = ids.iter().chain(&walk).copied().chain([usize::MAX, 0]).collect();
            id_list_roundtrip(&mixed);
        }
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_f64_slice(&[1.5, -2.25]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 42);
        // Bit-exact: −0.0 keeps its sign bit.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.5, -2.25]);
        r.expect_end().unwrap();
    }

    #[test]
    fn overrun_is_malformed() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes, "tiny");
        assert!(matches!(r.get_u64(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn unconsumed_bytes_rejected() {
        let bytes = [0u8; 9];
        let mut r = ByteReader::new(&bytes, "long");
        r.get_u64().unwrap();
        assert!(matches!(r.expect_end(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn absurd_length_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2); // claims ~9 quintillion elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "lie");
        assert!(matches!(r.get_f64_vec(), Err(PersistError::Malformed(_))));
    }
}
