//! The one little-endian byte codec, a [`Writer`] and a bounded [`Reader`],
//! for every byte beyond a page image: snapshot sections, the ATTRS
//! payload, WAL records and wire frames, each format keeping its layout in
//! its own module. An `f64` travels as its bit pattern (a round trip is
//! bit-exact), a byte string as a `u32` length and its bytes.
//!
//! A count read from bytes is believed by one rule ([`Reader::count`]):
//! only once `count × least encoded size` fits in the bytes present, so no
//! damaged count sizes an allocation or a loop past the bytes behind it.
//! Every failure is a [`DecodeError`], which each format maps to its own
//! typed error; nothing here panics.

use std::{fmt, io};

/// The largest payload one length-prefixed record may carry (16 MiB): a
/// wire frame, and a WAL record. A writer refuses a larger payload before a
/// byte goes out ([`frame_len`]), and a reader refuses a length prefix past
/// it before anything is allocated.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The length prefix of a record carrying `payload`, or, for a payload
/// over [`MAX_FRAME`], [`io::ErrorKind::InvalidInput`]: its reader would
/// refuse the prefix, so nothing of it may be written.
pub fn frame_len(payload: &[u8]) -> io::Result<u32> {
    match u32::try_from(payload.len()) {
        Ok(len) if len <= MAX_FRAME => Ok(len),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds {MAX_FRAME}", payload.len()),
        )),
    }
}

/// What went wrong reading: the fault, and the region the reader was
/// named for ([`Reader::named`]; empty if none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub region: &'static str,
    pub fault: Fault,
}

/// The ways a read fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A field needs `needed` bytes and only `left` remain.
    Truncated { needed: usize, left: usize },
    /// A count whose elements, at `least` bytes each, cannot fit in the
    /// `left` bytes remaining.
    Count {
        count: u64,
        least: usize,
        left: usize,
    },
    /// A varint that runs past ten bytes or overflows 64 bits.
    Varint,
    /// Bytes left after the layout ended.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.region.is_empty() {
            write!(f, "{}: ", self.region)?;
        }
        match self.fault {
            Fault::Truncated { needed, left } => write!(f, "needed {needed} bytes, {left} left"),
            Fault::Count { count, least, left } => {
                write!(f, "count {count} × {least} B exceeds the {left} bytes left")
            }
            Fault::Varint => write!(f, "varint does not fit 64 bits"),
            Fault::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of a read.
pub type Result<T> = std::result::Result<T, DecodeError>;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes as they are, with no length.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a byte string: its `u32` length, then its bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Appends a `u64` as a LEB128 varint: seven bits a byte, low group
    /// first, the high bit set on every byte but the last (1 to 10 bytes).
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Bounds-checked little-endian decoder over one payload.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    region: &'static str,
}

impl<'a> Reader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            rest: buf,
            region: "",
        }
    }

    /// The same reader, naming `region` in its errors.
    pub fn named(self, region: &'static str) -> Self {
        Self { region, ..self }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[cold]
    fn fail(&self, fault: Fault) -> DecodeError {
        DecodeError {
            region: self.region,
            fault,
        }
    }

    /// Fails unless every byte was consumed: a decoded layout accounts for
    /// its whole payload.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.fail(Fault::Trailing(n))),
        }
    }

    /// The next `n` bytes, as they are.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            let left = self.rest.len();
            return Err(self.fail(Fault::Truncated { needed: n, left }));
        }
        let (out, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(out)
    }

    /// The one count rule: `count` is believed only once `count × least`
    /// bytes — each element at its least encoded size, and never less than
    /// a byte — fit in the bytes remaining. Returns it as a `usize`.
    #[inline]
    pub fn count(&self, count: u64, least: usize) -> Result<usize> {
        let left = self.remaining();
        match usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(least.max(1)))
        {
            Some(need) if need <= left => Ok(count as usize),
            _ => Err(self.fail(Fault::Count { count, least, left })),
        }
    }

    /// Reads a [`Writer::put_bytes`] byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()?;
        let n = self.count(n.into(), 1)?;
        self.get_raw(n)
    }

    /// Reads a [`Writer::put_varint`] value, refusing one that runs past
    /// ten bytes or whose tenth byte overflows 64 bits.
    #[inline]
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
        Err(self.fail(Fault::Varint))
    }
}

/// Each fixed-width field's `put` and `get`: little-endian, an `f64` as
/// its IEEE-754 bit pattern (what `f64::to_le_bytes` writes).
macro_rules! fixed_width {
    ($($put:ident, $get:ident: $ty:ty;)+) => {
        impl Writer {$(
            #[doc = concat!("Appends a `", stringify!($ty), "`.")]
            #[inline]
            pub fn $put(&mut self, v: $ty) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        )+}

        impl Reader<'_> {$(
            #[doc = concat!("Reads a `", stringify!($ty), "`.")]
            #[inline]
            pub fn $get(&mut self) -> Result<$ty> {
                let bytes = self.get_raw(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("the field's width")))
            }
        )+}
    };
}

fixed_width! {
    put_u8, get_u8: u8;
    put_u16, get_u16: u16;
    put_u32, get_u32: u32;
    put_u64, get_u64: u64;
    put_f64, get_f64: f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_roundtrips_bit_exactly() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_bytes(b"abc");
        w.put_varint(300);
        w.put_raw(&[9, 9]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8 + 8 + 4 + 3 + 2 + 2);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        // Bit-exact: −0.0 keeps its sign bit.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_varint().unwrap(), 300);
        assert_eq!(r.get_raw(2).unwrap(), &[9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn an_overrun_or_a_leftover_is_an_error() {
        let mut r = Reader::new(&[1, 2]).named("tiny");
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.fault, Fault::Truncated { needed: 8, left: 2 });
        assert_eq!(err.to_string(), "tiny: needed 8 bytes, 2 left");
        assert_eq!(r.get_u8().unwrap(), 1, "a failed read consumes nothing");
        assert_eq!(r.finish().unwrap_err().fault, Fault::Trailing(1));
    }

    #[test]
    fn a_count_is_believed_only_when_its_bytes_are_present() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.count(2, 8).unwrap(), 2);
        assert_eq!(r.count(16, 0).unwrap(), 16, "a zero-size element is a byte");
        for (count, least) in [(3, 8), (17, 0), (u64::MAX, 1), (1 << 62, 8)] {
            assert_eq!(
                r.count(count, least).unwrap_err().fault,
                Fault::Count {
                    count,
                    least,
                    left: 16
                }
            );
        }
        // A byte string whose length its bytes do not back.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_raw(b"short");
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_bytes().unwrap_err();
        assert!(matches!(err.fault, Fault::Count { .. }), "{err}");
    }

    #[test]
    fn a_varint_that_overflows_or_never_ends_is_refused() {
        for bad in [
            &[0xFF; 9][..],
            &[0x80; 12][..],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02][..],
        ] {
            assert!(Reader::new(bad).get_varint().is_err());
        }
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        assert_eq!(Reader::new(&bytes).get_varint().unwrap(), u64::MAX);
    }
}
