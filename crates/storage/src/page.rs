//! Fixed-size byte page with typed little-endian accessors.

use crate::error::{Error, Result};

/// Page size in bytes. 4 KiB is the classic DBMS unit and matches the
/// page-count I/O model of the paper's evaluation.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a [`crate::DiskManager`].
pub type PageId = u64;

/// A `PAGE_SIZE`-byte page.
///
/// Index node layouts (B⁺-tree, hybrid tree) are views over these bytes;
/// the typed accessors keep the layout code free of slicing arithmetic and
/// bounds bugs.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

macro_rules! typed_accessors {
    ($get:ident, $put:ident, $ty:ty) => {
        #[doc = concat!("Reads a little-endian `", stringify!($ty), "` at `offset`.")]
        #[inline]
        pub fn $get(&self, offset: usize) -> Result<$ty> {
            const W: usize = std::mem::size_of::<$ty>();
            let end = offset
                .checked_add(W)
                .filter(|&e| e <= PAGE_SIZE)
                .ok_or(Error::OutOfBounds { offset, len: W })?;
            let mut buf = [0u8; W];
            buf.copy_from_slice(&self.data[offset..end]);
            Ok(<$ty>::from_le_bytes(buf))
        }

        #[doc = concat!("Writes a little-endian `", stringify!($ty), "` at `offset`.")]
        #[inline]
        pub fn $put(&mut self, offset: usize, value: $ty) -> Result<()> {
            const W: usize = std::mem::size_of::<$ty>();
            let end = offset
                .checked_add(W)
                .filter(|&e| e <= PAGE_SIZE)
                .ok_or(Error::OutOfBounds { offset, len: W })?;
            self.data[offset..end].copy_from_slice(&value.to_le_bytes());
            Ok(())
        }
    };
}

impl Page {
    /// Creates a zeroed page.
    pub fn new() -> Self {
        Self {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    typed_accessors!(get_u8, put_u8, u8);
    typed_accessors!(get_u16, put_u16, u16);
    typed_accessors!(get_u32, put_u32, u32);
    typed_accessors!(get_u64, put_u64, u64);
    typed_accessors!(get_f32, put_f32, f32);
    typed_accessors!(get_f64, put_f64, f64);

    /// Borrow of `len` raw bytes at `offset`: one bounds check for a whole
    /// record, which a layout then decodes field by field without another.
    #[inline]
    pub fn bytes(&self, offset: usize, len: usize) -> Result<&[u8]> {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= PAGE_SIZE)
            .ok_or(Error::OutOfBounds { offset, len })?;
        Ok(&self.data[offset..end])
    }

    /// The page's full raw image — the unit snapshot files store. Byte
    /// order inside the image is whatever the typed accessors wrote
    /// (little-endian), so images are portable across hosts.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Rebuilds a page from a raw [`as_bytes`](Self::as_bytes) image.
    /// `bytes` must be exactly [`PAGE_SIZE`] long.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(Error::OutOfBounds {
                offset: 0,
                len: bytes.len(),
            });
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Ok(Self { data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrips() {
        let mut p = Page::new();
        p.put_u8(0, 0xAB).unwrap();
        p.put_u16(1, 0xBEEF).unwrap();
        p.put_u32(3, 0xDEADBEEF).unwrap();
        p.put_u64(7, u64::MAX - 3).unwrap();
        p.put_f64(15, -1234.5678).unwrap();
        p.put_f32(23, 0.1).unwrap();
        assert_eq!(p.get_u8(0).unwrap(), 0xAB);
        assert_eq!(p.get_u16(1).unwrap(), 0xBEEF);
        assert_eq!(p.get_u32(3).unwrap(), 0xDEADBEEF);
        assert_eq!(p.get_u64(7).unwrap(), u64::MAX - 3);
        assert_eq!(p.get_f64(15).unwrap(), -1234.5678);
        assert_eq!(p.get_f32(23).unwrap(), 0.1);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut p = Page::new();
        assert!(p.get_f64(PAGE_SIZE - 7).is_err());
        assert!(p.put_u32(PAGE_SIZE - 3, 1).is_err());
        assert!(p.get_u8(PAGE_SIZE).is_err());
        assert!(p.bytes(PAGE_SIZE - 1, 2).is_err());
        assert!(
            p.get_u8(usize::MAX).is_err(),
            "offset overflow must not wrap"
        );
    }

    #[test]
    fn raw_image_roundtrip() {
        let mut p = Page::new();
        p.put_u64(0, 0xDEAD).unwrap();
        p.put_f64(PAGE_SIZE - 8, -2.5).unwrap();
        let back = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(back.get_u64(0).unwrap(), 0xDEAD);
        assert_eq!(back.get_f64(PAGE_SIZE - 8).unwrap(), -2.5);
        assert!(Page::from_bytes(&[0u8; 17]).is_err());
        assert!(Page::from_bytes(&[0u8; PAGE_SIZE + 1]).is_err());
    }

    #[test]
    fn fresh_page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.get_u64(0).unwrap(), 0);
        assert_eq!(p.get_u64(PAGE_SIZE - 8).unwrap(), 0);
    }
}
