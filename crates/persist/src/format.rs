//! The snapshot container: superblock, section table, checksummed sections.
//!
//! ```text
//! offset 0    superblock (80 bytes)
//!   0..8    magic  "MMDRSNP\x01"
//!   8..12   format version        (u32 LE)
//!   12..16  endian tag 0x1A2B3C4D (u32 LE — reads back wrong on a
//!           big-endian writer, catching byte-order drift explicitly)
//!   16..20  backend tag           (u32 LE)
//!   20..24  section count         (u32 LE)
//!   24..32  section-table offset  (u64 LE, = 80)
//!   32..40  total file length     (u64 LE)
//!   40..44  section-table CRC32   (u32 LE)
//!   44..48  superblock CRC32      (u32 LE, computed with this field zero)
//!   48..80  reserved, zero
//! offset 80   section table: count × 32-byte entries
//!   0..4    section id   (u32 LE)
//!   4..8    payload CRC32(u32 LE)
//!   8..16   payload offset (u64 LE, absolute)
//!   16..24  payload length (u64 LE)
//!   24..32  reserved, zero
//! then        section payloads, back to back
//! ```
//!
//! Every byte of the file is covered: the superblock and table by their own
//! CRCs, payloads by per-section CRCs, and the gap-freeness of the layout by
//! the recorded total length (shorter file → `Truncated`, longer →
//! `TrailingBytes`). Open-time checks run in a fixed order — magic, endian
//! tag, *version*, then checksums — so a snapshot of another format version,
//! older or newer, reports `UnsupportedVersion` even though its superblock
//! would also fail this version's expectations. One version is written and
//! one is read: there is no second reader.

use crate::error::{PersistError, Result};
use mmdr_storage::codec::{Reader, Writer};
use mmdr_storage::crc32;

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"MMDRSNP\x01";
/// Current (and only) format version this build writes and opens.
///
/// Version 2 split the page payload in two: the PAGES section became raw
/// concatenated 4 KiB images (pread-addressable by page id) and the new
/// PAGEDIR section carries the group layout plus a CRC32 *per page*, so an
/// open can verify everything except the images up front and verify each
/// image the moment it is demand-read.
///
/// Version 3 is the iDistance leaf's third field and what pays for it: a
/// B⁺-tree leaf entry is `(key, rid, code)` (24 bytes), META's partition
/// record holds only what a load measured — radii, count, the codebook the
/// codes index, the outliers' reference point — with the subspace, centroid
/// and covariance read from MODEL, which already had them, and MODEL's
/// member lists are zig-zag delta varints.
///
/// Version 4 is the static iDistance leaf: an entry is `(key, code)` (16
/// bytes) and its position in key order names its heap record, the leaves
/// are packed full on consecutive pages with no sibling links, and a leaf
/// header holds its first entry's position. META is unchanged.
///
/// Version 5 is iDistance's META record without a search configuration or
/// a width: the search constants are the algorithm's, not the file's, and
/// the width is MODEL's `dim`.
///
/// Version 6 is the 12-byte iDistance leaf entry, `(key offset: u32, code)`,
/// and a tree with no internal pages: META holds each leaf's first key (its
/// fence) in place of the root and height, so an open reads no page.
///
/// Version 7 is the code-only iDistance leaf: an entry is its 8-byte code
/// and nothing else, 508 to a leaf, under a header holding the leaf's
/// least and greatest key exactly; inside a leaf the entries, and their
/// heap records, stand in Hilbert order of their codes. META is unchanged.
///
/// Version 8 has v7's bytes in another order: a leaf's entries in key
/// order, each partition's heap records in Hilbert order of their codes
/// across the partition. Which record a position names is learned from the
/// leaves by the first search that opens the partition.
///
/// Version 9 is v8 without a cluster's `d × d` covariance in MODEL: no
/// query, insert, fold or re-fit read it. Every other byte is v8's.
///
/// Version 10 takes the point ids off the heap pages: a heap record is its
/// `8·dim` coordinate bytes, `(PAGE_SIZE − 8) / (8·dim)` to a page, and the
/// ids are the new IDS section — per heap page its record count, then every
/// record's id in record order, both as zig-zag delta varint lists — which
/// an open reads without touching a page. A backend without a heap (gLDR)
/// writes no IDS. Every other section is v9's.
///
/// Version 11 stores a heap record's coordinates as `f32`s: `4·dim` bytes,
/// `(PAGE_SIZE − 8) / (4·dim)` records to a page (85 at `dim = 12`, where
/// 42 fitted). A gLDR hybrid tree keeps its `f64` pages, holding the same
/// rounded values. Every other section is v10's.
///
/// Version 12 drops the open append page from a heap's META record: a
/// heap is written once, by its load, and nothing appends to it after a
/// reopen, so the record is its pool capacity and its row count. Every
/// other byte is v11's.
///
/// Version 13 has v12's bytes in another order, as v8 had v7's: each
/// partition's heap records stand page by page in groups — a Hilbert cut
/// of their codes regrouped by balanced Lloyd rounds, so a page holds rows
/// near one another on every axis — rather than in Hilbert order. The
/// order is still a function of the leaves' codes, learned by the first
/// search that opens the partition; under it a v12 heap would name the
/// wrong records, so v12 is refused like any other version.
pub const FORMAT_VERSION: u32 = 13;
/// Little-endian sentinel; a byte-swapped writer would store 0x4D3C2B1A.
pub const ENDIAN_TAG: u32 = 0x1A2B_3C4D;
/// Superblock size; the section table starts here.
pub const SUPERBLOCK_LEN: usize = 80;
/// Size of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Well-known section ids.
pub mod section_id {
    /// The reduction model (clusters, subspaces, outliers, stats).
    pub const MODEL: u32 = 1;
    /// Backend-specific metadata (roots, heights, leaf fences, radii).
    pub const META: u32 = 2;
    /// Raw page images, back to back, grouped per storage structure by the
    /// PAGEDIR section. Byte `PAGE_SIZE·i` of the payload is the start of
    /// the section-wide `i`-th image — an open preads straight here.
    pub const PAGES: u32 = 3;
    /// Page directory: per-group page counts plus a CRC32 per page image.
    pub const PAGEDIR: u32 = 4;
    /// Columnar per-row attribute payloads (the `mmdr-query` AttrStore
    /// codec). Optional: attribute-less snapshots omit the section and
    /// stay byte-identical to pre-attribute images.
    pub const ATTRS: u32 = 5;
    /// The heap's id column: per heap page its record count, then every
    /// record's point id in record order. Present exactly when the backend
    /// stores a heap.
    pub const IDS: u32 = 6;
}

/// The name of section `id`: `model`, `meta`, … for the well-known ids,
/// `#id` for another.
pub fn section_label(id: u32) -> String {
    match id {
        section_id::MODEL => "model",
        section_id::META => "meta",
        section_id::PAGES => "pages",
        section_id::PAGEDIR => "pagedir",
        section_id::ATTRS => "attrs",
        section_id::IDS => "ids",
        other => return format!("#{other}"),
    }
    .to_string()
}

/// Human-readable name of a section id for checksum error messages.
pub(crate) fn section_name(id: u32) -> String {
    format!("section {}", section_label(id))
}

/// The superblock and section table of a snapshot whose sections are, in
/// file order, `sections`: each an id, its payload's CRC32 and its payload's
/// length. The payloads follow back to back — the writer streams them after
/// this head, so the largest never has to exist in memory.
pub fn header(backend_tag: u32, sections: &[(u32, u32, u64)]) -> Vec<u8> {
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let mut offset = (SUPERBLOCK_LEN + table_len) as u64;
    let mut w = Writer::new();
    for &(id, crc, len) in sections {
        w.put_u32(id);
        w.put_u32(crc);
        w.put_u64(offset);
        w.put_u64(len);
        w.put_u64(0);
        offset += len;
    }
    let table = w.into_bytes();
    let file_len = offset;

    let mut sb = [0u8; SUPERBLOCK_LEN];
    sb[0..8].copy_from_slice(&MAGIC);
    sb[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    sb[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    sb[16..20].copy_from_slice(&backend_tag.to_le_bytes());
    sb[20..24].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    sb[24..32].copy_from_slice(&(SUPERBLOCK_LEN as u64).to_le_bytes());
    sb[32..40].copy_from_slice(&file_len.to_le_bytes());
    sb[40..44].copy_from_slice(&crc32(&table).to_le_bytes());
    // CRC over the superblock with its own CRC field still zero.
    let sb_crc = crc32(&sb);
    sb[44..48].copy_from_slice(&sb_crc.to_le_bytes());

    let mut out = Vec::with_capacity(SUPERBLOCK_LEN + table_len);
    out.extend_from_slice(&sb);
    out.extend_from_slice(&table);
    out
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Verified superblock fields — everything an open needs before it touches
/// the section table.
#[derive(Debug, Clone)]
pub struct Superblock {
    /// Backend tag from the superblock.
    pub backend_tag: u32,
    /// Number of section-table entries.
    pub section_count: usize,
    /// Total file length the superblock records (and the on-disk length
    /// matched at verification time).
    pub file_len: u64,
    /// CRC32 the table must hash to.
    table_crc: u32,
}

impl Superblock {
    /// Byte length of the section table.
    pub fn table_len(&self) -> usize {
        self.section_count * TABLE_ENTRY_LEN
    }
}

/// Layout of one section as recorded in the (verified) table.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Section id (see [`section_id`]).
    pub id: u32,
    /// CRC32 the payload must hash to.
    pub crc: u32,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Verifies the superblock from the first `min(disk_len, SUPERBLOCK_LEN)`
/// bytes of the file plus the actual on-disk length, in the fixed check
/// order: magic → endian tag → version → superblock CRC → file length →
/// table offset and bounds. This is all an open reads eagerly besides the
/// table and the small sections — truncation and trailing garbage are
/// caught here, before any payload is trusted.
pub fn parse_superblock(prefix: &[u8], disk_len: u64) -> Result<Superblock> {
    if prefix.len() < SUPERBLOCK_LEN {
        // Too short to even check the magic? Report what we can: a wrong
        // magic beats a generic truncation when the prefix already differs.
        if prefix.len() >= 8 && prefix[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&prefix[0..8]);
            return Err(PersistError::BadMagic { found });
        }
        return Err(PersistError::Truncated {
            expected: SUPERBLOCK_LEN as u64,
            actual: disk_len.min(prefix.len() as u64),
        });
    }
    if prefix[0..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&prefix[0..8]);
        return Err(PersistError::BadMagic { found });
    }
    let endian = u32_at(prefix, 12);
    if endian != ENDIAN_TAG {
        return Err(PersistError::malformed(format!(
            "endian tag {endian:#010x} (written on an incompatible byte order?)"
        )));
    }
    let version = u32_at(prefix, 8);
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored_sb_crc = u32_at(prefix, 44);
    let mut sb = [0u8; SUPERBLOCK_LEN];
    sb.copy_from_slice(&prefix[0..SUPERBLOCK_LEN]);
    sb[44..48].fill(0);
    let computed_sb_crc = crc32(&sb);
    if computed_sb_crc != stored_sb_crc {
        return Err(PersistError::Checksum {
            region: "superblock".to_string(),
            stored: stored_sb_crc,
            computed: computed_sb_crc,
        });
    }
    // From here on the superblock fields are trustworthy.
    let backend_tag = u32_at(prefix, 16);
    let count = u32_at(prefix, 20) as usize;
    let table_offset = u64_at(prefix, 24);
    let file_len = u64_at(prefix, 32);
    if disk_len < file_len {
        return Err(PersistError::Truncated {
            expected: file_len,
            actual: disk_len,
        });
    }
    if disk_len > file_len {
        return Err(PersistError::TrailingBytes {
            expected: file_len,
            actual: disk_len,
        });
    }
    if table_offset != SUPERBLOCK_LEN as u64 {
        return Err(PersistError::malformed(format!(
            "section table at {table_offset}, expected {SUPERBLOCK_LEN}"
        )));
    }
    let table_end = SUPERBLOCK_LEN
        .checked_add(
            count
                .checked_mul(TABLE_ENTRY_LEN)
                .ok_or_else(|| PersistError::malformed("section count overflows the table size"))?,
        )
        .ok_or_else(|| PersistError::malformed("section table end overflows"))?;
    if table_end as u64 > file_len {
        return Err(PersistError::malformed(
            "section table extends past the recorded length",
        ));
    }
    Ok(Superblock {
        backend_tag,
        section_count: count,
        file_len,
        table_crc: u32_at(prefix, 40),
    })
}

/// Verifies the section table (`sb.table_len()` bytes starting at
/// [`SUPERBLOCK_LEN`]) against the superblock's CRC, and checks the entries
/// tile the rest of the file exactly — no gaps a checksum would not cover,
/// no overlaps. Payload CRCs are *not* checked here; callers verify each
/// payload as (and if) they read it.
pub fn parse_table(table: &[u8], sb: &Superblock) -> Result<Vec<SectionEntry>> {
    debug_assert_eq!(table.len(), sb.table_len());
    let stored_table_crc = sb.table_crc;
    let computed_table_crc = crc32(table);
    if computed_table_crc != stored_table_crc {
        return Err(PersistError::Checksum {
            region: "section table".to_string(),
            stored: stored_table_crc,
            computed: computed_table_crc,
        });
    }
    let mut entries = Vec::with_capacity(sb.section_count);
    let mut expected_offset = (SUPERBLOCK_LEN + table.len()) as u64;
    let mut r = Reader::new(table).named("section table");
    for _ in 0..sb.section_count {
        let (id, crc) = (r.get_u32()?, r.get_u32()?);
        let (offset, len, _reserved) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
        if offset != expected_offset {
            return Err(PersistError::malformed(format!(
                "{} at offset {offset}, expected {expected_offset}",
                section_name(id)
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            PersistError::malformed(format!("{} length overflows", section_name(id)))
        })?;
        if end > sb.file_len {
            return Err(PersistError::malformed(format!(
                "{} extends past the recorded length",
                section_name(id)
            )));
        }
        entries.push(SectionEntry {
            id,
            crc,
            offset,
            len,
        });
        expected_offset = end;
    }
    if expected_offset != sb.file_len {
        return Err(PersistError::malformed("sections do not cover the file"));
    }
    Ok(entries)
}

impl SectionEntry {
    /// Checks the CRC32 computed over this section's payload against the
    /// one the table records.
    pub fn expect_crc(&self, computed: u32) -> Result<()> {
        if computed != self.crc {
            return Err(PersistError::Checksum {
                region: section_name(self.id),
                stored: self.crc,
                computed,
            });
        }
        Ok(())
    }
}

/// Verifies `payload` against its table entry's CRC.
pub fn verify_payload(entry: &SectionEntry, payload: &[u8]) -> Result<()> {
    entry.expect_crc(crc32(payload))
}

/// A complete snapshot image assembled in memory from whole payloads: the
/// oracle the streaming writer's bytes are compared with.
#[cfg(test)]
pub(crate) fn assemble(backend_tag: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let heads: Vec<(u32, u32, u64)> = sections
        .iter()
        .map(|(id, payload)| (*id, crc32(payload), payload.len() as u64))
        .collect();
    let mut out = header(backend_tag, &heads);
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type Sections<'a> = Vec<(u32, &'a [u8])>;

    /// The three checks the open path runs, over a whole image in memory:
    /// the backend tag and every (verified) section in file order.
    fn parse(bytes: &[u8]) -> Result<(u32, Sections<'_>)> {
        let sb = parse_superblock(
            &bytes[..SUPERBLOCK_LEN.min(bytes.len())],
            bytes.len() as u64,
        )?;
        let table_end = SUPERBLOCK_LEN + sb.table_len();
        let entries = parse_table(&bytes[SUPERBLOCK_LEN..table_end], &sb)?;
        let mut sections = Vec::with_capacity(entries.len());
        for e in &entries {
            let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
            verify_payload(e, payload)?;
            sections.push((e.id, payload));
        }
        Ok((sb.backend_tag, sections))
    }

    fn sample() -> Vec<u8> {
        assemble(
            2,
            &[
                (section_id::MODEL, b"model-bytes".to_vec()),
                (section_id::META, vec![]),
                (section_id::PAGES, vec![0xAB; 300]),
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let image = sample();
        let (backend_tag, sections) = parse(&image).unwrap();
        assert_eq!(backend_tag, 2);
        assert_eq!(
            sections,
            [
                (section_id::MODEL, &b"model-bytes"[..]),
                (section_id::META, &b""[..]),
                (section_id::PAGES, &[0xAB; 300][..]),
            ]
        );
    }

    #[test]
    fn bad_magic() {
        let mut image = sample();
        image[0] = b'X';
        assert!(matches!(parse(&image), Err(PersistError::BadMagic { .. })));
        // Even on a tiny file the magic check wins when 8 bytes exist.
        assert!(matches!(
            parse(b"NOTASNAPx"),
            Err(PersistError::BadMagic { .. })
        ));
        assert!(matches!(parse(b"abc"), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn another_version_reported_before_checksums() {
        // A newer file, and the one the previous format wrote: the version
        // is changed *without* fixing the superblock CRC, and the version
        // check must fire first.
        for other in [99u32, FORMAT_VERSION - 1] {
            let mut image = sample();
            image[8..12].copy_from_slice(&other.to_le_bytes());
            match parse(&image) {
                Err(PersistError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (other, FORMAT_VERSION));
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let image = sample();
        for cut in [image.len() - 1, image.len() / 2, SUPERBLOCK_LEN + 3, 40] {
            let short = &image[..cut];
            match parse(short) {
                Err(
                    PersistError::Truncated { .. }
                    | PersistError::Checksum { .. }
                    | PersistError::Malformed(_),
                ) => {}
                other => panic!("cut at {cut}: expected a typed failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut image = sample();
        image.push(0);
        assert!(matches!(
            parse(&image),
            Err(PersistError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn every_single_byte_is_guarded() {
        let image = sample();
        for i in 0..image.len() {
            let mut broken = image.clone();
            broken[i] ^= 0x01;
            assert!(
                parse(&broken).is_err(),
                "flipping byte {i} of {} went unnoticed",
                image.len()
            );
        }
    }

    #[test]
    fn endian_tag_mismatch_is_malformed() {
        let mut image = sample();
        image[12..16].copy_from_slice(&0x4D3C_2B1Au32.to_le_bytes());
        assert!(matches!(parse(&image), Err(PersistError::Malformed(_))));
    }
}
