//! Property tests for the write-ahead-log framing: arbitrary record
//! sequences round-trip bit-exactly, any torn tail replays cleanly to the
//! last complete record, mid-log byte damage is a typed error — never a
//! panic and never a silently short replay — and a rewrite leaves exactly
//! the unfolded tail.

use mmdr_index::IngestOp;
use mmdr_persist::{decode_wal, replay_wal, PersistError, WalRecord, WalWriter};
use proptest::prelude::*;

/// Any record: half inserts (coordinates drawn as raw bit patterns, so
/// NaNs, infinities and signed zeros all occur; half of them carrying an
/// arbitrary attribute payload, the empty one included), half deletes.
fn record_strategy() -> impl Strategy<Value = WalRecord> {
    (
        proptest::bool::ANY,
        0u64..=u64::MAX,
        proptest::collection::vec(0u64..=u64::MAX, 0..24),
        proptest::bool::ANY,
        proptest::collection::vec(0u8..=u8::MAX, 0..40),
    )
        .prop_map(|(is_insert, id, bits, has_attrs, attrs)| {
            if is_insert {
                let vector = bits.into_iter().map(f64::from_bits).collect();
                WalRecord {
                    op: IngestOp::Insert { id, vector },
                    attrs: has_attrs.then_some(attrs),
                }
            } else {
                IngestOp::Delete { id }.into()
            }
        })
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&mmdr_persist::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn image(records: &[WalRecord]) -> Vec<u8> {
    records.iter().flat_map(|r| frame(&r.encode())).collect()
}

/// Bit-pattern equality: the log must preserve NaN payloads and signed
/// zeros exactly, which `==` on f64 would not check.
fn records_bit_eq(a: &[WalRecord], b: &[WalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.attrs == y.attrs
                && match (&x.op, &y.op) {
                    (
                        IngestOp::Insert { id: ia, vector: va },
                        IngestOp::Insert { id: ib, vector: vb },
                    ) => {
                        ia == ib
                            && va.len() == vb.len()
                            && va.iter().zip(vb).all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    (IngestOp::Delete { id: ia }, IngestOp::Delete { id: ib }) => ia == ib,
                    _ => false,
                }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity on single records, down to NaN bit
    /// patterns and attribute bytes.
    #[test]
    fn record_roundtrip(record in record_strategy()) {
        let back = WalRecord::decode(&record.encode(), 0).unwrap();
        prop_assert!(records_bit_eq(std::slice::from_ref(&record), std::slice::from_ref(&back)));
    }

    /// A whole log image replays to exactly the records that were framed,
    /// in order, with no torn tail.
    #[test]
    fn log_roundtrip(records in proptest::collection::vec(record_strategy(), 0..20)) {
        let bytes = image(&records);
        let replay = decode_wal(&bytes).unwrap();
        prop_assert!(records_bit_eq(&records, &replay.records));
        prop_assert!(!replay.torn_tail);
        prop_assert_eq!(replay.valid_bytes, bytes.len() as u64);
    }

    /// Cutting the image anywhere inside the final record (a crash
    /// mid-append) replays every earlier record and flags a torn tail —
    /// replay stops cleanly at the last valid frame.
    #[test]
    fn torn_tail_stops_at_last_valid_frame(
        records in proptest::collection::vec(record_strategy(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let full = image(&records);
        let prefix = image(&records[..records.len() - 1]);
        let tail_len = full.len() - prefix.len();
        // A cut strictly inside the last record: at least 1 byte present,
        // at least 1 byte missing.
        let cut = prefix.len() + 1 + ((cut_frac * (tail_len - 2) as f64) as usize);
        let replay = decode_wal(&full[..cut]).unwrap();
        prop_assert!(records_bit_eq(&records[..records.len() - 1], &replay.records));
        prop_assert!(replay.torn_tail);
        prop_assert_eq!(replay.valid_bytes, prefix.len() as u64);
    }

    /// Flipping any payload byte of a non-final record is mid-log
    /// corruption: a typed `WalCorrupt` at that record's offset, never a
    /// short replay that silently drops acknowledged ops.
    #[test]
    fn mid_record_damage_is_typed(
        records in proptest::collection::vec(record_strategy(), 2..10),
        victim_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let victim = (victim_frac * (records.len() - 1) as f64) as usize; // never the last
        let start = image(&records[..victim]).len();
        let payload_len = records[victim].encode().len();
        let mut bytes = image(&records);
        // Damage a payload byte (past the 8-byte frame header) so the CRC
        // or the decoder must catch it.
        let at = start + 8 + ((byte_frac * payload_len.saturating_sub(1) as f64) as usize);
        bytes[at] ^= flip;
        match decode_wal(&bytes) {
            Err(PersistError::WalCorrupt { offset, .. }) => {
                prop_assert_eq!(offset, start as u64);
            }
            other => prop_assert!(false, "expected WalCorrupt, got {:?}", other.map(|r| r.records.len())),
        }
    }

    /// The trim: whatever was appended and wherever the fold point falls,
    /// the rewritten log replays to exactly the tail records, bit for bit,
    /// and is exactly their frames long — plus the 17-byte mark under a
    /// non-zero model epoch.
    #[test]
    fn rewrite_leaves_exactly_the_tail(
        records in proptest::collection::vec(record_strategy(), 0..16),
        fold_point in 0usize..=16,
        model_epoch in 0u64..3,
    ) {
        let dir = std::env::temp_dir().join(format!("mmdr-wal-proptest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = WalWriter::open(&path).unwrap();
        for record in &records {
            wal.append_record(record).unwrap();
        }
        let tail = &records[fold_point.min(records.len())..];
        wal.rewrite(tail, model_epoch).unwrap();
        let expect = image(tail).len() as u64 + if model_epoch > 0 { 17 } else { 0 };
        prop_assert_eq!(wal.bytes(), expect);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), expect);
        let replay = replay_wal(&path).unwrap();
        prop_assert!(records_bit_eq(tail, &replay.records));
        prop_assert_eq!((replay.valid_bytes, replay.torn_tail), (expect, false));
        prop_assert_eq!(replay.model_epoch, model_epoch);
    }
}
