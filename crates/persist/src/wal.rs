//! The write-ahead log behind live ingest.
//!
//! Every acknowledged mutation is appended here *before* it is applied to
//! the serving delta, and the file is fsync'd per append — so a crash at
//! any point loses nothing that was acknowledged. On reopen the log is
//! replayed on top of the latest snapshot. The log is one file with one
//! trim: after a merge or re-fit has folded a prefix of it into a fresh,
//! durably renamed snapshot, [`WalWriter::rewrite`] replaces the file with
//! exactly the unfolded tail through a temp file + atomic rename (the same
//! discipline as snapshots), so after a publish the log holds the tail and
//! nothing else.
//!
//! # Framing
//!
//! ```text
//! file   = record*
//! record = u32 payload_len (LE) | u32 crc32(payload) | payload
//! payload:
//!   u8  tag          1 = insert, 2 = delete, 3 = model-epoch mark,
//!                    4 = insert with attributes
//!   tag 1/2/4: u64 point id
//!   tag 1/4: u32 dim | dim × f64 (IEEE-754 bit patterns, bit-exact)
//!   tag 4 only: u32 attr_len | attr bytes (opaque here — the attribute
//!               layer owns the row codec)
//!   tag 3: u64 model epoch (no point id)
//! ```
//!
//! Records go through the storage layer's byte codec
//! ([`mmdr_storage::codec`]): `dim` and `attr_len` are believed only once
//! their bytes are present, and a payload over [`MAX_WAL_RECORD`] (the
//! wire's frame cap too) is refused at append, before a byte is written.
//!
//! The model-epoch mark records which model epoch the paired snapshot was
//! saved under (epoch 0 writes no mark — the pre-mark format,
//! byte-identical). It is the first record of every rewritten log, so it
//! is in the file for as long as any operation acknowledged against that
//! model is. Replay surfaces the highest mark seen so the opener can
//! refuse a log whose operations postdate the snapshot (a *stale
//! snapshot*: someone restored an old snapshot file next to a newer log).
//!
//! # Damage model
//!
//! A crash mid-append leaves a *torn tail*: a prefix of one valid record
//! at end-of-file. Replay detects this (fewer bytes than the frame
//! promises), stops cleanly at the last complete record, and reports the
//! tail so the opener can truncate it. A complete frame whose CRC
//! mismatches, an absurd length field, or an undecodable payload are
//! *mid-log corruption* and surface as the typed
//! [`PersistError::WalCorrupt`]; replay never guesses past damage. A crash
//! between a snapshot's rename and the rewrite leaves the whole old log
//! next to the new snapshot: its folded inserts are skipped by id on
//! replay and its folded deletes are idempotent.
//!
//! Builds before the single-file log rotated into `<log>.1`, `<log>.2`, …
//! siblings. None is ever written now; one found at open is refused with
//! the same typed error rather than replayed partially.

use crate::error::{PersistError, Result};
use crate::snapshot::replace_file;
use mmdr_index::IngestOp;
use mmdr_storage::codec::{self, frame_len, Reader, Writer};
use mmdr_storage::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame header length: payload length + payload CRC32.
const FRAME_HEADER: usize = 8;

/// Hard cap on one record's payload: the codec's record cap, which the wire
/// protocol's frames share. An append of a larger record is refused before
/// a byte is written, and a complete header promising more is corruption,
/// not a big row.
pub use mmdr_storage::codec::MAX_FRAME as MAX_WAL_RECORD;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_MODEL_EPOCH: u8 = 3;
const TAG_INSERT_ATTRS: u8 = 4;

/// One logged operation: the op and, for an insert that carried one, its
/// opaque attribute payload (tag 4). The engine keeps the same value in
/// its pending queue, so a rewrite re-frames the tail from what was
/// appended. Attributes on a delete are meaningless and never encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The operation.
    pub op: IngestOp,
    /// The encoded attribute row of an insert; `None` for deletes and
    /// attribute-less inserts.
    pub attrs: Option<Vec<u8>>,
}

impl From<IngestOp> for WalRecord {
    fn from(op: IngestOp) -> Self {
        Self { op, attrs: None }
    }
}

/// Frames a payload: length + CRC + bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(payload.len() as u32);
    w.put_u32(crc32(payload));
    w.put_raw(payload);
    w.into_bytes()
}

/// A framed model-epoch mark.
fn mark_frame(epoch: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(TAG_MODEL_EPOCH);
    w.put_u64(epoch);
    frame(&w.into_bytes())
}

/// Encodes an op and its optional attribute bytes as a record payload (no
/// frame header) — the one encoder behind [`WalRecord::encode`] and
/// [`WalWriter::append`].
fn encode(op: &IngestOp, attrs: Option<&[u8]>) -> Vec<u8> {
    let mut w = Writer::new();
    match op {
        IngestOp::Insert { id, vector } => {
            w.put_u8(if attrs.is_some() {
                TAG_INSERT_ATTRS
            } else {
                TAG_INSERT
            });
            w.put_u64(*id);
            w.put_u32(vector.len() as u32);
            for &x in vector {
                w.put_f64(x);
            }
            if let Some(bytes) = attrs {
                w.put_bytes(bytes);
            }
        }
        IngestOp::Delete { id } => {
            w.put_u8(TAG_DELETE);
            w.put_u64(*id);
        }
    }
    w.into_bytes()
}

/// A decoded record payload: an operation or a model-epoch mark.
enum Payload {
    Record(WalRecord),
    Mark(u64),
}

/// Reads one payload's fields; `None` for a tag this build does not know.
/// An insert's `dim` is believed only once its coordinates fit in the
/// bytes behind it, and its attribute bytes likewise.
fn read_payload(r: &mut Reader<'_>) -> codec::Result<Option<Payload>> {
    let tag = r.get_u8()?;
    Ok(Some(match tag {
        TAG_INSERT | TAG_INSERT_ATTRS => {
            let id = r.get_u64()?;
            let dim = r.get_u32()?;
            let vector = (0..r.count(dim.into(), 8)?)
                .map(|_| r.get_f64())
                .collect::<codec::Result<_>>()?;
            let attrs = match tag {
                TAG_INSERT_ATTRS => Some(r.get_bytes()?.to_vec()),
                _ => None,
            };
            let op = IngestOp::Insert { id, vector };
            Payload::Record(WalRecord { op, attrs })
        }
        TAG_DELETE => Payload::Record(IngestOp::Delete { id: r.get_u64()? }.into()),
        TAG_MODEL_EPOCH => Payload::Mark(r.get_u64()?),
        _ => return Ok(None),
    }))
}

/// Decodes one whole record payload. `offset` is the frame's file
/// position, used only to type the error.
fn decode_payload(payload: &[u8], offset: u64) -> Result<Payload> {
    let corrupt = |detail: String| PersistError::WalCorrupt { offset, detail };
    let mut r = Reader::new(payload).named("record");
    let read = read_payload(&mut r).and_then(|p| r.finish().map(|()| p));
    read.map_err(|e| corrupt(e.to_string()))?
        .ok_or_else(|| corrupt("unknown record tag".to_string()))
}

impl WalRecord {
    /// Encodes the record as a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        encode(&self.op, self.attrs.as_deref())
    }

    /// Decodes one record payload. `offset` is the frame's file position,
    /// used only to type the error.
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        match decode_payload(payload, offset)? {
            Payload::Record(record) => Ok(record),
            Payload::Mark(_) => Err(PersistError::WalCorrupt {
                offset,
                detail: "a model-epoch mark is no operation".to_string(),
            }),
        }
    }
}

/// Result of replaying a log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every decoded record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by complete, valid records.
    pub valid_bytes: u64,
    /// Whether an incomplete final record (a crash mid-append) was found
    /// past `valid_bytes`. The tail carries no acknowledged op.
    pub torn_tail: bool,
    /// The highest model-epoch mark in the log (0 when the log predates
    /// every re-fit — no mark record written). The paired snapshot must
    /// carry at least this model epoch; a lower one is stale.
    pub model_epoch: u64,
}

/// Decodes a log image. Stops cleanly at a torn tail; errors (typed) on
/// mid-log corruption. Exposed at byte level for the proptest harness.
pub fn decode_wal(bytes: &[u8]) -> Result<WalReplay> {
    let mut replay = WalReplay {
        records: Vec::new(),
        valid_bytes: 0,
        torn_tail: false,
        model_epoch: 0,
    };
    let mut pos = 0usize;
    while pos < bytes.len() {
        let corrupt = |detail: String| PersistError::WalCorrupt {
            offset: pos as u64,
            detail,
        };
        let mut r = Reader::new(&bytes[pos..]);
        let (Ok(len), Ok(stored_crc)) = (r.get_u32(), r.get_u32()) else {
            replay.torn_tail = true;
            break;
        };
        if len > MAX_WAL_RECORD {
            return Err(corrupt(format!(
                "record length {len} exceeds {MAX_WAL_RECORD}"
            )));
        }
        // A prefix of one record at EOF: the torn tail of a crashed
        // append. Nothing in it was acknowledged.
        let Ok(payload) = r.get_raw(len as usize) else {
            replay.torn_tail = true;
            break;
        };
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(corrupt(format!(
                "payload CRC {computed:#010x} != stored {stored_crc:#010x}"
            )));
        }
        match decode_payload(payload, pos as u64)? {
            Payload::Record(record) => replay.records.push(record),
            // Epoch marks are log metadata, not operations.
            Payload::Mark(epoch) => replay.model_epoch = replay.model_epoch.max(epoch),
        }
        pos += FRAME_HEADER + payload.len();
    }
    replay.valid_bytes = pos as u64;
    Ok(replay)
}

/// Removes the log at `base` (a missing log is fine). Used when a fresh
/// snapshot must not inherit a stale log.
pub(crate) fn remove_wal(base: &Path) -> Result<()> {
    match std::fs::remove_file(base) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(PersistError::io(base, e)),
    }
}

/// Replays the log at `path`. A missing log is an empty log (fresh
/// ingest), a torn tail stops replay cleanly, anything else is a typed
/// error.
pub fn replay_wal(path: impl AsRef<Path>) -> Result<WalReplay> {
    let path = path.as_ref();
    match std::fs::read(path) {
        Ok(bytes) => decode_wal(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => decode_wal(&[]),
        Err(e) => Err(PersistError::io(path, e)),
    }
}

/// Append handle over the log. Every append writes one framed record and
/// syncs file data before returning, so an acknowledged op is on stable
/// storage.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
}

impl WalWriter {
    /// Opens the log at `path` for appending, replaying what is already
    /// there. A torn tail is truncated away (it carries no acknowledged
    /// op) so the next append starts at a clean frame boundary.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalReplay)> {
        let path = path.as_ref().to_path_buf();
        let replay = replay_wal(&path)?;
        let io = |e| PersistError::io(&path, e);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io)?;
        if replay.torn_tail {
            file.set_len(replay.valid_bytes).map_err(io)?;
            file.sync_data().map_err(io)?;
        }
        let bytes = replay.valid_bytes;
        Ok((Self { file, path, bytes }, replay))
    }

    /// The log's one trim: atomically replaces the file with exactly
    /// `tail` — the records a merge or re-fit did not fold — stamped with
    /// the model epoch of the snapshot it now pairs with (a non-zero epoch
    /// writes one mark record at the head, epoch 0 none: the pre-mark
    /// format). Temp file, sync, rename, directory sync (`replace_file`):
    /// the temp file is removed on failure and the old log stays in place.
    /// Later appends follow the rewritten records.
    pub fn rewrite(&mut self, tail: &[WalRecord], model_epoch: u64) -> Result<()> {
        let mut image = Vec::new();
        if model_epoch > 0 {
            image.extend_from_slice(&mark_frame(model_epoch));
        }
        for record in tail {
            image.extend_from_slice(&frame(&record.encode()));
        }
        // The handle that wrote the image stays the append handle: it
        // stands at end-of-file, and a rename does not invalidate it.
        let io = |e| PersistError::io(&self.path, e);
        self.file = replace_file(&self.path, |file| file.write_all(&image).map_err(io))?;
        self.bytes = image.len() as u64;
        Ok(())
    }

    /// Appends one attribute-less op and syncs it to stable storage.
    pub fn append(&mut self, op: &IngestOp) -> Result<()> {
        self.write_frame(&encode(op, None))
    }

    /// [`append`](Self::append) for a record that may carry attribute
    /// bytes (tag 4 when it does).
    pub fn append_record(&mut self, record: &WalRecord) -> Result<()> {
        self.write_frame(&record.encode())
    }

    /// Writes one framed record and syncs it. A payload over
    /// [`MAX_WAL_RECORD`] is refused before a byte is written: replay would
    /// refuse its frame as mid-log corruption, and the log would not open.
    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        let io = |e| PersistError::io(&self.path, e);
        frame_len(payload).map_err(io)?;
        let record = frame(payload);
        self.file.write_all(&record).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// Bytes of valid records in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_query::AttrValue;
    use proptest::prelude::*;

    fn ops() -> Vec<IngestOp> {
        vec![
            IngestOp::Insert {
                id: 100,
                vector: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
            },
            IngestOp::Delete { id: 3 },
            IngestOp::Insert {
                id: 101,
                vector: vec![9.0; 16],
            },
        ]
    }

    fn records() -> Vec<WalRecord> {
        ops().into_iter().map(WalRecord::from).collect()
    }

    /// The legacy log image: one frame per op and nothing else.
    fn image() -> Vec<u8> {
        ops()
            .iter()
            .flat_map(|op| frame(&encode(op, None)))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdr-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp_dir("rt");
        let path = dir.join("a.wal");
        let (mut w, replay) = WalWriter::open(&path).unwrap();
        assert!(replay.records.is_empty());
        for op in ops() {
            w.append(&op).unwrap();
        }
        let bytes = w.bytes();
        drop(w);
        let (w2, replay) = WalWriter::open(&path).unwrap();
        assert_eq!(replay.records, records());
        assert!(!replay.torn_tail);
        assert_eq!(replay.valid_bytes, bytes);
        assert_eq!(w2.bytes(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attr_records_roundtrip() {
        let dir = tmp_dir("attr");
        let path = dir.join("a.wal");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        let insert = WalRecord {
            op: IngestOp::Insert {
                id: 7,
                vector: vec![0.5, 0.25],
            },
            attrs: Some(b"payload".to_vec()),
        };
        w.append_record(&insert).unwrap();
        w.append(&IngestOp::Delete { id: 7 }).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![insert, IngestOp::Delete { id: 7 }.into()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attr_record_corruption_is_typed() {
        let insert = IngestOp::Insert {
            id: 7,
            vector: vec![0.5],
        };
        let payload = encode(&insert, Some(b"abc"));
        // Truncating the attr bytes (reframed, so the CRC is recomputed)
        // must be a decode error, not a silent short read.
        let short = &payload[..payload.len() - 1];
        assert!(matches!(
            decode_wal(&frame(short)),
            Err(PersistError::WalCorrupt { .. })
        ));
        // An unframed tag-4 record without attrs is also corrupt.
        let mut retagged = encode(&insert, None);
        retagged[0] = 4;
        assert!(WalRecord::decode(&retagged, 0).is_err());
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let image = image();
        let full = image.len();
        // Any strict prefix that cuts into the final record replays the
        // first two ops and flags the tail.
        let last_start = full - frame(&encode(&ops()[2], None)).len();
        for cut in [last_start + 1, last_start + 7, full - 1] {
            let replay = decode_wal(&image[..cut]).unwrap();
            assert_eq!(replay.records, records()[..2].to_vec(), "cut {cut}");
            assert_eq!(replay.valid_bytes, last_start as u64);
            assert!(replay.torn_tail);
        }
        // Opening such a file truncates the tail away; appends resume at
        // the frame boundary.
        let dir = tmp_dir("torn");
        let path = dir.join("t.wal");
        std::fs::write(&path, &image[..full - 1]).unwrap();
        let (mut w, _) = WalWriter::open(&path).unwrap();
        assert_eq!(w.bytes(), last_start as u64);
        w.append(&ops()[2]).unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_typed() {
        let image = image();
        // Flip a payload byte of the first record: CRC catches it.
        let mut bad = image.clone();
        bad[FRAME_HEADER + 2] ^= 0x40;
        assert!(matches!(
            decode_wal(&bad),
            Err(PersistError::WalCorrupt { offset: 0, .. })
        ));
        // An absurd length field in a complete header is corruption, not
        // a torn tail.
        let mut bad = image.clone();
        bad[0..4].copy_from_slice(&(MAX_WAL_RECORD + 1).to_le_bytes());
        assert!(matches!(
            decode_wal(&bad),
            Err(PersistError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn model_epoch_mark_survives_rewrite_and_appends() {
        let dir = tmp_dir("me");
        let path = dir.join("m.wal");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.rewrite(&[IngestOp::Delete { id: 7 }.into()], 5).unwrap();
        w.append(&IngestOp::Delete { id: 8 }).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.model_epoch, 5);
        // The mark is metadata: ops come back without it.
        assert_eq!(
            replay.records,
            vec![
                IngestOp::Delete { id: 7 }.into(),
                IngestOp::Delete { id: 8 }.into()
            ]
        );
        // Reopening through the writer path sees the same mark, and a
        // rewrite that folds everything keeps it: the mark alone.
        let (mut w, replay) = WalWriter::open(&path).unwrap();
        assert_eq!(replay.model_epoch, 5);
        w.rewrite(&[], 5).unwrap();
        assert_eq!(w.bytes(), mark_frame(5).len() as u64);
        assert_eq!(replay_wal(&path).unwrap().model_epoch, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_zero_rewrite_is_byte_identical_to_legacy() {
        let dir = tmp_dir("me0");
        let a = dir.join("legacy.wal");
        let (mut w, _) = WalWriter::open(&a).unwrap();
        w.rewrite(&records(), 0).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), image());
        let replay = replay_wal(&a).unwrap();
        assert_eq!(replay.model_epoch, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_epoch_mark_is_corruption() {
        // A complete frame whose payload claims tag 3 but is short.
        let image = frame(&[TAG_MODEL_EPOCH, 1, 2, 3]);
        assert!(matches!(
            decode_wal(&image),
            Err(PersistError::WalCorrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn rewrite_keeps_only_the_tail() {
        let dir = tmp_dir("rw");
        let path = dir.join("b.wal");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        for op in ops() {
            w.append(&op).unwrap();
        }
        w.rewrite(&[IngestOp::Delete { id: 9 }.into()], 0).unwrap();
        w.append(&IngestOp::Delete { id: 10 }).unwrap();
        let bytes = w.bytes();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![
                IngestOp::Delete { id: 9 }.into(),
                IngestOp::Delete { id: 10 }.into()
            ]
        );
        assert_eq!(replay.valid_bytes, bytes);
        // Folding everything leaves an empty file and no temp behind.
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.rewrite(&[], 0).unwrap();
        assert_eq!((w.bytes(), std::fs::read(&path).unwrap().len()), (0, 0));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The payload of an insert carrying an attribute row: the record the
    /// fuzz tests below damage, with the offsets of its `dim`, its
    /// `attr_len` and its row's pair count.
    fn attr_record() -> (Vec<u8>, [usize; 3]) {
        let row = mmdr_query::encode_row(&[
            ("tenant".to_string(), AttrValue::I64(-3)),
            ("region".to_string(), AttrValue::Tag("eu-west".into())),
            ("price".to_string(), AttrValue::F64(2.5)),
        ]);
        let vector = vec![0.5, -1.0, 2.25];
        let attr_len = 1 + 8 + 4 + 8 * vector.len();
        let op = IngestOp::Insert { id: 41, vector };
        (encode(&op, Some(&row)), [9, attr_len, attr_len + 4])
    }

    /// Replays `payload` framed under a CRC made right for it, then decodes
    /// the attribute row of what it replayed. Each step returns `Ok` or its
    /// typed error — a trusted count would have aborted on its allocation
    /// first — and the answer is whether the record and its row decoded.
    fn replay_damaged(payload: &[u8]) -> bool {
        match decode_wal(&frame(payload)) {
            Ok(replay) => replay.records.iter().all(|record| {
                let row = mmdr_query::decode_row(record.attrs.as_deref().unwrap_or(&[0; 4]));
                assert!(
                    matches!(row, Ok(_) | Err(mmdr_query::Error::Corrupt(_))),
                    "{row:?}"
                );
                row.is_ok()
            }),
            Err(e) => {
                assert!(
                    matches!(e, PersistError::WalCorrupt { offset: 0, .. }),
                    "{e}"
                );
                false
            }
        }
    }

    /// Lengths no bytes could back, planted as a little-endian `u32` at
    /// every offset of the record: each replay returns, typed. At the
    /// record's `dim`, at its `attr_len` and at its row's pair count the lie
    /// is refused.
    #[test]
    fn a_planted_length_is_refused_or_harmless_at_every_offset() {
        let (intact, counts) = attr_record();
        assert!(replay_damaged(&intact));
        for at in 0..intact.len() {
            for lie in [intact.len() as u32 + 1, 1 << 16, 1 << 31, u32::MAX] {
                let mut damaged = intact.clone();
                let end = damaged.len().min(at + 4);
                damaged[at..end].copy_from_slice(&lie.to_le_bytes()[..end - at]);
                let decoded = replay_damaged(&damaged);
                assert!(!(decoded && counts.contains(&at)), "a lie at {at} decoded");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A record cut short, with bytes flipped and overwritten, framed
        /// under a CRC made right for the damage: replay and the row decode
        /// return `Ok` or a typed error, and none panics. A cut alone is
        /// always refused.
        #[test]
        fn a_damaged_record_decodes_or_is_refused(
            cut in 0usize..=usize::MAX,
            flips in proptest::collection::vec((0usize..=usize::MAX, 1u8..=255), 0..4),
            (overwrites, at, word) in (proptest::bool::ANY, 0usize..=usize::MAX, 0u64..=u64::MAX),
        ) {
            let (intact, _) = attr_record();
            // Whole records as often as cut ones.
            let cut = if cut % 2 == 0 { intact.len() } else { cut % (intact.len() + 1) };
            let mut bytes = intact[..cut].to_vec();
            let damaged = !flips.is_empty() || overwrites;
            if !bytes.is_empty() {
                for (at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
                if overwrites {
                    let at = at % bytes.len();
                    let end = bytes.len().min(at + 8);
                    bytes[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                }
            }
            let decoded = replay_damaged(&bytes);
            if bytes.len() < intact.len() && !damaged {
                prop_assert!(!decoded, "a cut at {} of {} decoded", bytes.len(), intact.len());
            }
        }
    }
}
