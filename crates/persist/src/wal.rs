//! The write-ahead log behind live ingest.
//!
//! Every acknowledged mutation is appended here *before* it is applied to
//! the serving delta, and the file is fsync'd per append — so a crash at
//! any point loses nothing that was acknowledged. On reopen the log is
//! replayed on top of the latest snapshot; after a merge folds the delta
//! into a fresh snapshot the fully-folded leading segments are deleted
//! (and a re-fit rewrites the log down to the unfolded tail via a temp
//! file + atomic rename, same discipline as snapshots).
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
//! The model-epoch mark records which model epoch the paired snapshot was
//! saved under (epoch 0 writes no mark — the pre-mark format,
//! byte-identical). It is written at the head of every rewritten log *and*
//! at the head of every freshly rotated segment, so deleting fully-folded
//! segments can never lose it. Replay surfaces the highest mark seen so
//! the opener can refuse a log whose operations postdate the snapshot (a
//! *stale snapshot*: someone restored an old snapshot file next to a newer
//! log).
//!
//! # Segments
//!
//! A log is a contiguous run of segment files: `<base>`, `<base>.1`,
//! `<base>.2`, … Appends rotate to a new segment once the active one
//! reaches the configured byte limit ([`DEFAULT_WAL_SEGMENT_BYTES`]).
//! After a merge, [`WalWriter::truncate_folded`] deletes leading segments
//! whose records are all folded into the snapshot — whole-file unlinks,
//! no rewrite of surviving bytes. The boundary segment (partially folded)
//! is kept whole; its folded records are harmless on replay because the
//! opener skips inserts the snapshot already holds and deletes are
//! idempotent. Replay requires the surviving indices to be contiguous —
//! a gap is corruption, not an empty stretch.
//!
//! # Damage model
//!
//! A crash mid-append leaves a *torn tail*: a prefix of one valid record
//! at end-of-file. Replay detects this (fewer bytes than the frame
//! promises), stops cleanly at the last complete record, and reports the
//! tail so the opener can truncate it. A torn tail is only legitimate in
//! the **last** segment — appends only ever touch the newest file — so a
//! torn earlier segment, a complete frame whose CRC mismatches, an absurd
//! length field, or an undecodable payload are *mid-log corruption* and
//! surface as the typed [`PersistError::WalCorrupt`]; replay never guesses
//! past damage.

use crate::error::{PersistError, Result};
use mmdr_index::IngestOp;
use mmdr_storage::crc32;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame header length: payload length + payload CRC32.
const FRAME_HEADER: usize = 8;

/// Hard cap on one record's payload (matches the wire protocol's frame
/// cap). A complete header promising more is corruption, not a big row.
pub const MAX_WAL_RECORD: u32 = 16 * 1024 * 1024;

/// Default byte limit of one log segment: appends rotate to a fresh
/// segment file once the active one reaches this size.
pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_MODEL_EPOCH: u8 = 3;
const TAG_INSERT_ATTRS: u8 = 4;

/// Encodes a model-epoch mark payload (no frame header).
fn encode_model_epoch(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(TAG_MODEL_EPOCH);
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// Encodes one op as a record payload (no frame header).
pub fn encode_op(op: &IngestOp) -> Vec<u8> {
    encode_record(op, None)
}

/// Encodes one op, with an opaque attribute payload when the op is an
/// insert that carries one (tag 4). Attributes on a delete are meaningless
/// and ignored.
pub fn encode_record(op: &IngestOp, attrs: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        IngestOp::Insert { id, vector } => {
            out.push(if attrs.is_some() {
                TAG_INSERT_ATTRS
            } else {
                TAG_INSERT
            });
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
            for &x in vector {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            if let Some(bytes) = attrs {
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        IngestOp::Delete { id } => {
            out.push(TAG_DELETE);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Decodes one record payload. `offset` is the frame's file position,
/// used only to type the error.
pub fn decode_op(payload: &[u8], offset: u64) -> Result<IngestOp> {
    decode_record(payload, offset).map(|(op, _)| op)
}

/// Decodes one record payload, returning the attribute bytes when the
/// record is an insert-with-attributes (tag 4).
pub fn decode_record(payload: &[u8], offset: u64) -> Result<(IngestOp, Option<Vec<u8>>)> {
    let corrupt = |detail: &str| PersistError::WalCorrupt {
        offset,
        detail: detail.to_string(),
    };
    if payload.is_empty() {
        return Err(corrupt("empty payload"));
    }
    let tag = payload[0];
    let body = &payload[1..];
    match tag {
        TAG_INSERT | TAG_INSERT_ATTRS => {
            if body.len() < 12 {
                return Err(corrupt("insert record shorter than id + dim"));
            }
            let id = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
            let dim = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
            let rest = &body[12..];
            let coords_len = dim.checked_mul(8).ok_or_else(|| corrupt("dim overflows"))?;
            if rest.len() < coords_len {
                return Err(corrupt("insert record length disagrees with dim"));
            }
            let (coords, after) = rest.split_at(coords_len);
            let vector = coords
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                .collect();
            let attrs = if tag == TAG_INSERT_ATTRS {
                if after.len() < 4 {
                    return Err(corrupt("attr record shorter than its length field"));
                }
                let attr_len =
                    u32::from_le_bytes(after[0..4].try_into().expect("4 bytes")) as usize;
                if after.len() - 4 != attr_len {
                    return Err(corrupt("attr record length disagrees with attr_len"));
                }
                Some(after[4..].to_vec())
            } else {
                if !after.is_empty() {
                    return Err(corrupt("insert record length disagrees with dim"));
                }
                None
            };
            Ok((IngestOp::Insert { id, vector }, attrs))
        }
        TAG_DELETE => {
            if body.len() != 8 {
                return Err(corrupt("delete record has wrong length"));
            }
            let id = u64::from_le_bytes(body.try_into().expect("8 bytes"));
            Ok((IngestOp::Delete { id }, None))
        }
        _ => Err(corrupt("unknown record tag")),
    }
}

/// Frames a payload: length + CRC + bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of replaying a log (all segments aggregated, in order).
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every decoded op, in append order.
    pub ops: Vec<IngestOp>,
    /// Per-op attribute payloads, parallel to `ops` (`None` for ops that
    /// carried none — always for deletes).
    pub attrs: Vec<Option<Vec<u8>>>,
    /// Bytes covered by complete, valid records, across all segments.
    pub valid_bytes: u64,
    /// Whether an incomplete final record (a crash mid-append) was found
    /// past `valid_bytes`. The tail carries no acknowledged op.
    pub torn_tail: bool,
    /// The highest model-epoch mark in the log (0 when the log predates
    /// every re-fit — no mark record written). The paired snapshot must
    /// carry at least this model epoch; a lower one is stale.
    pub model_epoch: u64,
}

impl WalReplay {
    fn empty() -> Self {
        Self {
            ops: Vec::new(),
            attrs: Vec::new(),
            valid_bytes: 0,
            torn_tail: false,
            model_epoch: 0,
        }
    }
}

/// Decodes a single segment image. Stops cleanly at a torn tail; errors
/// (typed) on mid-segment corruption. Exposed at byte level for the
/// proptest harness.
pub fn decode_wal(bytes: &[u8]) -> Result<WalReplay> {
    let mut ops = Vec::new();
    let mut attrs = Vec::new();
    let mut model_epoch = 0u64;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return Ok(WalReplay {
                ops,
                attrs,
                valid_bytes: pos as u64,
                torn_tail: true,
                model_epoch,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_WAL_RECORD {
            return Err(PersistError::WalCorrupt {
                offset: pos as u64,
                detail: format!("record length {len} exceeds {MAX_WAL_RECORD}"),
            });
        }
        if remaining - FRAME_HEADER < len as usize {
            // A prefix of one record at EOF: the torn tail of a crashed
            // append. Nothing in it was acknowledged.
            return Ok(WalReplay {
                ops,
                attrs,
                valid_bytes: pos as u64,
                torn_tail: true,
                model_epoch,
            });
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize];
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(PersistError::WalCorrupt {
                offset: pos as u64,
                detail: format!("payload CRC {computed:#010x} != stored {stored_crc:#010x}"),
            });
        }
        if payload.first() == Some(&TAG_MODEL_EPOCH) {
            // Epoch marks are log metadata, not operations.
            if payload.len() != 9 {
                return Err(PersistError::WalCorrupt {
                    offset: pos as u64,
                    detail: "model-epoch mark has wrong length".to_string(),
                });
            }
            let mark = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            model_epoch = model_epoch.max(mark);
        } else {
            let (op, op_attrs) = decode_record(payload, pos as u64)?;
            ops.push(op);
            attrs.push(op_attrs);
        }
        pos += FRAME_HEADER + len as usize;
    }
    Ok(WalReplay {
        ops,
        attrs,
        valid_bytes: pos as u64,
        torn_tail: false,
        model_epoch,
    })
}

// ---- segments -------------------------------------------------------------

/// Path of segment `idx`: the base path itself for 0, `<base>.idx` above.
fn segment_path(base: &Path, idx: u64) -> PathBuf {
    if idx == 0 {
        return base.to_path_buf();
    }
    let mut p = base.as_os_str().to_owned();
    p.push(format!(".{idx}"));
    PathBuf::from(p)
}

/// Indices ≥ 1 of extra segment files present next to `base` (unsorted).
/// Only exact `<name>.<decimal>` siblings count — temp files and foreign
/// names are ignored. A missing parent directory means no segments.
fn extra_segment_indices(base: &Path) -> Result<Vec<u64>> {
    let parent = match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = match base.file_name() {
        Some(n) => n.to_string_lossy().into_owned(),
        None => return Ok(Vec::new()),
    };
    let entries = match std::fs::read_dir(parent) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::io(parent, e)),
    };
    let prefix = format!("{name}.");
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(parent, e))?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if let Some(suffix) = fname.strip_prefix(&prefix) {
            // Exact decimal form only: "007" or "+3" are not our segments.
            if let Ok(idx) = suffix.parse::<u64>() {
                if idx >= 1 && suffix == idx.to_string() {
                    out.push(idx);
                }
            }
        }
    }
    Ok(out)
}

/// Removes every segment of the log rooted at `base` (a missing log is
/// fine). Used when a fresh snapshot must not inherit a stale log — a
/// leftover `.N` segment alone would still replay foreign operations.
pub(crate) fn remove_wal(base: &Path) -> Result<()> {
    for idx in extra_segment_indices(base)? {
        let p = segment_path(base, idx);
        std::fs::remove_file(&p).map_err(|e| PersistError::io(&p, e))?;
    }
    match std::fs::remove_file(base) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(PersistError::io(base, e)),
    }
}

/// The contiguous run of segment indices on disk, ascending. Empty when
/// no log exists. A gap in the run is corruption (a deleted middle
/// segment would silently drop acknowledged ops).
fn discover_segments(base: &Path) -> Result<Vec<u64>> {
    let mut idxs = extra_segment_indices(base)?;
    if base.exists() {
        idxs.push(0);
    }
    idxs.sort_unstable();
    if let (Some(&first), Some(&last)) = (idxs.first(), idxs.last()) {
        if last - first + 1 != idxs.len() as u64 {
            return Err(PersistError::WalCorrupt {
                offset: 0,
                detail: format!(
                    "log segments {first}..={last} are not contiguous ({} present)",
                    idxs.len()
                ),
            });
        }
    }
    Ok(idxs)
}

/// Per-segment replay accounting the writer needs for whole-segment
/// truncation.
#[derive(Debug, Clone, Copy)]
struct SegState {
    idx: u64,
    /// Op records (marks excluded).
    ops: u64,
    /// Valid bytes (marks included).
    bytes: u64,
}

/// Replays every segment of the log rooted at `base`, in order, returning
/// the aggregate plus per-segment accounting.
fn replay_segments(base: &Path) -> Result<(WalReplay, Vec<SegState>)> {
    let idxs = discover_segments(base)?;
    let mut replay = WalReplay::empty();
    let mut segs = Vec::with_capacity(idxs.len());
    let last = idxs.last().copied();
    for idx in idxs {
        let path = segment_path(base, idx);
        let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
        let seg = decode_wal(&bytes)?;
        if seg.torn_tail && Some(idx) != last {
            return Err(PersistError::WalCorrupt {
                offset: seg.valid_bytes,
                detail: format!("torn tail in non-final log segment {idx}"),
            });
        }
        segs.push(SegState {
            idx,
            ops: seg.ops.len() as u64,
            bytes: seg.valid_bytes,
        });
        replay.valid_bytes += seg.valid_bytes;
        replay.torn_tail = seg.torn_tail;
        replay.model_epoch = replay.model_epoch.max(seg.model_epoch);
        replay.ops.extend(seg.ops);
        replay.attrs.extend(seg.attrs);
    }
    Ok((replay, segs))
}

/// Replays the log rooted at `path` (all segments). A missing log is an
/// empty log (fresh ingest), a torn tail in the final segment stops replay
/// cleanly, anything else is a typed error.
pub fn replay_wal(path: impl AsRef<Path>) -> Result<WalReplay> {
    replay_segments(path.as_ref()).map(|(r, _)| r)
}

/// Append handle over a segmented log. Every [`append`](WalWriter::append)
/// writes one framed record to the newest segment and syncs file data
/// before returning, so an acknowledged op is on stable storage.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    base: PathBuf,
    segment_limit: u64,
    /// The model-epoch mark stamped at the head of every new segment (0 =
    /// no mark, the legacy format).
    mark_epoch: u64,
    segs: Vec<SegState>,
    total_bytes: u64,
}

impl WalWriter {
    /// Opens the log rooted at `path` for appending with the default
    /// segment limit, replaying what is already there. A torn tail in the
    /// final segment is truncated away (it carries no acknowledged op) so
    /// the next append starts at a clean frame boundary.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalReplay)> {
        Self::open_with_limit(path, DEFAULT_WAL_SEGMENT_BYTES)
    }

    /// [`open`](Self::open) with an explicit segment byte limit (the seam
    /// the rotation tests use; every caller outside them rotates at
    /// [`DEFAULT_WAL_SEGMENT_BYTES`]).
    pub(crate) fn open_with_limit(
        path: impl AsRef<Path>,
        segment_limit: u64,
    ) -> Result<(Self, WalReplay)> {
        let base = path.as_ref().to_path_buf();
        let (replay, mut segs) = replay_segments(&base)?;
        if segs.is_empty() {
            segs.push(SegState {
                idx: 0,
                ops: 0,
                bytes: 0,
            });
        }
        let active = *segs.last().expect("at least one segment");
        let active_path = segment_path(&base, active.idx);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&active_path)
            .map_err(|e| PersistError::io(&active_path, e))?;
        if replay.torn_tail {
            file.set_len(active.bytes)
                .map_err(|e| PersistError::io(&active_path, e))?;
            file.sync_data()
                .map_err(|e| PersistError::io(&active_path, e))?;
        }
        let total_bytes = segs.iter().map(|s| s.bytes).sum();
        Ok((
            Self {
                file,
                base,
                segment_limit: segment_limit.max(1),
                mark_epoch: replay.model_epoch,
                segs,
                total_bytes,
            },
            replay,
        ))
    }

    /// Atomically replaces the log with exactly `ops` (the unfolded tail
    /// after a merge or re-fit) and their optional per-op attribute
    /// payloads (`attrs` is empty or parallel to `ops`): temp file, fsync,
    /// rename onto the base segment, then stale higher segments are
    /// unlinked newest-first (so a crash mid-cleanup leaves a contiguous
    /// run whose extra records are exact duplicates of the tail — replay
    /// is idempotent over them). The log is stamped with the model epoch
    /// of the snapshot it pairs with: a non-zero epoch writes one mark
    /// record at the head, epoch 0 none (the pre-mark format). The
    /// returned writer appends after the rewritten records and rotates at
    /// `segment_limit`.
    pub fn rewrite_records(
        path: impl AsRef<Path>,
        ops: &[IngestOp],
        attrs: &[Option<Vec<u8>>],
        model_epoch: u64,
        segment_limit: u64,
    ) -> Result<Self> {
        debug_assert!(attrs.is_empty() || attrs.len() == ops.len());
        let base = path.as_ref().to_path_buf();
        let mut image = Vec::new();
        if model_epoch > 0 {
            image.extend_from_slice(&frame(&encode_model_epoch(model_epoch)));
        }
        for (i, op) in ops.iter().enumerate() {
            let a = attrs.get(i).and_then(|a| a.as_deref());
            image.extend_from_slice(&frame(&encode_record(op, a)));
        }
        let mut tmp = base.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_data()?;
            Ok(())
        };
        if let Err(e) = write() {
            let _ = std::fs::remove_file(&tmp);
            return Err(PersistError::io(&tmp, e));
        }
        if let Err(e) = std::fs::rename(&tmp, &base) {
            let _ = std::fs::remove_file(&tmp);
            return Err(PersistError::io(&base, e));
        }
        // Unlink superseded higher segments newest-first: an interrupted
        // cleanup leaves `<base>..<k>` contiguous, and every op left in
        // them is either folded (replay skips it) or a byte-identical
        // duplicate of a tail record (replay is last-write-wins per id).
        let mut stale = extra_segment_indices(&base)?;
        stale.sort_unstable();
        for idx in stale.into_iter().rev() {
            let p = segment_path(&base, idx);
            std::fs::remove_file(&p).map_err(|e| PersistError::io(&p, e))?;
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&base)
            .map_err(|e| PersistError::io(&base, e))?;
        Ok(Self {
            file,
            base,
            segment_limit: segment_limit.max(1),
            mark_epoch: model_epoch,
            segs: vec![SegState {
                idx: 0,
                ops: ops.len() as u64,
                bytes: image.len() as u64,
            }],
            total_bytes: image.len() as u64,
        })
    }

    fn write_frame(&mut self, payload: &[u8], is_op: bool) -> Result<()> {
        let record = frame(payload);
        self.file
            .write_all(&record)
            .map_err(|e| PersistError::io(&self.base, e))?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(&self.base, e))?;
        let seg = self.segs.last_mut().expect("at least one segment");
        seg.bytes += record.len() as u64;
        if is_op {
            seg.ops += 1;
        }
        self.total_bytes += record.len() as u64;
        Ok(())
    }

    /// Starts a fresh segment and stamps it with the current model-epoch
    /// mark, so whole-segment truncation can never drop the mark.
    fn rotate(&mut self) -> Result<()> {
        let idx = self.segs.last().expect("at least one segment").idx + 1;
        let path = segment_path(&self.base, idx);
        let file = File::create(&path).map_err(|e| PersistError::io(&path, e))?;
        self.file = file;
        self.segs.push(SegState {
            idx,
            ops: 0,
            bytes: 0,
        });
        if self.mark_epoch > 0 {
            self.write_frame(&encode_model_epoch(self.mark_epoch), false)?;
        }
        Ok(())
    }

    /// Appends one op and syncs it to stable storage.
    pub fn append(&mut self, op: &IngestOp) -> Result<()> {
        self.append_record(op, None)
    }

    /// [`append`](Self::append) carrying an opaque attribute payload
    /// (tag 4) when `attrs` is `Some`.
    pub fn append_record(&mut self, op: &IngestOp, attrs: Option<&[u8]>) -> Result<()> {
        if self.segs.last().expect("at least one segment").bytes >= self.segment_limit {
            self.rotate()?;
        }
        self.write_frame(&encode_record(op, attrs), true)
    }

    /// After a merge folded the first `folded_ops` op records of this log
    /// into the snapshot: unlinks the leading segments that hold only
    /// folded records, oldest-first (an interrupted unlink run leaves a
    /// contiguous higher run). The boundary segment — first to hold an
    /// unfolded op — is kept whole; replay skips its folded inserts by id
    /// and its folded deletes are idempotent. When every op is folded the
    /// whole log collapses to one fresh base segment (carrying only the
    /// model-epoch mark, or empty at epoch 0).
    ///
    /// `folded_ops` may undercount the folded prefix (e.g. it excludes
    /// records a reopen already skipped); truncation is then merely
    /// conservative — it never removes an unfolded op.
    pub fn truncate_folded(&mut self, folded_ops: u64) -> Result<()> {
        let total_ops: u64 = self.segs.iter().map(|s| s.ops).sum();
        if folded_ops >= total_ops {
            let base = self.base.clone();
            *self = Self::rewrite_records(base, &[], &[], self.mark_epoch, self.segment_limit)?;
            return Ok(());
        }
        let mut remaining = folded_ops;
        while self.segs.len() > 1 && self.segs[0].ops <= remaining {
            let seg = self.segs.remove(0);
            remaining -= seg.ops;
            self.total_bytes -= seg.bytes;
            let p = segment_path(&self.base, seg.idx);
            std::fs::remove_file(&p).map_err(|e| PersistError::io(&p, e))?;
        }
        Ok(())
    }

    /// Bytes of valid records across every live segment.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of live segment files.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// The log's base path (segment 0; higher segments append `.k`).
    pub fn path(&self) -> &Path {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(replay.ops.is_empty());
        for op in ops() {
            w.append(&op).unwrap();
        }
        let bytes = w.bytes();
        drop(w);
        let (w2, replay) = WalWriter::open(&path).unwrap();
        assert_eq!(replay.ops, ops());
        assert_eq!(replay.attrs, vec![None, None, None]);
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
        let insert = IngestOp::Insert {
            id: 7,
            vector: vec![0.5, 0.25],
        };
        w.append_record(&insert, Some(b"payload")).unwrap();
        w.append(&IngestOp::Delete { id: 7 }).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.ops, vec![insert, IngestOp::Delete { id: 7 }]);
        assert_eq!(replay.attrs, vec![Some(b"payload".to_vec()), None]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attr_record_corruption_is_typed() {
        let insert = IngestOp::Insert {
            id: 7,
            vector: vec![0.5],
        };
        let payload = encode_record(&insert, Some(b"abc"));
        // Truncating the attr bytes (reframed, so the CRC is recomputed)
        // must be a decode error, not a silent short read.
        let short = &payload[..payload.len() - 1];
        assert!(matches!(
            decode_wal(&frame(short)),
            Err(PersistError::WalCorrupt { .. })
        ));
        // An unframed tag-4 record without attrs is also corrupt.
        let plain = encode_record(&insert, None);
        let mut retagged = plain.clone();
        retagged[0] = 4;
        assert!(decode_op(&retagged, 0).is_err());
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let mut image = Vec::new();
        for op in ops() {
            image.extend_from_slice(&frame(&encode_op(&op)));
        }
        let full = image.len();
        // Any strict prefix that cuts into the final record replays the
        // first two ops and flags the tail.
        let last_start = full - frame(&encode_op(&ops()[2])).len();
        for cut in [last_start + 1, last_start + 7, full - 1] {
            let replay = decode_wal(&image[..cut]).unwrap();
            assert_eq!(replay.ops, ops()[..2].to_vec(), "cut {cut}");
            assert_eq!(replay.valid_bytes, last_start as u64);
            assert!(replay.torn_tail);
        }
    }

    #[test]
    fn mid_log_corruption_is_typed() {
        let mut image = Vec::new();
        for op in ops() {
            image.extend_from_slice(&frame(&encode_op(&op)));
        }
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
        let tail = vec![IngestOp::Delete { id: 7 }];
        let mut w =
            WalWriter::rewrite_records(&path, &tail, &[], 5, DEFAULT_WAL_SEGMENT_BYTES).unwrap();
        w.append(&IngestOp::Delete { id: 8 }).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.model_epoch, 5);
        // The mark is metadata: ops come back without it.
        assert_eq!(
            replay.ops,
            vec![IngestOp::Delete { id: 7 }, IngestOp::Delete { id: 8 }]
        );
        // Reopening through the writer path sees the same mark.
        let (_, replay) = WalWriter::open(&path).unwrap();
        assert_eq!(replay.model_epoch, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_zero_rewrite_is_byte_identical_to_legacy() {
        let dir = tmp_dir("me0");
        let a = dir.join("legacy.wal");
        drop(WalWriter::rewrite_records(&a, &ops(), &[], 0, DEFAULT_WAL_SEGMENT_BYTES).unwrap());
        // The legacy log: one frame per op and nothing else.
        let mut legacy = Vec::new();
        for op in ops() {
            legacy.extend_from_slice(&frame(&encode_op(&op)));
        }
        assert_eq!(std::fs::read(&a).unwrap(), legacy);
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
        drop(w);
        let tail = vec![IngestOp::Delete { id: 9 }];
        let mut w =
            WalWriter::rewrite_records(&path, &tail, &[], 0, DEFAULT_WAL_SEGMENT_BYTES).unwrap();
        w.append(&IngestOp::Delete { id: 10 }).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(
            replay.ops,
            vec![IngestOp::Delete { id: 9 }, IngestOp::Delete { id: 10 }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_rotate_segments_at_the_limit() {
        let dir = tmp_dir("rot");
        let path = dir.join("s.wal");
        let (mut w, _) = WalWriter::open_with_limit(&path, 64).unwrap();
        let mut expect = Vec::new();
        for id in 0..20u64 {
            let op = IngestOp::Insert {
                id,
                vector: vec![id as f64; 4],
            };
            w.append(&op).unwrap();
            expect.push(op);
        }
        assert!(w.num_segments() > 1, "tiny limit must force rotation");
        let n_segs = w.num_segments();
        let bytes = w.bytes();
        drop(w);
        assert!(segment_path(&path, 1).exists());
        // Replay spans every segment in order, and reopening resumes in
        // the newest one.
        let (w2, replay) = WalWriter::open_with_limit(&path, 64).unwrap();
        assert_eq!(replay.ops, expect);
        assert_eq!(replay.valid_bytes, bytes);
        assert_eq!(w2.num_segments(), n_segs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_middle_segment_is_corruption() {
        let dir = tmp_dir("gap");
        let path = dir.join("g.wal");
        let (mut w, _) = WalWriter::open_with_limit(&path, 64).unwrap();
        for id in 0..20u64 {
            w.append(&IngestOp::Insert {
                id,
                vector: vec![1.0; 4],
            })
            .unwrap();
        }
        assert!(w.num_segments() >= 3);
        drop(w);
        std::fs::remove_file(segment_path(&path, 1)).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::WalCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_only_allowed_in_last_segment() {
        let dir = tmp_dir("torn-seg");
        let path = dir.join("t.wal");
        let (mut w, _) = WalWriter::open_with_limit(&path, 64).unwrap();
        for id in 0..20u64 {
            w.append(&IngestOp::Insert {
                id,
                vector: vec![1.0; 4],
            })
            .unwrap();
        }
        assert!(w.num_segments() >= 2);
        let last = w.num_segments() as u64 - 1;
        drop(w);
        // Tearing the final segment replays cleanly minus the tail...
        let last_path = segment_path(&path, last);
        let full = std::fs::read(&last_path).unwrap();
        std::fs::write(&last_path, &full[..full.len() - 3]).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert!(replay.torn_tail);
        // ...but the same tear in an earlier segment is corruption.
        std::fs::write(&last_path, &full).unwrap();
        let first = std::fs::read(&path).unwrap();
        std::fs::write(&path, &first[..first.len() - 3]).unwrap();
        assert!(matches!(
            replay_wal(&path),
            Err(PersistError::WalCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_folded_unlinks_whole_segments() {
        let dir = tmp_dir("fold");
        let path = dir.join("f.wal");
        let (mut w, _) = WalWriter::open_with_limit(&path, 64).unwrap();
        let mut all = Vec::new();
        for id in 0..20u64 {
            let op = IngestOp::Insert {
                id,
                vector: vec![id as f64; 4],
            };
            w.append(&op).unwrap();
            all.push(op);
        }
        let before = w.num_segments();
        assert!(before >= 3);
        let first_seg_ops = w.segs[0].ops;
        // Folding exactly the first segment's ops unlinks it and nothing
        // else; the survivors replay intact.
        w.truncate_folded(first_seg_ops).unwrap();
        assert_eq!(w.num_segments(), before - 1);
        assert!(!path.exists(), "base segment was fully folded");
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.ops, all[first_seg_ops as usize..].to_vec());
        // A partially-folded boundary segment is kept whole.
        let kept = w.num_segments();
        w.truncate_folded(1).unwrap();
        assert_eq!(w.num_segments(), kept);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_folded_of_everything_collapses_to_marked_base() {
        // Epoch 0 is the engine's flush over a multi-segment log before
        // any re-fit: no mark, so the collapsed log is empty.
        for epoch in [0u64, 3] {
            let dir = tmp_dir("fold-all");
            let path = dir.join("f.wal");
            let mut w = WalWriter::rewrite_records(&path, &[], &[], epoch, 64).unwrap();
            for id in 0..20u64 {
                w.append(&IngestOp::Insert {
                    id,
                    vector: vec![1.0; 4],
                })
                .unwrap();
            }
            assert!(w.num_segments() >= 2);
            w.truncate_folded(20).unwrap();
            assert_eq!(w.num_segments(), 1);
            assert!(!segment_path(&path, 1).exists());
            assert_eq!(w.bytes() == 0, epoch == 0);
            let replay = replay_wal(&path).unwrap();
            assert!(replay.ops.is_empty());
            // The epoch mark survives the collapse — and seeds every
            // segment a later rotation creates.
            assert_eq!(replay.model_epoch, epoch);
            // The collapsed writer keeps appending: a reopen replays
            // exactly what arrived after the fold.
            w.append(&IngestOp::Delete { id: 5 }).unwrap();
            drop(w);
            let (_, replay) = WalWriter::open(&path).unwrap();
            assert_eq!(replay.ops, vec![IngestOp::Delete { id: 5 }]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rotated_segments_carry_the_epoch_mark() {
        let dir = tmp_dir("mark-seg");
        let path = dir.join("m.wal");
        let mut w = WalWriter::rewrite_records(&path, &[], &[], 7, 64).unwrap();
        for id in 0..20u64 {
            w.append(&IngestOp::Insert {
                id,
                vector: vec![1.0; 4],
            })
            .unwrap();
        }
        assert!(w.num_segments() >= 3);
        // Fold everything but the newest segment away: the mark must
        // still be recoverable from what survives.
        let folded: u64 = w.segs[..w.segs.len() - 1].iter().map(|s| s.ops).sum();
        w.truncate_folded(folded).unwrap();
        drop(w);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.model_epoch, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
