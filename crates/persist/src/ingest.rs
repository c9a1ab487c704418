//! The online-ingest engine: WAL → delta → background merge → atomic
//! epoch swap.
//!
//! Writes flow through one funnel. An accepted operation is (1) framed and
//! fsync'd into the write-ahead log, (2) applied to the serving epoch's
//! in-memory delta (insert) or tombstone set (delete), and (3) queued for
//! the next merge. A query never blocks on any of this: readers pin the
//! serving epoch as one `Arc` clone and run entirely against that pin.
//!
//! The background merge folds the queued operations into fresh base
//! structures — the same layouts a from-scratch build produces — saves
//! them through the ordinary snapshot path, and swaps the serving epoch
//! atomically. Operations that arrived *during* the fold are replayed into
//! the new epoch's delta before the swap, so nothing is lost and nothing
//! is visible twice. The retired epoch is sealed; queries still pinned to
//! it finish unaffected and drop their pin when done.
//!
//! ## Exactness
//!
//! A merged index answers bit-identically to a from-scratch build over
//! the union of surviving rows:
//!
//! - An inserted row is routed by the model and converted (projected /
//!   restored) with exactly the build path's arithmetic, once, by
//!   [`BuiltIndex::insert`] in the delta, and again by the loader in the
//!   fold.
//! - Between re-fits the model only ever grows: [`extend_model`] appends
//!   inserted ids to the cluster the fitted model assigns them to;
//!   deletes never touch the model, so cluster order, subspaces and
//!   partition numbering are stable across merges.
//! - Every backend's search gives a delta row the distance a folded row
//!   gets (iDistance queues and refines it as a leaf entry; SeqScan and
//!   gLDR score it exactly), filters tombstones at push time, and the shared
//!   [`mmdr_index::KnnHeap`]'s final top-k is independent of push order.
//!
//! ## Re-fit on request
//!
//! Merges keep the model's subspaces frozen, so a *drifted* insert stream
//! — rows the fitted clusters describe poorly — degrades page locality
//! even though answers stay exact. [`IngestEngine::refit`] is the cure,
//! run when the caller asks for it: it reads every surviving row back in
//! its restored representation, re-runs the MMDR fit over them in memory
//! off-lock ([`refit_model`]), loads fresh base structures under
//! the new model through the build's own loader, saves a snapshot stamped
//! with a bumped *model epoch*, and swaps it in through the same epoch
//! machinery a merge uses. Readers never block; answers after a re-fit
//! are exact by construction over the same survivors.
//!
//! ## Crash recovery
//!
//! Every publish — merge or re-fit — rewrites the WAL to exactly the
//! unfolded tail (not truncated in place) *after* the folded snapshot is
//! durably renamed into place. A crash between the two leaves the old WAL
//! alongside the new snapshot; replay-on-open skips `Insert` records whose
//! id the snapshot's model already covers and re-applies `Delete` records,
//! which are idempotent. A crash before the save leaves the old snapshot
//! and the full WAL — replay reconstructs the delta exactly. Either way an
//! acknowledged operation is never lost.
//!
//! A re-fit's snapshot carries the bumped model epoch and covers every
//! operation up to the captured prefix (`num_points` = the id allocator at
//! capture), so the replay-skip rule handles a crash in that window
//! exactly as it does for a merge; the rewritten WAL leads with a
//! model-epoch mark so an old snapshot restored next to a newer log is
//! refused at open instead of replaying against the wrong model.

use crate::error::{PersistError, Result};
use crate::refit::refit_model;
use crate::snapshot::{build_index, open_with, save_with_attrs, OpenOptions};
use crate::wal::{remove_wal, WalRecord, WalWriter};
use mmdr_core::{MmdrParams, PointAssignment, ReductionResult};
use mmdr_idistance::{
    load, load_exact, restored_rows, stored_rows, Backend, BuiltIndex, KeySpace, Row, INSERT_BETA,
};
use mmdr_index::{
    validate_vector, IngestOp, IngestStats, LiveIndex, PinnedEpoch, Query, QueryStats, Scratch,
    Target, VectorIndex,
};
use mmdr_linalg::Matrix;
use mmdr_query::{decode_row, encode_row, AttrSketches, AttrStore, AttrValue, Planner};
use mmdr_storage::PoolStats;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// The write-ahead log that pairs with a snapshot at `path`:
/// `<snapshot>.wal` in the same directory, so the two travel together.
pub fn wal_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_owned();
    name.push(".wal");
    PathBuf::from(name)
}

// ---- model extension ------------------------------------------------------

/// Extends a reduction model with the inserts in `ops`: each inserted id
/// joins the cluster the fitted model assigns its vector to (nearest
/// subspace within [`INSERT_BETA`], else the outlier set), exactly the
/// routing [`BuiltIndex::insert`] applied when the row entered the delta.
///
/// Deletes never modify the model. The member lists only ever grow, which
/// keeps cluster order, subspaces and partition numbering stable across
/// merges; the fold simply omits dead ids.
pub fn extend_model(model: &mut ReductionResult, ops: &[IngestOp]) -> Result<()> {
    for op in ops {
        let IngestOp::Insert { id, vector } = op else {
            continue;
        };
        match model.assign_point(vector, INSERT_BETA)? {
            PointAssignment::Cluster(ci) => model.clusters[ci].members.push(*id as usize),
            PointAssignment::Outlier => model.outliers.push(*id as usize),
        }
        model.num_points = model.num_points.max(*id as usize + 1);
    }
    Ok(())
}

/// Replays `ops` in order into the net effect a fold consumes: the rows
/// that must be added (last write wins) and the ids that must disappear.
fn split_ops(ops: &[IngestOp]) -> (BTreeMap<u64, Vec<f64>>, HashSet<u64>) {
    let mut inserted: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut dead: HashSet<u64> = HashSet::new();
    for op in ops {
        match op {
            IngestOp::Insert { id, vector } => {
                inserted.insert(*id, vector.clone());
                dead.remove(id);
            }
            IngestOp::Delete { id } => {
                inserted.remove(id);
                dead.insert(*id);
            }
        }
    }
    (inserted, dead)
}

// ---- the fold door --------------------------------------------------------

/// Folds queued operations into fresh base structures for `base`'s
/// backend, under the already-[extended](extend_model) `model` — the merge
/// door of [`mmdr_idistance::load`]. An id resolves to nothing when it is
/// dead, to the exact inserted vector when `ops` inserted it, and
/// otherwise to the row the base stores for it (absent if an earlier merge
/// already folded it out). The result has an empty delta and answers
/// bit-identically to a from-scratch build over the union of surviving
/// rows; folding no operations reproduces the base's snapshot byte for
/// byte.
pub fn fold(
    base: &BuiltIndex,
    model: &ReductionResult,
    ops: &[IngestOp],
    buffer_pages: usize,
) -> Result<BuiltIndex> {
    let (inserted, dead) = split_ops(ops);
    let mut stored = stored_rows(base)?;
    // iDistance keeps the base's key space: the outlier reference is
    // inherited, `c` widens if a new row stretched a radius past the old
    // margin, never shrinks, and a partition cut into the base's cells
    // keeps the base's codes.
    let keys = match base {
        BuiltIndex::IDistance(idx) => Some(KeySpace::folded(idx)?),
        _ => None,
    };
    Ok(load(base.backend(), model, buffer_pages, keys, |id| {
        if dead.contains(&id) {
            None
        } else if let Some(vector) = inserted.get(&id) {
            Some(Row::Exact(vector))
        } else {
            stored.remove(&id).map(Row::Stored)
        }
    })?)
}

// ---- epochs ---------------------------------------------------------------

/// One immutable-base generation of the index: the folded structures plus
/// their live delta. Readers pin an `Arc<Epoch>` per query; a merge swap
/// replaces the serving `Arc` without touching existing pins.
#[derive(Debug)]
pub struct Epoch {
    number: u64,
    built: BuiltIndex,
}

impl Epoch {
    /// The epoch's sequence number (0 = as opened).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The epoch's index.
    pub fn built(&self) -> &BuiltIndex {
        &self.built
    }
}

impl VectorIndex for Epoch {
    fn name(&self) -> &'static str {
        self.built.as_dyn().name()
    }
    fn len(&self) -> usize {
        self.built.as_dyn().len()
    }
    fn dim(&self) -> usize {
        self.built.as_dyn().dim()
    }
    fn answer(&self, q: &Query<'_>, scratch: &mut Scratch) -> mmdr_index::Result<Vec<(f64, u64)>> {
        self.built.as_dyn().answer(q, scratch)
    }
    fn pool_stats(&self) -> Vec<PoolStats> {
        self.built.as_dyn().pool_stats()
    }
    fn query_stats(&self) -> QueryStats {
        self.built.as_dyn().query_stats()
    }
}

// ---- engine ---------------------------------------------------------------

/// Delta pressure (rows + tombstones) at which an insert or delete kicks
/// off a background merge.
pub const DEFAULT_MERGE_THRESHOLD: usize = 1024;

/// Fraction of live rows the tombstone count must reach before a
/// delete-heavy stream triggers a background merge on its own (see
/// [`IngestOptions::merge_threshold`]).
pub const TOMBSTONE_MERGE_RATIO: f64 = 0.25;

/// Minimum tombstone count before the ratio trigger is consulted at all —
/// tiny indexes should not compact on every other delete.
pub const TOMBSTONE_MERGE_FLOOR: u64 = 8;

/// Knobs for opening an [`IngestEngine`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Buffer-pool frames per restored pool (see
    /// [`OpenOptions::pool_pages`]); also the page budget folds build
    /// with. `None` keeps the capacities recorded at save time and folds
    /// with [`DEFAULT_FOLD_PAGES`].
    pub pool_pages: Option<usize>,
    /// Delta pressure (rows + tombstones) that triggers a background
    /// merge. `0` disables background merges — only explicit
    /// [`LiveIndex::flush`] calls fold. When non-zero, a delete-heavy
    /// stream also triggers a merge once tombstones reach
    /// [`TOMBSTONE_MERGE_RATIO`] of the live rows (at least
    /// [`TOMBSTONE_MERGE_FLOOR`] of them), so compaction does not wait for
    /// an insert-pressure threshold deletes never contribute rows toward.
    pub merge_threshold: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            pool_pages: None,
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
        }
    }
}

/// Page budget folds build with when [`IngestOptions::pool_pages`] is
/// unset.
pub const DEFAULT_FOLD_PAGES: usize = 256;

/// Writer-side state, serialized under one mutex: the WAL, the operations
/// queued for the next fold, the (extended) model and the id allocator.
#[derive(Debug)]
struct WriterState {
    wal: WalWriter,
    /// Records applied to the serving delta but not yet folded, in
    /// arrival order, as they were logged (an insert's encoded attribute
    /// row rides with it). Append-only between publishes; a publish folds
    /// a prefix and rewrites the WAL from the tail.
    pending: Vec<WalRecord>,
    model: ReductionResult,
    next_id: u64,
    epoch_no: u64,
    merges: u64,
    /// How many re-fits produced the current model; stamped into every
    /// saved snapshot and rewritten WAL.
    model_epoch: u64,
    refits: u64,
}

impl WriterState {
    /// The pending operations, without their attribute rows — what a fold
    /// or a re-fit consumes.
    fn pending_ops(&self) -> Vec<IngestOp> {
        self.pending.iter().map(|r| r.op.clone()).collect()
    }
}

#[derive(Debug)]
struct EngineCore {
    path: PathBuf,
    fold_pages: usize,
    merge_threshold: usize,
    serving: RwLock<Arc<Epoch>>,
    /// The attribute payload store. Lock order: `writer` first when both
    /// are held (writes mutate under the writer lock); queries take only
    /// this lock, so they never contend with the WAL fsync.
    attrs: RwLock<AttrStore>,
    /// Per-partition attribute sketches over the *base* rows of the
    /// serving model; rebuilt after every merge and re-fit. `None` when
    /// the store has no columns. Delta rows are not sketched — the filter
    /// contract already exempts them from cluster skipping.
    sketches: RwLock<Option<Arc<AttrSketches>>>,
    /// The filtered-query planner: strategy choice, decision counters,
    /// pages/query cost feedback. Lives for the engine's whole life so the
    /// adaptive threshold learns across epochs.
    planner: Planner,
    writer: Mutex<WriterState>,
    /// Serializes merges (background and explicit flush) and re-fits: a
    /// re-fit holds it for its whole duration, so no merge can fold the
    /// pending prefix out from under it. Never acquired while holding
    /// `writer`.
    merge: Mutex<()>,
    /// The background merge thread last started, until it is reaped.
    merging: Mutex<Option<JoinHandle<()>>>,
}

/// The WAL-backed, epoch-versioned serving handle over a snapshot — the
/// persistence crate's [`LiveIndex`] implementation.
///
/// Cloning is cheap (one `Arc`); all clones share the same engine.
#[derive(Debug, Clone)]
pub struct IngestEngine {
    core: Arc<EngineCore>,
}

fn to_query_err(e: PersistError) -> mmdr_index::Error {
    match e {
        PersistError::Query(q) => q,
        other => mmdr_index::Error::backend(other),
    }
}

pub(crate) fn attr_err(e: mmdr_query::Error) -> PersistError {
    PersistError::from(mmdr_index::Error::from(e))
}

/// Sketches the store over the model's base-row partitions; `None` when
/// the dataset carries no attributes. Membership lists cover base rows
/// only — delta rows are exempt from sketch-driven cluster skipping by the
/// [`mmdr_index::SearchFilter`] contract, so sketches stay sound between
/// merges without per-insert maintenance.
pub(crate) fn build_sketches(
    store: &AttrStore,
    model: &ReductionResult,
) -> Result<Option<Arc<AttrSketches>>> {
    if store.is_empty() {
        return Ok(None);
    }
    let members: Vec<Vec<u64>> = model
        .clusters
        .iter()
        .map(|c| c.members.iter().map(|&m| m as u64).collect())
        .collect();
    let outliers: Vec<u64> = model.outliers.iter().map(|&m| m as u64).collect();
    let sketches = AttrSketches::build(store, &members, &outliers).map_err(attr_err)?;
    Ok(Some(Arc::new(sketches)))
}

/// Applies one logged operation to `index`'s delta — what WAL replay and a
/// publish's tail both do. `model` is the one `index` was loaded under; an
/// insert is placed, and its vector checked, by [`BuiltIndex::insert`].
/// Deleting an id that is already gone is harmless.
fn apply_op(index: &BuiltIndex, model: &ReductionResult, op: &IngestOp) -> Result<()> {
    match op {
        IngestOp::Insert { id, vector } => drop(index.insert(model, *id, vector)?),
        IngestOp::Delete { id } => drop(index.delete(*id)?),
    }
    Ok(())
}

impl IngestEngine {
    /// Builds `backend` over `(data, model)`, saves the snapshot to
    /// `path`, and opens an engine over it with an empty WAL.
    pub fn create(
        path: impl AsRef<Path>,
        backend: Backend,
        data: &Matrix,
        model: &ReductionResult,
        buffer_pages: usize,
        opts: IngestOptions,
    ) -> Result<Self> {
        Self::create_with_attrs(path, backend, data, model, buffer_pages, opts, None)
    }

    /// [`create`](Self::create), with per-row attribute payloads: `attrs`
    /// is persisted into the snapshot's `ATTRS` section and served for
    /// filtered queries. `None` (or an empty store) keeps the snapshot
    /// byte-identical to an attribute-less save.
    pub fn create_with_attrs(
        path: impl AsRef<Path>,
        backend: Backend,
        data: &Matrix,
        model: &ReductionResult,
        buffer_pages: usize,
        opts: IngestOptions,
        attrs: Option<&AttrStore>,
    ) -> Result<Self> {
        let path = path.as_ref();
        let built = build_index(backend, data, model, buffer_pages)?;
        save_with_attrs(path, &built, model, 0, attrs)?;
        // A stale WAL next to a brand-new snapshot would replay foreign
        // operations into it.
        remove_wal(&wal_path(path))?;
        Self::open(path, opts)
    }

    /// Opens the snapshot at `path` and replays its WAL into the serving
    /// delta. `Insert` records the snapshot's model already covers are
    /// skipped (a previous merge folded them before the crash); `Delete`
    /// records are always re-applied — tombstoning an id that is already
    /// gone is harmless.
    pub fn open(path: impl AsRef<Path>, opts: IngestOptions) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let opened = open_with(
            &path,
            &OpenOptions {
                pool_pages: opts.pool_pages,
                ..OpenOptions::default()
            },
        )?;
        let (wal, replay) = WalWriter::open(wal_path(&path))?;
        if replay.model_epoch > opened.model_epoch {
            // Someone restored an old snapshot next to a newer log: the
            // log's operations were acknowledged against a model this
            // snapshot does not carry. Replaying would route them wrong.
            return Err(PersistError::malformed(format!(
                "WAL carries model epoch {} but the snapshot is at epoch {} — stale snapshot",
                replay.model_epoch, opened.model_epoch
            )));
        }
        let folded_below = opened.model.num_points as u64;
        let mut pending: Vec<WalRecord> = Vec::new();
        let mut store = opened.attrs.unwrap_or_default();
        let mut next_id = folded_below;
        for record in replay.records {
            match &record.op {
                // Already folded into the snapshot — its attribute row (if
                // any) is in the ATTRS section too.
                IngestOp::Insert { id, .. } if *id < folded_below => continue,
                IngestOp::Insert { id, .. } => {
                    if let Some(bytes) = &record.attrs {
                        let row = decode_row(bytes).map_err(attr_err)?;
                        store.set_row(*id, &row).map_err(attr_err)?;
                    }
                    next_id = next_id.max(*id + 1);
                }
                IngestOp::Delete { id } => store.clear_row(*id),
            }
            apply_op(&opened.index, &opened.model, &record.op)?;
            pending.push(record);
        }
        let sketches = build_sketches(&store, &opened.model)?;
        let core = EngineCore {
            path,
            fold_pages: opts.pool_pages.unwrap_or(DEFAULT_FOLD_PAGES),
            merge_threshold: opts.merge_threshold,
            serving: RwLock::new(Arc::new(Epoch {
                number: 0,
                built: opened.index,
            })),
            attrs: RwLock::new(store),
            sketches: RwLock::new(sketches),
            planner: Planner::new(),
            writer: Mutex::new(WriterState {
                wal,
                pending,
                model: opened.model,
                next_id,
                epoch_no: 0,
                merges: 0,
                model_epoch: opened.model_epoch,
                refits: 0,
            }),
            merge: Mutex::new(()),
            merging: Mutex::new(None),
        };
        Ok(Self {
            core: Arc::new(core),
        })
    }

    /// The snapshot path this engine folds into.
    pub fn path(&self) -> &Path {
        &self.core.path
    }

    /// Blocks until no background merge is in flight (the next pressure
    /// trigger may start a new one): joins the merge thread already
    /// started — one that has not yet taken its lock included — then
    /// waits out an explicit flush or re-fit. Test and shutdown aid.
    pub fn quiesce(&self) {
        let started = self
            .core
            .merging
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(thread) = started {
            let _ = thread.join();
        }
        let _merge = self.core.merge.lock().unwrap_or_else(|p| p.into_inner());
    }

    /// Re-fits the model over the surviving rows now, with the in-memory
    /// MMDR fit at [`MmdrParams::default`], and swaps the result in.
    /// Returns the new model epoch number (unchanged if there was nothing
    /// to fit over).
    pub fn refit(&self) -> mmdr_index::Result<u64> {
        self.core.refit_now().map_err(to_query_err)
    }

    /// Runs `f` against the attribute store under its read lock — the way
    /// a query compiles a [`mmdr_query::Predicate`] into a row bitmap.
    /// Keep `f` short; inserts carrying attributes block on this lock.
    pub fn with_attrs<R>(&self, f: impl FnOnce(&AttrStore) -> R) -> R {
        f(&self.core.attrs.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// The current per-partition attribute sketches, or `None` when the
    /// dataset carries no attributes. Rebuilt after every merge and
    /// re-fit; sound between them (deletes only shrink partitions, and
    /// un-merged inserts are exempt from cluster skipping).
    pub fn attr_sketches(&self) -> Option<Arc<AttrSketches>> {
        self.core
            .sketches
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// [`LiveIndex::insert`], with an attribute row: the `(column, value)`
    /// pairs are validated against the store's schema, logged in the same
    /// WAL record as the vector, and visible to filtered queries as soon
    /// as this returns. Columns not named stay NULL.
    pub fn insert_with_attrs(
        &self,
        vector: &[f64],
        values: &[(String, AttrValue)],
    ) -> mmdr_index::Result<u64> {
        self.insert_inner(vector, Some(values))
    }

    fn insert_inner(
        &self,
        vector: &[f64],
        values: Option<&[(String, AttrValue)]>,
    ) -> mmdr_index::Result<u64> {
        let id = {
            let mut w = self.core.writer.lock().unwrap_or_else(|p| p.into_inner());
            validate_vector(w.model.dim, vector)?;
            // Validate the attribute row against the schema *before*
            // logging anything, so a rejected row never reaches the WAL
            // and the store mutation below cannot fail halfway.
            let attrs = match values {
                Some(row) => {
                    self.with_attrs(|store| store.validate_row(row))
                        .map_err(mmdr_index::Error::from)?;
                    Some(encode_row(row))
                }
                None => None,
            };
            let id = w.next_id;
            let op = IngestOp::Insert {
                id,
                vector: vector.to_vec(),
            };
            let record = WalRecord { op, attrs };
            // Placed first, so a row the index refuses is never logged;
            // then durable, then visible: the WAL append fsyncs. The
            // serving index was loaded under the writer's model (a publish
            // swaps both under this lock).
            let w = &mut *w;
            let log = || w.wal.append_record(&record).map_err(to_query_err);
            (self.core.serving().built).insert_logged(&w.model, id, vector, log)?;
            if let Some(row) = values {
                let mut store = self.core.attrs.write().unwrap_or_else(|p| p.into_inner());
                store.set_row(id, row).map_err(mmdr_index::Error::from)?;
            }
            w.pending.push(record);
            w.next_id += 1;
            id
        };
        self.core.maybe_spawn_merge();
        Ok(id)
    }
}

impl EngineCore {
    fn serving(&self) -> Arc<Epoch> {
        Arc::clone(&self.serving.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Runs [`merge_now`](Self::merge_now) on a background thread unless
    /// the last one started is still running. A failure is reported and
    /// left to the next trigger to retry: queries and writes continue
    /// against the current epoch, whose delta is larger at worst, never
    /// inexact.
    ///
    /// The finished thread is joined before the next one starts, so there
    /// is never more than one: the allocator hands the new thread the
    /// arena the old one released, and each fold reuses the memory the
    /// last one freed. Started while the old thread was still exiting, it
    /// would get a fresh arena and hold a second fold's worth of memory.
    fn spawn_merge(self: &Arc<Self>) {
        let mut slot = self.merging.lock().unwrap_or_else(|p| p.into_inner());
        if slot.as_ref().is_some_and(|thread| !thread.is_finished()) {
            return;
        }
        if let Some(done) = slot.take() {
            let _ = done.join();
        }
        let core = Arc::clone(self);
        *slot = Some(std::thread::spawn(move || {
            if let Err(e) = core.merge_now() {
                eprintln!("mmdr: background merge failed: {e}");
            }
        }));
    }

    /// Kicks off a background merge when delta pressure crosses the
    /// threshold — or when tombstones alone reach a quarter of the live
    /// rows, so a delete-heavy stream compacts without ever accumulating
    /// insert pressure — and none is already running. Must not be called
    /// while holding the writer lock (the merge takes it).
    fn maybe_spawn_merge(self: &Arc<Self>) {
        if self.merge_threshold == 0 {
            return;
        }
        let serving = self.serving();
        let stats = serving.built.delta_stats();
        let pressure = (stats.rows + stats.tombstones) >= self.merge_threshold as u64;
        let live = serving.built.as_dyn().len() as u64;
        let delete_heavy = stats.tombstones >= TOMBSTONE_MERGE_FLOOR
            && stats.tombstones as f64 >= TOMBSTONE_MERGE_RATIO * live as f64;
        if pressure || delete_heavy {
            self.spawn_merge();
        }
    }

    /// Folds the pending operations into a fresh snapshot and swaps the
    /// serving epoch. Returns the (possibly unchanged) epoch number.
    fn merge_now(&self) -> Result<u64> {
        let _merges_are_serial = self.merge.lock().unwrap_or_else(|p| p.into_inner());

        // Snapshot phase: pin the base epoch and the operation prefix to
        // fold. Consistent because swaps also hold the writer lock. The
        // model epoch cannot change mid-merge (a re-fit holds the merge
        // lock for its whole duration).
        let (base, ops, mut model, model_epoch) = {
            let w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
            if w.pending.is_empty() {
                return Ok(w.epoch_no);
            }
            (
                self.serving(),
                w.pending_ops(),
                w.model.clone(),
                w.model_epoch,
            )
        };

        // Fold phase, off every lock: writers keep landing in the base
        // epoch's delta and the pending tail; readers keep pinning the
        // base epoch. The fold reads only immutable base structures and
        // the cloned op prefix.
        extend_model(&mut model, &ops)?;
        let folded = fold(&base.built, &model, &ops, self.fold_pages)?;
        self.publish(folded, model, model_epoch, ops.len())
    }

    /// The tail a merge and a re-fit share. Durable first: `folded` is saved
    /// to the snapshot under `model_epoch`, with the attributes as they
    /// stand. Then visible, under the writer lock: replay the tail that
    /// arrived after the first `folded_ops` pending records into `folded`'s
    /// delta (its backends route with `model`), rewrite the WAL to exactly
    /// that tail under `model_epoch`'s mark, bring the writer's state in
    /// line — a bumped model epoch is a re-fit — then re-sketch under
    /// `model`, swap the serving epoch and seal the retired one. Returns the
    /// new epoch number.
    fn publish(
        &self,
        folded: BuiltIndex,
        model: ReductionResult,
        model_epoch: u64,
        folded_ops: usize,
    ) -> Result<u64> {
        // The attribute snapshot may be newer than the folded prefix
        // (writers keep landing); that is safe — any attribute row whose
        // vector is not folded belongs to a tail insert the retained WAL
        // still carries, and replay re-applies it idempotently.
        let attrs_snapshot = self.attrs.read().unwrap_or_else(|p| p.into_inner()).clone();
        save_with_attrs(
            &self.path,
            &folded,
            &model,
            model_epoch,
            Some(&attrs_snapshot),
        )?;

        let mut guard = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let w = &mut *guard;
        let tail = &w.pending[folded_ops..];
        for record in tail {
            apply_op(&folded, &model, &record.op)?;
        }
        w.wal.rewrite(tail, model_epoch)?;
        w.pending.drain(..folded_ops);
        if model_epoch == w.model_epoch {
            w.merges += 1;
        } else {
            w.model_epoch = model_epoch;
            w.refits += 1;
        }
        w.model = model;
        w.epoch_no += 1;
        // Folded inserts joined the member lists, so cluster skipping
        // starts covering them.
        let sketches = build_sketches(&attrs_snapshot, &w.model)?;
        *self.sketches.write().unwrap_or_else(|p| p.into_inner()) = sketches;
        let fresh = Arc::new(Epoch {
            number: w.epoch_no,
            built: folded,
        });
        let retired = {
            let mut serving = self.serving.write().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *serving, fresh)
        };
        // The retired epoch only serves queries already pinned to it;
        // freeze its delta so a straggling writer bug cannot fork history.
        retired.built.seal();
        Ok(w.epoch_no)
    }

    /// Re-fits the model over every surviving row and swaps fresh base
    /// structures in under a bumped model epoch. Runs with the merge lock
    /// held throughout, so the captured pending prefix stays a prefix and
    /// no other merge or re-fit runs meanwhile; writers and readers are
    /// only blocked for the final swap.
    fn refit_now(&self) -> Result<u64> {
        let _merges_are_serial = self.merge.lock().unwrap_or_else(|p| p.into_inner());

        // Snapshot phase: capture the base epoch, the pending prefix, the
        // current model (needed to restore base rows) and the id
        // allocator. `next_id` becomes the new model's `num_points`, so
        // every captured insert is covered by the replay-skip rule if we
        // crash between the save and the WAL rewrite.
        let (base, ops, old_model, next_id, new_model_epoch) = {
            let w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
            (
                self.serving(),
                w.pending_ops(),
                w.model.clone(),
                w.next_id,
                w.model_epoch + 1,
            )
        };

        // Fit phase, off every lock: read the base's live rows back in
        // their restored representation, overlay the captured operations
        // (inserts carry exact full-dimensional vectors), fit, then load
        // fresh base structures through the build's own loader.
        let mut rows = restored_rows(&base.built, &old_model)?;
        for op in &ops {
            match op {
                IngestOp::Insert { id, vector } => {
                    rows.insert(*id, vector.clone());
                }
                IngestOp::Delete { id } => {
                    rows.remove(id);
                }
            }
        }
        if rows.is_empty() {
            // Nothing survives; a fit over zero rows is undefined. Keep
            // serving the current (exact) model.
            let w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
            return Ok(w.model_epoch);
        }
        let model = refit_model(&rows, next_id, &MmdrParams::default())?;
        let folded = load_exact(base.built.backend(), &model, self.fold_pages, |id| {
            rows.get(&id).map(Vec::as_slice)
        })?;
        self.publish(folded, model, new_model_epoch, ops.len())?;
        Ok(new_model_epoch)
    }
}

impl LiveIndex for IngestEngine {
    fn pin(&self) -> PinnedEpoch {
        let epoch = self.core.serving();
        PinnedEpoch {
            epoch: epoch.number,
            index: epoch,
        }
    }

    fn insert(&self, vector: &[f64]) -> mmdr_index::Result<u64> {
        self.insert_inner(vector, None)
    }

    fn delete(&self, id: u64) -> mmdr_index::Result<bool> {
        let changed = {
            let mut w = self.core.writer.lock().unwrap_or_else(|p| p.into_inner());
            if id >= w.next_id {
                return Ok(false); // never-assigned id: nothing to log
            }
            let op = IngestOp::Delete { id };
            w.wal.append(&op).map_err(to_query_err)?;
            let changed = self.core.serving().built.delete(id)?;
            // Ids are never reused, so the attribute row can go now; a
            // replayed delete clears it again, harmlessly.
            self.core
                .attrs
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .clear_row(id);
            w.pending.push(op.into());
            changed
        };
        self.core.maybe_spawn_merge();
        Ok(changed)
    }

    fn flush(&self) -> mmdr_index::Result<u64> {
        self.core.merge_now().map_err(to_query_err)
    }

    fn ingest_stats(&self) -> IngestStats {
        let epoch = self.core.serving();
        let delta = epoch.built.delta_stats();
        let w = self.core.writer.lock().unwrap_or_else(|p| p.into_inner());
        IngestStats {
            epoch: w.epoch_no,
            delta_rows: delta.rows,
            tombstones: delta.tombstones,
            wal_bytes: w.wal.bytes(),
            merges: w.merges,
            next_id: w.next_id,
            model_epoch: w.model_epoch,
            refits: w.refits,
        }
    }

    fn filtered(
        &self,
        vector: &[f64],
        target: Target,
        predicate: &str,
    ) -> mmdr_index::Result<Vec<(f64, u64)>> {
        // Pin once: plan and execution see the same epoch. The bitmap is
        // id-keyed, and a merge never renumbers ids, so a concurrent swap
        // cannot skew the filter either way.
        let pin = LiveIndex::pin(self);
        // Sketches first, attrs second — both taken and released in turn,
        // never nested, so no ordering against the writer path matters.
        let sketches = self.attr_sketches();
        crate::live::filtered(
            &self.core.planner,
            self.core.attrs.read().unwrap_or_else(|p| p.into_inner()),
            sketches.as_deref(),
            pin.index.as_ref(),
            vector,
            target,
            predicate,
        )
    }

    fn planner_counts(&self) -> [u64; 3] {
        let s = self.core.planner.counters().snapshot();
        [s.post_filter, s.pushdown, s.prefilter_rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdr-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dataset() -> Matrix {
        dataset_of(120)
    }

    /// Two line-shaped clusters of `per_cluster` rows each, interleaved.
    fn dataset_of(per_cluster: usize) -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..per_cluster {
            let t = i as f64 / (per_cluster - 1) as f64;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    fn model_for(data: &Matrix) -> ReductionResult {
        Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(data)
        .unwrap()
    }

    /// New rows the fitted model routes to a cluster and to the outlier
    /// side, mixed.
    fn new_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = (i as f64 * 0.381_966).fract();
                if i % 3 == 2 {
                    vec![2.0 + t, -1.0 - t, 2.0, -2.0] // off every subspace
                } else {
                    vec![t, 0.3 * t, 0.001, -0.001] // on cluster 0's line
                }
            })
            .collect()
    }

    /// Fresh-build reference over the union: base data + survivors of the
    /// inserted rows, with deletes applied through the delta layer (the
    /// reference build also masks deleted *base* ids via tombstones).
    fn reference(
        backend: Backend,
        data: &Matrix,
        inserts: &[Vec<f64>],
        deletes: &[u64],
    ) -> BuiltIndex {
        let mut union = data.clone();
        for v in inserts {
            union.push_row(v).unwrap();
        }
        let mut model = model_for(data);
        let base_rows = data.rows() as u64;
        let ops: Vec<IngestOp> = inserts
            .iter()
            .enumerate()
            .map(|(i, v)| IngestOp::Insert {
                id: base_rows + i as u64,
                vector: v.clone(),
            })
            .collect();
        extend_model(&mut model, &ops).unwrap();
        let fresh = build_index(backend, &union, &model, 128).unwrap();
        for &id in deletes {
            let _ = fresh.delete(id).unwrap();
        }
        fresh
    }

    #[test]
    fn fold_matches_fresh_build_over_union() {
        let data = dataset();
        let model = model_for(&data);
        let inserts = new_rows(9);
        let deletes: Vec<u64> = vec![3, 77, 240]; // two base rows + one inserted row
        for backend in Backend::all() {
            let base = build_index(backend, &data, &model, 128).unwrap();
            let mut ops: Vec<IngestOp> = inserts
                .iter()
                .enumerate()
                .map(|(i, v)| IngestOp::Insert {
                    id: data.rows() as u64 + i as u64,
                    vector: v.clone(),
                })
                .collect();
            ops.extend(deletes.iter().map(|&id| IngestOp::Delete { id }));
            let mut extended = model.clone();
            extend_model(&mut extended, &ops).unwrap();
            let folded = fold(&base, &extended, &ops, 128).unwrap();
            let fresh = reference(backend, &data, &inserts, &deletes);
            for qi in [0usize, 7, 41, 113] {
                let q = data.row(qi);
                let a = folded.as_dyn().knn(q, 10).unwrap();
                let b = fresh.as_dyn().knn(q, 10).unwrap();
                assert_eq!(a, b, "{}: fold ≡ fresh build (bitwise)", backend.name());
                assert!(
                    !a.iter().any(|&(_, id)| deletes.contains(&id)),
                    "{}: deleted ids stay gone",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn engine_insert_query_flush_cycle() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("cycle");
        let path = dir.join("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            Backend::IDistance,
            &data,
            &model,
            128,
            IngestOptions {
                merge_threshold: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let probe = vec![0.4, 0.12, 0.0, 0.0];
        let id = engine.insert(&probe).unwrap();
        assert_eq!(id, data.rows() as u64);
        let pin = engine.pin();
        assert_eq!(pin.epoch, 0);
        // Visible immediately through the pinned epoch.
        let hits = pin.index.knn(&probe, 1).unwrap();
        assert_eq!(hits[0].1, id);
        // The WAL holds the op until a merge folds it.
        let stats = engine.ingest_stats();
        assert_eq!(stats.delta_rows, 1);
        assert!(stats.wal_bytes > 0);
        // Flush folds, swaps the epoch, and truncates the WAL.
        let epoch = engine.flush().unwrap();
        assert_eq!(epoch, 1);
        let stats = engine.ingest_stats();
        assert_eq!(
            (stats.delta_rows, stats.tombstones, stats.wal_bytes),
            (0, 0, 0)
        );
        assert_eq!(stats.merges, 1);
        let pin2 = engine.pin();
        assert_eq!(pin2.epoch, 1);
        let hits = pin2.index.knn(&probe, 1).unwrap();
        assert_eq!(hits[0].1, id);
        // The old pin still answers (retired epoch sealed, not destroyed).
        let hits = pin.index.knn(&probe, 1).unwrap();
        assert_eq!(hits[0].1, id);
        // Deletes round-trip too.
        assert!(engine.delete(id).unwrap());
        assert!(!engine.delete(id).unwrap(), "second delete is a no-op");
        assert!(!engine.delete(999_999).unwrap(), "unknown id: no-op");
        let hits = engine.pin().index.knn(&probe, 1).unwrap();
        assert_ne!(hits[0].1, id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rejected_insert_is_typed_and_leaves_no_trace() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("reject");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let engine =
            IngestEngine::create(&path, Backend::Gldr, &data, &model, 128, opts.clone()).unwrap();
        engine.insert(&[0.4, 0.12, 0.0, 0.0]).unwrap();
        let before = engine.ingest_stats();
        for bad in [
            vec![f64::NAN, 0.12, 0.0, 0.0],
            vec![0.4, f64::INFINITY, 0.0, 0.0],
            vec![0.4, 0.12, f64::NEG_INFINITY, 0.0],
        ] {
            let err = engine.insert(&bad).unwrap_err();
            assert!(
                matches!(err, mmdr_index::Error::InvalidQuery),
                "{bad:?}: {err}"
            );
        }
        let err = engine.insert(&[0.4, 0.12, 0.0]).unwrap_err();
        assert!(
            matches!(
                err,
                mmdr_index::Error::DimensionMismatch {
                    expected: 4,
                    actual: 3
                }
            ),
            "{err}"
        );
        // Finite, but past what a record stores: the index refuses it
        // before the log sees it.
        let err = engine.insert(&[4e40, 0.12, -3e40, 0.0]).unwrap_err();
        assert!(err.to_string().contains("f32::MAX"), "{err}");
        // Nothing reached the log, the allocator or the delta.
        assert_eq!(engine.ingest_stats(), before);
        let id = engine.insert(&[0.5, 0.15, 0.0, 0.0]).unwrap();
        assert_eq!(id, before.next_id);
        assert_eq!(engine.ingest_stats().next_id, before.next_id + 1);
        // The log replays: what it holds opens again.
        drop(engine);
        let reopened = IngestEngine::open(&path, opts).unwrap();
        assert_eq!(reopened.ingest_stats().next_id, before.next_id + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An insert whose WAL record would pass the record cap (here through
    /// a 17 MiB tag) is refused before a byte is logged: the id and the
    /// attribute row stay unused, and the log opens again.
    #[test]
    fn an_insert_past_the_record_cap_is_refused_and_the_log_reopens() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("oversize");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let store = AttrStore::new(&[("label", mmdr_query::AttrType::Tag)]).unwrap();
        let engine = IngestEngine::create_with_attrs(
            &path,
            Backend::SeqScan,
            &data,
            &model,
            128,
            opts.clone(),
            Some(&store),
        )
        .unwrap();
        let before = engine.ingest_stats();
        let huge = AttrValue::Tag("x".repeat(crate::MAX_WAL_RECORD as usize + (1 << 20)));
        let err = engine
            .insert_with_attrs(&[0.4, 0.12, 0.0, 0.0], &[("label".to_string(), huge)])
            .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert_eq!(engine.ingest_stats(), before);
        engine.with_attrs(|s| assert_eq!(s.get(before.next_id, "label").unwrap(), None));
        drop(engine);
        let reopened = IngestEngine::open(&path, opts).unwrap();
        assert_eq!(reopened.ingest_stats().next_id, before.next_id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_logged_non_finite_insert_fails_the_open_typed() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("nan-wal");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        drop(
            IngestEngine::create(&path, Backend::SeqScan, &data, &model, 128, opts.clone())
                .unwrap(),
        );
        // A well-framed record the engine itself would never have logged.
        let (mut wal, replay) = WalWriter::open(wal_path(&path)).unwrap();
        assert!(replay.records.is_empty());
        wal.append(&IngestOp::Insert {
            id: data.rows() as u64,
            vector: vec![0.4, f64::NAN, 0.0, 0.0],
        })
        .unwrap();
        drop(wal);
        let err = IngestEngine::open(&path, opts).unwrap_err();
        assert!(
            matches!(err, PersistError::Query(mmdr_index::Error::InvalidQuery)),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_on_open_restores_acknowledged_ops() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("replay");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let probe = vec![0.4, 0.12, 0.0, 0.0];
        let (id, deleted) = {
            let engine =
                IngestEngine::create(&path, Backend::SeqScan, &data, &model, 128, opts.clone())
                    .unwrap();
            let id = engine.insert(&probe).unwrap();
            engine.delete(5).unwrap();
            (id, 5u64)
            // Engine dropped without flush: the snapshot on disk knows
            // nothing of these ops — only the WAL does.
        };
        let engine = IngestEngine::open(&path, opts).unwrap();
        let stats = engine.ingest_stats();
        assert_eq!(stats.delta_rows, 1);
        assert_eq!(stats.tombstones, 1);
        assert_eq!(stats.next_id, id + 1);
        let pin = engine.pin();
        assert_eq!(pin.index.knn(&probe, 1).unwrap()[0].1, id);
        assert!(pin
            .index
            .knn(data.row(deleted as usize), 3)
            .unwrap()
            .iter()
            .all(|&(_, pid)| pid != deleted));
        // A merge after recovery folds the replayed ops durably.
        engine.flush().unwrap();
        let stats = engine.ingest_stats();
        assert_eq!((stats.delta_rows, stats.wal_bytes), (0, 0));
        let reopened = IngestEngine::open(&path, IngestOptions::default()).unwrap();
        assert_eq!(reopened.pin().index.knn(&probe, 1).unwrap()[0].1, id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_heavy_stream_compacts_on_tombstone_ratio() {
        // Tall enough that every partition spans several heap pages, so
        // folding a third of the rows out frees whole pages.
        let data = dataset_of(360);
        let model = model_for(&data);
        let dir = tmp_dir("tombstones");
        let path = dir.join("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            Backend::SeqScan,
            &data,
            &model,
            128,
            IngestOptions {
                // Insert pressure alone would need 10_000 ops; the ratio
                // trigger must fire long before that.
                merge_threshold: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        let created_bytes = std::fs::metadata(&path).unwrap().len();
        // Delete a third of the base rows: 240 tombstones ≥ 25% of the
        // 480 surviving rows (and past the floor).
        for id in 0..240u64 {
            engine.delete(id * 3).unwrap();
        }
        // The trigger is asynchronous: quiesce joins the spawned merge,
        // even one that has not yet taken the merge lock.
        engine.quiesce();
        let stats = engine.ingest_stats();
        assert!(
            stats.merges >= 1,
            "tombstone ratio crossed, merges {}",
            stats.merges
        );
        // The fold consumed the tombstones accumulated before it ran;
        // only deletes that arrived after the trigger can remain.
        assert!(stats.tombstones < 240, "tombstones {}", stats.tombstones);
        let hits = engine.pin().index.knn(data.row(0), 10).unwrap();
        assert!(hits.iter().all(|&(_, id)| id % 3 != 0));
        // Compaction is real: once every delete is folded, the dead rows
        // are gone from the base — counted out and written out.
        engine.quiesce();
        engine.flush().unwrap();
        assert_eq!(engine.pin().index.len(), 480);
        let compacted_bytes = std::fs::metadata(&path).unwrap().len();
        assert!(
            compacted_bytes < created_bytes,
            "snapshot must shrink: {created_bytes} -> {compacted_bytes} bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refit_bumps_model_epoch_and_keeps_answers_exact() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("refit");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let engine =
            IngestEngine::create(&path, Backend::IDistance, &data, &model, 128, opts.clone())
                .unwrap();
        // A drifted stream: on the cluster-0 line in the first two
        // coordinates but lifted well off its flat.
        let mut drifted_ids = Vec::new();
        for i in 0..48 {
            let t = i as f64 / 47.0;
            drifted_ids.push(engine.insert(&[t, 0.3 * t, 0.085, 0.0]).unwrap());
        }
        engine.delete(drifted_ids[0]).unwrap();
        let before = engine.ingest_stats();
        assert_eq!((before.model_epoch, before.refits), (0, 0));

        let epoch = engine.refit().unwrap();
        assert_eq!(epoch, 1);
        let stats = engine.ingest_stats();
        assert_eq!((stats.model_epoch, stats.refits), (1, 1));
        assert_eq!(
            (stats.delta_rows, stats.tombstones, stats.wal_bytes > 0),
            (0, 0, true)
        );
        // Every survivor is still answerable; the deleted id stays gone.
        let pin = engine.pin();
        assert_eq!(pin.index.len(), data.rows() + 47);
        let hits = pin.index.knn(&[0.5, 0.15, 0.085, 0.0], 5).unwrap();
        assert!(!hits.iter().any(|&(_, id)| id == drifted_ids[0]));
        assert!(hits.iter().any(|&(_, id)| drifted_ids.contains(&id)));

        // Reopening sees the bumped epoch via the snapshot + WAL mark.
        drop(engine);
        let reopened = IngestEngine::open(&path, opts).unwrap();
        assert_eq!(reopened.ingest_stats().model_epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_is_refused_at_open() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("stale");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let engine =
            IngestEngine::create(&path, Backend::SeqScan, &data, &model, 128, opts.clone())
                .unwrap();
        // Keep a copy of the epoch-0 snapshot, then re-fit past it.
        let old = dir.join("old.mmdr");
        std::fs::copy(&path, &old).unwrap();
        engine.insert(&[0.4, 0.12, 0.05, 0.0]).unwrap();
        engine.refit().unwrap();
        engine.insert(&[0.5, 0.15, 0.05, 0.0]).unwrap();
        drop(engine);
        // Restore the old snapshot next to the newer (marked) WAL.
        std::fs::copy(&old, &path).unwrap();
        let err = IngestEngine::open(&path, opts).unwrap_err();
        assert!(
            err.to_string().contains("stale snapshot"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refit_with_no_survivors_keeps_the_model_and_later_inserts_stay() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("refit-none");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let engine =
            IngestEngine::create(&path, Backend::IDistance, &data, &model, 128, opts.clone())
                .unwrap();
        for id in 0..data.rows() as u64 {
            assert!(engine.delete(id).unwrap());
        }
        // Nothing survives: no fit runs and the current model keeps
        // serving.
        assert_eq!(engine.refit().unwrap(), 0);
        let stats = engine.ingest_stats();
        assert_eq!((stats.model_epoch, stats.refits), (0, 0));
        assert_eq!(engine.pin().index.knn(data.row(0), 5).unwrap(), []);

        let probe = [0.5, 0.15, 0.0, 0.0];
        let id = engine.insert(&probe).unwrap();
        assert_eq!(id, data.rows() as u64);
        let served = |engine: &IngestEngine| -> Vec<u64> {
            let hits = engine.pin().index.knn(&probe, 5).unwrap();
            hits.iter().map(|&(_, id)| id).collect()
        };
        assert_eq!(served(&engine), [id]);
        drop(engine);
        let reopened = IngestEngine::open(&path, opts).unwrap();
        assert_eq!(served(&reopened), [id]);
        assert_eq!(reopened.ingest_stats().model_epoch, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_merge_triggers_on_pressure() {
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("pressure");
        let path = dir.join("idx.mmdr");
        let engine = IngestEngine::create(
            &path,
            Backend::Gldr,
            &data,
            &model,
            128,
            IngestOptions {
                merge_threshold: 8,
                ..Default::default()
            },
        )
        .unwrap();
        for v in new_rows(24) {
            engine.insert(&v).unwrap();
        }
        // Let any in-flight merge finish, then check at least one ran.
        engine.quiesce();
        let stats = engine.ingest_stats();
        assert!(
            stats.merges >= 1,
            "pressure crossed, merges {}",
            stats.merges
        );
        assert!(stats.epoch >= 1);
        // Every inserted row is still visible after the swap(s).
        let pin = engine.pin();
        assert_eq!(pin.index.len(), data.rows() + 24);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attrs_survive_wal_replay_and_snapshot_fold() {
        use mmdr_query::AttrType;
        let data = dataset();
        let model = model_for(&data);
        let dir = tmp_dir("attrs");
        let path = dir.join("idx.mmdr");
        let opts = IngestOptions {
            merge_threshold: 0,
            ..Default::default()
        };
        let mut store =
            AttrStore::new(&[("label", AttrType::Tag), ("score", AttrType::I64)]).unwrap();
        for id in 0..data.rows() as u64 {
            let label = if id % 2 == 0 { "even" } else { "odd" };
            store
                .set(id, "label", &AttrValue::Tag(label.into()))
                .unwrap();
            store.set(id, "score", &AttrValue::I64(id as i64)).unwrap();
        }
        let probe = vec![0.4, 0.12, 0.0, 0.0];
        let (id, bare) = {
            let engine = IngestEngine::create_with_attrs(
                &path,
                Backend::SeqScan,
                &data,
                &model,
                128,
                opts.clone(),
                Some(&store),
            )
            .unwrap();
            let id = engine
                .insert_with_attrs(
                    &probe,
                    &[
                        ("label".to_string(), AttrValue::Tag("fresh".into())),
                        ("score".to_string(), AttrValue::I64(-7)),
                    ],
                )
                .unwrap();
            let bare = engine.insert(&[0.5, 0.15, 0.0, 0.0]).unwrap();
            engine.delete(3).unwrap();
            // A row that fails schema validation never reaches the WAL,
            // the store, or the id allocator.
            let before = engine.ingest_stats();
            assert!(engine
                .insert_with_attrs(&probe, &[("missing".to_string(), AttrValue::I64(0))])
                .is_err());
            let after = engine.ingest_stats();
            assert_eq!(before.next_id, after.next_id);
            assert_eq!(before.wal_bytes, after.wal_bytes);
            (id, bare)
            // Dropped without a flush: only the WAL knows these ops.
        };
        let engine = IngestEngine::open(&path, opts.clone()).unwrap();
        engine.with_attrs(|s| {
            assert_eq!(
                s.get(id, "label").unwrap(),
                Some(AttrValue::Tag("fresh".into()))
            );
            assert_eq!(s.get(id, "score").unwrap(), Some(AttrValue::I64(-7)));
            assert_eq!(s.get(bare, "label").unwrap(), None);
            assert_eq!(
                s.get(3, "label").unwrap(),
                None,
                "deleted row cleared on replay"
            );
            assert_eq!(
                s.get(0, "label").unwrap(),
                Some(AttrValue::Tag("even".into()))
            );
        });
        assert!(engine.attr_sketches().is_some());
        // A flush folds everything into the snapshot's ATTRS section and
        // empties the log; the next open reads attrs from the snapshot.
        engine.flush().unwrap();
        assert_eq!(engine.ingest_stats().wal_bytes, 0);
        drop(engine);
        let engine = IngestEngine::open(&path, opts).unwrap();
        engine.with_attrs(|s| {
            assert_eq!(s.get(id, "score").unwrap(), Some(AttrValue::I64(-7)));
            assert_eq!(s.get(3, "label").unwrap(), None);
            assert_eq!(
                s.get(240, "label").unwrap(),
                Some(AttrValue::Tag("fresh".into()))
            );
        });
        let sketches = engine.attr_sketches().unwrap();
        assert_eq!(
            sketches.columns,
            vec!["label".to_string(), "score".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
