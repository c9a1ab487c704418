//! The mutation side of the index contract: delta layers, sealed epochs,
//! and the live-serving handle.
//!
//! Every backend stays immutable in its *base* structures (heap pages,
//! B⁺-tree, hybrid-tree pages) — those are what snapshots persist and what
//! the out-of-core pager mounts. Mutability is layered on top:
//!
//! - **Inserts** land in an in-memory [`DeltaLayer`]: the row is routed to
//!   its partition and converted into the stored representation at insert
//!   time (the same projection code as the build path), so a delta scan
//!   computes bit-identical distances to a from-scratch build over the
//!   union of rows.
//! - **Deletes** become entries in a copy-on-write tombstone set. Base
//!   searches filter tombstoned ids at *push* time (before a candidate can
//!   occupy a heap slot), which keeps exact-k semantics: a delete never
//!   shrinks an answer below `k` while live rows remain.
//! - **Seal** freezes the delta against further mutation. The background
//!   merge seals the *retired* epoch after an atomic swap; queries still
//!   pinned to it finish unaffected.
//!
//! [`LiveIndex`] is the process-level serving handle (epoch pinning +
//! WAL-backed ingest) that `mmdr-serve` codes against without depending on
//! the persistence crate.

use crate::error::{Error, Result};
use crate::query::Target;
use crate::traits::VectorIndex;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// One logical mutation, as carried by the write-ahead log and replayed
/// into backend deltas. Vectors are always full original-dimensional —
/// routing and conversion to the stored form (projection, restoration)
/// happen at apply time with the same code the build path uses.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOp {
    /// Add a row under an engine-assigned, monotonically increasing id.
    Insert {
        /// The new row's point id.
        id: u64,
        /// Full-dimensional coordinates.
        vector: Vec<f64>,
    },
    /// Remove the row with this id (idempotent; unknown ids tombstone
    /// harmlessly).
    Delete {
        /// The point id to remove.
        id: u64,
    },
}

/// Snapshot of a delta layer's size — the merge-pressure signal operators
/// watch through the `Stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rows living in the delta (inserted since the last merge, not yet
    /// folded into base structures).
    pub rows: u64,
    /// Tombstoned ids filtered out of base searches.
    pub tombstones: u64,
}

/// The delta machinery every backend shares: an ordered map of rows plus a
/// copy-on-write tombstone set, both behind interior mutability so queries
/// stay `&self`. An empty, unsealed delta is the `Default`.
///
/// Every backend holds the one row type `(slot, coordinates)`: the
/// partition slot the model routed the row to (the cluster index, or the
/// cluster count for the outliers) and its coordinates in the stored form
/// every backend shares: local coordinates for a cluster, the raw vector
/// for an outlier.
///
/// Concurrency: mutations take a short write lock; queries take a read
/// lock only while iterating the (small) delta and grab the tombstone set
/// as one `Arc` clone, so the base search proceeds without any delta lock
/// held.
#[derive(Debug, Default)]
pub struct DeltaLayer {
    rows: RwLock<BTreeMap<u64, (u32, Vec<f64>)>>,
    tombstones: RwLock<Arc<HashSet<u64>>>,
    sealed: AtomicBool,
}

impl DeltaLayer {
    fn check_unsealed(&self) -> Result<()> {
        if self.sealed.load(Ordering::Acquire) {
            return Err(Error::Sealed);
        }
        Ok(())
    }

    /// Stores a placed row under `id`. Replays are last-write-wins: a
    /// duplicate id replaces the previous delta row.
    pub fn insert(&self, id: u64, row: (u32, Vec<f64>)) -> Result<()> {
        self.check_unsealed()?;
        let mut rows = self.rows.write().unwrap_or_else(|p| p.into_inner());
        rows.insert(id, row);
        Ok(())
    }

    /// Deletes `id`: removes it from the delta when it lives there,
    /// otherwise tombstones it so base searches skip it. Returns whether
    /// the call changed visible state (false when the id was already
    /// tombstoned).
    pub fn delete(&self, id: u64) -> Result<bool> {
        self.check_unsealed()?;
        let removed = {
            let mut rows = self.rows.write().unwrap_or_else(|p| p.into_inner());
            rows.remove(&id).is_some()
        };
        let mut tombs = self.tombstones.write().unwrap_or_else(|p| p.into_inner());
        if tombs.contains(&id) {
            return Ok(removed);
        }
        // Copy-on-write: queries hold the old Arc; deletes are rare next
        // to candidate lookups, so the clone is the cheap side.
        let mut next = HashSet::clone(&tombs);
        next.insert(id);
        *tombs = Arc::new(next);
        Ok(true)
    }

    /// Freezes the delta against further mutation and reports its final
    /// size. Idempotent.
    pub fn seal(&self) -> DeltaStats {
        self.sealed.store(true, Ordering::Release);
        self.stats()
    }

    /// Current size of the delta.
    pub fn stats(&self) -> DeltaStats {
        let rows = self.rows.read().unwrap_or_else(|p| p.into_inner()).len() as u64;
        let tombstones = self
            .tombstones
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .len() as u64;
        DeltaStats { rows, tombstones }
    }

    /// Number of live delta rows.
    pub fn live_rows(&self) -> usize {
        self.rows.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The tombstone set as one `Arc` clone — O(1), and stable for the
    /// duration of a query regardless of concurrent deletes.
    pub fn tombstones(&self) -> Arc<HashSet<u64>> {
        Arc::clone(&self.tombstones.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Visits every delta row in ascending id order under a read lock.
    /// Callers must not mutate the same delta from inside `f`.
    pub fn for_each(&self, mut f: impl FnMut(u64, &(u32, Vec<f64>))) {
        let rows = self.rows.read().unwrap_or_else(|p| p.into_inner());
        for (&id, row) in rows.iter() {
            f(id, row);
        }
    }
}

/// Ingest-side counters carried by the `Stats` op and the CLI stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Current epoch number (bumped by every merge + swap).
    pub epoch: u64,
    /// Rows in the serving epoch's delta.
    pub delta_rows: u64,
    /// Tombstoned ids in the serving epoch.
    pub tombstones: u64,
    /// Bytes in the write-ahead log.
    pub wal_bytes: u64,
    /// Background merges completed since open.
    pub merges: u64,
    /// Next id the engine will assign.
    pub next_id: u64,
    /// Current model epoch (bumped by every re-fit + swap; merges extend
    /// the model without bumping it).
    pub model_epoch: u64,
    /// Re-fits completed since open.
    pub refits: u64,
}

/// An epoch pin: the epoch number plus an owning handle to the index that
/// serves it. Queries run entirely against the pinned `Arc`; a concurrent
/// merge swaps the *next* queries to a new epoch without touching pinned
/// ones.
#[derive(Clone)]
pub struct PinnedEpoch {
    /// The pinned epoch's number.
    pub epoch: u64,
    /// The index serving that epoch.
    pub index: Arc<dyn VectorIndex>,
}

/// The process-level serving handle: epoch-versioned reads plus
/// WAL-backed writes. `mmdr-serve` holds one of these; the persistence
/// crate's ingest engine implements it, and [`ReadOnlyLive`] adapts a
/// static snapshot (writes are typed errors).
pub trait LiveIndex: Send + Sync {
    /// Pins the current epoch for one query (or one coalesced batch).
    /// Lock-free on the read path beyond one `RwLock` read + `Arc` clone.
    fn pin(&self) -> PinnedEpoch;

    /// Appends the vector to the WAL (fsync'd), applies it to the serving
    /// delta, and returns the assigned id. The row is durable and visible
    /// once this returns. The default — every handle but a WAL-backed
    /// engine — is the typed [`Error::ReadOnly`] rejection, as for
    /// [`delete`](Self::delete) and [`flush`](Self::flush).
    fn insert(&self, _vector: &[f64]) -> Result<u64> {
        Err(Error::ReadOnly)
    }

    /// Logs and applies a delete. Returns whether visible state changed.
    fn delete(&self, _id: u64) -> Result<bool> {
        Err(Error::ReadOnly)
    }

    /// Forces a merge now: fold the delta into a fresh snapshot, swap
    /// epochs, trim the WAL. Returns the new epoch number.
    fn flush(&self) -> Result<u64> {
        Err(Error::ReadOnly)
    }

    /// Ingest-side counters (delta size, WAL bytes, epoch, merges). The
    /// default is a read-only handle's: nothing ingested, the next id is
    /// the pinned index's row count.
    fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            next_id: self.pin().index.len() as u64,
            ..IngestStats::default()
        }
    }

    /// Attribute-filtered search: `predicate` is the filter's canonical text
    /// (e.g. `label = "news" && score >= 10`), compiled server-side against
    /// the handle's attribute store and planned per query. Exact: the
    /// result equals post-filtering the unfiltered full ranking. The
    /// default — handles with no attribute store — is a typed rejection.
    fn filtered(
        &self,
        _vector: &[f64],
        _target: Target,
        _predicate: &str,
    ) -> Result<Vec<(f64, u64)>> {
        Err(Error::FiltersUnavailable)
    }

    /// Monotonic planner-choice counters for filtered queries, in the
    /// order `[post_filter, pushdown, prefilter_rank]`. Zeros for handles
    /// without a query planner.
    fn planner_counts(&self) -> [u64; 3] {
        [0; 3]
    }
}

/// [`LiveIndex`] over a static snapshot: reads serve epoch 0 forever,
/// writes are typed [`Error::ReadOnly`] rejections.
pub struct ReadOnlyLive {
    index: Arc<dyn VectorIndex>,
}

impl ReadOnlyLive {
    /// Wraps an immutable index as a read-only serving handle.
    pub fn new(index: Arc<dyn VectorIndex>) -> Self {
        Self { index }
    }
}

impl LiveIndex for ReadOnlyLive {
    fn pin(&self) -> PinnedEpoch {
        PinnedEpoch {
            epoch: 0,
            index: Arc::clone(&self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_insert_delete_and_stats() {
        let d = DeltaLayer::default();
        assert_eq!(d.stats(), DeltaStats::default());
        d.insert(10, (0, vec![1.0])).unwrap();
        d.insert(11, (1, vec![2.0])).unwrap();
        assert_eq!(
            d.stats(),
            DeltaStats {
                rows: 2,
                tombstones: 0
            }
        );
        // Deleting a delta row removes it (and records the id as dead).
        assert!(d.delete(10).unwrap());
        assert_eq!(d.live_rows(), 1);
        // Deleting a base id tombstones it; repeat deletes are no-ops.
        assert!(d.delete(3).unwrap());
        assert!(!d.delete(3).unwrap());
        assert!(d.tombstones().contains(&3));
        assert!(d.tombstones().contains(&10));
        let s = d.stats();
        assert_eq!(s.rows, 1);
        assert_eq!(s.tombstones, 2);
    }

    #[test]
    fn delta_iterates_in_id_order() {
        let d = DeltaLayer::default();
        for id in [5u64, 1, 9, 3] {
            d.insert(id, (id as u32, Vec::new())).unwrap();
        }
        let mut seen = Vec::new();
        d.for_each(|id, _| seen.push(id));
        assert_eq!(seen, vec![1, 3, 5, 9]);
    }

    #[test]
    fn tombstone_handle_is_stable_across_later_deletes() {
        let d = DeltaLayer::default();
        d.delete(1).unwrap();
        let pinned = d.tombstones();
        d.delete(2).unwrap();
        assert!(pinned.contains(&1));
        assert!(!pinned.contains(&2), "pinned set is copy-on-write");
        assert!(d.tombstones().contains(&2));
    }

    #[test]
    fn seal_freezes_mutation() {
        let d = DeltaLayer::default();
        d.insert(1, (0, vec![1.0])).unwrap();
        let s = d.seal();
        assert_eq!(s.rows, 1);
        assert!(matches!(d.insert(2, (0, vec![2.0])), Err(Error::Sealed)));
        assert!(matches!(d.delete(1), Err(Error::Sealed)));
        // Reads still work on a sealed delta.
        assert_eq!(d.live_rows(), 1);
    }

    #[test]
    fn read_only_live_rejects_writes() {
        use crate::query::{Query, Scratch};

        struct Empty;
        impl VectorIndex for Empty {
            fn name(&self) -> &'static str {
                "empty"
            }
            fn len(&self) -> usize {
                7
            }
            fn dim(&self) -> usize {
                1
            }
            fn answer(&self, _: &Query<'_>, _: &mut Scratch) -> Result<Vec<(f64, u64)>> {
                Ok(Vec::new())
            }
        }

        let live = ReadOnlyLive::new(Arc::new(Empty));
        let pin = live.pin();
        assert_eq!(pin.epoch, 0);
        assert_eq!(pin.index.len(), 7);
        assert!(matches!(live.insert(&[0.0]), Err(Error::ReadOnly)));
        assert!(matches!(live.delete(0), Err(Error::ReadOnly)));
        assert!(matches!(live.flush(), Err(Error::ReadOnly)));
        assert_eq!(live.ingest_stats().next_id, 7);
    }
}
