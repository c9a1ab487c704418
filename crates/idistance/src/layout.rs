//! The stored form of every backend: one writer, one reader.
//!
//! Each backend lays its rows out exactly once, in its own `load`
//! ([`SeqScan`], [`IDistanceIndex`], [`GlobalLdrIndex`]). A loader pulls
//! the model's partitions one at a time — clusters in model order, then the
//! outliers — as rows in the one stored form every backend shares:
//! `(id, local coordinates)` for a cluster, `(id, raw vector)` for the
//! outliers. [`stored_rows`] reads the same `(id, coordinates)` pairs back
//! out of a built index.
//!
//! The stored values are `f32`s: [`stored_values`] rounds each coordinate
//! to the nearest `f32` (and refuses one past `f32::MAX`), and every writer
//! stores its output — the heap of [`SeqScan`] and [`IDistanceIndex`], the
//! hybrid trees of [`GlobalLdrIndex`] (in their own `f64` encoding of the
//! same values) and a delta row's coordinates. So every backend, and a row
//! before and after a fold, answers over the same values, bit for bit. The
//! rounding is far below the reduction's own residual: a reduced
//! coordinate already stands for a point up to its `MaxMPE` away.
//!
//! An ingested row is placed once, by [`BuiltIndex::insert`]: the model
//! routes it (nearest subspace within `β`, else the outliers) and
//! [`stored_form`] converts it exactly as the loaders do, so a delta row
//! stores what a from-scratch build over the union would.
//!
//! Everything that produces base structures is a *door* onto [`load`] and
//! only resolves rows: a from-scratch build projects `data.row(id)`, the
//! merge fold takes [`stored_rows`] of the base minus dead ids plus the
//! projected inserts, the re-fit attach projects an id-keyed row set.
//! Resolution is member-driven — the model's member lists decide which
//! partition an id belongs to and in what order rows are laid out — and an
//! id a door does not resolve (deleted, or parked by a re-fit) is simply
//! absent from the result. What differs between doors beyond the rows is
//! iDistance's [`KeySpace`], passed as data.

use crate::backend::Backend;
use crate::codes::Codebook;
use crate::error::{Error, Result};
use crate::gldr::GlobalLdrIndex;
use crate::index::IDistanceIndex;
use crate::seqscan::SeqScan;
use mmdr_core::{PointAssignment, ReductionResult};
use mmdr_index::{validate_vector, DeltaLayer, DeltaRow, DeltaStats, VectorIndex};
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use std::collections::{BTreeMap, HashMap};

/// The β every backend routes an ingested point with — the nearest
/// subspace within it, else the outliers (Table 1's 0.1).
pub const INSERT_BETA: f64 = 0.1;

/// A constructed index holding its concrete type, so it can be both
/// queried (as a [`VectorIndex`]) and snapshotted (which needs access to
/// the concrete trees and heaps).
#[derive(Debug)]
pub enum BuiltIndex {
    /// Sequential scan over reduced heap pages.
    SeqScan(SeqScan),
    /// Extended iDistance (B⁺-tree + heap file). Boxed: the index struct
    /// is several hundred bytes, far larger than the other variants.
    IDistance(Box<IDistanceIndex>),
    /// Per-cluster hybrid forest (gLDR).
    Gldr(GlobalLdrIndex),
}

impl BuiltIndex {
    /// Which backend this is.
    pub fn backend(&self) -> Backend {
        match self {
            BuiltIndex::SeqScan(_) => Backend::SeqScan,
            BuiltIndex::IDistance(_) => Backend::IDistance,
            BuiltIndex::Gldr(_) => Backend::Gldr,
        }
    }

    /// Queries the index through the uniform trait without consuming it.
    pub fn as_dyn(&self) -> &dyn VectorIndex {
        match self {
            BuiltIndex::SeqScan(i) => i,
            BuiltIndex::IDistance(i) => i.as_ref(),
            BuiltIndex::Gldr(i) => i,
        }
    }

    /// Consumes the enum into the boxed trait object the query executors
    /// take.
    pub fn into_boxed(self) -> Box<dyn VectorIndex> {
        match self {
            BuiltIndex::SeqScan(i) => Box::new(i),
            BuiltIndex::IDistance(i) => i,
            BuiltIndex::Gldr(i) => Box::new(i),
        }
    }

    /// Places an ingested row in the delta layered on the base structures:
    /// validates `vector`, routes it with `model` — the model this index
    /// was loaded under — at [`INSERT_BETA`], converts it to the stored
    /// form the loaders write (and, in iDistance, codes the unrounded
    /// projection, as a load does), and stores it under `id`
    /// (engine-assigned, unique, monotone, never `u64::MAX`). A row with a
    /// stored coordinate past `f32::MAX` is refused. Returns the routing.
    pub fn insert(
        &self,
        model: &ReductionResult,
        id: u64,
        vector: &[f64],
    ) -> mmdr_index::Result<PointAssignment> {
        self.insert_logged(model, id, vector, || Ok(()))
    }

    /// [`insert`](Self::insert), running `log` between placing the row and
    /// storing it: a row the index refuses is never logged, and a row is
    /// stored, and visible, only once `log` has returned `Ok`.
    pub fn insert_logged(
        &self,
        model: &ReductionResult,
        id: u64,
        vector: &[f64],
        log: impl FnOnce() -> mmdr_index::Result<()>,
    ) -> mmdr_index::Result<PointAssignment> {
        validate_vector(self.as_dyn().dim(), vector)?;
        if id == u64::MAX {
            return Err(Error::ReservedId.into());
        }
        let placed = model
            .assign_point(vector, INSERT_BETA)
            .map_err(Error::from)?;
        let (slot, subspace) = match placed {
            PointAssignment::Cluster(ci) => (ci, Some(&model.clusters[ci].subspace)),
            PointAssignment::Outlier => (model.clusters.len(), None),
        };
        let mut coords = stored_form(subspace, vector)?;
        let book = match self {
            BuiltIndex::IDistance(index) => index.partitions[slot].codebook.as_ref(),
            BuiltIndex::SeqScan(_) | BuiltIndex::Gldr(_) => None,
        };
        let code = book.map(|book| book.encode(&coords));
        stored_values(&mut coords)?;
        let row = DeltaRow { id, code, coords };
        log()?;
        self.delta().insert(slot as u32, row)?;
        Ok(placed)
    }

    /// Removes the row with `id`. Returns whether visible state changed
    /// (false when the id was already deleted). Unknown ids tombstone
    /// harmlessly — the engine validates id ranges.
    pub fn delete(&self, id: u64) -> mmdr_index::Result<bool> {
        self.delta().delete(id)
    }

    /// Freezes the delta against further mutation (the retired-epoch half
    /// of an atomic swap) and reports its final size.
    pub fn seal(&self) -> DeltaStats {
        self.delta().seal()
    }

    /// Current delta size — the merge-pressure signal.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta().stats()
    }

    /// The backend's delta: every backend layers one on top of its
    /// immutable base structures.
    pub(crate) fn delta(&self) -> &DeltaLayer {
        match self {
            BuiltIndex::SeqScan(i) => &i.delta,
            BuiltIndex::IDistance(i) => &i.delta,
            BuiltIndex::Gldr(i) => &i.delta,
        }
    }
}

/// One partition's rows as a backend stores them, in layout order.
pub(crate) type Rows = Vec<(u64, Vec<f64>)>;

/// What a backend's loader pulls partitions from: called once per
/// partition in [`partition_ids`] order.
pub(crate) type PartitionRows<'s> = dyn FnMut(Option<usize>) -> Result<Rows> + 's;

/// How a door resolves one id the model lists.
#[derive(Debug)]
pub enum Row<'a> {
    /// The exact full-dimensional vector; the loader converts it to the
    /// backend's stored form.
    Exact(&'a [f64]),
    /// Coordinates already in the backend's stored form (read back by
    /// [`stored_rows`]), laid out verbatim.
    Stored(Vec<f64>),
}

/// A partition's codebook in a fold's base, and the code the base gave
/// each of the partition's rows as `(id, code)`, ids ascending.
pub(crate) type BaseCodes = (Option<Codebook>, Vec<(u64, u64)>);

/// What pins iDistance's key space `y = i·c + dist(P, Oᵢ)` and its cells
/// beyond the rows themselves. Answers never depend on these values — only
/// keys, annulus bounds and codes do, and those stay consistent as long as
/// every outlier distance is measured against the one reference and every
/// code's cell holds its row's stored value.
#[derive(Debug)]
pub struct KeySpace {
    /// Reference point of the outlier partition.
    pub reference: Vec<f64>,
    /// Lower bound for `c`, which is otherwise `2 · max_radius + 1` (0 for
    /// none): a fold passes the base's `c` so the constant only ever
    /// widens.
    pub c_floor: f64,
    /// Per partition slot, the base's codes ([`BaseCodes`]); empty for a
    /// fresh fit. A fold's row carries only its stored value, which may
    /// sit on a cell edge its unrounded projection was above; where a
    /// partition's codebook comes out as the base's, its rows keep the
    /// base's codes, so folding nothing reproduces the base.
    pub(crate) codes: Vec<BaseCodes>,
}

impl KeySpace {
    /// The key space of a fresh fit (build and attach doors): the
    /// reference is the mean of the live outlier rows, or of all live rows
    /// in id order when no outlier is live, and `c` has no floor.
    pub fn fitted<'a>(
        model: &ReductionResult,
        row_of: impl Fn(u64) -> Option<&'a [f64]>,
    ) -> Result<Self> {
        let mut outliers = model
            .outliers
            .iter()
            .filter_map(|&pid| row_of(pid as u64))
            .peekable();
        let reference = if outliers.peek().is_some() {
            mmdr_linalg::mean_rows(outliers)?
        } else {
            mmdr_linalg::mean_rows((0..model.num_points as u64).filter_map(&row_of))?
        };
        Ok(Self {
            reference,
            c_floor: 0.0,
            codes: Vec::new(),
        })
    }

    /// The key space a fold over `base` keeps: the base's outlier
    /// reference, its `c` as the floor, and its codes.
    pub fn folded(base: &IDistanceIndex) -> Result<Self> {
        let outliers = base
            .partitions()
            .last()
            .ok_or(Error::InvalidConfig("partition table must not be empty"))?;
        Ok(Self {
            reference: outliers.centroid.clone(),
            c_floor: base.c(),
            codes: base.codes_by_id()?,
        })
    }
}

/// The coordinates every backend stores for the exact vector `row` of a
/// partition, before [`stored_values`] rounds them: local coordinates in
/// the cluster's subspace, or the raw vector for the outliers (`subspace`
/// is `None`).
fn stored_form(subspace: Option<&ReducedSubspace>, row: &[f64]) -> Result<Vec<f64>> {
    Ok(match subspace {
        Some(subspace) => subspace.project(row)?,
        None => row.to_vec(),
    })
}

/// Rounds `coords` in place to the values every backend stores: each
/// coordinate the nearest `f32`, widened back to `f64` — the one place the
/// stored form is rounded. A finite coordinate past `f32::MAX`, which
/// would be stored as an infinity, is refused
/// ([`Error::CoordinateOverflow`]). Stored values come back unchanged.
pub fn stored_values(coords: &mut [f64]) -> Result<()> {
    for x in coords {
        let stored = f64::from(*x as f32);
        if stored.is_infinite() && x.is_finite() {
            return Err(Error::CoordinateOverflow(*x));
        }
        *x = stored;
    }
    Ok(())
}

/// The restored representation `restore(project(v))` of stored
/// coordinates — the exact vector every backend answers queries against,
/// bitwise identical across backends.
fn restored_form(subspace: Option<&ReducedSubspace>, stored: Vec<f64>) -> Result<Vec<f64>> {
    Ok(match subspace {
        Some(subspace) => subspace.restore(&stored)?,
        None => stored,
    })
}

/// The model's partitions in layout order: `Some(ci)` per cluster, then
/// `None` for the outliers.
pub(crate) fn partition_ids(model: &ReductionResult) -> impl Iterator<Item = Option<usize>> {
    (0..model.clusters.len()).map(Some).chain([None])
}

/// A partition's subspace (`None` for the outliers) and member ids.
fn partition(model: &ReductionResult, part: Option<usize>) -> (Option<&ReducedSubspace>, &[usize]) {
    match part {
        Some(ci) => (
            Some(&model.clusters[ci].subspace),
            &model.clusters[ci].members,
        ),
        None => (None, &model.outliers),
    }
}

/// Member-driven resolution, shared by every door: a partition's rows are
/// its member ids in member order, each resolved by the door and converted
/// to the stored form — not yet rounded: a loader codes the unrounded
/// projection and stores [`stored_values`] of it — and unresolved ids are
/// dropped. Stored coordinates of another width than the partition's are
/// refused.
pub(crate) fn member_rows<'a>(
    model: &'a ReductionResult,
    mut resolve: impl FnMut(u64) -> Option<Row<'a>> + 'a,
) -> impl FnMut(Option<usize>) -> Result<Rows> + 'a {
    move |part| {
        let (subspace, members) = partition(model, part);
        let width = subspace.map_or(model.dim, ReducedSubspace::reduced_dim);
        let mut rows = Vec::with_capacity(members.len());
        for &pid in members {
            let coords = match resolve(pid as u64) {
                Some(Row::Exact(row)) => stored_form(subspace, row)?,
                Some(Row::Stored(coords)) if coords.len() == width => coords,
                Some(Row::Stored(_)) => {
                    return Err(Error::InvalidConfig(
                        "a stored row's width is not its partition's",
                    ))
                }
                None => continue,
            };
            rows.push((pid as u64, coords));
        }
        Ok(rows)
    }
}

/// The build door's precondition: `data` has the model's dimensionality.
fn check_dim(data: &Matrix, model: &ReductionResult) -> Result<()> {
    if data.cols() != model.dim {
        return Err(Error::DimensionMismatch {
            expected: model.dim,
            actual: data.cols(),
        });
    }
    Ok(())
}

/// The build door's resolution: every id the model lists is a row of
/// `data`.
pub(crate) fn data_rows<'a>(
    data: &'a Matrix,
    model: &'a ReductionResult,
) -> Result<impl FnMut(Option<usize>) -> Result<Rows> + 'a> {
    check_dim(data, model)?;
    Ok(member_rows(model, move |id| {
        Some(Row::Exact(data.row(id as usize)))
    }))
}

/// Loads `backend`'s base structures under `model` behind a
/// `buffer_pages`-page budget — the one place a backend is chosen for
/// loading. `resolve` maps each id the model lists to its row (or `None`
/// to leave it out); `keys` is required for, and only read by, iDistance.
pub fn load<'a>(
    backend: Backend,
    model: &'a ReductionResult,
    buffer_pages: usize,
    keys: Option<KeySpace>,
    resolve: impl FnMut(u64) -> Option<Row<'a>> + 'a,
) -> Result<BuiltIndex> {
    let rows = &mut member_rows(model, resolve);
    Ok(match backend {
        Backend::SeqScan => BuiltIndex::SeqScan(SeqScan::load(model, buffer_pages, rows)?),
        Backend::IDistance => {
            let keys = keys.ok_or(Error::InvalidConfig("iDistance needs a key space"))?;
            BuiltIndex::IDistance(Box::new(IDistanceIndex::load(
                model,
                buffer_pages,
                keys,
                rows,
            )?))
        }
        Backend::Gldr => BuiltIndex::Gldr(GlobalLdrIndex::load(model, buffer_pages, rows)?),
    })
}

/// The build and attach doors: [`load`] over exact rows looked up by id
/// (`row_of`), with a [fitted](KeySpace::fitted) key space for iDistance.
pub fn load_exact<'a>(
    backend: Backend,
    model: &'a ReductionResult,
    buffer_pages: usize,
    row_of: impl Fn(u64) -> Option<&'a [f64]> + 'a,
) -> Result<BuiltIndex> {
    let keys = match backend {
        Backend::IDistance => Some(KeySpace::fitted(model, &row_of)?),
        _ => None,
    };
    load(backend, model, buffer_pages, keys, move |id| {
        row_of(id).map(Row::Exact)
    })
}

/// Builds the chosen backend over `data` as reduced by `model`, behind a
/// `buffer_pages`-page budget, as a [`BuiltIndex`]. All three share the
/// reduced-representation distance, so their answers agree (up to
/// floating-point rounding between axis systems) and their
/// [`mmdr_index::QueryStats`] are comparable.
pub fn build_index(
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    buffer_pages: usize,
) -> Result<BuiltIndex> {
    check_dim(data, model)?;
    load_exact(backend, model, buffer_pages, |id| {
        Some(data.row(id as usize))
    })
}

/// Reads every live base row of `index` back in the form its loader laid
/// it out, keyed by id. Delta rows are not included — doors overlay
/// pending operations themselves, which carry exact vectors.
pub fn stored_rows(index: &BuiltIndex) -> Result<HashMap<u64, Vec<f64>>> {
    let mut rows = HashMap::with_capacity(index.as_dyn().len());
    match index {
        BuiltIndex::SeqScan(s) => s.heap().scan(|_, id, coords| {
            rows.insert(id, coords.to_vec());
        })?,
        BuiltIndex::IDistance(i) => i.heap().scan(|_, id, coords| {
            rows.insert(id, coords.to_vec());
        })?,
        BuiltIndex::Gldr(g) => {
            for ci in 0..g.num_cluster_trees() {
                rows.extend(g.cluster_tree(ci).0.export_rows()?);
            }
            if let Some(t) = g.outlier_tree() {
                rows.extend(t.export_rows()?);
            }
        }
    }
    Ok(rows)
}

/// [`stored_rows`] in the restored representation `restore(project(v))`,
/// partitioned by `model` (the one `index` was loaded under). Base rows
/// are stored reduced, so the original coordinates are unrecoverable; the
/// restored representation is what a re-fit fits over.
pub fn restored_rows(
    index: &BuiltIndex,
    model: &ReductionResult,
) -> Result<BTreeMap<u64, Vec<f64>>> {
    let mut stored = stored_rows(index)?;
    let mut rows = BTreeMap::new();
    for part in partition_ids(model) {
        let (subspace, members) = partition(model, part);
        for &pid in members {
            if let Some(coords) = stored.remove(&(pid as u64)) {
                rows.insert(pid as u64, restored_form(subspace, coords)?);
            }
        }
    }
    Ok(rows)
}
