//! Scatter-gather routing over cluster-sharded `mmdr serve` workers.
//!
//! [`Router`] is a [`VectorIndex`] whose "storage" is N remote shard
//! servers, each an ordinary `mmdr serve` process over one subset snapshot
//! produced by `mmdr shard-split` (see [`mmdr_persist::manifest`]). Because
//! it *is* a `VectorIndex`, the existing [`mmdr_serve::Server`] fronts it
//! unchanged — the router speaks the same length-prefixed wire protocol to
//! its clients that it speaks to its shards.
//!
//! # Query protocol
//!
//! For every query the router computes, per shard, a lower bound on any
//! distance the shard could contribute: the minimum over the shard's
//! manifest balls of `max(0, ‖q − center‖ − radius)` — the
//! triangle-inequality bound iDistance applies per cluster intra-process,
//! lifted to the network. Shards are visited **sequentially in
//! ascending-bound order**; before each hop, a shard whose
//! (epsilon-deflated) bound strictly exceeds the search radius — the
//! current k-th distance for a KNN, which tightens as partial heaps
//! return, so trailing shards are usually never contacted; the given
//! radius for a range search — is pruned. Partials are merged through the
//! same tie-deterministic [`KnnHeap`] every backend uses, with local ids
//! remapped to global row ids via the manifest. One loop (`scatter`, behind
//! [`VectorIndex::search`] and [`RouterLive::filtered`]) does this for KNN
//! and range, plain and filtered.
//!
//! # Bit-identity
//!
//! Every backend reports, for a given point, a distance that is a pure
//! function of (query, that point's cluster subspace, point coordinates).
//! `shard-split` moves whole clusters with their subspaces bitwise intact,
//! so a shard computes for each of its points *exactly* the bits the
//! single-node index computes. Shard row order is ascending in global row
//! id, so local-id tie-breaks agree with global ones, and [`KnnHeap`] is
//! insertion-order independent — the merged top-k is bit-identical to
//! single-node, whatever the scatter order or pruning decisions. Pruning
//! is performance-only: the deflated bound can only *under*-estimate, so a
//! shard that could contribute an answer is never skipped.
//!
//! # Degradation
//!
//! A shard that cannot be reached (after one reconnect attempt) while it
//! is *needed* fails the query with a typed [`RouterError::Degraded`]
//! carried inside [`mmdr_index::Error::Backend`] — never a silently
//! partial answer. Shards that are pruned may be down without affecting
//! queries that do not need them.

#![warn(missing_docs)]

use mmdr_index::{
    Error, KnnHeap, LiveIndex, PinnedEpoch, Query, Result, Scratch, ShardStats, Target, VectorIndex,
};
use mmdr_persist::{Manifest, ShardEntry};
use mmdr_serve::{Client, ServeError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Relative epsilon by which a lower bound is deflated before it is
/// allowed to prune: the manifest's ball geometry and the backend's
/// distance kernels round differently, and a prune decided by the last ulp
/// would trade a correct answer for one skipped hop.
const PRUNE_REL_EPS: f64 = 1e-9;
/// Absolute slack paired with [`PRUNE_REL_EPS`] (covers bounds near zero).
const PRUNE_ABS_EPS: f64 = 1e-12;

/// Deflates a lower bound so floating-point rounding can never flip a
/// keep into a prune.
fn deflate(lb: f64) -> f64 {
    lb * (1.0 - PRUNE_REL_EPS) - PRUNE_ABS_EPS
}

/// The default socket deadline per shard hop (connect, send, receive), for
/// [`Router::connect`]. Shard hops run on a LAN and gate client latency, so
/// this is much tighter than the 30 s client default.
pub const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(5);

/// Typed router failures. Query-time variants travel to callers inside
/// [`mmdr_index::Error::Backend`] (downcast to inspect) and over the wire
/// as `ERROR` responses carrying their display text.
#[derive(Debug)]
pub enum RouterError {
    /// The manifest and the shard address list do not line up.
    Config(String),
    /// A shard answered its connect-time sanity check with an identity
    /// that contradicts the manifest — the cluster is not homogeneous.
    Homogeneity {
        /// Shard number (manifest order).
        shard: usize,
        /// What disagreed.
        detail: String,
    },
    /// A needed shard could not be reached or failed mid-query; the query
    /// cannot be answered exactly, so it fails instead of degrading
    /// silently.
    Degraded {
        /// Shard number (manifest order).
        shard: usize,
        /// The underlying failure.
        detail: String,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Config(what) => write!(f, "router misconfigured: {what}"),
            RouterError::Homogeneity { shard, detail } => {
                write!(f, "shard {shard} fails the homogeneity check: {detail}")
            }
            RouterError::Degraded { shard, detail } => {
                write!(f, "degraded: shard {shard} unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

fn degraded(shard: usize, detail: impl Into<String>) -> Error {
    Error::Backend(Box::new(RouterError::Degraded {
        shard,
        detail: detail.into(),
    }))
}

/// One shard's connection pool plus its cumulative attribution counters.
struct Shard {
    addr: String,
    pool: Mutex<Vec<Client>>,
    contacts: AtomicU64,
    partials: AtomicU64,
}

/// The scatter-gather front: a [`VectorIndex`] over N remote shards.
pub struct Router {
    manifest: Manifest,
    shards: Vec<Shard>,
    shard_timeout: Duration,
    queries: AtomicU64,
    contacted: AtomicU64,
    pruned: AtomicU64,
    degraded_ops: AtomicU64,
}

impl Router {
    /// Connects to every shard and sanity-checks cluster homogeneity: each
    /// worker must serve the manifest's backend at the manifest's
    /// dimensionality with exactly its shard's row count (the `Stats` op
    /// reports all three). `addrs` are in manifest shard order; every shard
    /// hop gives up after `shard_timeout`.
    pub fn connect(
        manifest: Manifest,
        addrs: &[String],
        shard_timeout: Duration,
    ) -> std::result::Result<Router, RouterError> {
        if addrs.len() != manifest.shards.len() {
            return Err(RouterError::Config(format!(
                "manifest has {} shards, {} addresses given",
                manifest.shards.len(),
                addrs.len()
            )));
        }
        let router = Router {
            shards: addrs
                .iter()
                .map(|a| Shard {
                    addr: a.clone(),
                    pool: Mutex::new(Vec::new()),
                    contacts: AtomicU64::new(0),
                    partials: AtomicU64::new(0),
                })
                .collect(),
            manifest,
            shard_timeout,
            queries: AtomicU64::new(0),
            contacted: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            degraded_ops: AtomicU64::new(0),
        };
        for (i, entry) in router.manifest.shards.iter().enumerate() {
            let stats =
                router
                    .shard_op(i, |c| c.stats())
                    .map_err(|e| RouterError::Homogeneity {
                        shard: i,
                        detail: e.to_string(),
                    })?;
            if stats.backend != router.manifest.backend {
                return Err(RouterError::Homogeneity {
                    shard: i,
                    detail: format!(
                        "serves backend '{}', manifest expects '{}'",
                        stats.backend, router.manifest.backend
                    ),
                });
            }
            if stats.dim as usize != router.manifest.dim {
                return Err(RouterError::Homogeneity {
                    shard: i,
                    detail: format!(
                        "serves dimensionality {}, manifest expects {}",
                        stats.dim, router.manifest.dim
                    ),
                });
            }
            if stats.len != entry.rows.len() as u64 {
                return Err(RouterError::Homogeneity {
                    shard: i,
                    detail: format!(
                        "serves {} rows, manifest assigns it {}",
                        stats.len,
                        entry.rows.len()
                    ),
                });
            }
        }
        // Connect-time probes are plumbing, not query traffic.
        for s in &router.shards {
            s.contacts.store(0, Ordering::Relaxed);
        }
        Ok(router)
    }

    /// The manifest this router serves from.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Lower bound on any distance shard `entry` can contribute to `query`.
    fn shard_lower_bound(entry: &ShardEntry, query: &[f64]) -> f64 {
        entry
            .balls
            .iter()
            .map(|b| b.lower_bound(query))
            .fold(f64::INFINITY, f64::min)
    }

    /// Shards in ascending `(lower bound, shard index)` order.
    fn scatter_order(&self, query: &[f64]) -> Vec<(f64, usize)> {
        let mut order: Vec<(f64, usize)> = self
            .manifest
            .shards
            .iter()
            .enumerate()
            .map(|(i, e)| (Self::shard_lower_bound(e, query), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    }

    /// Remaps a shard-local id to its global row id via the manifest.
    fn global_id(&self, shard: usize, local: u64) -> Result<u64> {
        self.manifest.shards[shard]
            .rows
            .get(local as usize)
            .copied()
            .ok_or_else(|| {
                degraded(
                    shard,
                    format!("returned local id {local} beyond its manifest row count"),
                )
            })
    }

    /// Idle connections [`shard_op`](Self::shard_op) keeps pooled per shard;
    /// concurrent workers beyond this open extra connections that are
    /// dropped when they finish.
    const POOL_PER_SHARD: usize = 4;

    /// Runs one op against shard `i`, reusing a pooled connection when one
    /// exists and retrying once on a fresh connection (a pooled socket may
    /// have gone stale between queries). Both attempts failing is the
    /// typed degraded path.
    fn shard_op<R>(
        &self,
        i: usize,
        op: impl Fn(&mut Client) -> std::result::Result<R, ServeError>,
    ) -> Result<R> {
        let shard = &self.shards[i];
        let mut last: Option<ServeError> = None;
        for _attempt in 0..2 {
            let pooled = shard.pool.lock().unwrap_or_else(|p| p.into_inner()).pop();
            let mut client = match pooled {
                Some(c) => c,
                None => {
                    match Client::connect(&shard.addr).and_then(|mut c| {
                        c.set_timeout(Some(self.shard_timeout))?;
                        Ok(c)
                    }) {
                        Ok(c) => c,
                        Err(e) => {
                            last = Some(e);
                            continue;
                        }
                    }
                }
            };
            match op(&mut client) {
                Ok(r) => {
                    shard.contacts.fetch_add(1, Ordering::Relaxed);
                    let mut pool = shard.pool.lock().unwrap_or_else(|p| p.into_inner());
                    if pool.len() < Self::POOL_PER_SHARD {
                        pool.push(client);
                    }
                    return Ok(r);
                }
                Err(e) => {
                    // Drop the broken connection; the next attempt dials fresh.
                    last = Some(e);
                }
            }
        }
        self.degraded_ops.fetch_add(1, Ordering::Relaxed);
        Err(degraded(
            i,
            last.map_or_else(|| "unknown failure".to_string(), |e| e.to_string()),
        ))
    }

    /// Answers `target` around `query` across the shards, restricted to
    /// rows passing `predicate` when one is given.
    ///
    /// A predicate travels to each contacted shard as its canonical text;
    /// each shard compiles it against its *own* attribute store
    /// (shard-split re-indexes the ATTRS section to local ids, so
    /// shard-local bitmaps are self-contained), and filtered partials
    /// merge like plain ones. Ball pruning stays sound: a filter only
    /// shrinks a shard's candidate set, so the unfiltered lower bound
    /// still under-estimates every distance the shard could contribute.
    ///
    /// The query is valid and a KNN's `k` at least 1:
    /// [`VectorIndex::search`] and [`RouterLive::filtered`] see to it.
    fn scatter(
        &self,
        query: &[f64],
        target: Target,
        predicate: Option<&str>,
    ) -> Result<Vec<(f64, u64)>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        // One merge for both targets: a range search is a KNN that keeps
        // everything and whose reach starts where a KNN's ends up.
        let mut heap = KnnHeap::for_target(target);
        for (lb, i) in self.scatter_order(query) {
            // Prune only on *strictly* greater: an equal-distance,
            // smaller-id candidate could still displace the current worst,
            // and a shard whose bound equals the radius may hold a hit.
            if deflate(lb) > heap.reach() {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let partial = self.shard_op(i, |c| c.search(query, target, predicate))?;
            self.contacted.fetch_add(1, Ordering::Relaxed);
            self.shards[i]
                .partials
                .fetch_add(partial.len() as u64, Ordering::Relaxed);
            for (dist, local) in partial {
                heap.push(dist, self.global_id(i, local)?);
            }
        }
        Ok(heap.into_sorted_vec())
    }
}

impl VectorIndex for Router {
    fn name(&self) -> &'static str {
        "router"
    }

    fn len(&self) -> usize {
        self.manifest.num_points
    }

    fn dim(&self) -> usize {
        self.manifest.dim
    }

    /// A row bitmap is keyed by ids one attribute store assigned and does
    /// not travel; filtered queries scatter the predicate's text instead
    /// ([`RouterLive::filtered`]).
    fn answer(&self, q: &Query<'_>, _: &mut Scratch) -> Result<Vec<(f64, u64)>> {
        if q.filter.is_some() {
            return Err(Error::FiltersUnavailable);
        }
        self.scatter(q.vector, q.target, None)
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(ShardStats {
            shards: self.shards.len() as u64,
            queries: self.queries.load(Ordering::Relaxed),
            contacted: self.contacted.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            degraded: self.degraded_ops.load(Ordering::Relaxed),
            per_shard_contacts: self
                .shards
                .iter()
                .map(|s| s.contacts.load(Ordering::Relaxed))
                .collect(),
            per_shard_partials: self
                .shards
                .iter()
                .map(|s| s.partials.load(Ordering::Relaxed))
                .collect(),
        })
    }
}

/// The serving adapter for a router front: a read-only [`LiveIndex`] that
/// scatters filtered queries to the shards instead of rejecting them the
/// way [`mmdr_index::ReadOnlyLive`] would. `mmdr route` fronts shards with
/// this, so `remote-query --filter` works through the router unchanged.
pub struct RouterLive {
    router: Arc<Router>,
}

impl RouterLive {
    /// Wraps a connected router for serving.
    pub fn new(router: Arc<Router>) -> Self {
        Self { router }
    }
}

impl LiveIndex for RouterLive {
    fn pin(&self) -> PinnedEpoch {
        PinnedEpoch {
            epoch: 0,
            index: Arc::clone(&self.router) as Arc<dyn VectorIndex>,
        }
    }

    /// The one way into the router that does not pass
    /// [`VectorIndex::search`], so it checks what `search` would.
    fn filtered(&self, vector: &[f64], target: Target, predicate: &str) -> Result<Vec<(f64, u64)>> {
        Query::new(vector, target).validate(self.router.dim())?;
        if target == Target::Knn(0) {
            return Ok(Vec::new());
        }
        self.router.scatter(vector, target, Some(predicate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_persist::ShardBall;

    fn entry(balls: Vec<ShardBall>, rows: Vec<u64>) -> ShardEntry {
        ShardEntry {
            snapshot: "s".into(),
            clusters: vec![0],
            holds_outliers: false,
            balls,
            rows,
        }
    }

    #[test]
    fn lower_bound_takes_the_tightest_ball() {
        let e = entry(
            vec![
                ShardBall {
                    center: vec![0.0, 0.0],
                    radius: 1.0,
                },
                ShardBall {
                    center: vec![10.0, 0.0],
                    radius: 2.0,
                },
            ],
            vec![0],
        );
        let lb = Router::shard_lower_bound(&e, &[6.0, 0.0]);
        // Nearer via the second ball: 4 − 2 = 2 beats 6 − 1 = 5.
        assert!((lb - 2.0).abs() < 1e-12, "lb = {lb}");
        // Inside a ball the bound clamps to zero.
        assert_eq!(Router::shard_lower_bound(&e, &[0.5, 0.0]), 0.0);
    }

    #[test]
    fn deflate_never_raises_a_bound() {
        for lb in [0.0, 1e-300, 1.0, 1e6] {
            assert!(deflate(lb) < lb);
        }
    }

    #[test]
    fn degraded_error_is_typed_and_downcastable() {
        let err = degraded(3, "connection refused");
        let Error::Backend(inner) = &err else {
            panic!("wrong variant: {err}")
        };
        let router_err = inner
            .downcast_ref::<RouterError>()
            .expect("downcasts to RouterError");
        assert!(matches!(router_err, RouterError::Degraded { shard: 3, .. }));
        assert!(err.to_string().contains("degraded: shard 3"));
    }
}
