//! The one search loop of the extended iDistance index (paper §5). The
//! paper's KNN query "examines increasingly larger sphere in each
//! iteration"; here the sphere's radius is the result set's reach, read off
//! it at every step — or a provisional one while that is narrower — and the
//! search reads the index outward from the query in ring order, one leaf at
//! a time. A range query is the same loop with its reach fixed at its
//! radius. A delta row is queued and refined as a leaf entry is.

use crate::codes::Codebook;
use crate::error::{Error, Result};
use crate::index::{IDistanceIndex, RecordIds};
use mmdr_btree::Cursor;
use mmdr_index::{DeltaRows, KnnHeap, Scratch, SearchFilter, Target};
use mmdr_pca::ReducedSubspace;
use mmdr_storage::PageSet;
use std::collections::{BinaryHeap, HashSet};
use std::ops::Range;

/// The query as one partition sees it: its local coordinates in the
/// partition's axis system, appended to `locals`, and its squared distance
/// to the affine subspace, returned — the query itself and 0 for the
/// outlier partition, which has no subspace. One pass over the basis
/// ([`ReducedSubspace::project_into`]). [`mmdr_linalg::reduced_dist`] over
/// this pair and a stored row is the distance every scheme reports.
pub(crate) fn query_geometry(
    subspace: Option<&ReducedSubspace>,
    query: &[f64],
    locals: &mut Vec<f64>,
) -> Result<f64> {
    Ok(match subspace {
        Some(subspace) => {
            let proj_dist = subspace.project_into(query, locals)?;
            proj_dist * proj_dist
        }
        None => {
            locals.extend_from_slice(query);
            0.0
        }
    })
}

/// A queue entry `DELTA | slot << 32 | row` names the `row`-th (`< 2³²`)
/// delta row of its slot ([`DeltaRows::slot`]); tree positions stay below.
const DELTA: u64 = 1 << 63;

/// Per-partition search state: the partition's lower bound until it is
/// opened, then two walks from the query's image — outward (ascending keys,
/// away from the reference point) and inward (descending keys).
struct PartitionSearch<'a> {
    /// Partition index.
    part: usize,
    /// `dist(qᵢ, Oᵢ)` within the subspace (or full-dim for outliers).
    dist_q: f64,
    /// The partition's tree positions: a walk leaves it where they end.
    run: Range<u64>,
    /// The partition's [`query_geometry`].
    q_local: &'a [f64],
    proj_sq: f64,
    /// Until the partition is opened, the least ring radicand any member
    /// can have: `proj_sq` plus the squared radial gap to the populated
    /// annulus (the triangle inequality `‖Q−P‖ ≥ ‖Qⱼ−Oⱼ‖ − Rⱼ`, extended
    /// with the projection component).
    lower_bound: Option<f64>,
    /// Outward, then inward: a cursor and the ring radicand of the last
    /// leaf it read (the lower bound before its first) — the least any
    /// entry it has still to read can have, since rings only grow along a
    /// cursor. `None` once the walk has left the partition, or the reach
    /// has excluded a ring it read.
    walks: [Option<(Cursor, f64)>; 2],
    /// `proj_sq` until its delta rows, if any, are queued ([`Candidates::expand`]).
    delta: Option<f64>,
    /// The partition's codebook, if it was loaded with rows, and where in
    /// the query's `gaps` and `far` its two tables sit, if it has them
    /// ([`Codebook::gaps_into`]), from the first step on the partition.
    book: Option<&'a Codebook>,
    gaps: Range<usize>,
    far: Option<Range<usize>>,
}

/// A reach as the two per-entry bounds test it: both ask whether
/// `radicand.sqrt() > reach`, and the root is monotone, so that is whether
/// the radicand exceeds the largest one whose root is still within reach —
/// the same decision to the bit, with a root taken when the reach moves (at
/// most once a row refined or a leaf walked) and not per leaf entry.
#[derive(Default)]
struct Reach {
    reach: f64,
    /// The largest `u` with `u.sqrt() <= reach`; −∞ when nothing is.
    radicand: f64,
}

impl Reach {
    /// The largest radicand within `reach`: a radicand `x` has `x.sqrt() >
    /// reach` exactly when it exceeds this. `∞` while the reach is.
    #[inline]
    fn limit(&mut self, reach: f64) -> f64 {
        if reach != self.reach {
            self.reach = reach;
            self.radicand = Self::largest_radicand(reach);
        }
        self.radicand
    }

    #[cold]
    fn largest_radicand(reach: f64) -> f64 {
        if reach < 0.0 {
            return f64::NEG_INFINITY;
        }
        // The square is within a few steps of it: walk them.
        let mut u = reach * reach;
        while u.sqrt() > reach {
            u = u.next_down();
        }
        while u < f64::INFINITY && u.next_up().sqrt() <= reach {
            u = u.next_up();
        }
        u
    }
}

/// The per-candidate routine, from "the leaf admits this entry" to "the
/// result set has seen it", in two halves. The walk tests each entry
/// against the reach and queues what passes at its lower bound
/// ([`walk`](Self::walk), [`queue`](Self::queue)); [`refine`](Self::refine)
/// then takes the queue nearest bound first, as far as no unread entry can
/// come before — the optimal multi-step order, from the first row — so the
/// reach narrows as early as it can and stops the refinement at the first
/// entry it excludes; a provisional reach ([`top`](Self::top)) keeps the
/// queue short until then. A refined entry's position is resolved to its
/// record, whose id the heap's id column gives without a page
/// ([`crate::VectorHeap::point_id`]); a tombstoned row ends there, and only
/// a row that passed has its page pinned — once a query, in `pages`,
/// whatever order the pages come in — its coordinates decoded and its
/// distance evaluated.
///
/// A delta row takes the same path from its queueing on, in memory: once the
/// frontier reaches its partition's `proj_sq` ([`expand`](Self::expand)).
///
/// Under a filter most rows fail, so a filtered walk puts each entry's id
/// to the filter before anything else ([`admit`](Self::admit)) and queues
/// only a row that passes: a failing row costs no page, no code bound and
/// no place in the queue.
///
/// Dropped, it leaves the queue and the page set empty — on an error too.
struct Candidates<'a> {
    index: &'a IDistanceIndex,
    /// Position → rid, through the table of the partition the last one
    /// fell in.
    ids: RecordIds<'a>,
    /// What the walk admitted and [`refine`](Self::refine) has not taken,
    /// and the least of it (`u128::MAX` when it is empty).
    queue: &'a mut Vec<u128>,
    least: u128,
    /// The heap pages this query has pinned.
    pages: &'a mut PageSet,
    /// Per partition, where its query coordinates sit in `locals` and the
    /// query's squared distance to its subspace ([`query_geometry`]).
    geo: &'a [Option<(Range<usize>, f64)>],
    locals: &'a [f64],
    /// Where a row that passed is decoded.
    coords: &'a mut Vec<f64>,
    /// The least `slots` upper radicands (as bits) of the entries queued
    /// that count ([`admit`](Self::admit)).
    uppers: &'a mut BinaryHeap<u64>,
    slots: usize,
    tombs: &'a HashSet<u64>,
    filter: Option<&'a SearchFilter>,
    /// The delta's rows, read-locked for the search.
    delta: &'a DeltaRows,
    /// Distances evaluated, each one a row offered to the result set.
    evaluated: u64,
}

impl Drop for Candidates<'_> {
    fn drop(&mut self) {
        self.queue.clear();
        self.pages.clear();
        self.uppers.clear();
    }
}

impl Candidates<'_> {
    /// Whether the walk may queue the entry at `position`: without a
    /// filter, always; under one, if its row passes the filter and is not
    /// tombstoned — decided exactly, off the id column, so every entry
    /// admitted counts towards the provisional reach. No pool and no
    /// division (two table reads, [`RecordIds`] and the column): the one
    /// test cheaper than the cell code, so the walk asks it first — a 1 %
    /// filter's reach stays wide, its codes rule out little, and paying
    /// for one on every entry ran `filtered_knn` 9 % slower. Always
    /// inlined: as a call per entry it cost `filtered_knn` 7 % and
    /// unfiltered queries 2 %.
    #[inline(always)]
    fn admit(&mut self, position: u64) -> bool {
        let Some(filter) = self.filter else {
            return true;
        };
        let rid = self.ids.get(self.index, position);
        let id = self.index.heap.point_id(rid);
        // A rid the column does not hold is queued, and refused typed.
        id.is_none_or(|id| filter.passes(id) && !self.tombs.contains(&id))
    }

    /// The provisional reach's radicand: the `slots`-th least upper bound
    /// gathered (`∞` while fewer). At least k of those rows are offered, so
    /// a lower bound whose root is strictly beyond its root is never refined.
    #[inline]
    fn top(&self) -> f64 {
        match self.uppers.peek() {
            Some(&top) if self.uppers.len() == self.slots => f64::from_bits(top),
            _ => f64::INFINITY,
        }
    }

    /// Gathers the far-face radicand of an entry that counts below `top`.
    #[inline]
    fn gather(&mut self, upper: f64, top: &mut f64) {
        if upper < *top {
            if self.uppers.len() < self.slots {
                self.uppers.push(upper.to_bits());
            } else if let Some(mut worst) = self.uppers.peek_mut() {
                *worst = upper.to_bits();
            }
            *top = self.top();
        }
    }

    /// Queues the entry at `position` at `bound`, the larger of its ring
    /// and code radicands: `bound`'s bits over `position`'s, one integer
    /// that orders by bound, then position (a radicand is `≥ 0`, and the
    /// bits of those order as the values do).
    #[inline]
    fn queue(&mut self, bound: f64, position: u64) {
        debug_assert!(bound.is_sign_positive());
        let entry = (u128::from(bound.to_bits()) << 64) | u128::from(position);
        self.queue.push(entry);
        self.least = self.least.min(entry);
    }

    /// Refines the queue nearest bound first, ties by position, each entry
    /// against the reach as it stands, as far as the frontier `front` (the
    /// least radicand an unread entry can have), from the first row on.
    /// What lies beyond the front stays queued: an unread row may come
    /// before it. The first entry the reach excludes ends it, and every
    /// entry behind it: their bounds are no nearer, and the reach only
    /// narrows. So the rows evaluated are those whose two bounds lie within
    /// the final reach, and the answer is the one any order gives — the
    /// result set breaks ties by id, and exclusion is strict.
    ///
    /// Most steps find nothing within the front (the ring bound trails the
    /// code bound an entry is queued at): one compare with the least entry.
    /// Otherwise one pass moves what may be refined now to the head of the
    /// queue and drops what the reach excludes, and the head's order is
    /// found a batch at a time — the nearest 64 selected and sorted, then
    /// the next 128, and so on. A binary heap pushed per entry ran
    /// `knn_resident` 17 % slower, and `(u64, u64)` pairs 1 %.
    fn refine(&mut self, front: f64, reach: &mut Reach, best: &mut KnnHeap) -> Result<()> {
        if (self.least >> 64) as u64 > front.to_bits() {
            return Ok(());
        }
        let limit = reach.limit(best.reach());
        let mut queue = std::mem::take(&mut *self.queue);
        let (mut kept, mut within) = (0, 0);
        for i in 0..queue.len() {
            let entry = queue[i];
            let bound = f64::from_bits((entry >> 64) as u64);
            if bound <= limit {
                queue[kept] = entry;
                if bound <= front {
                    queue.swap(within, kept);
                    within += 1;
                }
                kept += 1;
            }
        }
        queue.truncate(kept);
        let (len, mut taken) = (queue.len(), 0);
        let (mut rest, mut batch) = (&mut queue[..within], 64);
        'refine: while !rest.is_empty() {
            if batch < rest.len() {
                rest.select_nth_unstable(batch);
            }
            let (nearest, further) = rest.split_at_mut(batch.min(rest.len()));
            nearest.sort_unstable();
            for &mut entry in nearest {
                let (bound, position) = (f64::from_bits((entry >> 64) as u64), entry as u64);
                if bound > reach.limit(best.reach()) {
                    taken = len;
                    break 'refine;
                }
                match position & DELTA {
                    0 => self.offer(position, best)?,
                    _ => self.offer_delta(position, best),
                }
                taken += 1;
            }
            (rest, batch) = (further, 2 * batch);
        }
        queue.drain(..taken);
        self.least = queue.iter().copied().min().unwrap_or(u128::MAX);
        *self.queue = queue;
        Ok(())
    }

    /// Walks an opened partition's cursor `W` (0 outward, 1 inward) over
    /// one leaf — the next one, as a seek or the last walk left the cursor
    /// at a leaf boundary — testing each entry against `limit`, the reach or
    /// the narrower provisional one as the leaf began ([`Reach::limit`]),
    /// and queueing what passes; only an entry queued below the
    /// [`top`](Self::top) has its upper bound read off the far-face table.
    /// The cursor is retired for good where it leaves the partition, or at
    /// a leaf whose ring the limit excludes: the rings behind it are no
    /// nearer. It leaves by position, as a leaf's key range may reach past
    /// the partition's: outward, the partition before's entries in the leaf
    /// it starts on are stepped over.
    #[inline]
    fn walk<const W: usize>(
        &mut self,
        s: &mut PartitionSearch,
        (gaps, far_gaps): (&[f64], &[f64]),
        limit: f64,
    ) -> Result<()> {
        let (tree, run) = (&self.index.tree, s.run.clone());
        // The image and the partition's populated annulus in key space, by
        // the expression the keys were built with: every key of the
        // partition lies in the annulus exactly.
        let (slot, part) = (s.part as f64 * self.index.c, &self.index.partitions[s.part]);
        let (image, proj_sq) = (slot + s.dist_q, s.proj_sq);
        let (inner, outer) = (slot + part.min_radius, slot + part.max_radius);
        let cells = s.book.map(|book| (book, &gaps[s.gaps.clone()]));
        let far = s.book.zip(s.far.clone()).filter(|_| self.slots > 0);
        let far = far.map(|(book, at)| (book, &far_gaps[at]));
        let mut top = self.top();
        let Some((cur, front)) = &mut s.walks[W] else {
            unreachable!("the frontier names a walk that is still live")
        };
        let mut leaf_ring = None;
        let retired = loop {
            let step = match W {
                0 => tree.cursor_next(cur),
                _ => tree.cursor_prev(cur),
            }?;
            let Some((lo, position)) =
                step.filter(|&(_, p)| p < run.end && (W == 0 || p >= run.start))
            else {
                break true;
            };
            // Key-gap lower bound, once a leaf: |‖p‖ − ‖q‖| ≤ ‖p − q‖ with
            // the key in the leaf's range `[lo, hi]` and in the partition's
            // annulus — clamped to it, or a leaf straddling two partitions
            // would bound each one's keys by the other's. If the reach
            // excludes it, no entry of the leaf can enter — nor any the
            // cursor has still to read. Strictly greater only: skipping
            // ties would make the answer depend on the heap's trajectory.
            let ring = *leaf_ring.get_or_insert_with(|| {
                let gap = (lo.max(inner) - image)
                    .max(image - cur.key_hi().min(outer))
                    .max(0.0);
                proj_sq + gap * gap
            });
            if ring > limit {
                break true;
            }
            if position >= run.start {
                // Then the entry's cell code against the gap table: `≤` the
                // row's distance to the bit (see [`crate::codes`]), so what
                // it puts strictly beyond the limit no order refines, and
                // no heap page, decode or distance is spent on it. What
                // both admit is queued at the larger bound.
                if self.admit(position) {
                    match cells.map(|(book, gaps)| proj_sq + book.gap_sq(gaps, cur.code())) {
                        Some(code) if code > limit => {}
                        code => {
                            let bound = code.map_or(ring, |code| ring.max(code));
                            self.queue(bound, position);
                            if let Some((book, far)) = far.filter(|_| bound < top) {
                                self.gather(proj_sq + book.gap_sq(far, cur.code()), &mut top);
                            }
                        }
                    }
                }
            }
            if [cur.at_leaf_end(), cur.at_leaf_start()][W] {
                break false;
            }
        };
        if retired {
            s.walks[W] = None;
        } else if let Some(ring) = leaf_ring {
            *front = ring;
        }
        Ok(())
    }

    /// Queues each delta row of `s`'s partition that passes the filter and
    /// `limit` at its code bound (`proj_sq` alone in a partition loaded
    /// empty, with no codebook), gathering upper bounds as the walk does.
    fn expand(&mut self, s: &PartitionSearch, (gaps, far_gaps): (&[f64], &[f64]), limit: f64) {
        let cells = s.book.map(|book| (book, &gaps[s.gaps.clone()]));
        let far = s.book.zip(s.far.clone()).filter(|_| self.slots > 0);
        let far = far.map(|(book, at)| (book, &far_gaps[at]));
        let (mut top, filter) = (self.top(), self.filter);
        let rows = self.delta.slot(s.part).iter().enumerate();
        for (row, delta) in rows.filter(|(_, row)| filter.is_none_or(|f| f.passes(row.id))) {
            let gap = |(book, table): (&Codebook, &[f64])| Some(book.gap_sq(table, delta.code?));
            let bound = s.proj_sq + cells.and_then(gap).unwrap_or(0.0);
            if bound <= limit {
                self.queue(bound, DELTA | (s.part as u64) << 32 | row as u64);
                if let Some(upper) = far.filter(|_| bound < top).and_then(gap) {
                    self.gather(s.proj_sq + upper, &mut top);
                }
            }
        }
    }

    /// Offers the delta row `entry` names (it passed the filter, queued).
    fn offer_delta(&mut self, entry: u64, best: &mut KnnHeap) {
        let (part, row) = (((entry ^ DELTA) >> 32) as usize, entry as u32 as usize);
        let delta = &self.delta.slot(part)[row];
        let (local, proj_sq) = self.geo[part].as_ref().expect("a geometry");
        self.evaluated += 1;
        let dist = mmdr_linalg::reduced_dist(*proj_sq, &self.locals[local.clone()], &delta.coords);
        best.push(dist, delta.id);
    }

    /// Offers the record at `position` to the result set unless its id is
    /// tombstoned, which the id column says before the record's page is
    /// pinned (under a filter the walk's [`admit`](Self::admit) has put the
    /// id to both tests already).
    fn offer(&mut self, position: u64, best: &mut KnnHeap) -> Result<()> {
        let rid = self.ids.get(self.index, position);
        let id = self
            .index
            .heap
            .point_id(rid)
            .ok_or(Error::BadRecordId(rid))?;
        if self.tombs.contains(&id) {
            return Ok(());
        }
        let (part, record) = self.index.heap.record(self.pages, rid)?;
        // A record's partition was walked, so it has a geometry.
        let (local, proj_sq) = self
            .geo
            .get(part as usize)
            .and_then(Option::as_ref)
            .ok_or(Error::BadRecordId(rid))?;
        record.coords_into(self.coords);
        if self.coords.len() != local.len() {
            return Err(Error::InvalidConfig(
                "a heap record disagrees with its partition",
            ));
        }
        self.evaluated += 1;
        let dist = mmdr_linalg::reduced_dist(*proj_sq, &self.locals[local.clone()], self.coords);
        best.push(dist, id);
        Ok(())
    }
}

impl IDistanceIndex {
    /// Answers `target` around `query` among the reduced representations,
    /// as `(distance, point_id)` ascending.
    ///
    /// Distances are `‖q − restore(Pᵢ)‖` — exact for outliers, exact to the
    /// reduced representation for cluster members — so results from
    /// different axis systems are directly comparable.
    ///
    /// The search reads the index in ring order: each step takes the
    /// frontier — the least ring radicand an unread entry can still have,
    /// a closed partition's lower bound or the last ring a walk read —
    /// refines the queue up to it ([`Candidates::refine`]), stops once the
    /// reach excludes it, and otherwise opens that partition (one seek at
    /// the query's image, clamped into its sphere: the paper's case
    /// analysis) or walks that cursor one leaf on ([`Candidates::walk`]).
    /// A partition's delta rows are a third frontier, at `proj_sq`, whose step
    /// queues them ([`Candidates::expand`]); the delta stays read-locked.
    /// No leaf is fetched before the queue has been refined up to the
    /// frontier, so a KNN's reach is as narrow as the rows read can make
    /// it, and the radius the paper enlarges step by step is that reach.
    ///
    /// With a `filter` this is exact pushdown: failing rows never enter
    /// the candidate heap, so they never tighten the reach,
    /// and their distance is never evaluated; partitions the filter's
    /// sketch hints prove dead are never cursor-walked. Delta rows are
    /// gated per-row by the bitmap only (sketches cover merged base rows).
    ///
    /// The query is one [`mmdr_index::VectorIndex::search`] let through.
    pub(crate) fn search_impl(
        &self,
        query: &[f64],
        target: Target,
        filter: Option<&SearchFilter>,
        scratch: &mut Scratch,
    ) -> Result<Vec<(f64, u64)>> {
        // Partition `i` is cluster `i` in build order; the last
        // (subspace-less) partition holds the outliers. An empty partition,
        // or one the filter's sketch proves dead, gets no PartitionSearch,
        // so its pages are never touched.
        let walked = |i: usize| {
            let part = &self.partitions[i];
            part.count > 0
                && !filter.is_some_and(|f| match part.subspace {
                    Some(_) => !f.cluster_alive(i),
                    None => !f.outliers_alive(),
                })
        };
        // A partition with delta rows needs its geometry, walked or not:
        // one of them may be its first row.
        let delta = self.delta.rows();
        let queued = |i: usize| !delta.slot(i).is_empty();
        // The query's local coordinates in every partition that has a
        // geometry, back to back; per partition, where its coordinates sit
        // and the squared distance to its subspace (`None` where nothing
        // asks).
        let mut locals = Vec::new();
        let mut geo: Vec<Option<(Range<usize>, f64)>> = Vec::with_capacity(self.partitions.len());
        for (i, part) in self.partitions.iter().enumerate() {
            geo.push(if walked(i) || queued(i) {
                let start = locals.len();
                let proj_sq = query_geometry(part.subspace.as_ref(), query, &mut locals)?;
                Some((start..locals.len(), proj_sq))
            } else {
                None
            });
        }
        let mut searches = Vec::with_capacity(self.partitions.len());
        for (i, (part, geometry)) in self.partitions.iter().zip(&geo).enumerate() {
            let Some((local, proj_sq)) = geometry else {
                continue;
            };
            let q_local = &locals[local.clone()];
            let dist_q = match &part.subspace {
                Some(_) => mmdr_linalg::l2_norm(q_local),
                None => mmdr_linalg::l2_dist(query, &part.centroid),
            };
            // Radial gap to the populated annulus [min_radius, max_radius].
            let gap = (dist_q - part.max_radius)
                .max(part.min_radius - dist_q)
                .max(0.0);
            searches.push(PartitionSearch {
                part: i,
                dist_q,
                run: part.run.first..part.run.first + part.run.count,
                q_local,
                proj_sq: *proj_sq,
                lower_bound: walked(i).then_some(proj_sq + gap * gap),
                walks: [None, None],
                delta: queued(i).then_some(*proj_sq),
                book: part.codebook.as_ref(),
                gaps: 0..0,
                far: None,
            });
        }
        // The gap and far-face tables of the partitions stepped on, in turn.
        let (mut gaps, mut far) = (Vec::new(), Vec::new());

        let mut best = KnnHeap::for_target(target);
        let (mut reach, mut top_reach) = (Reach::default(), Reach::default());

        let tombs = self.delta.tombstones();
        // Of k + |tombstones| rows read, k are offered; under a filter every
        // row queued passes, and k of them are.
        let slots = match target {
            Target::Knn(k) if filter.is_none() => k.saturating_add(tombs.len()),
            Target::Knn(k) => k,
            Target::Range(_) => 0,
        };
        let mut candidates = Candidates {
            index: self,
            ids: RecordIds::default(),
            queue: &mut scratch.queue,
            least: u128::MAX,
            pages: &mut scratch.pages,
            geo: &geo,
            locals: &locals,
            coords: &mut scratch.coords,
            uppers: &mut scratch.uppers,
            slots,
            tombs: &tombs,
            filter,
            delta: &delta,
            evaluated: 0,
        };

        loop {
            // The frontier, and whose it is: a partition's delta (which the
            // step queues), a closed partition's (which the step opens) or a
            // walk's (which the step takes a leaf on). Ties go to the earlier
            // partition, then its delta, then outward.
            let next = (searches.iter().enumerate())
                .flat_map(|(i, s)| {
                    // The walks start at the open.
                    let [out, inward] = s.walks.each_ref().map(|w| w.as_ref().map(|w| w.1));
                    let fronts = [s.delta, s.lower_bound.or(out), inward];
                    (fronts.into_iter().enumerate()).filter_map(move |(w, f)| Some((f?, i, w)))
                })
                .min_by(|a, b| a.0.total_cmp(&b.0));
            // Past the provisional reach nothing unread is refined: the queue is all.
            let provisional = top_reach.limit(candidates.top().sqrt());
            let next = next.filter(|&(front, ..)| front <= provisional);
            let front = next.map_or(f64::INFINITY, |(front, ..)| front);
            candidates.refine(front, &mut reach, &mut best)?;
            // Stop when the answer is certainly final: every entry not yet
            // read, and every one still queued, lies beyond the reach — or
            // there is none.
            let limit = reach.limit(best.reach()).min(provisional);
            let Some((front, i, w)) = next else {
                break;
            };
            if front > limit {
                break;
            }
            let s = &mut searches[i];
            // The first step on a partition builds its tables.
            if let (Some(book), true) = (s.book, s.gaps.is_empty()) {
                let (start, far_start) = (gaps.len(), far.len());
                book.gaps_into(s.q_local, &mut gaps, &mut far);
                s.gaps = start..gaps.len();
                s.far = (far.len() > far_start).then_some(far_start..far.len());
            }
            if w == 0 {
                s.delta = None;
                candidates.expand(s, (&gaps, &far), limit);
            } else if s.lower_bound.take().is_some() {
                // Seek the query's image, clamped into the populated sphere
                // — the paper's case analysis: a query outside the data
                // space starts at its boundary, and only its inward walk
                // finds rows. Both walks start from the one pinned leaf.
                self.placement(s.part)?;
                let max_r = self.partitions[s.part].max_radius;
                let cur = self
                    .tree
                    .seek(s.part as f64 * self.c + s.dist_q.min(max_r))?;
                s.walks = [Some((cur.clone(), front)), Some((cur, front))];
            } else if w == 1 {
                candidates.walk::<0>(s, (&gaps, &far), limit)?;
            } else {
                candidates.walk::<1>(s, (&gaps, &far), limit)?;
            }
        }

        // Every row evaluated is offered to the result set, and a row the
        // gate rejected is neither: here the two counters are one number.
        self.search.record_dists(candidates.evaluated);
        self.search.record_refined(candidates.evaluated);
        Ok(best.into_sorted_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::query_geometry;
    use crate::index::IDistanceIndex;
    use crate::layout::{data_rows, BuiltIndex, KeySpace};
    use crate::seqscan::SeqScan;
    use crate::vector_heap::VectorHeap;
    use mmdr_core::{Mmdr, MmdrParams, PointAssignment, ReductionResult};
    use mmdr_index::{DeltaRow, Query, RowFilter, Scratch, SearchFilter, Target, VectorIndex};
    use mmdr_linalg::Matrix;
    use mmdr_pca::ReducedSubspace;
    use mmdr_storage::{BufferPool, DiskManager, Page, PageId, PageSource};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier, Mutex, OnceLock};

    /// Two separated clusters flat in different dimension pairs, plus a few
    /// implanted outliers.
    fn dataset() -> Matrix {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..150 {
            let t = i as f64 / 149.0;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        // Outliers off both planes.
        for i in 0..6 {
            rows.push(vec![2.5, 2.5 + i as f64 * 0.1, 2.5, 2.5]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    fn build_pair() -> (Matrix, IDistanceIndex, SeqScan) {
        let data = dataset();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let index = IDistanceIndex::build(&data, &model, 256).unwrap();
        let scan = SeqScan::build(&data, &model, 64).unwrap();
        (data, index, scan)
    }

    #[test]
    fn knn_matches_sequential_scan() {
        let (data, index, scan) = build_pair();
        for probe in [0usize, 1, 7, 100, 299, 303] {
            let q = data.row(probe);
            let a = index.knn(q, 10).unwrap();
            let b = scan.knn(q, 10).unwrap();
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.0 - y.0).abs() < 1e-9,
                    "probe {probe}: iDistance {:?} vs scan {:?}",
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn self_query_finds_own_representation() {
        // The reduced representation drops the point's own off-plane
        // residual, so the self-distance is the point's ProjDist (≤ β), not
        // zero — and a neighbour's representation can occasionally edge it
        // out. The point must appear among the top few at ≤ β distance.
        let (data, index, _) = build_pair();
        let r = index.knn(data.row(42), 3).unwrap();
        assert!(
            r.iter().any(|&(_, id)| id == 42),
            "self missing from top 3: {r:?}"
        );
        assert!(r[0].0 <= 0.1, "nearest rep {} exceeds beta", r[0].0);
    }

    #[test]
    fn knn_uses_fewer_reads_than_scan() {
        // Pools too small to keep anything (2 pages, 1 page), so a read is
        // a page touched, whatever the build left resident.
        let data = dataset();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let cold_index = IDistanceIndex::build(&data, &model, 2).unwrap();
        let cold_scan = SeqScan::build(&data, &model, 1).unwrap();
        let reads = |index: &dyn VectorIndex| {
            let before = index.query_stats();
            let _ = index.knn(data.row(0), 10).unwrap();
            index.query_stats().since(&before).page_reads
        };
        let (index_reads, scan_reads) = (reads(&cold_index), reads(&cold_scan));
        // At this tiny scale (a handful of pages) the two can tie; the
        // strict inequality is asserted at realistic scale by the
        // `end_to_end` integration test.
        assert!(
            index_reads <= scan_reads,
            "index {index_reads} vs scan {scan_reads}"
        );
    }

    #[test]
    fn query_validation() {
        let (_, index, _) = build_pair();
        assert!(index.knn(&[0.0], 1).is_err());
        assert!(index.knn(&[f64::NAN; 4], 1).is_err());
        assert!(index.knn(&[0.0; 4], 0).unwrap().is_empty());
    }

    #[test]
    fn k_exceeding_n_returns_everything_reachable() {
        let (data, index, _) = build_pair();
        let r = index.knn(data.row(0), 10_000).unwrap();
        assert_eq!(r.len(), data.rows());
    }

    /// Two flat clusters under the default parameters: the range tests'
    /// own fixture (probe ids index into its 400 rows).
    fn range_fixture() -> (Matrix, IDistanceIndex, SeqScan, ReductionResult) {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..200 {
            let t = i as f64 / 199.0;
            rows.push(vec![t, 0.4 * t, jit(i, 0.3), jit(i, 0.6)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 - jit(i, 0.8),
                5.0 + t,
                5.0 + 0.7 * t,
            ]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let index = IDistanceIndex::build(&data, &model, 256).unwrap();
        let scan = SeqScan::build(&data, &model, 128).unwrap();
        (data, index, scan, model)
    }

    #[test]
    fn range_matches_scan_reference() {
        let (data, index, scan, _) = range_fixture();
        for &probe in &[0usize, 7, 201, 399] {
            for &radius in &[0.05, 0.2, 1.0, 10.0] {
                let q = data.row(probe);
                let a = index.range_search(q, radius).unwrap();
                let b = scan.range_search(q, radius).unwrap();
                assert_eq!(a.len(), b.len(), "probe {probe} radius {radius}");
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.0 - y.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn zero_radius_finds_exact_reps_only() {
        let (_, index, _, _) = range_fixture();
        // Outliers (stored exactly) match at radius 0; cluster members sit
        // at their ProjDist, so a radius of 0 on a generic query returns
        // nothing or exact representations only.
        let far = vec![100.0; 4];
        assert!(index.range_search(&far, 0.0).unwrap().is_empty());
    }

    #[test]
    fn range_validates_inputs() {
        let (_, index, _, _) = range_fixture();
        assert!(index.range_search(&[0.0], 1.0).is_err());
        assert!(index.range_search(&[0.0; 4], f64::NAN).is_err());
        assert!(index.range_search(&[0.0; 4], -1.0).is_err());
    }

    #[test]
    fn growing_radius_is_monotone() {
        let (data, index, _, _) = range_fixture();
        let q = data.row(10);
        let small = index.range_search(q, 0.1).unwrap().len();
        let big = index.range_search(q, 2.0).unwrap().len();
        assert!(big >= small);
        let all = index.range_search(q, 1e6).unwrap().len();
        assert_eq!(all, data.rows());
    }

    /// An answer with its distances as bit patterns.
    fn bits(hits: &[(f64, u64)]) -> Vec<(u64, u64)> {
        hits.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
    }

    #[test]
    fn a_filtered_search_evaluates_only_rows_that_pass() {
        let (data, index, scan, model) = range_fixture();
        let built = [
            BuiltIndex::IDistance(Box::new(index)),
            BuiltIndex::SeqScan(scan),
        ];
        let base = data.rows() as u64;
        // Delta rows beside the base rows (on and off the fitted flats),
        // and tombstones over both kinds.
        for i in 0..40u64 {
            let mut row = data.row((i as usize * 7) % data.rows()).to_vec();
            row[(i % 4) as usize] += 0.003 * (i + 1) as f64;
            for b in &built {
                b.insert(&model, base + i, &row).unwrap();
            }
        }
        let dead: Vec<u64> = (0..30)
            .map(|i| i * 13 + 5)
            .chain([base + 3, base + 20])
            .collect();
        for &id in &dead {
            for b in &built {
                assert!(b.delete(id).unwrap());
            }
        }
        let [BuiltIndex::IDistance(index), scan] = &built else {
            unreachable!("built as listed")
        };
        let scan = scan.as_dyn();
        let live = |id: u64| id < base + 40 && !dead.contains(&id);
        let counters = &index.search;

        // ~1 %, 10 % and 60 % of the rows.
        type Pass = fn(u64) -> bool;
        let selectivities: [Pass; 3] = [|id| id % 100 == 7, |id| id % 10 == 3, |id| id % 5 < 3];
        for pass in selectivities {
            let filter = SearchFilter::from_rows(RowFilter::from_fn(base + 40, pass));
            let passing_live = (0..base + 40).filter(|&id| live(id) && pass(id)).count();
            assert!(passing_live > 0);
            for probe in [0usize, 7, 201, 399] {
                let q = data.row(probe);
                for target in [Target::Knn(10), Target::Range(0.4), Target::Range(1e6)] {
                    // The oracle: the unfiltered answer over every live row,
                    // then the filter, then the cut.
                    let everything = match target {
                        Target::Knn(_) => index.knn(q, index.len()).unwrap(),
                        Target::Range(radius) => index.range_search(q, radius).unwrap(),
                    };
                    let mut want: Vec<_> =
                        everything.into_iter().filter(|&(_, id)| pass(id)).collect();
                    if let Target::Knn(k) = target {
                        want.truncate(k);
                    }
                    let query = Query {
                        vector: q,
                        target,
                        filter: Some(&filter),
                    };
                    let before = counters.dist_computations();
                    let got = index.search(&query, &mut Scratch::default()).unwrap();
                    let evaluated = counters.dist_computations() - before;
                    assert_eq!(bits(&got), bits(&want), "probe {probe} {target:?}");
                    let scanned = scan.search(&query, &mut Scratch::default()).unwrap();
                    assert_eq!(bits(&got), bits(&scanned), "probe {probe} {target:?}");
                    assert!(got.iter().all(|&(_, id)| live(id) && pass(id)));
                    assert!(
                        evaluated <= passing_live as u64,
                        "probe {probe} {target:?}: {evaluated} distances for \
                         {passing_live} passing live rows"
                    );
                    if target == Target::Range(1e6) {
                        assert_eq!(evaluated, passing_live as u64);
                    }
                }
            }
        }
    }

    // ---- The filtered gate's page accounting ----------------------------
    //
    // A heap on a one-frame pool over a source that logs its reads, started
    // from a spare page no record lives on, shows every page a search pins —
    // once a query, in the order the refinement first needs it. The parent
    // commit's filtered search — every admitted candidate pinned, then put
    // to the filter — is today's *unfiltered* search over the same layout
    // with the failing rows deleted, into the delta's tombstone set: the
    // same rows rejected at the same step, by the path no filter touches.

    /// Two flats of intrinsic dimension 6 in 8-d, 3 000 rows each, and a
    /// handful of outliers: 73 rows to a heap page, some 40 pages a cluster.
    fn paged_fixture() -> &'static (Matrix, ReductionResult) {
        static FIXTURE: OnceLock<(Matrix, ReductionResult)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let u = |i: usize, s: f64| (i as f64 * s).fract();
            let mut rows = Vec::new();
            for i in 0..3000 {
                let [a, b, c, d, e, f] = [
                    0.618_034, 0.414_214, 0.732_051, 0.236_068, 0.302_776, 0.162_278,
                ]
                .map(|s| u(i, s));
                let jit = (u(i, 0.549_510) - 0.5) * 0.01;
                rows.push(vec![a, b, c, d, e, f, jit, -jit]);
                rows.push(vec![
                    9.0 + jit,
                    9.0 - jit,
                    9.0 + a,
                    9.0 + b,
                    9.0 + c,
                    9.0 + d,
                    9.0 + e,
                    9.0 + f,
                ]);
                if i % 500 == 0 {
                    rows.push(vec![4.0 + a, 5.0 - b, 4.0, 5.0 + c, 4.0, 5.0, 4.0 - d, 5.0]);
                }
            }
            let data = Matrix::from_rows(&rows).unwrap();
            let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
            (data, model)
        })
    }

    /// A heap page source that logs the pages read from it.
    #[derive(Debug)]
    struct LoggedPages {
        pages: Vec<Arc<Page>>,
        log: Arc<Mutex<Vec<PageId>>>,
    }

    impl PageSource for LoggedPages {
        fn num_pages(&self) -> usize {
            self.pages.len()
        }

        fn read_page(&self, page_id: PageId) -> mmdr_storage::Result<Arc<Page>> {
            self.log.lock().unwrap().push(page_id);
            Ok(Arc::clone(&self.pages[page_id as usize]))
        }
    }

    /// An index whose heap sits on a one-frame pool over [`LoggedPages`].
    struct Watched {
        index: IDistanceIndex,
        log: Arc<Mutex<Vec<PageId>>>,
        /// An extra heap page no record lives on.
        spare: PageId,
    }

    /// What one search cost: the heap pages it pinned, in order, and its
    /// fetches from the tree's pool, beside what it answered.
    struct Walk {
        hits: Vec<(u64, u64)>,
        pins: Vec<PageId>,
        tree_fetches: u64,
        evaluated: u64,
    }

    impl Watched {
        /// The paged fixture's index with `stored_id(id)` in row `id`'s
        /// heap record (the layout does not depend on it).
        fn build(stored_id: impl Fn(u64) -> u64) -> Self {
            let (data, model) = paged_fixture();
            let rows = &mut data_rows(data, model).unwrap();
            let keys = KeySpace::fitted(model, |id| Some(data.row(id as usize))).unwrap();
            let built = IDistanceIndex::load(model, 256, keys, &mut |part| {
                let mut rows = rows(part)?;
                for (id, _) in &mut rows {
                    *id = stored_id(*id);
                }
                Ok(rows)
            })
            .unwrap();
            Self::over(built)
        }

        /// Moves `built`'s heap onto a logged one-frame pool.
        fn over(built: IDistanceIndex) -> Self {
            let IDistanceIndex {
                tree,
                heap,
                partitions,
                c,
                dim,
                ..
            } = built;
            let mut pages = heap.pool().export_pages().unwrap();
            let spare = pages.len() as PageId;
            pages.push(Arc::new(Page::new()));
            let log = Arc::new(Mutex::new(Vec::new()));
            let source = LoggedPages {
                pages,
                log: Arc::clone(&log),
            };
            let disk = DiskManager::from_source(Box::new(source), 0);
            let pool = BufferPool::new(disk, 1).unwrap();
            // The spare holds no record, and the heap appends no more.
            let mut ids = heap.id_pages().to_vec();
            ids.push(Vec::new());
            let heap = VectorHeap::from_parts(pool, heap.len(), ids).unwrap();
            // The build's placement tables come along: a walk's tree
            // fetches are its own, whichever walk comes first.
            let index = IDistanceIndex::from_parts(tree, heap, partitions, c, dim).unwrap();
            Self { index, log, spare }
        }

        fn walk(&self, query: &Query<'_>) -> Walk {
            // The spare page takes the frame: the first pin is a read too.
            self.index.heap.pool().page(self.spare).unwrap();
            self.log.lock().unwrap().clear();
            let tree_before = self.index.tree.pool().snapshot();
            let before = self.index.query_stats();
            let hits = self.index.search(query, &mut Scratch::default()).unwrap();
            let cost = self.index.query_stats().since(&before);
            let walk = Walk {
                hits: bits(&hits),
                pins: std::mem::take(&mut *self.log.lock().unwrap()),
                tree_fetches: self
                    .index
                    .tree
                    .pool()
                    .snapshot()
                    .since(&tree_before)
                    .pages_touched(),
                evaluated: cost.dist_computations,
            };
            assert_eq!(
                cost.pages_touched,
                walk.tree_fetches + walk.pins.len() as u64,
                "pages touched are tree fetches and heap pins"
            );
            walk
        }

        /// `(page, id)` of every record, through the tree.
        fn records(&self) -> Vec<(PageId, u64)> {
            let (tree, heap) = (&self.index.tree, &self.index.heap);
            let mut cursor = tree.seek(0.0).unwrap();
            let mut records = Vec::new();
            while let Some((_, position)) = tree.cursor_next(&mut cursor).unwrap() {
                let rid = self.index.record_id(position).unwrap();
                records.push((rid >> 16, heap.get(rid).unwrap().1));
            }
            records
        }
    }

    const PAGED_PROBES: [usize; 4] = [5, 2, 2500, 3001];
    const PAGED_TARGETS: [Target; 2] = [Target::Knn(10), Target::Range(0.4)];

    /// On an index just reattached to its pages (a one-frame pool over
    /// them, as a cold reopen has), a filtered search pins no heap page
    /// but a passing row's — the first time it is asked, as every time
    /// after — and answers, reads the tree and evaluates as the same
    /// search does with the failing rows tombstoned instead: the same
    /// pages, in the same order.
    #[test]
    fn a_filtered_search_pins_a_heap_page_only_for_a_row_that_passes() {
        let (data, _) = paged_fixture();
        let n = data.rows() as u64;
        let plain = Watched::build(|id| id);
        let records = plain.records();
        assert_eq!(records.len() as u64, n);
        let mut page_of = vec![0; n as usize];
        for &(page, id) in &records {
            page_of[id as usize] = page;
        }

        // By row, the way a predicate cuts, and by heap page — every row of
        // a page passes or none does: ~1 %, 10 %, 60 % and 0 % either way.
        type Pass<'a> = Box<dyn Fn(u64) -> bool + 'a>;
        let page = |id: u64| page_of[id as usize];
        let filters: [(&str, Pass); 7] = [
            ("1 % of rows", Box::new(|id| id % 100 == 7)),
            ("10 % of rows", Box::new(|id| id % 10 == 3)),
            ("60 % of rows", Box::new(|id| id % 5 < 3)),
            ("1 page in 40", Box::new(|id| page(id) % 40 == 7)),
            ("1 page in 10", Box::new(|id| page(id) % 10 == 3)),
            ("3 pages in 5", Box::new(|id| page(id) % 5 < 3)),
            ("nothing", Box::new(|_| false)),
        ];
        for (name, pass) in &filters {
            let filter = SearchFilter::from_rows(RowFilter::from_fn(n, pass));
            let passing_pages: HashSet<PageId> = records
                .iter()
                .filter(|&&(_, id)| pass(id))
                .map(|&(page, _)| page)
                .collect();
            let parent = Watched::build(|id| id);
            for id in (0..n).filter(|&id| !pass(id)) {
                assert!(parent.index.delta.delete(id).unwrap());
            }
            for target in PAGED_TARGETS {
                for probe in PAGED_PROBES {
                    let ctx = format!("{name}, {target:?}, probe {probe}");
                    let q = data.row(probe);
                    let all = match target {
                        Target::Knn(_) => Target::Knn(n as usize),
                        range => range,
                    };
                    let everything = plain.walk(&Query::new(q, all));
                    let mut want: Vec<_> = everything
                        .hits
                        .into_iter()
                        .filter(|&(_, id)| pass(id))
                        .collect();
                    if let Target::Knn(k) = target {
                        want.truncate(k);
                    }
                    let was = parent.walk(&Query::new(q, target));
                    assert_eq!(was.hits, want, "{ctx}");

                    let query = Query {
                        vector: q,
                        target,
                        filter: Some(&filter),
                    };
                    let fresh = Watched::build(|id| id);
                    let first = fresh.walk(&query);
                    let again = fresh.walk(&query);
                    for now in [&first, &again] {
                        assert_eq!(now.hits, want, "{ctx}");
                        assert_eq!(now.tree_fetches, was.tree_fetches, "{ctx}");
                        // A failing row moves the reach no more than the
                        // parent's tombstone did, so the rows that pass are
                        // refined in the same bound order, as far.
                        assert_eq!(now.evaluated, was.evaluated, "{ctx}");
                        assert_eq!(now.pins, was.pins, "{ctx}");
                        // A pin is a passing row's page, and one a query.
                        assert!(now.pins.len() as u64 <= now.evaluated, "{ctx}");
                        assert!(now.pins.iter().all(|p| passing_pages.contains(p)), "{ctx}");
                        let distinct: HashSet<_> = now.pins.iter().collect();
                        assert_eq!(now.pins.len(), distinct.len(), "{ctx}");
                    }
                }
            }
        }
    }

    /// A tombstoned row is turned away by its id, off the id column, before
    /// its page is pinned: an unfiltered search pins only pages that hold a
    /// live row it evaluates, and each once.
    #[test]
    fn a_tombstoned_row_costs_no_heap_page() {
        let (data, _) = paged_fixture();
        let n = data.rows() as u64;
        let watched = Watched::build(|id| id);
        let records = watched.records();
        // Every row of one page in three, and one row in seven elsewhere.
        let dead: HashSet<u64> = records
            .iter()
            .filter(|&&(page, id)| page % 3 == 1 || id % 7 == 0)
            .map(|&(_, id)| id)
            .collect();
        for &id in &dead {
            assert!(watched.index.delta.delete(id).unwrap());
        }
        let live_pages: HashSet<PageId> = records
            .iter()
            .filter(|(_, id)| !dead.contains(id))
            .map(|&(page, _)| page)
            .collect();
        let plain = Watched::build(|id| id);
        let mut pinned = 0;
        for target in PAGED_TARGETS {
            for probe in PAGED_PROBES {
                let ctx = format!("{target:?}, probe {probe}");
                let q = data.row(probe);
                let all = match target {
                    Target::Knn(_) => Target::Knn(n as usize),
                    range => range,
                };
                let mut want: Vec<_> = (plain.walk(&Query::new(q, all)).hits.into_iter())
                    .filter(|(_, id)| !dead.contains(id))
                    .collect();
                if let Target::Knn(k) = target {
                    want.truncate(k);
                }
                let now = watched.walk(&Query::new(q, target));
                assert_eq!(now.hits, want, "{ctx}");
                assert!(now.pins.iter().all(|p| live_pages.contains(p)), "{ctx}");
                assert!(now.pins.len() as u64 <= now.evaluated, "{ctx}");
                let distinct: HashSet<_> = now.pins.iter().collect();
                assert_eq!(now.pins.len(), distinct.len(), "{ctx}");
                pinned += now.pins.len();
            }
        }
        assert!(pinned > 0);
    }

    #[test]
    fn a_cell_code_spares_the_heap_pages_of_the_rows_it_rules_out() {
        let (data, model) = paged_fixture();
        let n = data.rows() as u64;
        let coded = Watched::build(|id| id);
        assert!(coded.index.heap.num_pages() >= 35);
        // The parent commit's search is today's over leaf entries nothing
        // judges: the same tree, heap and rounds, no codebook.
        let mut plain = Watched::build(|id| id);
        for part in &mut plain.index.partitions {
            part.codebook = None;
        }
        let built = BuiltIndex::SeqScan(SeqScan::build(data, model, 64).unwrap());
        let scan = built.as_dyn();
        // Delta rows on and off the flats, tombstones over both kinds.
        let delta: Vec<(u64, Vec<f64>)> = (0..60u64)
            .map(|i| {
                let mut row = data.row((i as usize * 97) % data.rows()).to_vec();
                row[(i % 8) as usize] += 0.002 * (i + 1) as f64;
                (n + i, row)
            })
            .collect();
        let dead: Vec<u64> = (0..200)
            .map(|i| i * 29 + 3)
            .chain([n + 7, n + 41])
            .collect();
        for (id, row) in &delta {
            built.insert(model, *id, row).unwrap();
        }
        // iDistance stores a row as the scan does (local coordinates in its
        // cluster, raw among the outliers, routed at the same β), with the
        // cell code its own codebook gives it: the rows placed once serve
        // all three.
        for (slot, row) in built.delta().rows().iter() {
            for index in [&coded.index, &plain.index] {
                let book = index.partitions[slot as usize].codebook.as_ref();
                let code = book.map(|book| book.encode(&row.coords));
                let row = DeltaRow {
                    code,
                    ..row.clone()
                };
                index.delta.insert(slot, row).unwrap();
            }
        }
        for delta in [built.delta(), &coded.index.delta, &plain.index.delta] {
            for &id in &dead {
                assert!(delta.delete(id).unwrap());
            }
        }

        type Pass = fn(u64) -> bool;
        let filters: [Option<Pass>; 4] = [
            None,
            Some(|id| id % 100 == 7),
            Some(|id| id % 10 == 3),
            Some(|id| id % 5 < 3),
        ];
        let targets = [Target::Knn(10), Target::Range(0.15), Target::Range(0.4)];
        let (mut pins_with, mut pins_without) = (0, 0);
        for pass in filters {
            let filter = pass.map(|pass| SearchFilter::from_rows(RowFilter::from_fn(n + 60, pass)));
            for target in targets {
                for probe in PAGED_PROBES {
                    let ctx = format!("filter {}, {target:?}, probe {probe}", pass.is_some());
                    let query = Query {
                        vector: data.row(probe),
                        target,
                        filter: filter.as_ref(),
                    };
                    let with = coded.walk(&query);
                    let without = plain.walk(&query);
                    assert_eq!(with.hits, without.hits, "{ctx}");
                    let scanned = scan.search(&query, &mut Scratch::default()).unwrap();
                    assert_eq!(with.hits, bits(&scanned), "{ctx}");
                    if let Target::Knn(k) = target {
                        // The full ranking abandons nothing: its reach is
                        // never the k-th of fewer than every row.
                        let everything = Query {
                            target: Target::Knn(n as usize + 60),
                            ..query
                        };
                        let mut ranking = coded.walk(&everything).hits;
                        ranking.truncate(k);
                        assert_eq!(with.hits, ranking, "{ctx}");
                    }
                    assert_eq!(with.tree_fetches, without.tree_fetches, "{ctx}");
                    assert!(with.evaluated <= without.evaluated, "{ctx}");
                    if filter.is_none() {
                        // A pin is a candidate's page.
                        assert!(with.pins.iter().all(|p| without.pins.contains(p)), "{ctx}");
                        if target == Target::Knn(10) {
                            assert!(with.pins.len() < without.pins.len(), "{ctx}");
                            assert!(4 * with.evaluated <= without.evaluated, "{ctx}");
                            pins_with += with.pins.len();
                            pins_without += without.pins.len();
                        }
                    }
                }
            }
        }
        // Over the four probes a 10-NN pins 73 heap pages without codes and
        // 14 with them.
        assert!(
            pins_without >= 50,
            "{pins_without} heap pages without codes"
        );
        assert!(
            2 * pins_with <= pins_without,
            "{pins_with} of {pins_without} heap pages"
        );
    }

    #[test]
    fn an_index_grown_by_inserts_answers_as_a_fresh_build_does() {
        let (data, model) = paged_fixture();
        let n = data.rows();
        let base = IDistanceIndex::build(data, model, 256).unwrap();
        let grown = BuiltIndex::IDistance(Box::new(base));
        let BuiltIndex::IDistance(base) = &grown else {
            unreachable!("built as an iDistance index")
        };
        // On the first flat beyond the cube its rows fill, on the second
        // likewise, and off both — every stored coordinate of the outliers,
        // and some of each cluster's, outside the range its codebook's
        // edges were cut from, on either side.
        let late: Vec<Vec<f64>> = vec![
            vec![1.5, 1.4, 1.6, 1.3, 1.5, 1.45, 0.001, -0.001],
            vec![-0.6, -0.5, -0.55, -0.4, -0.6, -0.5, 0.0, 0.0],
            vec![1.7, -0.7, 1.7, -0.7, 1.7, -0.7, -0.002, 0.002],
            vec![9.0, 9.0, 10.6, 10.4, 10.5, 10.6, 10.5, 10.4],
            vec![9.001, 8.999, 8.3, 8.4, 8.5, 8.4, 8.3, 8.5],
            vec![400.0, 500.0, 400.0, 500.0, 400.0, 500.0, 400.0, 500.0],
            vec![
                -300.0, -200.0, -300.0, -200.0, -300.0, -200.0, -300.0, -200.0,
            ],
        ];
        let mut fresh_model = model.clone();
        let mut rows: Vec<Vec<f64>> = (0..n).map(|i| data.row(i).to_vec()).collect();
        let mut routed = Vec::new();
        for (i, point) in late.iter().enumerate() {
            let (part, stored) = match grown.insert(model, (n + i) as u64, point).unwrap() {
                PointAssignment::Cluster(ci) => {
                    (ci, model.clusters[ci].subspace.project(point).unwrap())
                }
                PointAssignment::Outlier => (model.clusters.len(), point.clone()),
            };
            let book = base.partitions[part].codebook.as_ref().unwrap();
            let outside = stored
                .iter()
                .zip(book.edges().chunks(book.edges().len() / stored.len()))
                .filter(|(&p, axis)| p < f64::from(axis[0]) || p > f64::from(*axis.last().unwrap()))
                .count();
            assert!(outside >= 2, "late row {i}: {outside} coordinates outside");
            match fresh_model.clusters.get_mut(part) {
                Some(cluster) => cluster.members.push(n + i),
                None => fresh_model.outliers.push(n + i),
            }
            fresh_model.num_points += 1;
            rows.push(point.clone());
            routed.push(part);
        }
        assert_eq!(
            routed,
            [0, 0, 0, 1, 1, 2, 2],
            "clusters and outliers all grew"
        );
        let all = Matrix::from_rows(&rows).unwrap();
        let fresh = IDistanceIndex::build(&all, &fresh_model, 256).unwrap();
        let scan = SeqScan::build(&all, &fresh_model, 64).unwrap();
        let grown = grown.as_dyn();
        assert_eq!(grown.len(), fresh.len());

        let probes = PAGED_PROBES
            .iter()
            .map(|&p| data.row(p))
            .chain(late.iter().map(Vec::as_slice));
        for (i, q) in probes.enumerate() {
            for target in [Target::Knn(10), Target::Range(0.4), Target::Range(2.5)] {
                let query = Query::new(q, target);
                let want = bits(&scan.search(&query, &mut Scratch::default()).unwrap());
                for (name, index) in [("grown", grown), ("fresh", &fresh as &dyn VectorIndex)] {
                    let got = bits(&index.search(&query, &mut Scratch::default()).unwrap());
                    assert_eq!(got, want, "{name}, probe {i}, {target:?}");
                }
            }
        }
        // A late row is found where it was put: at its own representation.
        for (i, point) in late.iter().enumerate() {
            let hits = grown.knn(point, 3).unwrap();
            assert!(
                hits.iter().any(|&(_, id)| id == (n + i) as u64),
                "late row {i}"
            );
        }
    }

    /// Delta rows where the index has no codebook to bound them by: routed
    /// to a partition loaded empty (the outliers, left out of the base),
    /// they are queued at its projection bound alone; over a base loaded
    /// with no rows at all, the answer is the delta's alone, `k` past its
    /// size included. Either way the answer is `SeqScan`'s bit for bit, and
    /// a range query evaluates exactly the rows within both bounds.
    #[test]
    fn delta_rows_without_a_codebook_answer_as_the_scan() {
        let data = two_clusters(600, 8, 3);
        let mut model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
        let off_both = std::mem::take(&mut model.outliers);
        assert!(off_both.len() >= 5, "{} outliers", off_both.len());
        let outliers_at = model.clusters.len();
        let pair = |index: IDistanceIndex, scan: SeqScan| {
            [
                BuiltIndex::IDistance(Box::new(index)),
                BuiltIndex::SeqScan(scan),
            ]
        };
        let no_rows = &mut |_| Ok(Vec::new());
        let keys = KeySpace {
            reference: vec![0.0; 8],
            c_floor: 0.0,
            codes: Vec::new(),
        };
        let bases = [
            pair(
                IDistanceIndex::build(&data, &model, 256).unwrap(),
                SeqScan::build(&data, &model, 64).unwrap(),
            ),
            pair(
                IDistanceIndex::load(&model, 256, keys, no_rows).unwrap(),
                SeqScan::load(&model, 64, no_rows).unwrap(),
            ),
        ];
        // The left-out outliers under their own ids, and near copies of
        // cluster rows under new ones.
        let late: Vec<(u64, Vec<f64>)> = (off_both.iter())
            .map(|&id| (id as u64, data.row(id).to_vec()))
            .chain((0..5).map(|i| {
                let mut row = data.row(i * 7).to_vec();
                row[i] += 0.01;
                (600 + i as u64, row)
            }))
            .collect();
        for (name, built) in ["outliers loaded empty", "empty base"].iter().zip(&bases) {
            let BuiltIndex::IDistance(index) = &built[0] else {
                unreachable!("built as listed")
            };
            let outliers = &index.partitions[outliers_at];
            assert!(outliers.count == 0 && outliers.codebook.is_none(), "{name}");
            let mut routed_out = 0;
            for (id, row) in &late {
                for b in built {
                    let placed = b.insert(&model, *id, row).unwrap();
                    routed_out += usize::from(placed == PointAssignment::Outlier);
                }
            }
            assert!(routed_out >= 2 * off_both.len(), "{name}: {routed_out}");
            let [grown, scan] = built.each_ref().map(BuiltIndex::as_dyn);
            let probes = [
                data.row(0),
                data.row(1),
                &late[0].1,
                &late[late.len() - 1].1,
            ];
            for q in probes {
                for target in [
                    Target::Knn(1),
                    Target::Knn(10),
                    Target::Knn(grown.len() + 5),
                    Target::Range(0.4),
                    Target::Range(1e6),
                ] {
                    let ctx = format!("{name}, {target:?}");
                    let query = Query::new(q, target);
                    let want = bits(&scan.search(&query, &mut Scratch::default()).unwrap());
                    let before = index.query_stats();
                    let got = bits(&grown.search(&query, &mut Scratch::default()).unwrap());
                    let evaluated = index.query_stats().since(&before).dist_computations;
                    assert_eq!(got, want, "{ctx}");
                    if let Target::Range(r) = target {
                        let within = rows_within_both_bounds(index, q, r, |_| true);
                        assert_eq!(evaluated, within, "{ctx}");
                    }
                }
            }
            if *name == "empty base" {
                let everything = grown.knn(data.row(0), late.len() + 5).unwrap();
                assert_eq!(everything.len(), late.len());
            }
        }
    }

    #[test]
    fn eight_threads_learning_the_same_placement_tables_answer_as_one_does() {
        let (data, model) = paged_fixture();
        let n = data.rows() as u64;
        let filters = [
            SearchFilter::from_rows(RowFilter::from_fn(n, |id| id % 100 == 7)),
            SearchFilter::from_rows(RowFilter::from_fn(n, |id| id % 10 == 3)),
            SearchFilter::from_rows(RowFilter::from_fn(n, |id| id % 5 < 3)),
        ];
        let all = |index: &IDistanceIndex| -> Vec<Vec<(u64, u64)>> {
            let mut answers = Vec::new();
            for filter in &filters {
                for target in PAGED_TARGETS {
                    for probe in PAGED_PROBES {
                        let query = Query {
                            vector: data.row(probe),
                            target,
                            filter: Some(filter),
                        };
                        answers.push(bits(
                            &index.search(&query, &mut Scratch::default()).unwrap(),
                        ));
                    }
                }
            }
            answers
        };
        let build = || IDistanceIndex::build(data, model, 256).unwrap();
        let serial = all(&build());

        // All eight leave the barrier with no placement table learned (as
        // after an open) and ask the same queries in the same order: they
        // meet at the same partitions.
        let index = build().reopened();
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        all(&index)
                    })
                })
                .collect();
            for worker in workers {
                assert_eq!(worker.join().unwrap(), serial);
            }
        });
        assert_eq!(all(&index), serial, "and the tables they left are right");
    }

    /// The two passes [`query_geometry`] fused, as they were written: one
    /// dot product per coordinate down a column of the basis, then the
    /// residual of a second projection, clamped and rooted.
    fn geometry_in_two_passes(subspace: &ReducedSubspace, point: &[f64]) -> (Vec<f64>, f64) {
        let project = || -> Vec<f64> {
            (0..subspace.reduced_dim())
                .map(|j| {
                    let mut s = 0.0;
                    for (i, (&p, &c)) in point.iter().zip(subspace.centroid()).enumerate() {
                        s += (p - c) * subspace.basis()[(i, j)];
                    }
                    s
                })
                .collect()
        };
        let mut total = 0.0;
        for (p, c) in point.iter().zip(subspace.centroid()) {
            let diff = p - c;
            total += diff * diff;
        }
        let retained: f64 = project().iter().map(|c| c * c).sum();
        let resid = total - retained;
        let proj_dist = if resid <= 1e-12 * total {
            0.0
        } else {
            resid.sqrt()
        };
        (project(), proj_dist * proj_dist)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fused geometry is the two-pass one to the last bit, for a
        /// point off the flat and for one on it (which clamps to exactly
        /// 0), and it appends: what `locals` held stays.
        #[test]
        fn fused_query_geometry_has_the_bits_of_project_then_proj_dist(
            dim in 2usize..24,
            reduce_by in 1usize..23,
            raw in proptest::collection::vec(-1.0f64..1.0, 24 * 23),
            point in proptest::collection::vec(-10.0f64..10.0, 24),
        ) {
            let d_r = dim.saturating_sub(reduce_by).max(1);
            let centroid: Vec<f64> = raw.iter().take(dim).map(|x| x * 3.0).collect();
            // An orthonormal basis: Q of a random dim × d_r matrix.
            let columns = Matrix::from_vec(dim, d_r, raw.iter().cycle().take(dim * d_r).copied().collect());
            let basis = mmdr_linalg::Qr::new(&columns.unwrap()).unwrap().into_parts().0;
            let subspace = ReducedSubspace::new(centroid, basis).unwrap();
            let off_flat = &point[..dim];
            let on_flat = subspace.restore(&point[..d_r]).unwrap();
            for p in [off_flat, &on_flat] {
                let (want_local, want_sq) = geometry_in_two_passes(&subspace, p);
                let mut locals = vec![7.0];
                let got_sq = query_geometry(Some(&subspace), p, &mut locals).unwrap();
                prop_assert_eq!(locals[0], 7.0);
                prop_assert_eq!(
                    locals[1..].iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    want_local.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
                );
                prop_assert_eq!(got_sq.to_bits(), want_sq.to_bits());
                // The unfused entry points are the same pass.
                prop_assert_eq!(&subspace.project(p).unwrap(), &want_local);
                prop_assert_eq!(
                    (subspace.proj_dist(p).unwrap().powi(2)).to_bits(),
                    want_sq.to_bits()
                );
            }
            let mut locals = Vec::new();
            prop_assert_eq!(query_geometry(Some(&subspace), &on_flat, &mut locals).unwrap(), 0.0);
            // No subspace: the query itself, at distance 0.
            let mut locals = Vec::new();
            prop_assert_eq!(query_geometry(None, off_flat, &mut locals).unwrap(), 0.0);
            prop_assert_eq!(&locals[..], off_flat);
        }
    }

    /// Two flats of intrinsic dimension 4 in `dim`, placed and scaled by
    /// `seed`, and a row in 41 off both.
    fn two_clusters(n: usize, dim: usize, seed: u64) -> Matrix {
        let u = |i: u64| {
            let x =
                (i.wrapping_add(seed) ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let (scale, apart) = (0.5 + u(1 << 40), 4.0 + 4.0 * u(1 << 41));
        let rows: Vec<Vec<f64>> = (0..n as u64)
            .map(|i| {
                let at = |j: usize| u(i * 64 + j as u64);
                let jitter = |j: usize| (at(j) - 0.5) * 0.01;
                match i % 41 {
                    40 => (0..dim).map(|j| apart * 0.5 + at(j)).collect(),
                    c if c % 2 == 0 => (0..dim)
                        .map(|j| if j < 4 { scale * at(j) } else { jitter(j) })
                        .collect(),
                    _ => (0..dim)
                        .map(|j| {
                            apart
                                + if j >= dim - 4 {
                                    scale * at(j)
                                } else {
                                    jitter(j)
                                }
                        })
                        .collect(),
                }
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// How many rows a range search around `q` must evaluate: those whose
    /// id passes, and is not tombstoned, and whose two bounds — a stored
    /// row's ring and cell code, a delta row's partition projection and
    /// cell code, worked out here as the search works them out — are
    /// within `radius`.
    fn rows_within_both_bounds(
        index: &IDistanceIndex,
        q: &[f64],
        radius: f64,
        pass: impl Fn(u64) -> bool,
    ) -> u64 {
        let geometry: Vec<(f64, f64, Vec<f64>)> = index
            .partitions
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let mut local = Vec::new();
                let proj_sq = query_geometry(part.subspace.as_ref(), q, &mut local).unwrap();
                let dist_q = match &part.subspace {
                    Some(_) => mmdr_linalg::l2_norm(&local),
                    None => mmdr_linalg::l2_dist(q, &part.centroid),
                };
                let mut gaps = Vec::new();
                if let Some(book) = &part.codebook {
                    book.gaps_into(&local, &mut gaps, &mut Vec::new());
                }
                (i as f64 * index.c + dist_q, proj_sq, gaps)
            })
            .collect();
        let tombs = index.delta.tombstones();
        let mut cursor = index.tree.seek(0.0).unwrap();
        let mut within = 0;
        while let Some((lo, position)) = index.tree.cursor_next(&mut cursor).unwrap() {
            let (part, id, _) = index.heap.get(index.record_id(position).unwrap()).unwrap();
            let (image, proj_sq, gaps) = &geometry[part as usize];
            // The gap to the leaf's key range clamped to the partition's
            // annulus, as the walk reads it.
            let p = &index.partitions[part as usize];
            let (inner, outer) = (
                part as f64 * index.c + p.min_radius,
                part as f64 * index.c + p.max_radius,
            );
            let ring_gap = (lo.max(inner) - image)
                .max(image - cursor.key_hi().min(outer))
                .max(0.0);
            let code = index.partitions[part as usize]
                .codebook
                .as_ref()
                .map_or(0.0, |book| book.gap_sq(gaps, cursor.code()));
            if pass(id)
                && !tombs.contains(&id)
                && (proj_sq + ring_gap * ring_gap).sqrt() <= radius
                && (proj_sq + code).sqrt() <= radius
            {
                within += 1;
            }
        }
        // The projection bound is no greater than the code's: the code's
        // alone decides.
        for (slot, row) in index.delta.rows().iter() {
            let (_, proj_sq, gaps) = &geometry[slot as usize];
            let book = index.partitions[slot as usize].codebook.as_ref();
            let code = book
                .zip(row.code)
                .map_or(0.0, |(book, code)| book.gap_sq(gaps, code));
            if pass(row.id) && (proj_sq + code).sqrt() <= radius {
                within += 1;
            }
        }
        within
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Refining nearest bound first changes what a search costs, never
        /// what it answers. On random two-cluster fixtures, for k-NN and
        /// range queries, without a filter and under 1 % and 60 % ones, on
        /// a resident heap and on one behind a single frame that logs its
        /// reads: the answer is `SeqScan`'s bit for bit; a query fetches
        /// each heap page it pins once, so its heap fetches are its distinct
        /// pages, the same on either pool and with a reused `Scratch`; a
        /// range query evaluates exactly the rows whose two bounds are
        /// within its radius, as refinement in key order did; and a k-NN
        /// query evaluates exactly those within its final k-th distance —
        /// from the first row, with no fill past the frontier.
        #[test]
        fn bound_order_answers_as_the_scan_and_fetches_each_heap_page_once(
            n in 400usize..1500,
            dim in 6usize..10,
            seed in 0u64..1 << 40,
            k in 1usize..30,
            radius in 0.05f64..1.5,
            probes in proptest::collection::vec(0usize..100_000, 3),
        ) {
            let data = two_clusters(n, dim, seed);
            let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
            let build = || IDistanceIndex::build(&data, &model, 256).unwrap();
            let resident = build();
            let framed = Watched::over(build());
            let scan = SeqScan::build(&data, &model, 64).unwrap();
            // One scratch for every resident search: what a query pinned
            // must not carry into the next one's count.
            let mut scratch = Scratch::default();
            type Pass = fn(u64) -> bool;
            let filters: [Pass; 3] = [|_| true, |id| id % 100 == 7, |id| id % 5 < 3];
            let midpoint: Vec<f64> = data
                .row(probes[1] % n)
                .iter()
                .zip(data.row(probes[2] % n))
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            for (f, pass) in filters.into_iter().enumerate() {
                let filter = SearchFilter::from_rows(RowFilter::from_fn(n as u64, pass));
                for q in [data.row(probes[0] % n), &midpoint] {
                    for target in [Target::Knn(k), Target::Range(radius)] {
                        let ctx = format!("filter {f}, {target:?}");
                        let query = Query {
                            vector: q,
                            target,
                            filter: (f > 0).then_some(&filter),
                        };
                        let want = bits(&scan.search(&query, &mut Scratch::default()).unwrap());
                        let heap_before = resident.heap.pool().snapshot();
                        let before = resident.query_stats();
                        let got = resident.search(&query, &mut scratch).unwrap();
                        let heap_fetches =
                            resident.heap.pool().snapshot().since(&heap_before).pages_touched();
                        let evaluated = resident.query_stats().since(&before).dist_computations;
                        prop_assert_eq!(&bits(&got), &want, "{}", ctx);
                        let walk = framed.walk(&query);
                        prop_assert_eq!(&walk.hits, &want, "{}", ctx);
                        let distinct: HashSet<_> = walk.pins.iter().collect();
                        prop_assert_eq!(distinct.len(), walk.pins.len(), "{}", ctx);
                        prop_assert_eq!(heap_fetches, walk.pins.len() as u64, "{}", ctx);
                        prop_assert_eq!(walk.evaluated, evaluated, "{}", ctx);
                        match target {
                            Target::Range(r) => {
                                let within = rows_within_both_bounds(&resident, q, r, pass);
                                prop_assert_eq!(evaluated, within, "{}", ctx);
                            }
                            // Only rows whose bounds lie within the final
                            // reach are refined — to the boundary tolerance a
                            // range query keeps, since a rounded ring bound can
                            // pass a row's distance by an ulp.
                            Target::Knn(k) => {
                                let d_k = got.get(k - 1).map_or(f64::INFINITY, |&(d, _)| d);
                                let within = rows_within_both_bounds(&resident, q, d_k, pass);
                                let near = rows_within_both_bounds(&resident, q, d_k + 1e-12, pass);
                                prop_assert!(
                                    within <= evaluated && evaluated <= near,
                                    "{}: {} evaluated, {} within both bounds of {}, {} near",
                                    ctx, evaluated, within, d_k, near
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// A delta row takes a leaf entry's path — queued at its cell-code
        /// bound, refined in bound order — which changes what a search
        /// costs, never what it answers. On random two-cluster fixtures
        /// grown by random inserts (on a flat, along one past the range its
        /// codebook was cut from, and off both, among the outliers) and
        /// shrunk by random deletes of base and delta rows, for k-NN and
        /// range queries, without a filter and under 1 % and 60 % ones: the
        /// answer is `SeqScan`'s bit for bit; a query evaluates exactly the
        /// rows, tree and delta alike, whose two bounds lie within its
        /// radius, or within its final k-th distance; and on the same base,
        /// inserts alone never make a query fetch more pages.
        #[test]
        fn delta_rows_in_bound_order_answer_as_the_scan_and_fetch_no_more_pages(
            n in 400usize..1000,
            dim in 6usize..10,
            seed in 0u64..1 << 40,
            k in 1usize..30,
            radius in 0.05f64..1.5,
            inserts in proptest::collection::vec(
                (0usize..100_000, proptest::bool::ANY, 0usize..100_000, -2.0f64..3.0),
                1..60,
            ),
            deletes in proptest::collection::vec(0usize..100_000, 0..40),
            probes in proptest::collection::vec(0usize..100_000, 2),
        ) {
            let data = two_clusters(n, dim, seed);
            let model = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
            // On the line through two rows — of one class (`i mod 41`: one
            // flat, or both off) or any two — inside their segment or past
            // either end, where coordinates leave the codebook's range.
            let late: Vec<(u64, Vec<f64>)> = (inserts.iter().enumerate())
                .map(|(i, &(a, same, b, t))| {
                    let (a, b) = (a % n, if same { (a % n + 82) % n } else { b % n });
                    let (a, b) = (data.row(a), data.row(b));
                    let row = a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect();
                    ((n + i) as u64, row)
                })
                .collect();
            let total = (n + late.len()) as u64;
            let dead: HashSet<u64> = deletes.iter().map(|&d| d as u64 % total).collect();
            let grow = |built: &BuiltIndex, delete: bool| {
                for (id, row) in &late {
                    built.insert(&model, *id, row).unwrap();
                }
                for &id in dead.iter().filter(|_| delete) {
                    built.delete(id).unwrap();
                }
            };
            let idistance = || {
                let index = IDistanceIndex::build(&data, &model, 256).unwrap();
                BuiltIndex::IDistance(Box::new(index))
            };
            let (mutated, scan) = (idistance(), BuiltIndex::SeqScan(SeqScan::build(&data, &model, 64).unwrap()));
            grow(&mutated, true);
            grow(&scan, true);
            let BuiltIndex::IDistance(index) = &mutated else {
                unreachable!("built as an iDistance index")
            };
            let mut scratch = Scratch::default();
            type Pass = fn(u64) -> bool;
            let filters: [Pass; 3] = [|_| true, |id| id % 100 == 7, |id| id % 5 < 3];
            for (f, pass) in filters.into_iter().enumerate() {
                let filter = SearchFilter::from_rows(RowFilter::from_fn(total, pass));
                for q in [data.row(probes[0] % n), &late[probes[1] % late.len()].1] {
                    for target in [Target::Knn(k), Target::Range(radius)] {
                        let ctx = format!("filter {f}, {target:?}");
                        let query = Query {
                            vector: q,
                            target,
                            filter: (f > 0).then_some(&filter),
                        };
                        let want = bits(&scan.as_dyn().search(&query, &mut Scratch::default()).unwrap());
                        let before = index.query_stats();
                        let got = index.search(&query, &mut scratch).unwrap();
                        let evaluated = index.query_stats().since(&before).dist_computations;
                        prop_assert_eq!(&bits(&got), &want, "{}", ctx);
                        let reach = match target {
                            Target::Range(r) => r,
                            Target::Knn(k) => got.get(k - 1).map_or(f64::INFINITY, |&(d, _)| d),
                        };
                        let within = rows_within_both_bounds(index, q, reach, pass);
                        let near = match target {
                            Target::Range(_) => within,
                            // The boundary tolerance a range query keeps: a
                            // rounded bound can pass a distance by an ulp.
                            Target::Knn(_) => rows_within_both_bounds(index, q, reach + 1e-12, pass),
                        };
                        prop_assert!(
                            within <= evaluated && evaluated <= near,
                            "{}: {} evaluated, {} within both bounds of {}, {} near",
                            ctx, evaluated, within, reach, near
                        );
                        // The same query on a fresh base, with and without
                        // the inserts: a delta row within a frontier has been
                        // refined before it, so the reach is never wider.
                        let fetches = |built: &BuiltIndex| {
                            let index = built.as_dyn();
                            let before = index.query_stats();
                            index.search(&query, &mut Scratch::default()).unwrap();
                            index.query_stats().since(&before).pages_touched
                        };
                        let (bare, grown) = (idistance(), idistance());
                        grow(&grown, false);
                        let (was, now) = (fetches(&bare), fetches(&grown));
                        prop_assert!(now <= was, "{}: {} pages fetched, {} before the inserts", ctx, now, was);
                    }
                }
            }
        }
    }

    /// Degenerate k and ties, on two fixtures. Every row of two random
    /// flats has five exact twins, so a k-th distance is shared by up to
    /// six rows. And the 625 points of a 5⁴ grid, all outliers, are stored
    /// exactly: their distances to a grid point or a half-integer one are
    /// sums of small dyadic squares, so distinct rows in distinct cells,
    /// scattered over the leaf order, tie exactly. Either way the result
    /// set's tie break by id decides which tied rows stay. For k inside a
    /// run of ties, k at, just below and past the live rows and the rows a
    /// filter passes, before and after deletes, without a filter and under
    /// 1 % and 60 % ones: the answer is `SeqScan`'s bit for bit — so every
    /// exclusion stays strict at a tie, and a provisional reach that never
    /// fills (more slots than rows) leaves the search exact.
    #[test]
    fn degenerate_k_and_ties_answer_as_the_scan() {
        let distinct = two_clusters(150, 8, 7);
        let rows: Vec<Vec<f64>> = (0..6 * 150)
            .map(|i| distinct.row(i % 150).to_vec())
            .collect();
        let twins = Matrix::from_rows(&rows).unwrap();
        let fitted = Mmdr::new(MmdrParams::default()).fit(&twins).unwrap();
        let rows: Vec<Vec<f64>> = (0..625u32)
            .map(|i| (0..4).map(|j| f64::from(i / 5u32.pow(j) % 5)).collect())
            .collect();
        let grid = Matrix::from_rows(&rows).unwrap();
        let outliers = ReductionResult {
            dim: 4,
            num_points: 625,
            clusters: Vec::new(),
            outliers: (0..625).collect(),
            stats: Default::default(),
        };
        let midpoint = |data: &Matrix, a: usize, b: usize| -> Vec<f64> {
            let (a, b) = (data.row(a), data.row(b));
            a.iter().zip(b).map(|(a, b)| 0.5 * (a + b)).collect()
        };
        let mut tied_cuts = 0;
        for (data, model, probes) in [
            (&twins, &fitted, [0, 149, 40].map(|i| twins.row(i).to_vec())),
            (&grid, &outliers, [312, 0, 77].map(|i| grid.row(i).to_vec())),
        ] {
            let probes = probes.into_iter().chain([midpoint(data, 3, 80)]);
            tied_cuts += answers_at_degenerate_k(data, model, probes);
        }
        assert!(
            tied_cuts >= 60,
            "only {tied_cuts} answers cut through a tie"
        );
    }

    /// [`degenerate_k_and_ties_answer_as_the_scan`]'s sweep over one
    /// fixture; returns how many answers were cut through a tie.
    fn answers_at_degenerate_k(
        data: &Matrix,
        model: &ReductionResult,
        probes: impl Iterator<Item = Vec<f64>> + Clone,
    ) -> usize {
        let n = data.rows() as u64;
        let built = [
            BuiltIndex::IDistance(Box::new(IDistanceIndex::build(data, model, 256).unwrap())),
            BuiltIndex::SeqScan(SeqScan::build(data, model, 64).unwrap()),
        ];
        let [index, scan] = built.each_ref().map(BuiltIndex::as_dyn);
        let dead: Vec<u64> = (0..n).filter(|id| id % 7 == 2 || *id < 3).collect();
        type Pass = fn(u64) -> bool;
        let filters: [Option<Pass>; 3] = [None, Some(|id| id % 100 == 7), Some(|id| id % 5 < 3)];
        let mut tied_cuts = 0;
        for deleted in [false, true] {
            if deleted {
                for id in &dead {
                    for b in &built {
                        assert!(b.delete(*id).unwrap());
                    }
                }
            }
            let live = |id: u64| !(deleted && dead.contains(&id));
            for pass in filters {
                let filter = pass.map(|pass| SearchFilter::from_rows(RowFilter::from_fn(n, pass)));
                let passing = (0..n)
                    .filter(|&id| live(id) && pass.is_none_or(|p| p(id)))
                    .count();
                let live_rows = (0..n).filter(|&id| live(id)).count();
                for q in probes.clone() {
                    let mut ks = vec![1, 5, 6, 7, 13, passing - 1, passing, passing + 1, live_rows];
                    ks.extend([n as usize + 5, usize::MAX]);
                    for k in ks.into_iter().filter(|&k| k > 0) {
                        let ctx = format!("deleted {deleted}, filter {}, k {k}", pass.is_some());
                        let query = Query {
                            vector: &q,
                            target: Target::Knn(k),
                            filter: filter.as_ref(),
                        };
                        let want = bits(&scan.search(&query, &mut Scratch::default()).unwrap());
                        let got = bits(&index.search(&query, &mut Scratch::default()).unwrap());
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(got.len(), k.min(passing), "{ctx}");
                        let next = Query {
                            target: Target::Knn(k.saturating_add(1)),
                            ..query
                        };
                        let longer = scan.search(&next, &mut Scratch::default()).unwrap();
                        if longer.len() > k && longer[k].0 == longer[k - 1].0 {
                            tied_cuts += 1;
                        }
                    }
                }
            }
        }
        tied_cuts
    }
}
