//! Row-level search filters pushed into backend query paths.
//!
//! A [`RowFilter`] is a dense bitmap over point ids: the compiled form of a
//! predicate, built once per query by the planner (mmdr-query) and consulted
//! once per candidate row inside backend search loops. A [`SearchFilter`]
//! wraps the bitmap with optional *cluster-skip* hints derived from
//! per-cluster attribute sketches, letting partitioned backends skip whole
//! clusters without touching their pages.
//!
//! # Pushdown contract
//!
//! Backends that accept a `SearchFilter` must return results **bit-identical**
//! to filtering the full (unfiltered) ranking after the fact: a row failing
//! [`SearchFilter::passes`] never enters the answer heap and never tightens an
//! early-termination radius. Because per-row distances are pure functions of
//! `(index contents, query)`, gating rows before heap entry yields exactly the
//! top-k of the passing subset — the same list a post-filtered exhaustive scan
//! produces.
//!
//! # Cluster-skip trust contract
//!
//! `cluster_alive` hints are *conservative*: a `false` entry promises no
//! **base** row of that cluster passes the bitmap (sketches are built over the
//! merged base rows only, so delta rows must never be cluster-skipped — they
//! are gated per-row by the bitmap instead). An out-of-range cluster index is
//! treated as alive; so is every cluster when no hints are attached.

/// A dense bitmap over point ids `0..capacity`. Ids at or beyond `capacity`
/// fail the filter — an id the attribute store has never seen carries NULL
/// attributes, and NULL fails every predicate term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFilter {
    words: Vec<u64>,
    capacity: u64,
}

impl RowFilter {
    /// An empty bitmap covering ids `0..capacity`, all failing.
    pub fn none(capacity: u64) -> Self {
        let words = vec![0u64; capacity.div_ceil(64) as usize];
        Self { words, capacity }
    }

    /// A full bitmap covering ids `0..capacity`, all passing.
    pub fn all(capacity: u64) -> Self {
        let mut f = Self::none(capacity);
        for w in &mut f.words {
            *w = u64::MAX;
        }
        // Clear the tail bits past `capacity` so `count` stays exact.
        let tail = (capacity % 64) as u32;
        if tail != 0 {
            if let Some(last) = f.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        f
    }

    /// Builds a bitmap by evaluating `pass` for every id in `0..capacity`.
    pub fn from_fn(capacity: u64, mut pass: impl FnMut(u64) -> bool) -> Self {
        let mut f = Self::none(capacity);
        for id in 0..capacity {
            if pass(id) {
                f.set(id);
            }
        }
        f
    }

    /// Marks `id` as passing. Ids at or beyond the capacity are ignored.
    pub fn set(&mut self, id: u64) {
        if id < self.capacity {
            self.words[(id / 64) as usize] |= 1u64 << (id % 64);
        }
    }

    /// Marks `id` as failing.
    pub fn clear(&mut self, id: u64) {
        if id < self.capacity {
            self.words[(id / 64) as usize] &= !(1u64 << (id % 64));
        }
    }

    /// Whether `id` passes the filter.
    #[inline]
    pub fn passes(&self, id: u64) -> bool {
        id < self.capacity && self.words[(id / 64) as usize] >> (id % 64) & 1 == 1
    }

    /// Number of ids the bitmap can describe (`0..capacity`).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of passing ids.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Narrows the filter in place to the ids whose value in `column`
    /// satisfies `hit` — `column[id]` is row `id`'s value, and an id the
    /// column does not reach fails. One pass over the column, 64 verdicts
    /// gathered per bitmap word and ANDed into it; a word that is already
    /// empty skips its 64 rows.
    pub fn and_where<T: Copy>(&mut self, column: &[T], hit: impl Fn(T) -> bool) {
        let mut chunks = column.chunks(64);
        for word in &mut self.words {
            let chunk = chunks.next().unwrap_or_default();
            if *word == 0 {
                continue;
            }
            let mut verdicts = 0u64;
            for (bit, &value) in chunk.iter().enumerate() {
                verdicts |= u64::from(hit(value)) << bit;
            }
            *word &= verdicts;
        }
    }
}

/// A compiled filter handed to backend search loops: the per-row bitmap plus
/// optional cluster-skip hints (see the module docs for the trust contract).
#[derive(Debug, Clone)]
pub struct SearchFilter {
    rows: RowFilter,
    cluster_alive: Option<Vec<bool>>,
    outliers_alive: bool,
}

impl SearchFilter {
    /// A filter with no cluster hints: every cluster is probed, rows are
    /// gated purely by the bitmap.
    pub fn from_rows(rows: RowFilter) -> Self {
        Self {
            rows,
            cluster_alive: None,
            outliers_alive: true,
        }
    }

    /// Attaches cluster-skip hints. `cluster_alive[c] == false` promises no
    /// base row of cluster `c` passes the bitmap; `outliers_alive == false`
    /// promises the same for the outlier partition.
    pub fn with_clusters(rows: RowFilter, cluster_alive: Vec<bool>, outliers_alive: bool) -> Self {
        Self {
            rows,
            cluster_alive: Some(cluster_alive),
            outliers_alive,
        }
    }

    /// Whether row `id` passes.
    #[inline]
    pub fn passes(&self, id: u64) -> bool {
        self.rows.passes(id)
    }

    /// Whether cluster `c` may hold passing base rows. Out-of-range or
    /// hint-less clusters are alive.
    #[inline]
    pub fn cluster_alive(&self, c: usize) -> bool {
        match &self.cluster_alive {
            Some(alive) => alive.get(c).copied().unwrap_or(true),
            None => true,
        }
    }

    /// Whether the outlier partition may hold passing base rows.
    #[inline]
    pub fn outliers_alive(&self) -> bool {
        self.outliers_alive
    }

    /// The underlying bitmap.
    pub fn rows(&self) -> &RowFilter {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_all_and_set_clear() {
        let mut f = RowFilter::none(130);
        assert_eq!(f.count(), 0);
        assert!(!f.passes(0));
        f.set(0);
        f.set(129);
        f.set(500); // beyond capacity: ignored
        assert!(f.passes(0) && f.passes(129));
        assert!(!f.passes(500));
        assert_eq!(f.count(), 2);
        f.clear(129);
        assert!(!f.passes(129));

        let full = RowFilter::all(130);
        assert_eq!(full.count(), 130);
        assert!(full.passes(129));
        assert!(!full.passes(130), "capacity bound is exclusive");
    }

    #[test]
    fn from_fn_iter_and_and_where() {
        let passing = |f: &RowFilter| (0..128).filter(|&id| f.passes(id)).collect::<Vec<u64>>();
        let evens = RowFilter::from_fn(100, |id| id % 2 == 0);
        assert_eq!(evens.count(), 50);
        let ids = passing(&evens);
        assert_eq!(ids[..3], [0, 2, 4]);
        assert_eq!(ids.len(), 50);

        // A column shorter than the bitmap: the ids past it fail.
        let column: Vec<u64> = (0..70).collect();
        let mut both = evens.clone();
        both.and_where(&column, |v| v % 3 == 0);
        let ids = passing(&both);
        assert_eq!(ids, (0..70).filter(|id| id % 6 == 0).collect::<Vec<u64>>());
        // A column longer than the bitmap sets nothing past its capacity.
        let column: Vec<u64> = (0..200).collect();
        let mut all = RowFilter::all(100);
        all.and_where(&column, |_| true);
        assert_eq!(all, RowFilter::all(100));
        all.and_where(&column, |v| v >= 64);
        all.and_where(&column, |v| v % 2 == 1);
        assert_eq!(all.count(), 18);
        assert!(all.passes(65) && !all.passes(63) && !all.passes(101));
    }

    #[test]
    fn cluster_hints_default_alive() {
        let f = SearchFilter::from_rows(RowFilter::all(10));
        assert!(f.cluster_alive(0) && f.cluster_alive(99) && f.outliers_alive());

        let f = SearchFilter::with_clusters(RowFilter::all(10), vec![true, false], false);
        assert!(f.cluster_alive(0));
        assert!(!f.cluster_alive(1));
        assert!(f.cluster_alive(2), "out of range is alive");
        assert!(!f.outliers_alive());
        assert!(f.passes(3));
        assert_eq!(f.rows().count(), 10);
    }
}
