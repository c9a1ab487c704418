//! Sharded, lock-striped buffer pool with shared-read frames.
//!
//! The pool is split into independent shards (a power of two of them),
//! each owning a disjoint slice of the page-id space (`page_id & mask`) with
//! its own lock, frame table and clock (second-chance) eviction hand. The
//! hot read path never holds any pool lock while the caller looks at page
//! bytes: [`BufferPool::page`] clones an `Arc<Page>` out of the frame under
//! a transient shard lock and returns it, so concurrent KNN workers scan
//! leaves without serializing on the pool. Nothing writes through the
//! pool: every page image was written once, by its structure's bulk load,
//! before the pool was made.

use crate::disk::{DiskManager, IoStats};
use crate::error::{Error, Result};
use crate::page::{Page, PageId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Shard count for a pool of `capacity` frames: `requested`, or
/// `next_pow2(threads · 4)` when it is 0, halved until every shard owns
/// ≥ 1 frame.
fn resolve_shards(capacity: usize, requested: usize) -> usize {
    let base = if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            * 4
    };
    let mut shards = next_pow2(base);
    while shards > capacity {
        shards /= 2;
    }
    shards.max(1)
}

fn lock_mutex<T>(m: &Mutex<T>) -> Result<MutexGuard<'_, T>> {
    m.lock().map_err(|_| Error::Poisoned)
}

/// A resident page, behind its shard's lock.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    /// The page image. Readers clone the `Arc` and drop the lock.
    page: Arc<Page>,
    /// Clock reference bit (second chance).
    referenced: bool,
}

/// Frame table of one shard, behind that shard's lock.
#[derive(Debug, Default)]
struct ShardInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Clock hand for second-chance eviction.
    hand: usize,
}

#[derive(Debug)]
struct Shard {
    inner: Mutex<ShardInner>,
    /// Frame budget of this shard (the pool capacity is split across shards).
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Hit/miss/eviction counts of one shard at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

/// Point-in-time snapshot of the pool's per-shard counters.
///
/// The totals preserve the buffer-size-independent accounting the I/O plots
/// rely on: [`pages_touched`](PoolStats::pages_touched) `= hits + misses`
/// counts one touch per fetch regardless of shard layout or eviction policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardCounters>,
}

impl PoolStats {
    /// Total buffer hits across shards.
    pub fn hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.hits).sum()
    }

    /// Total buffer misses across shards.
    pub fn misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.misses).sum()
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.per_shard.iter().map(|s| s.evictions).sum()
    }

    /// Logical page touches: `hits + misses`, independent of pool geometry.
    pub fn pages_touched(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Counter deltas since an earlier snapshot of the same pool.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        let per_shard = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, now)| {
                let then = earlier.per_shard.get(i).copied().unwrap_or_default();
                ShardCounters {
                    hits: now.hits.saturating_sub(then.hits),
                    misses: now.misses.saturating_sub(then.misses),
                    evictions: now.evictions.saturating_sub(then.evictions),
                }
            })
            .collect();
        PoolStats { per_shard }
    }
}

/// A fixed-capacity page cache in front of a [`DiskManager`], striped into
/// independently locked shards.
///
/// A read cache: the pages behind it were written before it was made (by
/// a bulk load, or by the save a snapshot open reads), so readers share it
/// (`&self`) and no frame needs a latch of its own. Latch order is
/// `shard → disk`, and no code path ever holds two shard locks, so the pool
/// is deadlock-free by construction: [`page`](BufferPool::page) takes one
/// shard lock just long enough to resolve the frame — reading the disk and
/// evicting on a miss — and clone the page `Arc` out, never across the
/// caller's use of the bytes.
///
/// Hits cost no logical I/O and misses one read — the accounting the
/// paper's I/O plots assume. Every fetch ticks
/// exactly one counter, its shard's hit or miss count, so the pool's
/// [`pages_touched`](PoolStats::pages_touched) is the sum of its shards'.
/// The counts run from the pool's creation and are never reset.
///
/// A panic inside a reader closure cannot poison the pool (readers hold no
/// pool lock); [`Error::Poisoned`] reports a shard or disk mutex a panic
/// did poison.
#[derive(Debug)]
pub struct BufferPool {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard of `page_id` is `page_id & mask`.
    mask: u64,
    disk: Mutex<DiskManager>,
    capacity: usize,
}

impl BufferPool {
    /// Wraps a disk with a sharded cache of `capacity` pages. The shard
    /// count is `next_pow2(threads · 4)`, clamped so every shard owns at
    /// least one frame.
    pub fn new(disk: DiskManager, capacity: usize) -> Result<Self> {
        Self::with_shards(disk, capacity, 0)
    }

    /// Like [`new`](Self::new) but with an explicit shard count (`0` =
    /// default sizing), rounded up to a power of two and clamped to
    /// `capacity`: a test's way to a single shard and a deterministic
    /// clock order.
    fn with_shards(disk: DiskManager, capacity: usize, shards: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::ZeroCapacity);
        }
        let num_shards = resolve_shards(capacity, shards);
        let shards = (0..num_shards)
            .map(|i| Shard {
                inner: Mutex::new(ShardInner::default()),
                // Split capacity as evenly as possible; earlier shards take
                // the remainder so the budgets sum to exactly `capacity`.
                capacity: capacity / num_shards + usize::from(i < capacity % num_shards),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(Self {
            shards,
            mask: (num_shards - 1) as u64,
            disk: Mutex::new(disk),
            capacity,
        })
    }

    fn shard_for(&self, page_id: PageId) -> &Shard {
        &self.shards[(page_id & self.mask) as usize]
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-shard counter snapshot.
    pub fn snapshot(&self) -> PoolStats {
        PoolStats {
            per_shard: self
                .shards
                .iter()
                .map(|s| ShardCounters {
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    evictions: s.evictions.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// The shards' counters summed: [`snapshot`](Self::snapshot)'s totals,
    /// without collecting the shards into a list.
    pub fn totals(&self) -> ShardCounters {
        let mut total = ShardCounters::default();
        for s in self.shards.iter() {
            total.hits += s.hits.load(Ordering::Relaxed);
            total.misses += s.misses.load(Ordering::Relaxed);
            total.evictions += s.evictions.load(Ordering::Relaxed);
        }
        total
    }

    /// What the disk's page source has done: physical reads, readahead
    /// hits and read errors (they tick only while a source is behind the
    /// disk).
    pub fn io(&self) -> IoStats {
        self.disk().io
    }

    /// Number of pages on the underlying disk.
    pub fn num_pages(&self) -> usize {
        self.disk().num_pages()
    }

    /// The disk, for a look at what it holds: a panic that poisoned its
    /// lock cannot have left a count or a page count half-written.
    fn disk(&self) -> MutexGuard<'_, DiskManager> {
        self.disk.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches a page for reading, returning a shared handle to its current
    /// image. One shard lock is held transiently to resolve the frame —
    /// never while the caller uses the bytes — so concurrent readers of
    /// different shards (or even the same frame) do not serialize. The
    /// fetch counts once, as a hit or a miss of its shard, keeping "pages
    /// touched" comparable across pool geometries.
    pub fn page(&self, page_id: PageId) -> Result<Arc<Page>> {
        let shard = self.shard_for(page_id);
        let mut inner = lock_mutex(&shard.inner)?;
        let idx = self.fetch(shard, &mut inner, page_id)?;
        Ok(Arc::clone(&inner.frames[idx].page))
    }

    /// Resolves `page_id` to its frame's index within `shard`, reading it
    /// from disk (and evicting) on a miss. Caller holds the shard lock.
    fn fetch(&self, shard: &Shard, inner: &mut ShardInner, page_id: PageId) -> Result<usize> {
        if let Some(&idx) = inner.map.get(&page_id) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            inner.frames[idx].referenced = true;
            return Ok(idx);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let page = lock_mutex(&self.disk)?.read_page(page_id)?;
        Ok(Self::install(shard, inner, page_id, page))
    }

    /// Installs a page into `shard`, evicting by clock if it is at budget,
    /// and returns its frame's index. Caller holds the shard lock.
    fn install(shard: &Shard, inner: &mut ShardInner, page_id: PageId, page: Arc<Page>) -> usize {
        debug_assert!(!inner.map.contains_key(&page_id));
        let frame = Frame {
            page_id,
            page,
            referenced: true,
        };
        let idx = if inner.frames.len() < shard.capacity {
            inner.frames.push(frame);
            inner.frames.len() - 1
        } else {
            let idx = Self::evict(shard, inner);
            inner.frames[idx] = frame;
            idx
        };
        inner.map.insert(page_id, idx);
        idx
    }

    /// Second-chance sweep: clears reference bits until a frame without one
    /// comes under the hand, then evicts it and returns its index: the
    /// disk still holds the image, so nothing is written. Terminates within
    /// two sweeps because reference bits are only set under the shard lock
    /// we hold.
    fn evict(shard: &Shard, inner: &mut ShardInner) -> usize {
        debug_assert!(!inner.frames.is_empty(), "capacity > 0 guarantees a victim");
        loop {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let frame = &mut inner.frames[idx];
            if std::mem::take(&mut frame.referenced) {
                continue; // second chance
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            let victim_id = frame.page_id;
            inner.map.remove(&victim_id);
            return idx;
        }
    }

    /// Shows `f` every page image on the underlying disk in page-id order — by reference to the one image
    /// held, never a copy, and for a file-backed source one page at a time.
    /// A walk for persistence, not simulated query work, so it counts
    /// nothing. `f`'s first error ends it.
    pub fn visit_pages<E: From<Error>>(
        &self,
        mut f: impl FnMut(&Arc<Page>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let disk = lock_mutex(&self.disk)?;
        for page_id in 0..disk.num_pages() as PageId {
            f(&disk.image(page_id)?)?;
        }
        Ok(())
    }

    /// Every page image [`visit_pages`](Self::visit_pages) walks, shared:
    /// what [`DiskManager::from_pages`] takes to reattach the same pages
    /// behind another pool.
    pub fn export_pages(&self) -> Result<Vec<Arc<Page>>> {
        let mut pages = Vec::with_capacity(self.num_pages());
        self.visit_pages(|page| -> Result<()> {
            pages.push(Arc::clone(page));
            Ok(())
        })?;
        Ok(pages)
    }

    /// Hints that `page_id` will be read soon. If the page is already
    /// resident in its shard this is a no-op; otherwise the disk warms its
    /// readahead buffer with the run starting there (a no-op when readahead
    /// is disabled). No frame is installed and no logical access or read is
    /// recorded — a hint must not change the `pages_touched` accounting.
    pub fn prefetch(&self, page_id: PageId) -> Result<()> {
        let shard = self.shard_for(page_id);
        {
            let inner = lock_mutex(&shard.inner)?;
            if inner.map.contains_key(&page_id) {
                return Ok(());
            }
        }
        lock_mutex(&self.disk)?.prefetch(page_id);
        Ok(())
    }

    /// Makes the underlying disk resident
    /// ([`DiskManager::make_resident`]): every page is in memory afterwards
    /// and the source is gone. No frame is installed and no I/O is recorded.
    pub fn make_resident(&self) -> Result<()> {
        lock_mutex(&self.disk)?.make_resident()
    }
}

/// The page images one reader has pinned from one pool, by id — held the
/// way a B⁺-tree cursor holds its leaf: [`page`](Self::page) fetches a
/// page the first time it is asked for and serves it from here after, so a
/// page costs one fetch per reader, in whatever order its bytes are read.
/// [`clear`](Self::clear) lets the pages go and keeps the buffers.
#[derive(Debug, Default)]
pub struct PageSet {
    /// Page `id`'s image at index `id`, once pinned.
    slots: Vec<Option<Arc<Page>>>,
    /// The ids pinned, so that `clear` visits only those.
    pinned: Vec<PageId>,
}

impl PageSet {
    /// Whether page `id` is pinned.
    #[inline]
    pub fn holds(&self, id: PageId) -> bool {
        self.slots.get(id as usize).is_some_and(Option::is_some)
    }

    /// Page `id` of `pool`: pinned here, fetched if it is not yet.
    #[inline]
    pub fn page(&mut self, pool: &BufferPool, id: PageId) -> Result<&Page> {
        let at = id as usize;
        if !self.holds(id) {
            let image = pool.page(id)?;
            if at >= self.slots.len() {
                self.slots.resize(at + 1, None);
            }
            self.slots[at] = Some(image);
            self.pinned.push(id);
        }
        Ok(self.slots[at].as_deref().expect("pinned above"))
    }

    /// Lets every pinned page go.
    pub fn clear(&mut self) {
        for id in self.pinned.drain(..) {
            self.slots[id as usize] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` page images, page `i` holding `10 + i` at offset 0.
    fn images(n: u64) -> Vec<Arc<Page>> {
        (0..n)
            .map(|i| {
                let mut page = Page::new();
                page.put_u64(0, 10 + i).unwrap();
                Arc::new(page)
            })
            .collect()
    }

    /// `shards` shards of `capacity` frames in all over `n` pages.
    fn striped(n: u64, capacity: usize, shards: usize) -> BufferPool {
        BufferPool::with_shards(DiskManager::from_pages(images(n)), capacity, shards).unwrap()
    }

    /// Single-shard pool: deterministic eviction order for policy tests.
    fn pool(n: u64, capacity: usize) -> BufferPool {
        striped(n, capacity, 1)
    }

    fn value(p: &BufferPool, id: PageId) -> u64 {
        p.page(id).unwrap().get_u64(0).unwrap()
    }

    #[test]
    fn a_page_set_fetches_each_page_once_until_cleared() {
        let p = pool(3, 1);
        let mut set = PageSet::default();
        for id in [2, 0, 2, 1, 0, 1, 2] {
            assert_eq!(set.page(&p, id).unwrap().get_u64(0).unwrap(), 10 + id);
        }
        assert_eq!(p.snapshot().pages_touched(), 3);
        assert!((0..3).all(|id| set.holds(id)));
        set.clear();
        assert!(!set.holds(0) && !set.holds(7));
        set.page(&p, 1).unwrap();
        assert_eq!(p.snapshot().pages_touched(), 4);
        assert!(set.page(&p, 99).is_err());
        assert!(!set.holds(99));
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(
            BufferPool::new(DiskManager::default(), 0).err(),
            Some(Error::ZeroCapacity)
        );
    }

    #[test]
    fn shard_count_is_pow2_and_clamped() {
        let p = striped(0, 64, 5);
        assert_eq!(p.shards.len(), 8, "5 rounds up to 8");
        let p = striped(0, 3, 16);
        assert!(p.shards.len() <= 3, "each shard keeps >= 1 frame");
        assert!(p.shards.len().is_power_of_two());
        let auto = BufferPool::new(DiskManager::default(), 1024).unwrap();
        assert!(auto.shards.len().is_power_of_two());
        // Shard budgets must sum to the capacity.
        let p = striped(0, 7, 4);
        assert_eq!(p.shards.len(), 4);
        assert_eq!(p.shards.iter().map(|s| s.capacity).sum::<usize>(), 7);
        assert!(p.shards.iter().all(|s| s.capacity >= 1));
    }

    #[test]
    fn hits_are_free_misses_cost_reads() {
        let p = pool(1, 2);
        // The first fetch installs the page; repeated access costs nothing.
        for _ in 0..5 {
            assert_eq!(value(&p, 0), 10);
        }
        assert_eq!(p.snapshot().misses(), 1);
        assert_eq!(p.snapshot().hits(), 4);
    }

    #[test]
    fn data_survives_eviction() {
        let p = pool(10, 2);
        for _ in 0..2 {
            for id in 0..10 {
                assert_eq!(value(&p, id), 10 + id);
            }
        }
        assert_eq!(p.snapshot().misses(), 20, "two frames hold no run of ten");
    }

    #[test]
    fn data_survives_eviction_across_shards() {
        let p = striped(32, 4, 4);
        for id in (0..32).chain(0..32) {
            assert_eq!(value(&p, id), 10 + id);
        }
    }

    #[test]
    fn clock_gives_recently_referenced_pages_a_second_chance() {
        let p = pool(3, 2);
        let (a, b, c) = (0, 1, 2);
        p.page(a).unwrap();
        p.page(b).unwrap();
        p.page(b).unwrap(); // b referenced most recently
        let misses = p.snapshot().misses();
        // The sweep for c clears a's bit, then b's, and the hand, back at
        // a, evicts it: a page referenced after the install of every
        // resident is never the next victim.
        p.page(c).unwrap();
        p.page(b).unwrap(); // b still resident → no read
        assert_eq!(
            p.snapshot().misses(),
            misses + 1,
            "second chance kept b resident"
        );
        p.page(a).unwrap(); // a was evicted → one read
        assert_eq!(p.snapshot().misses(), misses + 2);
        assert_eq!(p.snapshot().evictions(), 2);
    }

    #[test]
    fn export_and_reimport_preserves_contents() {
        let p = pool(6, 2);
        value(&p, 3);
        let before = p.snapshot();
        let images = p.export_pages().unwrap();
        assert_eq!(images.len(), 6);
        assert_eq!(p.snapshot(), before, "walking images is not a read");
        let reopened = BufferPool::new(DiskManager::from_pages(images), 2).unwrap();
        assert_eq!(reopened.num_pages(), 6);
        assert_eq!(
            reopened.totals(),
            ShardCounters::default(),
            "restoring costs no logical I/O"
        );
        for id in 0..6 {
            assert_eq!(value(&reopened, id), 10 + id);
        }
        assert!(reopened.totals().misses > 0, "real accesses tick as usual");
        assert_eq!(reopened.io(), IoStats::default(), "memory is not a source");
    }

    #[test]
    fn a_page_image_is_held_once() {
        // A disk built from images hands out those very images, through a
        // frame, after an eviction, and to an export.
        let images = images(2);
        let p = BufferPool::with_shards(DiskManager::from_pages(images.clone()), 1, 1).unwrap();
        let framed = p.page(0).unwrap();
        assert!(Arc::ptr_eq(&framed, &images[0]));
        p.page(1).unwrap();
        assert_eq!(p.snapshot().evictions(), 1);
        assert!(Arc::ptr_eq(&p.page(0).unwrap(), &framed));
        let exported = p.export_pages().unwrap();
        assert!(exported.iter().zip(&images).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn missing_page_errors() {
        let p = pool(1, 2);
        assert!(p.page(99).is_err());
    }

    #[test]
    fn capacity_one_works() {
        let p = pool(2, 1);
        for id in [0, 1, 0, 1] {
            assert_eq!(value(&p, id), 10 + id);
        }
        assert_eq!(p.snapshot().evictions(), 3);
    }

    #[test]
    fn page_handles_outlive_eviction() {
        let p = pool(2, 1);
        let held = p.page(0).unwrap();
        // Evict page 0: the held handle still reads its image.
        value(&p, 1);
        assert_eq!(p.snapshot().evictions(), 1);
        assert_eq!(held.get_u64(0).unwrap(), 10);
    }

    #[test]
    fn snapshot_totals_and_deltas() {
        let p = striped(16, 8, 4);
        for id in 0..16 {
            p.page(id).unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap.per_shard.len(), 4);
        // 16 fetches into 8 frames: each shard's last two evict its first two.
        assert_eq!((snap.hits(), snap.misses(), snap.evictions()), (0, 16, 8));
        assert_eq!(snap.pages_touched(), 16, "one tick per fetch");
        let totals = p.totals();
        assert_eq!((totals.hits, totals.misses, totals.evictions), (0, 16, 8));
        let later = p.snapshot();
        assert_eq!(later.since(&snap).pages_touched(), 0);
        p.page(0).unwrap();
        assert_eq!(p.snapshot().since(&snap).pages_touched(), 1);
    }

    #[test]
    fn concurrent_readers_share_frames() {
        use std::sync::atomic::AtomicU64;
        let p = Arc::new(striped(8, 8, 4));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let p = Arc::clone(&p);
                let sum = Arc::clone(&sum);
                scope.spawn(move || {
                    let mut local = 0u64;
                    for _ in 0..200 {
                        for id in 0..8 {
                            local += p.page(id).unwrap().get_u64(0).unwrap();
                        }
                    }
                    sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        // 8 threads × 200 rounds × (10+11+...+17).
        assert_eq!(sum.load(Ordering::Relaxed), 8 * 200 * 108);
    }
}
