//! Sharded, lock-striped buffer pool with shared-read frames.
//!
//! The pool is split into independent shards (a power of two of them),
//! each owning a disjoint slice of the page-id space (`page_id & mask`) with
//! its own lock, frame table and clock (second-chance) eviction hand. The
//! hot read path never holds any pool lock while the caller looks at page
//! bytes: [`BufferPool::page`] clones an `Arc<Page>` out of the frame under
//! a transient shard lock and returns it, so concurrent KNN workers scan
//! leaves without serializing on the pool. Writers hold the pool
//! exclusively (`&mut self`) and mutate copy-on-write, leaving a reader's
//! handle on the old image.

use crate::disk::{zero_page, DiskManager, IoStats};
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
    /// The page image. Readers clone the `Arc` and drop the lock; a writer
    /// mutates it copy-on-write.
    page: Arc<Page>,
    dirty: bool,
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
/// Readers share the pool (`&self`); whoever writes owns it (`&mut self` on
/// [`allocate`](BufferPool::allocate) and
/// [`with_page_mut`](BufferPool::with_page_mut)), so no frame needs a latch
/// of its own. Latch order is `shard → disk`, and no code path ever holds
/// two shard locks, so the pool is deadlock-free by construction:
/// [`page`](BufferPool::page) (and [`with_page`](BufferPool::with_page))
/// takes one shard lock just long enough to resolve the frame — reading the
/// disk and evicting on a miss — and clone the page `Arc` out, never across
/// the caller's use of the bytes.
///
/// Hits cost no logical I/O; misses cost one read, dirty evictions one
/// write — the accounting the paper's I/O plots assume. Every fetch ticks
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

    /// Allocates a fresh page. The page enters its shard dirty (it will be
    /// written on eviction/flush) without costing a read.
    pub fn allocate(&mut self) -> Result<PageId> {
        // The disk lock is released before the shard lock is taken: the
        // latch order is shard → disk.
        let page_id = lock_mutex(&self.disk)?.allocate();
        let shard = self.shard_for(page_id);
        let mut inner = lock_mutex(&shard.inner)?;
        self.install(shard, &mut inner, page_id, zero_page(), true)?;
        Ok(page_id)
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

    /// Runs `f` with shared access to the page. No pool lock is held while
    /// `f` runs; re-entering the pool from inside `f` is allowed.
    pub fn with_page<R>(&self, page_id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        Ok(f(&*self.page(page_id)?))
    }

    /// Runs `f` with mutable access to the page, marking it dirty. The
    /// mutation is copy-on-write — the one place a page image is copied:
    /// `Arc::make_mut` writes in place when the frame is the image's only
    /// holder and copies it first when a reader's [`page`](Self::page)
    /// handle, the disk (after a flush, or a page it loaded) or the shared
    /// zero page still holds it, so each of those keeps the pre-write image.
    ///
    /// A writer owns the pool: nothing reads a page while it is written, and
    /// a write through a shared pool does not build.
    ///
    /// ```compile_fail,E0596
    /// use mmdr_storage::{BufferPool, DiskManager};
    /// let mut pool = BufferPool::new(DiskManager::new(), 4).unwrap();
    /// let page_id = pool.allocate().unwrap();
    /// let shared: &BufferPool = &pool;
    /// shared.with_page_mut(page_id, |page| page.put_u8(0, 1)).unwrap();
    /// ```
    pub fn with_page_mut<R>(
        &mut self,
        page_id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let shard = self.shard_for(page_id);
        let mut inner = lock_mutex(&shard.inner)?;
        let idx = self.fetch(shard, &mut inner, page_id)?;
        let frame = &mut inner.frames[idx];
        frame.dirty = true;
        Ok(f(Arc::make_mut(&mut frame.page)))
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
        self.install(shard, inner, page_id, page, false)
    }

    /// Installs a page into `shard`, evicting by clock if it is at budget,
    /// and returns its frame's index. Caller holds the shard lock.
    fn install(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        page_id: PageId,
        page: Arc<Page>,
        dirty: bool,
    ) -> Result<usize> {
        debug_assert!(!inner.map.contains_key(&page_id));
        let frame = Frame {
            page_id,
            page,
            dirty,
            referenced: true,
        };
        let idx = if inner.frames.len() < shard.capacity {
            inner.frames.push(frame);
            inner.frames.len() - 1
        } else {
            let idx = self.evict(shard, inner)?;
            inner.frames[idx] = frame;
            idx
        };
        inner.map.insert(page_id, idx);
        Ok(idx)
    }

    /// Second-chance sweep: clears reference bits until a frame without one
    /// comes under the hand, then evicts it (writing back dirty bytes) and
    /// returns its index. Terminates within two sweeps because reference
    /// bits are only set under the shard lock we hold.
    fn evict(&self, shard: &Shard, inner: &mut ShardInner) -> Result<usize> {
        debug_assert!(!inner.frames.is_empty(), "capacity > 0 guarantees a victim");
        loop {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let frame = &mut inner.frames[idx];
            if std::mem::take(&mut frame.referenced) {
                continue; // second chance
            }
            if frame.dirty {
                lock_mutex(&self.disk)?.write_page(frame.page_id, Arc::clone(&frame.page))?;
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            let victim_id = frame.page_id;
            inner.map.remove(&victim_id);
            return Ok(idx);
        }
    }

    /// Flushes dirty frames, then shows `f` every page image on the
    /// underlying disk in page-id order — by reference to the one image
    /// held, never a copy, and for a file-backed source one page at a time.
    /// A walk for persistence, not simulated query work, so it counts
    /// nothing. `f`'s first error ends it.
    pub fn visit_pages<E: From<Error>>(
        &self,
        mut f: impl FnMut(&Arc<Page>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.flush_all()?;
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

    /// Writes every dirty resident page back to disk, shard by shard. A
    /// writer cannot run beside it (it would own the pool), so the disk
    /// holds a complete image afterwards.
    pub fn flush_all(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut inner = lock_mutex(&shard.inner)?;
            for frame in inner.frames.iter_mut().filter(|frame| frame.dirty) {
                lock_mutex(&self.disk)?.write_page(frame.page_id, Arc::clone(&frame.page))?;
                frame.dirty = false;
            }
        }
        Ok(())
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

    #[test]
    fn a_page_set_fetches_each_page_once_until_cleared() {
        let mut p = pool(1);
        let pages: Vec<PageId> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for &id in &pages {
            p.with_page_mut(id, |pg| pg.put_u64(0, 10 + id).unwrap())
                .unwrap();
        }
        let before = p.snapshot();
        let mut set = PageSet::default();
        for &id in [2, 0, 2, 1, 0, 1, 2].iter().map(|i| &pages[*i]) {
            assert_eq!(set.page(&p, id).unwrap().get_u64(0).unwrap(), 10 + id);
        }
        assert_eq!(p.snapshot().since(&before).pages_touched(), 3);
        assert!(pages.iter().all(|&id| set.holds(id)));
        set.clear();
        assert!(!set.holds(pages[0]) && !set.holds(7));
        set.page(&p, pages[1]).unwrap();
        assert_eq!(p.snapshot().since(&before).pages_touched(), 4);
        assert!(set.page(&p, 99).is_err());
        assert!(!set.holds(99));
    }

    /// Single-shard pool: deterministic eviction order for policy tests.
    fn pool(capacity: usize) -> BufferPool {
        BufferPool::with_shards(DiskManager::new(), capacity, 1).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(
            BufferPool::new(DiskManager::new(), 0).err(),
            Some(Error::ZeroCapacity)
        );
    }

    #[test]
    fn shard_count_is_pow2_and_clamped() {
        let p = BufferPool::with_shards(DiskManager::new(), 64, 5).unwrap();
        assert_eq!(p.shards.len(), 8, "5 rounds up to 8");
        let p = BufferPool::with_shards(DiskManager::new(), 3, 16).unwrap();
        assert!(p.shards.len() <= 3, "each shard keeps >= 1 frame");
        assert!(p.shards.len().is_power_of_two());
        let auto = BufferPool::new(DiskManager::new(), 1024).unwrap();
        assert!(auto.shards.len().is_power_of_two());
        // Shard budgets must sum to the capacity.
        let p = BufferPool::with_shards(DiskManager::new(), 7, 4).unwrap();
        assert_eq!(p.shards.len(), 4);
        assert_eq!(p.shards.iter().map(|s| s.capacity).sum::<usize>(), 7);
        assert!(p.shards.iter().all(|s| s.capacity >= 1));
    }

    #[test]
    fn hits_are_free_misses_cost_reads() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 7).unwrap()).unwrap();
        // Page resident: repeated access costs nothing.
        for _ in 0..5 {
            let v = p.with_page(a, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, 7);
        }
        // 1 hit from the with_page_mut above + 5 from the loop.
        assert_eq!(p.snapshot().hits(), 6);
        assert_eq!(p.snapshot().misses(), 0);
    }

    #[test]
    fn eviction_writes_dirty_and_rereads() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 41).unwrap()).unwrap();
        assert_eq!(p.disk().image(a).unwrap().get_u64(0).unwrap(), 0);
        p.allocate().unwrap();
        // The hand clears a's and the second frame's bits, then takes a.
        p.allocate().unwrap();
        assert_eq!(p.snapshot().evictions(), 1);
        assert_eq!(
            p.disk().image(a).unwrap().get_u64(0).unwrap(),
            41,
            "dirty eviction must write back"
        );
        let misses = p.snapshot().misses();
        assert_eq!(p.with_page(a, |pg| pg.get_u64(0).unwrap()).unwrap(), 41);
        assert_eq!(p.snapshot().misses(), misses + 1, "re-fetch must read");
    }

    #[test]
    fn data_survives_eviction() {
        let mut p = pool(2);
        let ids: Vec<PageId> = (0..10).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, i as u64).unwrap())
                .unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            let v = p.with_page(id, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn data_survives_eviction_across_shards() {
        let mut p = BufferPool::with_shards(DiskManager::new(), 4, 4).unwrap();
        let ids: Vec<PageId> = (0..32).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, 100 + i as u64).unwrap())
                .unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            let v = p.with_page(id, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, 100 + i as u64);
        }
    }

    #[test]
    fn clock_gives_recently_referenced_pages_a_second_chance() {
        let mut p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.flush_all().unwrap();
        let misses = p.snapshot().misses();
        // Reference a; the sweep for c clears both bits and the hand makes
        // a second pass, but a's fresh reference bit means b (or whichever
        // frame loses its bit first) goes — a must survive the first sweep
        // only if its bit outlasts the hand. With both bits set the hand
        // clears a then b then evicts a: verify the *policy invariant*
        // instead of a fixed victim — a page referenced after the install
        // of every resident is never the next victim.
        p.with_page(b, |_| ()).unwrap(); // b referenced most recently
        let _c = p.allocate().unwrap(); // hand: a(ref→clear), b(ref→clear), a evicted
        p.with_page(b, |_| ()).unwrap(); // b still resident → no read
        assert_eq!(
            p.snapshot().misses(),
            misses,
            "second chance kept b resident"
        );
        p.with_page(a, |_| ()).unwrap(); // a was evicted → one read
        assert_eq!(p.snapshot().misses(), misses + 1);
    }

    #[test]
    fn flush_all_clears_dirty() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u8(0, 1).unwrap()).unwrap();
        let dirty = |p: &BufferPool| p.shards[0].inner.lock().unwrap().frames[0].dirty;
        assert!(dirty(&p));
        p.flush_all().unwrap();
        assert!(!dirty(&p), "nothing dirty: a second flush writes nothing");
        assert_eq!(p.disk().image(a).unwrap().get_u8(0).unwrap(), 1);
    }

    #[test]
    fn export_and_reimport_preserves_contents() {
        let mut p = pool(2);
        let ids: Vec<PageId> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, 10 + i as u64).unwrap())
                .unwrap();
        }
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
        for (i, &id) in ids.iter().enumerate() {
            let v = reopened.with_page(id, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, 10 + i as u64);
        }
        assert!(reopened.totals().misses > 0, "real accesses tick as usual");
        assert_eq!(reopened.io(), IoStats::default(), "memory is not a source");
    }

    #[test]
    fn a_flushed_page_is_held_once_and_copied_on_the_next_write() {
        let mut p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 1).unwrap()).unwrap();
        p.flush_all().unwrap();
        // The frame's image and the disk's are one allocation...
        let framed = p.page(a).unwrap();
        let on_disk = p.disk.lock().unwrap().image(a).unwrap();
        assert!(Arc::ptr_eq(&framed, &on_disk));
        // ...which a write copies away from: both holders keep what they had.
        p.with_page_mut(a, |pg| pg.put_u64(0, 2).unwrap()).unwrap();
        assert_eq!(framed.get_u64(0).unwrap(), 1);
        assert_eq!(on_disk.get_u64(0).unwrap(), 1);
        let rewritten = p.page(a).unwrap();
        assert_eq!(rewritten.get_u64(0).unwrap(), 2);
        assert!(!Arc::ptr_eq(&rewritten, &framed));
        // A page nobody wrote is the process's one zero image.
        let b = p.allocate().unwrap();
        assert!(Arc::ptr_eq(&p.page(b).unwrap(), &zero_page()));
        // And a disk built from images hands out those very images: a
        // reopen holds each page once too.
        let images = p.export_pages().unwrap();
        assert!(Arc::ptr_eq(&images[a as usize], &rewritten));
        let reopened = BufferPool::new(DiskManager::from_pages(images), 4).unwrap();
        assert!(Arc::ptr_eq(&reopened.page(a).unwrap(), &rewritten));
    }

    #[test]
    fn missing_page_errors() {
        let p = pool(2);
        assert!(p.with_page(99, |_| ()).is_err());
    }

    #[test]
    fn capacity_one_works() {
        let mut p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u8(0, 1).unwrap()).unwrap();
        p.with_page_mut(b, |pg| pg.put_u8(0, 2).unwrap()).unwrap();
        assert_eq!(p.with_page(a, |pg| pg.get_u8(0).unwrap()).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg.get_u8(0).unwrap()).unwrap(), 2);
    }

    #[test]
    fn page_handles_outlive_eviction() {
        let mut p = pool(1);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 41).unwrap()).unwrap();
        let held = p.page(a).unwrap();
        // Evict a, then mutate it: the held handle keeps the old image.
        let b = p.allocate().unwrap();
        p.with_page_mut(b, |pg| pg.put_u64(0, 9).unwrap()).unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 42).unwrap()).unwrap();
        assert_eq!(
            held.get_u64(0).unwrap(),
            41,
            "snapshot isolation for readers"
        );
        assert_eq!(p.with_page(a, |pg| pg.get_u64(0).unwrap()).unwrap(), 42);
    }

    #[test]
    fn snapshot_totals_and_deltas() {
        let mut p = BufferPool::with_shards(DiskManager::new(), 8, 4).unwrap();
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap.per_shard.len(), 4);
        // 16 installs into 8 frames, then 16 fetches of which the first 8
        // find their page evicted.
        assert_eq!((snap.hits(), snap.misses(), snap.evictions()), (0, 16, 24));
        assert_eq!(snap.pages_touched(), 16, "one tick per fetch");
        let totals = p.totals();
        assert_eq!((totals.hits, totals.misses, totals.evictions), (0, 16, 24));
        let later = p.snapshot();
        assert_eq!(later.since(&snap).pages_touched(), 0);
        p.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(p.snapshot().since(&snap).pages_touched(), 1);
    }

    #[test]
    fn concurrent_readers_share_frames() {
        use std::sync::atomic::AtomicU64;
        let mut p = BufferPool::with_shards(DiskManager::new(), 8, 4).unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, i as u64).unwrap())
                .unwrap();
        }
        let p = Arc::new(p);
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                let sum = Arc::clone(&sum);
                scope.spawn(move || {
                    let mut local = 0u64;
                    for _ in 0..200 {
                        for &id in &ids {
                            local += p.page(id).unwrap().get_u64(0).unwrap();
                        }
                    }
                    sum.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        // 8 threads × 200 rounds × (0+1+...+7).
        assert_eq!(sum.load(Ordering::Relaxed), 8 * 200 * 28);
    }
}
