//! Sharded, lock-striped buffer pool with shared-read frames.
//!
//! The pool is split into `num_shards` independent shards (a power of two),
//! each owning a disjoint slice of the page-id space (`page_id & mask`) with
//! its own lock, frame table and clock (second-chance) eviction hand. The
//! hot read path never holds any pool lock while the caller looks at page
//! bytes: [`BufferPool::page`] clones an `Arc<Page>` out of the frame under
//! a transient shard lock and returns it, so concurrent KNN workers scan
//! leaves without serializing on the pool. Writers take a per-frame write
//! latch and mutate copy-on-write, leaving concurrent readers on the old
//! image.

use crate::disk::{zero_page, DiskManager};
use crate::error::{Error, Result};
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

fn read_latch<T>(l: &RwLock<T>) -> Result<RwLockReadGuard<'_, T>> {
    l.read().map_err(|_| Error::Poisoned)
}

fn write_latch<T>(l: &RwLock<T>) -> Result<RwLockWriteGuard<'_, T>> {
    l.write().map_err(|_| Error::Poisoned)
}

/// A resident page. The slot outlives its residency: writers latch it after
/// releasing the shard lock, so eviction flags the slot (`evicted`) instead
/// of invalidating their reference.
#[derive(Debug)]
struct FrameSlot {
    /// The page image. Readers clone the inner `Arc` and drop every lock;
    /// writers hold the write latch and mutate via copy-on-write.
    page: RwLock<Arc<Page>>,
    dirty: AtomicBool,
    /// Clock reference bit (second chance).
    referenced: AtomicBool,
    /// Set (under the write latch) when the frame is evicted, so a writer
    /// that latched a stale slot retries instead of updating a dead frame.
    evicted: AtomicBool,
}

impl FrameSlot {
    fn new(page: Arc<Page>, dirty: bool) -> Arc<Self> {
        Arc::new(Self {
            page: RwLock::new(page),
            dirty: AtomicBool::new(dirty),
            referenced: AtomicBool::new(true),
            evicted: AtomicBool::new(false),
        })
    }
}

#[derive(Debug)]
struct Frame {
    page_id: PageId,
    slot: Arc<FrameSlot>,
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
/// Latch order is `shard → frame → disk`, and no code path ever holds two
/// shard locks, so the pool is deadlock-free by construction:
///
/// - [`page`](BufferPool::page) (and [`with_page`](BufferPool::with_page))
///   takes one shard lock just long enough to resolve the frame and clone
///   the page `Arc` out — never across the caller's use of the bytes.
/// - [`with_page_mut`](BufferPool::with_page_mut) resolves the frame under
///   the shard lock, releases it, then takes the frame's write latch and
///   mutates copy-on-write; if the frame was evicted in the gap it refetches.
/// - Eviction (under the shard lock) takes the victim's write latch to fence
///   out in-flight writers, writes back dirty bytes, and marks the slot dead.
///
/// Hits cost no logical I/O; misses cost one read, dirty evictions one
/// write — the accounting the paper's I/O plots assume. A panic inside a
/// reader closure can no longer poison the pool (readers hold no pool lock);
/// a writer panic poisons only that frame's latch, surfacing as
/// [`Error::Poisoned`] on later touches of that page.
#[derive(Debug)]
pub struct BufferPool {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard of `page_id` is `page_id & mask`.
    mask: u64,
    disk: Mutex<DiskManager>,
    capacity: usize,
    stats: Arc<IoStats>,
}

impl BufferPool {
    /// Wraps a disk with a sharded cache of `capacity` pages. The shard
    /// count is `next_pow2(threads · 4)`, clamped so every shard owns at
    /// least one frame.
    pub fn new(disk: DiskManager, capacity: usize) -> Result<Self> {
        Self::with_shards(disk, capacity, 0)
    }

    /// Like [`new`](Self::new) but with an explicit shard count (`0` =
    /// default sizing). Rounded up to a power of two and clamped to
    /// `capacity`.
    pub fn with_shards(disk: DiskManager, capacity: usize, shards: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::ZeroCapacity);
        }
        let num_shards = resolve_shards(capacity, shards);
        let stats = disk.stats();
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
            stats,
        })
    }

    fn shard_for(&self, page_id: PageId) -> &Shard {
        &self.shards[(page_id & self.mask) as usize]
    }

    /// Handle to the underlying I/O counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Buffer hits so far, summed across shards.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Buffer misses so far, summed across shards.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Evictions so far, summed across shards.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
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

    /// Number of pages on the underlying disk.
    pub fn num_pages(&self) -> usize {
        match self.disk.lock() {
            Ok(disk) => disk.num_pages(),
            Err(poisoned) => poisoned.into_inner().num_pages(),
        }
    }

    /// Allocates a fresh page. The page enters its shard dirty (it will be
    /// written on eviction/flush) without costing a read.
    pub fn allocate(&self) -> Result<PageId> {
        // The disk lock is released before the shard lock is taken: the
        // global latch order is shard → frame → disk, so holding the disk
        // across a shard acquisition could deadlock against a miss.
        let page_id = lock_mutex(&self.disk)?.allocate();
        let shard = self.shard_for(page_id);
        let mut inner = lock_mutex(&shard.inner)?;
        self.install(shard, &mut inner, page_id, zero_page(), true)?;
        Ok(page_id)
    }

    /// Fetches a page for reading, returning a shared handle to its current
    /// image. One shard lock is held transiently to resolve the frame —
    /// never while the caller uses the bytes — so concurrent readers of
    /// different shards (or even the same frame) do not serialize. Every
    /// fetch counts one logical access in the shared [`IoStats`], hit or
    /// miss, keeping "pages touched" comparable across pool geometries.
    pub fn page(&self, page_id: PageId) -> Result<Arc<Page>> {
        self.stats.record_access();
        let shard = self.shard_for(page_id);
        let mut inner = lock_mutex(&shard.inner)?;
        let slot = self.fetch_slot(shard, &mut inner, page_id)?;
        let image = Arc::clone(&*read_latch(&slot.page)?);
        Ok(image)
    }

    /// Runs `f` with shared access to the page. No pool lock is held while
    /// `f` runs; re-entering the pool from inside `f` is allowed.
    pub fn with_page<R>(&self, page_id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        Ok(f(&*self.page(page_id)?))
    }

    /// Runs `f` with mutable access to the page under its frame write latch,
    /// marking it dirty. The mutation is copy-on-write — the one place a
    /// page image is copied: `Arc::make_mut` writes in place when the frame
    /// is the image's only holder and copies it first when a reader's
    /// [`page`](Self::page) handle, the disk's overlay (after a flush), a
    /// resident source or the shared zero page still holds it, so each of
    /// those keeps the pre-write image. `f` may touch
    /// *other* pages through the pool but must not fetch `page_id` itself
    /// (the frame latch is not re-entrant).
    pub fn with_page_mut<R>(&self, page_id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.stats.record_access();
        let shard = self.shard_for(page_id);
        let mut f = Some(f);
        loop {
            let slot = {
                let mut inner = lock_mutex(&shard.inner)?;
                self.fetch_slot(shard, &mut inner, page_id)?
            };
            // Latch after releasing the shard lock (shard → frame order);
            // eviction may race in the gap, hence the `evicted` check.
            let mut image = write_latch(&slot.page)?;
            if slot.evicted.load(Ordering::Acquire) {
                continue;
            }
            let r = (f.take().expect("f runs once"))(Arc::make_mut(&mut image));
            slot.dirty.store(true, Ordering::Release);
            return Ok(r);
        }
    }

    /// Resolves `page_id` to its frame slot within `shard`, reading it from
    /// disk (and evicting) on a miss. Caller holds the shard lock.
    fn fetch_slot(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        page_id: PageId,
    ) -> Result<Arc<FrameSlot>> {
        if let Some(&idx) = inner.map.get(&page_id) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            let slot = &inner.frames[idx].slot;
            slot.referenced.store(true, Ordering::Relaxed);
            return Ok(Arc::clone(slot));
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let page = lock_mutex(&self.disk)?.read_page(page_id)?;
        self.install(shard, inner, page_id, page, false)
    }

    /// Installs a page into `shard`, evicting by clock if it is at budget.
    /// Caller holds the shard lock.
    fn install(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        page_id: PageId,
        page: Arc<Page>,
        dirty: bool,
    ) -> Result<Arc<FrameSlot>> {
        debug_assert!(!inner.map.contains_key(&page_id));
        let slot = FrameSlot::new(page, dirty);
        let idx = if inner.frames.len() < shard.capacity {
            inner.frames.push(Frame {
                page_id,
                slot: Arc::clone(&slot),
            });
            inner.frames.len() - 1
        } else {
            let idx = self.evict(shard, inner)?;
            inner.frames[idx] = Frame {
                page_id,
                slot: Arc::clone(&slot),
            };
            idx
        };
        inner.map.insert(page_id, idx);
        Ok(slot)
    }

    /// Second-chance sweep: clears reference bits until a frame without one
    /// comes under the hand, then evicts it (writing back dirty bytes) and
    /// returns its index. Terminates within two sweeps because reference
    /// bits are only set under the shard lock we hold. Caller holds the
    /// shard lock; the victim's write latch is taken inside (shard → frame)
    /// to fence out a writer that latched the slot before we evicted it.
    fn evict(&self, shard: &Shard, inner: &mut ShardInner) -> Result<usize> {
        debug_assert!(!inner.frames.is_empty(), "capacity > 0 guarantees a victim");
        // Three sweeps bound the loop: one to clear reference bits, one to
        // pick a victim, one more in case poisoned frames (pinned below)
        // pushed the hand past healthy candidates.
        let mut budget = 3 * inner.frames.len();
        loop {
            if budget == 0 {
                return Err(Error::Poisoned);
            }
            budget -= 1;
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let frame = &inner.frames[idx];
            if frame.slot.referenced.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            {
                // A frame whose latch a panicking writer poisoned stays
                // pinned (its image may be torn); evict around it.
                let Ok(image) = frame.slot.page.write() else {
                    continue;
                };
                if frame.slot.dirty.load(Ordering::Acquire) {
                    lock_mutex(&self.disk)?.write_page(frame.page_id, Arc::clone(&image))?;
                }
                frame.slot.evicted.store(true, Ordering::Release);
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
    /// A walk for persistence, not simulated query work, so it records no
    /// logical I/O beyond the flush's writes. `f`'s first error ends it.
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

    /// Writes every dirty resident page back to disk, shard by shard.
    /// Writers running concurrently with the flush keep their frames dirty
    /// for the next flush or eviction; quiesce writers first if a complete
    /// image is required (persist does — snapshots are taken post-build).
    pub fn flush_all(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let inner = lock_mutex(&shard.inner)?;
            for frame in &inner.frames {
                if frame.slot.dirty.load(Ordering::Acquire) {
                    let image = read_latch(&frame.slot.page)?;
                    lock_mutex(&self.disk)?.write_page(frame.page_id, Arc::clone(&image))?;
                    frame.slot.dirty.store(false, Ordering::Release);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(p.num_shards(), 8, "5 rounds up to 8");
        let p = BufferPool::with_shards(DiskManager::new(), 3, 16).unwrap();
        assert!(p.num_shards() <= 3, "each shard keeps >= 1 frame");
        assert!(p.num_shards().is_power_of_two());
        let auto = BufferPool::new(DiskManager::new(), 1024).unwrap();
        assert!(auto.num_shards().is_power_of_two());
        // Shard budgets must sum to the capacity.
        let p = BufferPool::with_shards(DiskManager::new(), 7, 4).unwrap();
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.shards.iter().map(|s| s.capacity).sum::<usize>(), 7);
        assert!(p.shards.iter().all(|s| s.capacity >= 1));
    }

    #[test]
    fn hits_are_free_misses_cost_reads() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 7).unwrap()).unwrap();
        let stats = p.stats();
        stats.reset();
        // Page resident: repeated access costs nothing.
        for _ in 0..5 {
            let v = p.with_page(a, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, 7);
        }
        assert_eq!(stats.reads(), 0);
        // 1 hit from the with_page_mut above + 5 from the loop.
        assert_eq!(p.hits(), 6);
        assert_eq!(p.misses(), 0);
    }

    #[test]
    fn eviction_writes_dirty_and_rereads() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap(); // evicts one of a/b (dirty from allocate)
        p.with_page_mut(a, |pg| pg.put_u64(0, 1).unwrap()).unwrap();
        let stats = p.stats();
        assert!(stats.writes() >= 1, "dirty eviction must write");
        assert!(stats.reads() >= 1, "re-fetch must read");
        assert!(p.evictions() >= 1);
        let _ = (b, c);
    }

    #[test]
    fn data_survives_eviction() {
        let p = pool(2);
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
        let p = BufferPool::with_shards(DiskManager::new(), 4, 4).unwrap();
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
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.flush_all().unwrap();
        let stats = p.stats();
        stats.reset();
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
        assert_eq!(stats.reads(), 0, "second chance kept b resident");
        p.with_page(a, |_| ()).unwrap(); // a was evicted → one read
        assert_eq!(stats.reads(), 1);
    }

    #[test]
    fn flush_all_clears_dirty() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u8(0, 1).unwrap()).unwrap();
        p.flush_all().unwrap();
        let w = p.stats().writes();
        p.flush_all().unwrap(); // nothing dirty: no extra writes
        assert_eq!(p.stats().writes(), w);
    }

    #[test]
    fn export_and_reimport_preserves_contents() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, 10 + i as u64).unwrap())
                .unwrap();
        }
        let images = p.export_pages().unwrap();
        assert_eq!(images.len(), 6);
        let stats = IoStats::new();
        let reopened =
            BufferPool::new(DiskManager::from_pages(images, Arc::clone(&stats)), 2).unwrap();
        assert_eq!(reopened.num_pages(), 6);
        assert_eq!(stats.reads(), 0, "restoring costs no logical I/O");
        for (i, &id) in ids.iter().enumerate() {
            let v = reopened.with_page(id, |pg| pg.get_u64(0).unwrap()).unwrap();
            assert_eq!(v, 10 + i as u64);
        }
        assert!(stats.reads() > 0, "real accesses tick as usual");
    }

    #[test]
    fn a_flushed_page_is_held_once_and_copied_on_the_next_write() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u64(0, 1).unwrap()).unwrap();
        p.flush_all().unwrap();
        // The frame's image and the overlay's are one allocation...
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
        // And a resident source's image is the frame's: a reopen holds
        // each page once too.
        let images = p.export_pages().unwrap();
        assert!(Arc::ptr_eq(&images[a as usize], &rewritten));
        let reopened = BufferPool::new(DiskManager::from_pages(images, IoStats::new()), 4).unwrap();
        assert!(Arc::ptr_eq(&reopened.page(a).unwrap(), &rewritten));
    }

    #[test]
    fn missing_page_errors() {
        let p = pool(2);
        assert!(p.with_page(99, |_| ()).is_err());
    }

    #[test]
    fn capacity_one_works() {
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.put_u8(0, 1).unwrap()).unwrap();
        p.with_page_mut(b, |pg| pg.put_u8(0, 2).unwrap()).unwrap();
        assert_eq!(p.with_page(a, |pg| pg.get_u8(0).unwrap()).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg.get_u8(0).unwrap()).unwrap(), 2);
    }

    #[test]
    fn page_handles_outlive_eviction() {
        let p = pool(1);
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
    fn snapshot_totals_match_counters() {
        let p = BufferPool::with_shards(DiskManager::new(), 8, 4).unwrap();
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap.per_shard.len(), 4);
        assert_eq!(snap.hits(), p.hits());
        assert_eq!(snap.misses(), p.misses());
        assert_eq!(snap.evictions(), p.evictions());
        assert_eq!(snap.pages_touched(), p.hits() + p.misses());
        let later = p.snapshot();
        assert_eq!(later.since(&snap).pages_touched(), 0);
        p.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(p.snapshot().since(&snap).pages_touched(), 1);
    }

    #[test]
    fn poisoned_frame_reports_typed_error() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.with_page_mut(a, |_| panic!("query thread dies"));
        }));
        assert!(caught.is_err());
        // The panicked writer poisoned only a's frame latch...
        assert_eq!(p.with_page(a, |_| ()).err(), Some(Error::Poisoned));
        // ...the rest of the pool keeps serving.
        assert!(p.with_page(b, |_| ()).is_ok());
        assert!(p.allocate().is_ok());
    }

    #[test]
    fn concurrent_readers_share_frames() {
        use std::sync::atomic::AtomicU64;
        let p = Arc::new(BufferPool::with_shards(DiskManager::new(), 8, 4).unwrap());
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |pg| pg.put_u64(0, i as u64).unwrap())
                .unwrap();
        }
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
