//! Saving and reopening built indexes — the rebuild-free open path.
//!
//! A snapshot stores four sections: the reduction model (exact, bit-level
//! float encoding), backend-specific metadata (tree roots, heights, leaf
//! fences, radii, partition tables, pool capacities), a page directory
//! (group layout plus a CRC32 per page), and the raw 4 KiB page images of
//! every storage structure, concatenated so page `i` of a group sits at a
//! fixed file offset — and a fifth, the id column, for a backend that
//! stores a heap. Reopening reattaches the trees/heaps via their
//! `from_parts` constructors — no projection, clustering or bulk-load work
//! is redone.
//!
//! There is one open path. [`open`] / [`open_with`] verify the superblock,
//! section table and the small sections, then mount the PAGES section as
//! demand-read [`FileSource`]s — pages are pread in (and CRC-verified) the
//! first time a query touches them, so open cost is ~O(superblock) and
//! resident memory is bounded by the pool capacity, not the dataset.
//! [`open_resident`] is that open with two steps added: PAGES is streamed
//! through its section CRC before anything is reattached, and every pool's
//! disk is then made resident ([`BufferPool::make_resident`]) — the whole
//! file verified, every page in memory, no file handle kept. It is what
//! [`open_or_build`] uses to decide whether a cached snapshot is clean
//! enough to reuse.
//!
//! Because page images and model floats round-trip bit-exactly — and a
//! buffer-pool miss faults in exactly the bytes the save wrote — both paths
//! return byte-for-byte the same `(distance, id)` answers as the index that
//! was saved, at any pool capacity.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{PersistError, Result};
use crate::format::{self, section_id, SectionEntry, Superblock};
use crate::model_codec;
use mmdr_core::ReductionResult;
use mmdr_hybridtree::HybridTree;
pub use mmdr_idistance::BuiltIndex;
use mmdr_idistance::{Backend, GlobalLdrIndex, IDistanceIndex, SeqScan, VectorHeap};
use mmdr_linalg::Matrix;
use mmdr_query::AttrStore;
use mmdr_storage::{crc32, BufferPool, Crc32, DiskManager, FileSource, PageId, PAGE_SIZE};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Builds the chosen backend as a [`BuiltIndex`] — the build door of
/// [`mmdr_idistance::load`], with this crate's error type.
pub fn build_index(
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    buffer_pages: usize,
) -> Result<BuiltIndex> {
    Ok(mmdr_idistance::build_index(
        backend,
        data,
        model,
        buffer_pages,
    )?)
}

/// The superblock's backend tag. Tag 3 named a retired backend; a file
/// that carries it is refused as unknown.
fn backend_tag(b: Backend) -> u32 {
    match b {
        Backend::SeqScan => 1,
        Backend::IDistance => 2,
        Backend::Gldr => 4,
    }
}

fn backend_from_tag(tag: u32) -> Result<Backend> {
    Ok(match tag {
        1 => Backend::SeqScan,
        2 => Backend::IDistance,
        4 => Backend::Gldr,
        other => return Err(PersistError::UnknownBackendTag(other)),
    })
}

// ---- open options ---------------------------------------------------------

/// Knobs for [`open_with`]: how a snapshot's pages are mounted.
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Override every restored buffer pool's frame capacity (the knob
    /// behind `--pool-pages`). `None` keeps the capacities recorded at save
    /// time. Applied per pool (iDistance's tree and heap each get this
    /// many frames, as does each tree of a gLDR forest), clamped to ≥ 1.
    /// Answers are bit-identical at any capacity — only the miss/eviction
    /// counts and resident footprint change.
    pub pool_pages: Option<usize>,
    /// Sequential readahead window in pages for demand-read sources (the
    /// knob behind `--readahead`). When a buffer-pool miss lands exactly
    /// one past the previous miss, the next `readahead` pages are fetched
    /// in one pread — leaf scans pay one physical read per window. `0` or
    /// `1` disables it. Ignored for resident opens.
    pub readahead: usize,
    /// Verify the whole file at open and load every page into memory,
    /// keeping no file handle. When `false`, pages are pread on demand and
    /// CRC-verified per page as queries touch them.
    pub resident: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        Self {
            pool_pages: None,
            readahead: 8,
            resident: false,
        }
    }
}

// ---- page groups ----------------------------------------------------------

/// Decodes the page directory: per-group per-page CRC32s. No count in it
/// sizes anything the bytes behind it could not fill.
fn read_pagedir(payload: &[u8]) -> Result<Vec<Vec<u32>>> {
    let mut r = ByteReader::new(payload, "section pagedir");
    let n = r.get_u32()? as usize;
    // A group is at least its 8-byte page count.
    if n.saturating_mul(8) > r.remaining() {
        return Err(PersistError::malformed(format!(
            "section pagedir: {n} groups in {} bytes",
            r.remaining()
        )));
    }
    let mut dir = Vec::with_capacity(n);
    for _ in 0..n {
        let count = r.get_len(4)?;
        let mut crcs = Vec::with_capacity(count);
        for _ in 0..count {
            crcs.push(r.get_u32()?);
        }
        dir.push(crcs);
    }
    r.expect_end()?;
    Ok(dir)
}

/// Total page count across a directory, with the byte length the PAGES
/// section must therefore have.
fn expect_pages_len(dir: &[Vec<u32>], actual: u64) -> Result<()> {
    let total: u64 = dir.iter().map(|g| g.len() as u64).sum();
    let expected = total * PAGE_SIZE as u64;
    if actual != expected {
        return Err(PersistError::malformed(format!(
            "page section holds {actual} bytes, directory describes {expected}"
        )));
    }
    Ok(())
}

/// Reattaches one page group — a window into the snapshot file's PAGES
/// section — behind a pool of the given capacity; a resident open then
/// loads the group into memory. Restoring installs no frames and counts
/// nothing: the pool counts from here, like a fresh build's. Only the
/// capacity is
/// recorded: the reopened pool stripes its frames across whatever shard
/// count the current process resolves (snapshots predate and outlive pool
/// geometry), which cannot change answers or `pages_touched` — both are
/// independent of shard layout.
fn restore_pool(
    group: FileSource,
    recorded_capacity: usize,
    opts: &OpenOptions,
) -> Result<BufferPool> {
    let disk = DiskManager::from_source(Box::new(group), opts.readahead);
    let capacity = opts.pool_pages.unwrap_or(recorded_capacity).max(1);
    let pool = BufferPool::new(disk, capacity)?;
    if opts.resident {
        pool.make_resident()?;
    }
    Ok(pool)
}

// ---- per-structure metadata ----------------------------------------------

fn put_heap_meta(w: &mut ByteWriter, heap: &VectorHeap) {
    w.put_usize(heap.pool().capacity());
    w.put_u64(heap.len());
    match heap.open_page() {
        Some((page, part, dim)) => {
            w.put_u8(1);
            w.put_u64(page);
            w.put_u32(part);
            w.put_usize(dim);
        }
        None => w.put_u8(0),
    }
}

/// Heap-file reattach state: pool capacity, stored vector count, and the
/// open append page as `(page, partition, dim)` when one exists.
type HeapMeta = (usize, u64, Option<(PageId, u32, usize)>);

/// A heap's id column: per heap page, its records' point ids in slot order.
type IdColumn = Vec<Vec<u64>>;

/// The IDS section of `heap`: per heap page its record count, then every
/// record's point id in record order, each list as zig-zag delta varints
/// ([`ByteWriter::put_id_list`]) — a byte a page, and about two a row.
fn id_column(heap: &VectorHeap) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_id_list(heap.id_pages().iter().map(|ids| ids.len() as u64));
    w.put_id_list(heap.id_pages().iter().flatten().copied());
    w.into_bytes()
}

/// Decodes an IDS section into its pages' ids. A page's count is held to
/// what a page can hold, and the ids to the counts, before either sizes
/// anything.
fn get_id_column(payload: &[u8]) -> Result<IdColumn> {
    let mut r = ByteReader::new(payload, "section ids");
    let lens = r.get_id_list()?;
    let mut ids = r.get_ids()?;
    let malformed = |what| PersistError::malformed(format!("section ids: {what}"));
    if ids.len() as u128 != lens.iter().map(|&n| n as u128).sum::<u128>() {
        return Err(malformed("the ids are not the pages' counts"));
    }
    let mut pages = Vec::with_capacity(lens.len());
    for n in lens {
        if n > VectorHeap::page_capacity(1) {
            return Err(malformed("a page holds more rows than fit one"));
        }
        let mut page = Vec::with_capacity(n);
        for id in ids.by_ref().take(n) {
            page.push(id?);
        }
        pages.push(page);
    }
    drop(ids);
    r.expect_end()?;
    Ok(pages)
}

/// Reattaches a heap to its pages and its id column, which a snapshot of a
/// heap backend must carry.
fn restore_heap(
    pool: BufferPool,
    (_, len, open): HeapMeta,
    column: Option<IdColumn>,
) -> Result<VectorHeap> {
    let pages = column.ok_or_else(|| PersistError::malformed("a heap without section ids"))?;
    Ok(VectorHeap::from_parts(pool, open, len, pages)?)
}

fn get_heap_meta(r: &mut ByteReader<'_>) -> Result<HeapMeta> {
    let capacity = r.get_usize()?;
    let len = r.get_u64()?;
    let open = match r.get_u8()? {
        0 => None,
        1 => {
            let page = r.get_u64()?;
            let part = r.get_u32()?;
            let dim = r.get_usize()?;
            Some((page, part, dim))
        }
        other => {
            return Err(PersistError::malformed(format!(
                "heap open-page flag {other}"
            )))
        }
    };
    Ok((capacity, len, open))
}

/// Scalar state of one hybrid tree: what
/// [`HybridTree::from_parts`] needs besides the pages.
struct HybridMeta {
    capacity: usize,
    root: PageId,
    dim: usize,
    len: usize,
    height: usize,
}

fn put_hybrid_meta(w: &mut ByteWriter, t: &HybridTree) {
    w.put_usize(t.pool().capacity());
    w.put_u64(t.root_page_id());
    w.put_usize(t.dim());
    w.put_usize(t.len());
    w.put_usize(t.height());
}

fn get_hybrid_meta(r: &mut ByteReader<'_>) -> Result<HybridMeta> {
    Ok(HybridMeta {
        capacity: r.get_usize()?,
        root: r.get_u64()?,
        dim: r.get_usize()?,
        len: r.get_usize()?,
        height: r.get_usize()?,
    })
}

fn restore_hybrid(meta: HybridMeta, group: FileSource, opts: &OpenOptions) -> Result<HybridTree> {
    let pool = restore_pool(group, meta.capacity, opts)?;
    Ok(HybridTree::from_parts(
        pool,
        meta.root,
        meta.dim,
        meta.len,
        meta.height,
    )?)
}

// ---- save ----------------------------------------------------------------

/// The META section of `index` — the backend's scalar state, which for
/// iDistance reads the rest of each partition back from `model` — the
/// buffer pools whose pages make up PAGES, one group each, in the order
/// [`restore`] takes them back, and the heap whose id column is IDS, if the
/// backend has one.
fn meta_and_pools<'a>(
    index: &'a BuiltIndex,
    model: &ReductionResult,
) -> Result<(Vec<u8>, Vec<&'a BufferPool>, Option<&'a VectorHeap>)> {
    let mut meta = ByteWriter::new();
    let mut pools: Vec<&BufferPool> = Vec::new();
    let mut heap = None;
    match index {
        BuiltIndex::SeqScan(scan) => {
            put_heap_meta(&mut meta, scan.heap());
            pools.push(scan.heap().pool());
            heap = Some(scan.heap());
        }
        BuiltIndex::IDistance(idx) => {
            // A partition record says only what the load measured; the rest
            // is read back from `model`, which must be the one it was
            // loaded under.
            if idx.partitions().len() != model.clusters.len() + 1 {
                return Err(PersistError::malformed(format!(
                    "index has {} partitions, the model {} clusters",
                    idx.partitions().len(),
                    model.clusters.len()
                )));
            }
            meta.put_f64(idx.c());
            meta.put_usize(idx.tree().pool().capacity());
            meta.put_usize(idx.tree().len());
            meta.put_f64_slice(idx.tree().fences());
            put_heap_meta(&mut meta, idx.heap());
            for p in idx.partitions() {
                model_codec::put_partition(&mut meta, p);
            }
            pools.push(idx.tree().pool());
            pools.push(idx.heap().pool());
            heap = Some(idx.heap());
        }
        BuiltIndex::Gldr(gldr) => {
            meta.put_usize(gldr.dim());
            meta.put_usize(gldr.len());
            meta.put_usize(gldr.num_cluster_trees());
            for i in 0..gldr.num_cluster_trees() {
                let (tree, max_radius) = gldr.cluster_tree(i);
                meta.put_f64(max_radius);
                put_hybrid_meta(&mut meta, tree);
                pools.push(tree.pool());
            }
            match gldr.outlier_tree() {
                Some(tree) => {
                    meta.put_u8(1);
                    put_hybrid_meta(&mut meta, tree);
                    pools.push(tree.pool());
                }
                None => meta.put_u8(0),
            }
        }
    }
    Ok((meta.into_bytes(), pools, heap))
}

/// The page directory of `pools` — per group its page count and a CRC32 per
/// page — with the CRC32 and the length of the PAGES payload those pages
/// make, back to back: the first of the writer's two walks over the pages,
/// each page seen by reference where the pool holds it.
fn page_directory(pools: &[&BufferPool]) -> Result<(Vec<u8>, u32, u64)> {
    let mut dir = ByteWriter::new();
    dir.put_u32(pools.len() as u32);
    let mut pages_crc = Crc32::new();
    let mut pages_len = 0u64;
    for pool in pools {
        dir.put_usize(pool.num_pages());
        pool.visit_pages(|page| -> Result<()> {
            dir.put_u32(crc32(page.as_bytes()));
            pages_crc.update(page.as_bytes());
            pages_len += PAGE_SIZE as u64;
            Ok(())
        })?;
    }
    Ok((dir.into_bytes(), pages_crc.finish(), pages_len))
}

/// Streams a snapshot of the index and its model into `out` (`at` names it
/// in errors): the superblock and table, the small sections, then the page
/// images one by one. PAGES goes last: it dominates the file, and keeping
/// the small sections up front lets an open fetch everything it needs
/// with a few short preads near the head of the file. The images go out
/// back to back with no framing, so page `i` of a group lives at
/// `group_base + i * PAGE_SIZE` — the invariant [`FileSource`] preads
/// against. Nothing the size of the file is ever held in memory.
///
/// The model epoch — how many re-fits produced this model — rides
/// as an optional trailing u64 in the MODEL section: epoch 0 writes nothing,
/// and readers treat an absent field as epoch 0. IDS and ATTRS sit among the
/// small sections; ATTRS is omitted entirely for an attribute-less index,
/// so such an image does not depend on whether a store was passed.
fn write_snapshot(
    out: &mut impl Write,
    at: &Path,
    index: &BuiltIndex,
    model: &ReductionResult,
    model_epoch: u64,
    attrs: Option<&AttrStore>,
) -> Result<()> {
    let mut model_w = ByteWriter::new();
    model_codec::put_model(&mut model_w, model);
    if model_epoch > 0 {
        model_w.put_u64(model_epoch);
    }
    let (meta, pools, heap) = meta_and_pools(index, model)?;
    let (pagedir, pages_crc, pages_len) = page_directory(&pools)?;
    let mut sections = vec![
        (section_id::MODEL, model_w.into_bytes()),
        (section_id::META, meta),
        (section_id::PAGEDIR, pagedir),
    ];
    sections.extend(heap.map(|heap| (section_id::IDS, id_column(heap))));
    if let Some(store) = attrs.filter(|s| !s.is_empty()) {
        sections.push((section_id::ATTRS, store.to_bytes()));
    }
    let heads: Vec<(u32, u32, u64)> = sections
        .iter()
        .map(|(id, payload)| (*id, crc32(payload), payload.len() as u64))
        .chain([(section_id::PAGES, pages_crc, pages_len)])
        .collect();
    let mut put = |bytes: &[u8]| out.write_all(bytes).map_err(|e| PersistError::io(at, e));
    put(&format::header(backend_tag(index.backend()), &heads))?;
    for (_, payload) in &sections {
        put(payload)?;
    }
    for pool in pools {
        pool.visit_pages(|page| put(page.as_bytes()))?;
    }
    Ok(())
}

/// Replaces the file at `path` with what `write` puts into a fresh sibling
/// temp file: create, write, rename — and on any error remove the temp file
/// and leave `path` as it was, so a crash or failure mid-write never leaves
/// a half-written file at the target. The temp name embeds the process id
/// and a per-process counter, so concurrent replacers (two threads, or two
/// processes) each write their own and the atomic rename decides a winner.
/// The temp file is synced before the rename and the parent directory after
/// it, so once this returns the new file is on stable storage under its
/// name. Returns the handle that wrote the file, standing at its end.
pub(crate) fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<()>,
) -> Result<File> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let replaced = File::create(&tmp)
        .map_err(|e| PersistError::io(&tmp, e))
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all().map_err(|e| PersistError::io(&tmp, e))?;
            std::fs::rename(&tmp, path).map_err(|e| PersistError::io(path, e))?;
            let dir =
                (path.parent().filter(|dir| !dir.as_os_str().is_empty())).unwrap_or(Path::new("."));
            File::open(dir)
                .and_then(|dir| dir.sync_all())
                .map_err(|e| PersistError::io(dir, e))?;
            Ok(file)
        });
    if replaced.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    replaced
}

/// Writes a snapshot of the index and its model to `path`, through
/// `replace_file`: the target is always one saver's complete image —
/// two threads, or two processes racing through [`open_or_build`] — never
/// an interleaving.
pub fn save(path: impl AsRef<Path>, index: &BuiltIndex, model: &ReductionResult) -> Result<()> {
    save_with_attrs(path, index, model, 0, None)
}

/// [`save`] that stamps the snapshot with its model epoch — the version
/// counter a re-fit bumps — and embeds a per-row attribute store
/// as an ATTRS section. `None` (or an empty store) writes no section.
///
/// Whatever step fails — creating the temp file, a page that cannot be
/// read, a write the disk refuses, the rename — the temp file is removed
/// before the error is returned.
pub fn save_with_attrs(
    path: impl AsRef<Path>,
    index: &BuiltIndex,
    model: &ReductionResult,
    model_epoch: u64,
    attrs: Option<&AttrStore>,
) -> Result<()> {
    let path = path.as_ref();
    replace_file(path, |file| {
        let mut out = BufWriter::with_capacity(16 * PAGE_SIZE, file);
        write_snapshot(&mut out, path, index, model, model_epoch, attrs)?;
        // A dropped BufWriter swallows its last write's error.
        out.flush().map_err(|e| PersistError::io(path, e))
    })
    .map(drop)
}

// ---- open ----------------------------------------------------------------

/// A snapshot reopened into a ready-to-query index.
#[derive(Debug)]
pub struct Opened {
    /// Which backend the snapshot stored.
    pub backend: Backend,
    /// The reduction model the index was built from.
    pub model: ReductionResult,
    /// The reattached index — queryable immediately, no rebuild performed.
    pub index: BuiltIndex,
    /// How many re-fits produced the stored model (0 for a
    /// snapshot saved before any re-fit, including every legacy image).
    pub model_epoch: u64,
    /// Per-row attribute payloads, when the snapshot carries an ATTRS
    /// section (`None` for attribute-less and legacy images).
    pub attrs: Option<AttrStore>,
}

/// Exact group-count check for a backend's page section.
fn expect_groups(groups: &[FileSource], expected: usize) -> Result<()> {
    if groups.len() != expected {
        return Err(PersistError::malformed(format!(
            "page section has {} groups, backend needs {expected}",
            groups.len()
        )));
    }
    Ok(())
}

/// Reattaches a backend from its decoded metadata, page groups — which
/// arrive in the order [`meta_and_pools`] listed their pools — and id
/// column.
fn restore(
    backend: Backend,
    model: &ReductionResult,
    meta_bytes: &[u8],
    mut groups: Vec<FileSource>,
    column: Option<IdColumn>,
    opts: &OpenOptions,
) -> Result<BuiltIndex> {
    let mut meta = ByteReader::new(meta_bytes, "section meta");
    let index = match backend {
        Backend::SeqScan => {
            let heap_meta = get_heap_meta(&mut meta)?;
            expect_groups(&groups, 1)?;
            let pool = restore_pool(groups.pop().expect("one group"), heap_meta.0, opts)?;
            let heap = restore_heap(pool, heap_meta, column)?;
            BuiltIndex::SeqScan(SeqScan::from_parts(heap, model)?)
        }
        Backend::IDistance => {
            let c = meta.get_f64()?;
            let tree_capacity = meta.get_usize()?;
            let tree_len = meta.get_usize()?;
            let tree_fences = meta.get_f64_vec()?;
            let heap_meta = get_heap_meta(&mut meta)?;
            // One record per cluster of the model, then the outlier home.
            let partitions = (0..=model.clusters.len())
                .map(|i| model_codec::get_partition(&mut meta, model, i))
                .collect::<Result<Vec<_>>>()?;
            expect_groups(&groups, 2)?;
            let heap_pages = groups.pop().expect("two groups");
            let tree_pages = groups.pop().expect("two groups");
            let tree_pool = restore_pool(tree_pages, tree_capacity, opts)?;
            let heap_pool = restore_pool(heap_pages, heap_meta.0, opts)?;
            // The fences route every seek: the open reads no page.
            let tree = mmdr_btree::BPlusTree::from_parts(tree_pool, tree_fences, tree_len)?;
            let heap = restore_heap(heap_pool, heap_meta, column)?;
            BuiltIndex::IDistance(Box::new(IDistanceIndex::from_parts(
                tree, heap, partitions, c, model.dim,
            )?))
        }
        Backend::Gldr => {
            if column.is_some() {
                return Err(PersistError::malformed("section ids beside no heap"));
            }
            let dim = meta.get_usize()?;
            let len = meta.get_usize()?;
            let n_clusters = meta.get_len(1)?;
            if n_clusters != model.clusters.len() {
                return Err(PersistError::malformed(format!(
                    "{n_clusters} cluster trees but the model has {} clusters",
                    model.clusters.len()
                )));
            }
            let mut cluster_meta = Vec::with_capacity(n_clusters);
            for _ in 0..n_clusters {
                let max_radius = meta.get_f64()?;
                cluster_meta.push((max_radius, get_hybrid_meta(&mut meta)?));
            }
            let outlier_meta = match meta.get_u8()? {
                0 => None,
                1 => Some(get_hybrid_meta(&mut meta)?),
                other => {
                    return Err(PersistError::malformed(format!(
                        "outlier tree flag {other}"
                    )));
                }
            };
            let expected = n_clusters + usize::from(outlier_meta.is_some());
            expect_groups(&groups, expected)?;
            let mut group_iter = groups.into_iter();
            let mut clusters = Vec::with_capacity(n_clusters);
            for (i, (max_radius, hm)) in cluster_meta.into_iter().enumerate() {
                let tree = restore_hybrid(hm, group_iter.next().expect("counted groups"), opts)?;
                // The forest's subspaces come from the model, in build
                // order — the snapshot stores them once, not twice.
                clusters.push((model.clusters[i].subspace.clone(), tree, max_radius));
            }
            let outlier_tree = match outlier_meta {
                Some(hm) => Some(restore_hybrid(
                    hm,
                    group_iter.next().expect("counted groups"),
                    opts,
                )?),
                None => None,
            };
            BuiltIndex::Gldr(GlobalLdrIndex::from_parts(
                clusters,
                outlier_tree,
                dim,
                len,
            )?)
        }
    };
    meta.expect_end()?;
    Ok(index)
}

/// Decodes an ATTRS payload, mapping codec failures into persist errors.
fn decode_attrs(payload: &[u8]) -> Result<AttrStore> {
    AttrStore::from_bytes(payload).map_err(|e| PersistError::malformed(format!("attrs: {e}")))
}

/// Reads the optional trailing model-epoch field of a MODEL section (0
/// when absent — the pre-epoch format) and checks the section ends there.
fn get_model_epoch(model_r: &mut ByteReader<'_>) -> Result<u64> {
    let epoch = if model_r.remaining() >= 8 {
        model_r.get_u64()?
    } else {
        0
    };
    model_r.expect_end()?;
    Ok(epoch)
}

fn read_exact_at(file: &File, buf: &mut [u8], offset: u64, path: &Path) -> Result<()> {
    file.read_exact_at(buf, offset)
        .map_err(|e| PersistError::io(path, e))
}

/// Reads and verifies a snapshot's superblock and section table — where
/// each section lies and how long it is — and no section.
pub fn read_head(file: &File, path: &Path) -> Result<(Superblock, Vec<SectionEntry>)> {
    let disk_len = file
        .metadata()
        .map_err(|e| PersistError::io(path, e))?
        .len();
    let mut prefix = vec![0u8; disk_len.min(format::SUPERBLOCK_LEN as u64) as usize];
    read_exact_at(file, &mut prefix, 0, path)?;
    let sb = format::parse_superblock(&prefix, disk_len)?;
    let mut table = vec![0u8; sb.table_len()];
    read_exact_at(file, &mut table, format::SUPERBLOCK_LEN as u64, path)?;
    let entries = format::parse_table(&table, &sb)?;
    Ok((sb, entries))
}

fn find_entry(entries: &[SectionEntry], id: u32) -> Result<SectionEntry> {
    entries.iter().find(|e| e.id == id).copied().ok_or_else(|| {
        PersistError::malformed(format!("snapshot has no {}", format::section_name(id)))
    })
}

/// Reads and CRC-verifies one section payload.
fn read_section(file: &File, entry: &SectionEntry, path: &Path) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; entry.len as usize];
    read_exact_at(file, &mut buf, entry.offset, path)?;
    format::verify_payload(entry, &buf)?;
    Ok(buf)
}

/// Streams the PAGES payload through its section CRC, a small reused buffer
/// of whole pages at a time — what a resident open checks before it
/// reattaches anything, so a damaged image fails the open as a damaged
/// section.
fn verify_pages(file: &File, entry: &SectionEntry, path: &Path) -> Result<()> {
    let mut buf = vec![0u8; 8 * PAGE_SIZE];
    let mut crc = Crc32::new();
    let mut done = 0u64;
    while done < entry.len {
        let want = (entry.len - done).min(buf.len() as u64) as usize;
        let chunk = &mut buf[..want];
        read_exact_at(file, chunk, entry.offset + done, path)?;
        crc.update(chunk);
        done += chunk.len() as u64;
    }
    entry.expect_crc(crc.finish())
}

/// Opens a snapshot into a ready index with explicit [`OpenOptions`] — no
/// clustering, projection or bulk-load is redone. It verifies the
/// superblock, section table and the small sections (model, metadata, page
/// directory, attributes), then mounts each page group as a [`FileSource`]
/// window into the PAGES section: pages are pread in, and verified against
/// their directory CRC32, the first time the buffer pool misses on them, so
/// open cost is ~O(superblock), independent of dataset size. Damage in the
/// superblock, table or a small section surfaces as a typed
/// [`PersistError`] at open, while a damaged page image surfaces as a
/// checksum error from the first query that touches it — never a panic,
/// never a silently wrong answer.
///
/// With `opts.resident` the PAGES payload is first streamed through its
/// section CRC and every pool then loads its pages, so damage anywhere
/// fails the open, no query reads the file and no handle to it is kept
/// ([`open_resident`], [`scrub`]).
pub fn open_with(path: impl AsRef<Path>, opts: &OpenOptions) -> Result<Opened> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| PersistError::io(path, e))?;
    let (sb, entries) = read_head(&file, path)?;
    let backend = backend_from_tag(sb.backend_tag)?;

    // A section's bytes are dropped as soon as they are decoded, so the
    // pages a resident open loads take their place on the heap instead of
    // sitting above the holes they would leave.
    let section = |id| read_section(&file, &find_entry(&entries, id)?, path);
    let (model, model_epoch) = {
        let bytes = section(section_id::MODEL)?;
        let mut model_r = ByteReader::new(&bytes, "section model");
        let model = model_codec::get_model(&mut model_r)?;
        (model, get_model_epoch(&mut model_r)?)
    };
    let meta_bytes = section(section_id::META)?;
    let dir = read_pagedir(&section(section_id::PAGEDIR)?)?;
    let column = match entries.iter().find(|e| e.id == section_id::IDS) {
        Some(entry) => Some(get_id_column(&read_section(&file, entry, path)?)?),
        None => None,
    };
    let attrs = match entries.iter().find(|e| e.id == section_id::ATTRS) {
        Some(entry) => Some(decode_attrs(&read_section(&file, entry, path)?)?),
        None => None,
    };

    let pages_entry = find_entry(&entries, section_id::PAGES)?;
    expect_pages_len(&dir, pages_entry.len)?;
    if opts.resident {
        verify_pages(&file, &pages_entry, path)?;
    }

    let file = Arc::new(file);
    let mut base = pages_entry.offset;
    let mut groups = Vec::with_capacity(dir.len());
    for crcs in dir {
        let span = crcs.len() as u64 * PAGE_SIZE as u64;
        groups.push(FileSource::new(Arc::clone(&file), base, crcs.into()));
        base += span;
    }

    let index = restore(backend, &model, &meta_bytes, groups, column, opts)?;
    Ok(Opened {
        backend,
        model,
        index,
        model_epoch,
        attrs,
    })
}

/// Opens a snapshot with default options: demand-read pages, recorded pool
/// capacities, a small sequential readahead window.
pub fn open(path: impl AsRef<Path>) -> Result<Opened> {
    open_with(path, &OpenOptions::default())
}

/// Resident open: verifies the whole file and loads every page into memory
/// up front. Any damage anywhere in the file — including page images —
/// fails the open; afterwards the file is not read again.
pub fn open_resident(path: impl AsRef<Path>) -> Result<Opened> {
    open_with(
        path,
        &OpenOptions {
            resident: true,
            ..OpenOptions::default()
        },
    )
}

/// Verifies an entire snapshot file — every section CRC, every page image,
/// and that the metadata reattaches — without keeping the index. The
/// deep-check counterpart to the default [`open`].
pub fn scrub(path: impl AsRef<Path>) -> Result<()> {
    open_resident(path).map(|_| ())
}

fn expect_backend(opened: Opened, backend: Backend) -> Result<Opened> {
    if opened.backend != backend {
        return Err(PersistError::BackendMismatch {
            expected: backend.name(),
            found: opened.backend.name(),
        });
    }
    Ok(opened)
}

/// Like [`open`], additionally checking the snapshot stores the expected
/// backend.
pub fn open_expecting(path: impl AsRef<Path>, backend: Backend) -> Result<Opened> {
    expect_backend(open(path)?, backend)
}

/// Cache-style helper for harnesses: reuse a matching snapshot at `path`
/// when one opens cleanly, otherwise build the index fresh and (re)write
/// the snapshot. Returns the index and whether it came from the snapshot.
///
/// Opens **resident** and fully verified: a cache whose page images are
/// damaged should be rebuilt now, not discovered mid-query later.
///
/// Safe under concurrent callers (threads or processes) racing on the same
/// missing path: each builds independently and [`save`] writes through a
/// unique temp file plus atomic rename, so racers never interleave bytes —
/// the file ends up as exactly one racer's complete image and every caller
/// returns a valid, queryable index. If a racer's save itself fails (e.g.
/// the directory vanished), it falls back to opening whatever snapshot won
/// before giving up.
pub fn open_or_build(
    path: impl AsRef<Path>,
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    buffer_pages: usize,
) -> Result<(BuiltIndex, bool)> {
    let path = path.as_ref();
    if path.exists() {
        if let Ok(opened) = open_resident(path).and_then(|o| expect_backend(o, backend)) {
            return Ok((opened.index, true));
        }
        // Stale or damaged cache entry: fall through and rebuild it.
    }
    let index = build_index(backend, data, model, buffer_pages)?;
    if let Err(save_err) = save(path, &index, model) {
        // A concurrent winner's snapshot is as good as ours.
        if let Ok(opened) = open_resident(path).and_then(|o| expect_backend(o, backend)) {
            return Ok((opened.index, true));
        }
        return Err(save_err);
    }
    Ok((index, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_storage::{Page, PageSource};
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    /// Two line-shaped clusters, interleaved, and the model fitted to them.
    fn fixture() -> (Matrix, ReductionResult) {
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let t = (i / 2) as f64 / 299.0;
                match i % 2 {
                    0 => vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)],
                    _ => vec![5.0 + jit(i, 0.1), 5.0 + jit(i, 0.9), 5.0 + t, 5.0 - 0.5 * t],
                }
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let params = MmdrParams {
            max_ec: 4,
            ..Default::default()
        };
        let model = Mmdr::new(params).fit(&data).unwrap();
        (data, model)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdr-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn the_streamed_file_is_the_in_memory_assembly_of_its_sections() {
        let (data, model) = fixture();
        let dir = tmp_dir("stream");
        let mut attrs = AttrStore::new(&[("views", mmdr_query::AttrType::I64)]).unwrap();
        for id in 0..data.rows() as u64 {
            let views = mmdr_query::AttrValue::I64(id as i64 % 17);
            attrs.set(id, "views", &views).unwrap();
        }
        for backend in Backend::all() {
            for (epoch, attrs) in [(0, None), (3, Some(&attrs))] {
                let index = build_index(backend, &data, &model, 64).unwrap();
                let path = dir.join(format!("{}-{epoch}.mmdr", backend.name()));
                save_with_attrs(&path, &index, &model, epoch, attrs).unwrap();

                // The same sections, each built whole, put together at once.
                let mut model_w = ByteWriter::new();
                model_codec::put_model(&mut model_w, &model);
                if epoch > 0 {
                    model_w.put_u64(epoch);
                }
                let (meta, pools, heap) = meta_and_pools(&index, &model).unwrap();
                let mut dir_w = ByteWriter::new();
                let mut pages_w = Vec::new();
                dir_w.put_u32(pools.len() as u32);
                for pool in pools {
                    let pages = pool.export_pages().unwrap();
                    dir_w.put_usize(pages.len());
                    for page in pages {
                        dir_w.put_u32(crc32(page.as_bytes()));
                        pages_w.extend_from_slice(page.as_bytes());
                    }
                }
                let mut sections = vec![
                    (section_id::MODEL, model_w.into_bytes()),
                    (section_id::META, meta),
                    (section_id::PAGEDIR, dir_w.into_bytes()),
                ];
                assert_eq!(heap.is_some(), backend != Backend::Gldr);
                if let Some(heap) = heap {
                    let mut ids_w = ByteWriter::new();
                    ids_w.put_id_list(heap.id_pages().iter().map(|ids| ids.len() as u64));
                    ids_w.put_id_list(heap.id_pages().iter().flatten().copied());
                    sections.push((section_id::IDS, ids_w.into_bytes()));
                }
                sections.extend(attrs.map(|store| (section_id::ATTRS, store.to_bytes())));
                sections.push((section_id::PAGES, pages_w));
                let assembled = format::assemble(backend_tag(backend), &sections);
                assert!(
                    std::fs::read(&path).unwrap() == assembled,
                    "{} at epoch {epoch}",
                    backend.name()
                );
                assert_eq!(open_resident(&path).unwrap().model_epoch, epoch);
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Pages that can be read `reads_left` more times, then no more.
    #[derive(Debug)]
    struct RunsDry {
        pages: Vec<Arc<Page>>,
        reads_left: Arc<AtomicUsize>,
    }

    impl PageSource for RunsDry {
        fn num_pages(&self) -> usize {
            self.pages.len()
        }

        fn read_page(&self, page_id: PageId) -> mmdr_storage::Result<Arc<Page>> {
            let left = self.reads_left.load(Ordering::SeqCst);
            if left == 0 {
                return Err(mmdr_storage::Error::ShortRead { page_id, got: 0 });
            }
            self.reads_left.store(left - 1, Ordering::SeqCst);
            Ok(Arc::clone(&self.pages[page_id as usize]))
        }
    }

    #[test]
    fn a_save_that_fails_at_any_step_leaves_no_temp_file() {
        let (data, model) = fixture();
        let dir = tmp_dir("failed-save");
        let BuiltIndex::SeqScan(scan) = build_index(Backend::SeqScan, &data, &model, 64).unwrap()
        else {
            panic!("asked for a scan");
        };
        let pages = scan.heap().pool().export_pages().unwrap();
        let reads_left = Arc::new(AtomicUsize::new(usize::MAX));
        let source = RunsDry {
            pages: pages.clone(),
            reads_left: Arc::clone(&reads_left),
        };
        let pool = BufferPool::new(DiskManager::from_source(Box::new(source), 0), 4).unwrap();
        let heap = scan.heap();
        let ids = heap.id_pages().to_vec();
        let heap = VectorHeap::from_parts(pool, heap.open_page(), heap.len(), ids).unwrap();
        let index = BuiltIndex::SeqScan(SeqScan::from_parts(heap, &model).unwrap());
        let path = dir.join("index.mmdr");
        let siblings = || -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };

        // The source dries up at every point of the save: during the first
        // walk (no header written yet), between the walks, and during the
        // second, when the temp file already holds the header and pages.
        for reads in [0, 1, pages.len(), pages.len() + 1, 2 * pages.len() - 1] {
            reads_left.store(reads, Ordering::SeqCst);
            let err = save(&path, &index, &model).unwrap_err();
            assert!(matches!(err, PersistError::Storage(_)), "{reads}: {err}");
            assert_eq!(siblings(), Vec::<String>::new(), "after {reads} reads");
        }
        // A rename that cannot succeed: the target is a non-empty directory.
        reads_left.store(usize::MAX, Ordering::SeqCst);
        let blocked = dir.join("taken");
        std::fs::create_dir_all(blocked.join("inside")).unwrap();
        assert!(matches!(
            save(&blocked, &index, &model),
            Err(PersistError::Io { .. })
        ));
        assert_eq!(siblings(), ["taken"]);
        // A temp file that cannot be created.
        assert!(save(dir.join("no-such-dir").join("index.mmdr"), &index, &model).is_err());

        // And with pages to read, the same index saves and reopens.
        save(&path, &index, &model).unwrap();
        assert_eq!(siblings(), ["index.mmdr", "taken"]);
        let reopened = open_resident(&path).unwrap();
        let q = data.row(7);
        assert_eq!(
            reopened.index.as_dyn().knn(q, 5).unwrap(),
            index.as_dyn().knn(q, 5).unwrap()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A scan's and an iDistance index's snapshot of [`fixture`], as bytes.
    fn heap_images() -> &'static [(Backend, Vec<u8>)] {
        static IMAGES: OnceLock<Vec<(Backend, Vec<u8>)>> = OnceLock::new();
        IMAGES.get_or_init(|| {
            let (data, model) = fixture();
            let dir = tmp_dir("heap-images");
            let images = [Backend::SeqScan, Backend::IDistance]
                .into_iter()
                .map(|backend| {
                    let path = dir.join(backend.name());
                    let index = build_index(backend, &data, &model, 64).unwrap();
                    save(&path, &index, &model).unwrap();
                    (backend, std::fs::read(&path).unwrap())
                })
                .collect();
            std::fs::remove_dir_all(dir).unwrap();
            images
        })
    }

    /// `image`'s sections in file order, each its id and payload.
    fn sections_of(image: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let sb =
            format::parse_superblock(&image[..format::SUPERBLOCK_LEN], image.len() as u64).unwrap();
        let table = &image[format::SUPERBLOCK_LEN..format::SUPERBLOCK_LEN + sb.table_len()];
        let entries = format::parse_table(table, &sb).unwrap();
        (entries.iter())
            .map(|e| {
                (
                    e.id,
                    image[e.offset as usize..(e.offset + e.len) as usize].to_vec(),
                )
            })
            .collect()
    }

    /// Opens the snapshot `sections` make (every CRC right for them) lazily
    /// and resident and, on each open that succeeds, reads every stored row
    /// and answers a query: the first typed error, if any step returns one.
    fn open_sections(path: &Path, backend: Backend, sections: &[(u32, Vec<u8>)]) -> Result<()> {
        std::fs::write(path, format::assemble(backend_tag(backend), sections)).unwrap();
        let q = [0.5, 0.15, 0.0, 0.0];
        for resident in [false, true] {
            let options = OpenOptions {
                resident,
                ..OpenOptions::default()
            };
            let opened = open_with(path, &options)?;
            mmdr_idistance::stored_rows(&opened.index)?;
            opened.index.as_dyn().knn(&q, 7)?;
        }
        Ok(())
    }

    /// `sections` with the payload of section `id` replaced.
    fn with_section(sections: &[(u32, Vec<u8>)], id: u32, payload: Vec<u8>) -> Vec<(u32, Vec<u8>)> {
        let mut sections = sections.to_vec();
        let at = sections.iter().position(|s| s.0 == id).unwrap();
        sections[at].1 = payload;
        sections
    }

    /// An IDS section of the given lists, as the writer encodes them.
    fn ids_section(page_lens: &[usize], ids: &[usize]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_id_list(page_lens.iter().map(|&n| n as u64));
        w.put_id_list(ids.iter().map(|&id| id as u64));
        w.into_bytes()
    }

    /// The IDS codec carries every id a heap can hold — 0, ids from 2³² up,
    /// the largest one not reserved — back onto the heap's pages, page
    /// breaks between partitions included.
    #[test]
    fn an_id_column_carries_every_id_a_heap_holds() {
        let mut heap = VectorHeap::new(BufferPool::new(DiskManager::new(), 8).unwrap());
        for i in 0..1200u64 {
            let id = match i % 3 {
                0 => i,
                1 => (1 << 32) + i,
                _ => u64::MAX - 1 - i,
            };
            heap.append((i / 500) as u32, id, &[i as f64, 1.0]).unwrap();
        }
        let ids = get_id_column(&id_column(&heap)).unwrap();
        let lens: Vec<usize> = ids.iter().map(Vec::len).collect();
        assert_eq!(lens, [255, 245, 255, 245, 200]);
        let images = heap.pool().export_pages().unwrap();
        let pool = BufferPool::new(DiskManager::from_pages(images), 4).unwrap();
        let back = VectorHeap::from_parts(pool, heap.open_page(), heap.len(), ids).unwrap();
        let rows = |heap: &VectorHeap| {
            let mut rows = Vec::new();
            heap.scan(|part, id, coords| rows.push((part, id, coords.to_vec())))
                .unwrap();
            rows
        };
        let want = rows(&heap);
        assert_eq!(want.len(), 1200);
        assert_eq!(rows(&back), want);
    }

    /// The ways an id column can disagree with its heap, each refused typed
    /// — at the open, or for a scan whose pages alone can tell (a count
    /// that fits some page but not this one's width), where the page is
    /// read — and a heap with no column at all.
    #[test]
    fn an_id_column_that_does_not_fit_its_heap_is_refused() {
        let dir = tmp_dir("bad-ids");
        let path = dir.join("bad.mmdr");
        for (backend, image) in heap_images() {
            let sections = sections_of(image);
            let ids = &sections.iter().find(|s| s.0 == section_id::IDS).unwrap().1;
            let pages = get_id_column(ids).unwrap();
            let lens: Vec<usize> = pages.iter().map(Vec::len).collect();
            let column: Vec<usize> = pages.iter().flatten().map(|&id| id as usize).collect();
            assert!(open_sections(&path, *backend, &sections).is_ok());
            let last = lens.len() - 1;
            let mut shifted = lens.clone();
            shifted[0] -= 1;
            shifted[last] += 1;
            let mut over = lens.clone();
            over[0] = VectorHeap::page_capacity(1) + 1;
            let mut with_reserved = column.clone();
            with_reserved[2] = u64::MAX as usize;
            let bad: [(&str, Vec<u8>); 7] = [
                ("a row short", ids_section(&lens, &column[1..])),
                (
                    "a row over",
                    ids_section(&lens, &[&column[..], &[7]].concat()),
                ),
                ("a page short", ids_section(&lens[1..], &column)),
                (
                    "counts that add up to less",
                    ids_section(&shifted[1..], &column),
                ),
                ("counts off by a row", ids_section(&shifted, &column)),
                ("a count no page holds", ids_section(&over, &column)),
                ("the reserved id", ids_section(&lens, &with_reserved)),
            ];
            for (what, payload) in bad {
                let got = open_sections(
                    &path,
                    *backend,
                    &with_section(&sections, section_id::IDS, payload),
                );
                assert!(
                    matches!(
                        got,
                        Err(PersistError::Index(_) | PersistError::Malformed(_))
                    ),
                    "{} {what}: {got:?}",
                    backend.name()
                );
            }
            let without: Vec<_> = (sections.iter())
                .filter(|s| s.0 != section_id::IDS)
                .cloned()
                .collect();
            let got = open_sections(&path, *backend, &without);
            assert!(matches!(got, Err(PersistError::Malformed(_))), "{got:?}");
        }
        // gLDR has no heap, so no column either.
        let (data, model) = fixture();
        let gldr = build_index(Backend::Gldr, &data, &model, 64).unwrap();
        save(&path, &gldr, &model).unwrap();
        let mut sections = sections_of(&std::fs::read(&path).unwrap());
        assert!(sections.iter().all(|s| s.0 != section_id::IDS));
        assert!(open_sections(&path, Backend::Gldr, &sections).is_ok());
        sections.insert(3, (section_id::IDS, ids_section(&[1], &[0])));
        let got = open_sections(&path, Backend::Gldr, &sections);
        assert!(matches!(got, Err(PersistError::Malformed(_))), "{got:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Lengths no bytes could back, planted as a little-endian `u64` (and,
    /// for PAGEDIR's group count, a `u32`) at every offset of IDS and
    /// PAGEDIR: each decode returns, typed, without sizing anything by the
    /// lie — a decoder that trusted one would abort on the allocation.
    #[test]
    fn a_planted_length_in_ids_or_pagedir_is_refused_or_harmless() {
        for (_, image) in heap_images() {
            let sections = sections_of(image);
            let payload = |id| &sections.iter().find(|s| s.0 == id).unwrap().1;
            let pages_len = payload(section_id::PAGES).len() as u64;
            for id in [section_id::IDS, section_id::PAGEDIR] {
                let bytes = payload(id);
                let lies = [bytes.len() as u64 + 1, 1 << 40, 1 << 62, u64::MAX];
                for at in 0..bytes.len() {
                    for lie in lies {
                        let mut damaged = bytes.clone();
                        let end = damaged.len().min(at + 8);
                        damaged[at..end].copy_from_slice(&lie.to_le_bytes()[..end - at]);
                        let _ = match id {
                            section_id::IDS => get_id_column(&damaged).map(drop),
                            _ => read_pagedir(&damaged)
                                .and_then(|dir| expect_pages_len(&dir, pages_len)),
                        };
                    }
                }
            }
            let mut groups = payload(section_id::PAGEDIR).clone();
            groups[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                read_pagedir(&groups),
                Err(PersistError::Malformed(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// IDS, PAGEDIR and META of a heap backend's snapshot cut short,
        /// with bytes flipped and overwritten, under CRCs made right for
        /// the damage: every open, lazy or resident, and every read of the
        /// index it opens returns `Ok` or a typed `PersistError`, and none
        /// panics.
        #[test]
        fn a_damaged_ids_or_pagedir_opens_or_is_refused(
            which in 0usize..6,
            cut in 0usize..=usize::MAX,
            flips in proptest::collection::vec((0usize..=usize::MAX, 1u8..=255), 0..4),
            (overwrites, at, word) in (proptest::bool::ANY, 0usize..=usize::MAX, 0u64..=u64::MAX),
        ) {
            let (backend, image) = &heap_images()[which % 2];
            let id = [section_id::IDS, section_id::PAGEDIR, section_id::META][which / 2];
            let sections = sections_of(image);
            let intact = &sections.iter().find(|s| s.0 == id).unwrap().1;
            let cut = if cut % 2 == 0 { intact.len() } else { cut % (intact.len() + 1) };
            let mut bytes = intact[..cut].to_vec();
            if !bytes.is_empty() {
                for (at, mask) in &flips {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
                if overwrites {
                    let at = at % bytes.len();
                    let end = bytes.len().min(at + 8);
                    bytes[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                }
            }
            let dir = tmp_dir(&format!("damaged-{which}"));
            let _ = open_sections(&dir.join("damaged.mmdr"), *backend, &with_section(&sections, id, bytes));
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}
