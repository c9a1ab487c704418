//! A static, disk-page B⁺-tree over `f64` keys — the base structure of the
//! extended iDistance index (paper §5).
//!
//! - Keys are finite `f64` distance values (duplicates allowed). An entry
//!   is named by its *position*, its rank in key order, which the tree does
//!   not store per entry: the caller lays its records out in the same order
//!   and reads position `n` as its record `n`. Beside each key sits an
//!   opaque `u64` code word ([`Cursor::code`]) — iDistance's quantised image
//!   of the row, judged before the record is read.
//! - A leaf stores a key as a 32-bit offset from its first key, 12 bytes an
//!   entry with the code: a step returns the lower end `lo` of the key's
//!   cell and [`Cursor::key_hi`] its upper end, `lo ≤ key < hi` exactly in
//!   `f64`, and neither end ever descends along the chain.
//! - Leaves live in 4 KiB [`mmdr_storage`] pages behind a buffer pool, so
//!   every traversal's logical I/O is measurable. There are no internal
//!   nodes: each leaf's exact first key, its *fence*, is held in memory
//!   ([`BPlusTree::fences`]), so a seek is a binary search and one leaf
//!   fetch.
//! - The leaves are walked both ways: iDistance's KNN search scans
//!   *inward and outward* from a seek position (paper §5 case 1).
//! - [`BPlusTree::bulk_load`] is the one way a tree is built: a single
//!   left-to-right pass over sorted input, every leaf full but the last.
//!   Nothing writes the tree afterwards; an index that takes rows later
//!   keeps them beside it and rebuilds.
//!
//! # Example
//!
//! ```
//! use mmdr_btree::BPlusTree;
//! use mmdr_storage::{BufferPool, DiskManager};
//!
//! let pool = BufferPool::new(DiskManager::new(), 64).unwrap();
//! let entries: Vec<(f64, u64)> = (0..1000u64).map(|i| (i as f64 * 0.5, i % 7)).collect();
//! let tree = BPlusTree::bulk_load(pool, &entries).unwrap();
//! let mut cursor = tree.seek(250.0).unwrap();
//! let (lo, position) = tree.cursor_next(&mut cursor).unwrap().unwrap();
//! assert!(lo <= 250.0 && 250.0 < cursor.key_hi());
//! assert_eq!(position, 500);
//! assert_eq!(cursor.code(), 500 % 7);
//! ```

mod bulk;
mod cursor;
mod error;
mod node;
mod tree;

pub use cursor::Cursor;
pub use error::{Error, Result};
pub use tree::BPlusTree;
