//! A static, disk-page B⁺-tree over `f64` keys — the base structure of the
//! extended iDistance index (paper §5).
//!
//! - Keys are finite `f64` distance values (duplicates allowed). An entry
//!   is named by its *position*, not stored per entry: the caller knows
//!   which record position `n` names ([`BPlusTree::cursor_at`] stands
//!   before it). An entry is an opaque `u64` code word
//!   ([`Cursor::code`]) — iDistance's quantised image of the row, judged
//!   before the record is read.
//! - A leaf keeps no key per entry, only its least and greatest key,
//!   exact: 8 bytes an entry, [`LEAF_CAPACITY`] to a leaf. A step returns
//!   the leaf's first key `lo` and [`Cursor::key_hi`] its last, and every
//!   entry's key lies in `[lo, hi]`. Leaves are in key order — no key of a
//!   leaf is below a key of the leaves before it — and inside a leaf the
//!   entries stand in whatever order the loader chose.
//! - Leaves live in 4 KiB [`mmdr_storage`] pages behind a buffer pool, so
//!   every traversal's logical I/O is measurable. There are no internal
//!   nodes: each leaf's exact first key, its *fence*, is held in memory
//!   ([`BPlusTree::fences`]), so a seek is a binary search and one leaf
//!   fetch, and it stands at a leaf boundary.
//! - The leaves are walked both ways: iDistance's KNN search scans
//!   *inward and outward* from a seek position (paper §5 case 1).
//! - [`BPlusTree::bulk_load`] is the one way a tree is built: a single
//!   left-to-right pass, every leaf full but the last. Nothing writes the
//!   tree afterwards; an index that takes rows later keeps them beside it
//!   and rebuilds.
//!
//! # Example
//!
//! ```
//! use mmdr_btree::{BPlusTree, LEAF_CAPACITY};
//!
//! let entries: Vec<(f64, u64)> = (0..2000u64).map(|i| (i as f64 * 0.5, i % 7)).collect();
//! // Read through a pool of 64 frames.
//! let tree = BPlusTree::bulk_load(64, &entries).unwrap();
//! // 400.0 is position 800's key, in the second leaf: the seek stands
//! // before that leaf, and the leaf's range holds the key.
//! let mut cursor = tree.seek(400.0).unwrap();
//! let (lo, position) = tree.cursor_next(&mut cursor).unwrap().unwrap();
//! assert_eq!(position, LEAF_CAPACITY as u64);
//! assert!(lo <= 400.0 && 400.0 <= cursor.key_hi());
//! assert_eq!(lo, entries[LEAF_CAPACITY].0);
//! assert_eq!(cursor.code(), LEAF_CAPACITY as u64 % 7);
//! ```

mod bulk;
mod cursor;
mod error;
mod node;
mod tree;

pub use cursor::Cursor;
pub use error::{Error, Result};
pub use node::LEAF_CAPACITY;
pub use tree::BPlusTree;
