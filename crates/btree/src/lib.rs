//! A disk-page B⁺-tree over `f64` keys — the base structure of the extended
//! iDistance index (paper §5).
//!
//! - Keys are finite `f64` distance values (duplicates allowed); values are
//!   opaque `u64` record ids, each with an opaque `u64` code word beside it
//!   in the leaf ([`Cursor::code`]) — iDistance's quantised image of the
//!   row, judged before the record id is followed.
//! - Nodes live in 4 KiB [`mmdr_storage`] pages behind a buffer pool, so
//!   every traversal's logical I/O is measurable.
//! - Leaves form a doubly-linked chain: iDistance's KNN search scans
//!   *inward and outward* from a seek position (paper §5 case 1), which
//!   needs both directions.
//! - [`BPlusTree::bulk_load`] builds a compact tree from sorted input in a
//!   single left-to-right pass, the standard way to index a reduction's
//!   output.
//!
//! # Example
//!
//! ```
//! use mmdr_btree::BPlusTree;
//! use mmdr_storage::{BufferPool, DiskManager};
//!
//! let pool = BufferPool::new(DiskManager::new(), 64).unwrap();
//! let mut tree = BPlusTree::new(pool).unwrap();
//! for i in 0..1000u64 {
//!     tree.insert(i as f64 * 0.5, i, i % 7).unwrap();
//! }
//! let mut cursor = tree.seek(250.0).unwrap();
//! let (key, rid) = tree.cursor_next(&mut cursor).unwrap().unwrap();
//! assert_eq!(key, 250.0);
//! assert_eq!(rid, 500);
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
