//! # mmdr — facade crate
//!
//! Reproduction of *"An Adaptive and Efficient Dimensionality Reduction
//! Algorithm for High-Dimensional Indexing"* (Jin, Ooi, Shen, Yu, Zhou —
//! ICDE 2003).
//!
//! This crate re-exports the whole workspace under stable module names so a
//! downstream user only needs one dependency:
//!
//! - [`linalg`] — dense matrices, eigendecomposition, Cholesky, QR.
//! - [`pca`] — principal components, multi-level projections, MPE.
//! - [`cluster`] — Euclidean and elliptical (Mahalanobis) k-means.
//! - [`core`] — the MMDR algorithm and the GDR/LDR baselines.
//! - [`storage`] — paged storage with I/O accounting.
//! - [`index`] — the `VectorIndex` trait every KNN backend implements.
//! - [`btree`] — disk-page B⁺-tree.
//! - [`hybridtree`] — simplified Hybrid tree (gLDR baseline index).
//! - [`idistance`] — extended iDistance KNN index over the B⁺-tree.
//! - [`persist`] — checksummed index snapshots with rebuild-free reopen.
//! - [`serve`] — concurrent TCP query server + client over any backend.
//! - [`datagen`] — Appendix-A synthetic workloads and ground truth.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use mmdr_btree as btree;
pub use mmdr_cluster as cluster;
pub use mmdr_core as core;
pub use mmdr_datagen as datagen;
pub use mmdr_hybridtree as hybridtree;
pub use mmdr_idistance as idistance;
pub use mmdr_index as index;
pub use mmdr_linalg as linalg;
pub use mmdr_pca as pca;
pub use mmdr_persist as persist;
pub use mmdr_query as query;
pub use mmdr_serve as serve;
pub use mmdr_storage as storage;
