//! Set-up: everything the system does before it can take a workload's
//! first operation, timed stage by stage.
//!
//! `setup_s` is the smallest of several complete set-ups, half of them run
//! before the measured window and half after it. One D1 set-up takes
//! about 0.4 s and moves by +-10 % with whatever else the host is doing;
//! a set-up has no tail of its own to hide (it is one serial computation on
//! constant data), so the minimum over set-ups that bracket the window is
//! the reading that repeats (README, "setup_s").

use crate::data::{self, Corpus};
use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::{LiveIndex, VectorIndex};
use mmdr_linalg::Matrix;
use mmdr_persist::{
    build_index, open_resident, open_with, save, save_with_attrs, BuiltIndex, IngestEngine,
    IngestOptions, OpenOptions,
};
use mmdr_query::{AttrSketches, AttrStore, AttrType, AttrValue};
use mmdr_serve::{Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Frames per pool of a built index: more than either pool has pages
/// (D1: about 600 heap and 250 tree pages), so "resident" means it.
pub const RESIDENT_POOL_PAGES: usize = 2048;

/// `knn_paged`: 64 frames per pool against about 850 pages.
pub const PAGED_POOL_PAGES: usize = 64;
pub const PAGED_READAHEAD: usize = 8;

/// Delta rows + tombstones at which the engine of `ingest_mixed` folds.
/// Above the 220 operations of the count-phase state, so that state has
/// seen no merge; low enough that a 10 s window, at some 170 inserts/s,
/// sees seven or eight.
pub const MERGE_THRESHOLD: usize = 240;

/// Rows inserted and base ids deleted to reach the count-phase state of
/// `ingest_mixed`: the delta scan and the tombstone filter are then in
/// every count, and no merge has run yet. The same rows and ids on every
/// run (`data::d1`, `data::delete_order`).
pub const PREPARE_INSERTS: usize = 200;
pub const PREPARE_DELETES: usize = 20;

pub fn serial_params(max_ec: usize) -> MmdrParams {
    MmdrParams {
        max_ec,
        ..MmdrParams::default()
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        coalesce: 32,
        batch_threads: 1,
        ..ServerConfig::default()
    }
}

pub fn paged_options() -> OpenOptions {
    OpenOptions {
        pool_pages: Some(PAGED_POOL_PAGES),
        readahead: PAGED_READAHEAD,
        resident: false,
    }
}

/// A directory of this process under the work root, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, name: &str) -> Self {
        let path = root.join(name);
        std::fs::create_dir_all(&path).expect("the work directory can be created");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds per stage of one set-up; a stage a workload does not have is 0.
#[derive(Clone, Copy, Default)]
pub struct Stages {
    pub generate_s: f64,
    pub fit_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    /// Server start.
    pub front_s: f64,
    pub total_s: f64,
}

/// What the workload talks to.
pub enum Front {
    Direct(BuiltIndex),
    Served {
        index: Arc<dyn VectorIndex>,
        server: ServerHandle,
    },
    Ingest {
        engine: IngestEngine,
        server: ServerHandle,
    },
    Filtered {
        index: BuiltIndex,
        store: AttrStore,
        sketches: AttrSketches,
    },
    /// Taken down by the workload itself (`ingest_mixed` drops its engine
    /// to reopen it from disk).
    Stopped,
}

/// One complete D1 set-up. Field order is drop order: the server and the
/// engine stop before their directory goes.
pub struct System {
    pub front: Front,
    pub corpus: Corpus,
    pub model: ReductionResult,
    pub snapshot: PathBuf,
    pub stages: Stages,
    _dir: WorkDir,
}

impl System {
    /// Runs `f` on the index answering right now (for `ingest_mixed`, the
    /// engine's current epoch, pinned for the call).
    pub fn with_index<R>(&self, f: impl FnOnce(&dyn VectorIndex) -> R) -> R {
        match &self.front {
            Front::Direct(b) | Front::Filtered { index: b, .. } => f(b.as_dyn()),
            Front::Served { index, .. } => f(index.as_ref()),
            Front::Ingest { engine, .. } => f(engine.pin().index.as_ref()),
            Front::Stopped => panic!("the system was stopped"),
        }
    }

    /// Stops the server and hands back the engine's path once no merge
    /// thread is left writing under it.
    pub fn stop(&mut self) {
        if let Front::Ingest { engine, .. } = &self.front {
            engine.quiesce();
        }
        self.front = Front::Stopped;
    }
}

impl Drop for System {
    fn drop(&mut self) {
        // A background merge must not outlive the directory it writes to.
        self.stop();
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Resident,
    Paged,
    Served,
    Ingest,
    Filtered,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Generates D1 (its insert stream ordered by `seed`), fits, builds,
/// saves, and brings up whatever `kind` serves from. `name` keeps concurrent set-ups apart on disk.
pub fn set_up(kind: Kind, seed: u64, root: &Path, name: &str) -> System {
    let dir = WorkDir::new(root, name);
    let snapshot = dir.path().join("d1.mmdr");
    let mut st = Stages::default();
    let start = Instant::now();

    let corpus = data::d1(seed, PREPARE_INSERTS);
    let store = (kind == Kind::Filtered).then(|| views_store(corpus.base.rows()));
    st.generate_s = secs(start);

    let t = Instant::now();
    let model = Mmdr::new(serial_params(data::D1_MAX_EC))
        .fit(&corpus.base)
        .expect("MMDR fits D1");
    st.fit_s = secs(t);

    let t = Instant::now();
    let built = build_index(
        Backend::IDistance,
        &corpus.base,
        &model,
        RESIDENT_POOL_PAGES,
    )
    .expect("the index builds");
    st.build_s = secs(t);

    let t = Instant::now();
    match &store {
        Some(s) => save_with_attrs(&snapshot, &built, &model, 0, Some(s)),
        None => save(&snapshot, &built, &model),
    }
    .expect("the snapshot saves");
    st.save_s = secs(t);

    let front = match kind {
        Kind::Resident => Front::Direct(built),
        Kind::Paged => {
            drop(built);
            let t = Instant::now();
            let opened = open_with(&snapshot, &paged_options()).expect("the snapshot opens");
            st.open_s = secs(t);
            Front::Direct(opened.index)
        }
        Kind::Served => {
            let t = Instant::now();
            let index: Arc<dyn VectorIndex> = Arc::from(built.into_boxed());
            let server =
                Server::start_static(Arc::clone(&index), ("127.0.0.1", 0), server_config())
                    .expect("the server starts");
            st.front_s = secs(t);
            Front::Served { index, server }
        }
        Kind::Ingest => {
            drop(built);
            let t = Instant::now();
            let engine = IngestEngine::open(
                &snapshot,
                IngestOptions {
                    merge_threshold: MERGE_THRESHOLD,
                    ..IngestOptions::default()
                },
            )
            .expect("the engine opens");
            st.open_s = secs(t);
            let t = Instant::now();
            let live: Arc<dyn LiveIndex> = Arc::new(engine.clone());
            let server =
                Server::start(live, ("127.0.0.1", 0), server_config()).expect("the server starts");
            st.front_s = secs(t);
            Front::Ingest { engine, server }
        }
        Kind::Filtered => {
            drop(built);
            let t = Instant::now();
            let opened = open_resident(&snapshot).expect("the snapshot opens");
            let store = opened.attrs.expect("the snapshot carries the column");
            let sketches = sketches_for(&store, &model);
            st.open_s = secs(t);
            Front::Filtered {
                index: opened.index,
                store,
                sketches,
            }
        }
    };
    st.total_s = secs(start);
    System {
        front,
        corpus,
        model,
        snapshot,
        stages: st,
        _dir: dir,
    }
}

/// One `views` value per base row.
pub fn views_store(n: usize) -> AttrStore {
    let mut store = AttrStore::new(&[("views", AttrType::I64)]).expect("the schema is valid");
    for (id, views) in data::views_column(n).into_iter().enumerate() {
        store
            .set_row(id as u64, &[("views".to_string(), AttrValue::I64(views))])
            .expect("the row matches the schema");
    }
    store
}

pub fn sketches_for(store: &AttrStore, model: &ReductionResult) -> AttrSketches {
    let members: Vec<Vec<u64>> = model
        .clusters
        .iter()
        .map(|c| c.members.iter().map(|&m| m as u64).collect())
        .collect();
    let outliers: Vec<u64> = model.outliers.iter().map(|&m| m as u64).collect();
    AttrSketches::build(store, &members, &outliers).expect("the sketches build")
}

/// `fit_build`'s set-up is data generation only: fitting and building are
/// its timed operation. It takes 30 ms, a fifteenth of a D1 set-up, and the
/// smallest of eight such readings still moves by a quarter; so
/// `fit_build` runs this many times the set-ups the other workloads run.
pub const FIT_SETUPS_FACTOR: usize = 8;

pub struct FitInput {
    pub data: Matrix,
    pub stages: Stages,
}

pub fn set_up_fit() -> FitInput {
    let start = Instant::now();
    let data = data::d2();
    let s = secs(start);
    FitInput {
        data,
        stages: Stages {
            generate_s: s,
            total_s: s,
            ..Stages::default()
        },
    }
}

/// Runs `make` `before + after` times around `window`; keeps the last
/// product made before the window and hands it to `window`, drops every
/// other product at once. Returns the set-up times and `window`'s result.
pub fn around_window<S, R>(
    before: usize,
    after: usize,
    mut make: impl FnMut(usize) -> (S, f64),
    window: impl FnOnce(S) -> R,
) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(before + after);
    let mut kept = None;
    for i in 0..before {
        let (product, t) = make(i);
        times.push(t);
        kept = Some(product);
    }
    let result = window(kept.expect("at least one set-up runs before the window"));
    for i in before..before + after {
        times.push(make(i).1);
    }
    (times, result)
}
