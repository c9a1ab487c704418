//! The stored formats, pinned section by section: a tiny snapshot of each
//! backend with an ATTRS section, an iDistance snapshot of one partition
//! over many heap pages, a model file and a WAL image, with the
//! length and CRC32 of every section (and of the whole file) as this build
//! writes them. A round trip cannot see a field-order swap made on both
//! sides at once; these pins can, and a failure names the section that
//! moved. A pin here changes only together with `FORMAT_VERSION` (or, for
//! the WAL, its record layout), and says why.

use mmdr_core::{EllipsoidCluster, ReductionResult, ReductionStats};
use mmdr_idistance::Backend;
use mmdr_index::IngestOp;
use mmdr_linalg::Matrix;
use mmdr_pca::ReducedSubspace;
use mmdr_persist::format::section_label;
use mmdr_persist::{
    build_index, crc32, read_head, save_model, save_with_attrs, WalRecord, WalWriter,
};
use mmdr_query::{encode_row, AttrStore, AttrType, AttrValue};
use std::path::{Path, PathBuf};

/// A scratch directory of its own per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mmdr-golden-sections-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Ten rows in 3-d: six near a plane (the cluster), four off it.
fn data() -> Matrix {
    let rows: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            let t = i as f64 * 0.37;
            if [1, 4, 6, 9].contains(&i) {
                vec![-4.0 + t, 7.5 - 2.0 * t, 9.0 + t * t]
            } else {
                vec![0.25 + t, -1.5 + 0.5 * t, 3.0 + 0.01 * i as f64]
            }
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

/// A model written by hand, so these pins follow the format and not the
/// fit: one 2-d cluster in 3-d, the rest outliers.
fn model() -> ReductionResult {
    let basis = Matrix::from_vec(3, 2, vec![0.6, 0.0, 0.8, 0.0, 0.0, 1.0]).unwrap();
    let subspace = ReducedSubspace::new(vec![1.0, -1.0, 3.05], basis).unwrap();
    ReductionResult {
        dim: 3,
        num_points: 10,
        clusters: vec![EllipsoidCluster {
            subspace,
            members: vec![0, 2, 3, 5, 7, 8],
            mpe: 0.012_345,
            radius_eliminated: 0.071,
            radius_retained: 2.5,
            nearest_radius: 0.1,
            ellipticity: f64::INFINITY,
        }],
        outliers: vec![1, 4, 6, 9],
        stats: ReductionStats {
            distance_computations: 123,
            ge_invocations: 4,
            max_s_dim_reached: 3,
            streams: 1,
        },
    }
}

fn attrs() -> AttrStore {
    let mut s = AttrStore::new(&[
        ("tenant", AttrType::I64),
        ("price", AttrType::F64),
        ("region", AttrType::Tag),
    ])
    .unwrap();
    for id in 0..10u64 {
        s.set(id, "tenant", &AttrValue::I64(id as i64 % 3 - 1))
            .unwrap();
        if id % 3 != 0 {
            s.set(id, "price", &AttrValue::F64(id as f64 * 1.25))
                .unwrap();
        }
        if id % 2 == 0 {
            s.set(id, "region", &AttrValue::Tag(format!("r{}", id % 4)))
                .unwrap();
        }
    }
    s
}

/// `(section, payload length, payload CRC32)` of every section in file
/// order, then `("file", length, CRC32)` of the whole image.
fn sections(path: &Path) -> Vec<(String, u64, u32)> {
    let file = std::fs::File::open(path).unwrap();
    let (_, entries) = read_head(&file, path).unwrap();
    let bytes = std::fs::read(path).unwrap();
    let mut out: Vec<(String, u64, u32)> = entries
        .iter()
        .map(|e| (section_label(e.id), e.len, e.crc))
        .collect();
    out.push(("file".into(), bytes.len() as u64, crc32(&bytes)));
    out
}

fn assert_pins(what: &str, got: &[(String, u64, u32)], golden: &[(&str, u64, u32)]) {
    let names: Vec<&str> = got.iter().map(|(n, ..)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|(n, ..)| *n).collect();
    let pins: String = got
        .iter()
        .map(|(n, len, crc)| format!("(\"{n}\", {len}, {crc:#010x}), "))
        .collect();
    assert_eq!(
        names, golden_names,
        "{what}: the sections changed; now {pins}"
    );
    for ((name, len, crc), (_, golden_len, golden_crc)) in got.iter().zip(golden) {
        assert_eq!(
            (*len, *crc),
            (*golden_len, *golden_crc),
            "{what}: section `{name}` changed: length {len}, crc {crc:#010x}"
        );
    }
}

#[test]
fn every_backends_snapshot_sections_are_the_pinned_bytes() {
    let dir = TempDir::new("snap");
    let (data, model, attrs) = (data(), model(), attrs());
    for (backend, golden) in [
        (Backend::SeqScan, GOLDEN_SEQSCAN),
        (Backend::IDistance, GOLDEN_IDISTANCE),
        (Backend::Gldr, GOLDEN_GLDR),
    ] {
        let index = build_index(backend, &data, &model, 16).unwrap();
        let path = dir.0.join(format!("{}.mmdr", backend.name()));
        save_with_attrs(&path, &index, &model, 2, Some(&attrs)).unwrap();
        assert_pins(backend.name(), &sections(&path), golden);
    }
}

#[test]
fn a_model_files_sections_are_the_pinned_bytes() {
    let dir = TempDir::new("model");
    let path = dir.0.join("model.mmdr");
    save_model(&path, &model()).unwrap();
    assert_pins("model file", &sections(&path), GOLDEN_MODEL_FILE);
}

/// 6 000 rows in 12-d drawn round 40 clumps, every one an outlier of a
/// model written by hand: one partition of 71 heap pages, more than the
/// window a row's candidate pages are drawn from, so the records' order on
/// them is the page grouping's, Hilbert seed and Lloyd rounds alike, and
/// nothing of a fit.
fn clumps() -> (Matrix, ReductionResult) {
    let (n, dim) = (6000, 12);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centres: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..dim).map(|_| draw() * 10.0).collect())
        .collect();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| centres[i % 40].iter().map(|c| c + draw() - 0.5).collect())
        .collect();
    let model = ReductionResult {
        dim,
        num_points: n,
        clusters: Vec::new(),
        outliers: (0..n).collect(),
        stats: ReductionStats::default(),
    };
    (Matrix::from_rows(&rows).unwrap(), model)
}

/// The page grouping is part of the format: an open learns which record
/// each leaf entry names by grouping the leaves' codes again, as the load
/// did, and stores nothing of it. A change to its seed, its rounds, its
/// candidates or its arithmetic moves the `ids` and `pages` pins here, and
/// must bump `FORMAT_VERSION`, or every older snapshot names wrong records.
#[test]
fn an_idistance_partition_of_many_pages_is_the_pinned_bytes() {
    let dir = TempDir::new("grouped");
    let (data, model) = clumps();
    let index = build_index(Backend::IDistance, &data, &model, 16).unwrap();
    let path = dir.0.join("grouped.mmdr");
    save_with_attrs(&path, &index, &model, 2, None).unwrap();
    assert_pins("grouped iDistance", &sections(&path), GOLDEN_GROUPED);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A model-epoch mark, an insert, an insert with attributes and a delete:
/// one record of every tag.
#[test]
fn a_wal_image_is_the_pinned_bytes() {
    let dir = TempDir::new("wal");
    let path = dir.0.join("log.wal");
    let (mut w, _) = WalWriter::open(&path).unwrap();
    w.rewrite(&[], 3).unwrap();
    w.append(&IngestOp::Insert {
        id: 10,
        vector: vec![0.5, -1.25, f64::MIN_POSITIVE],
    })
    .unwrap();
    let row = encode_row(&[
        ("tenant".to_string(), AttrValue::I64(-7)),
        ("price".to_string(), AttrValue::F64(3.25)),
        ("region".to_string(), AttrValue::Tag("eu".into())),
    ]);
    w.append_record(&WalRecord {
        op: IngestOp::Insert {
            id: 11,
            vector: vec![-0.0, 2.0, 4.5],
        },
        attrs: Some(row),
    })
    .unwrap();
    w.append(&IngestOp::Delete { id: 2 }).unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        hex(&bytes),
        GOLDEN_WAL,
        "the WAL image changed: {} bytes, crc {:#010x}",
        bytes.len(),
        crc32(&bytes)
    );
    assert_eq!(
        (bytes.len(), crc32(&bytes)),
        GOLDEN_WAL_LEN_CRC,
        "the WAL image changed"
    );
}

// v13: every `file` pin moved with the version its superblock holds, and
// iDistance's `pagedir`, `ids` and `pages` with its heap records' order
// (page by page a group, each page's records in key order).
const GOLDEN_SEQSCAN: &[(&str, u64, u32)] = &[
    ("model", 226, 0x5d1ae93c),
    ("meta", 16, 0x9b5c6903),
    ("pagedir", 20, 0x0505455e),
    ("ids", 28, 0x90c15454),
    ("attrs", 252, 0x8da1616a),
    ("pages", 8192, 0xfdfcf8f7),
    ("file", 9006, 0xde009eb1),
];
const GOLDEN_IDISTANCE: &[(&str, u64, u32)] = &[
    ("model", 226, 0x5d1ae93c),
    ("meta", 5254, 0x83d8478d),
    ("pagedir", 32, 0x4757518d),
    ("ids", 28, 0xbb11ce28),
    ("attrs", 252, 0x8da1616a),
    ("pages", 12288, 0x252fc507),
    ("file", 18352, 0x09028a30),
];
const GOLDEN_GLDR: &[(&str, u64, u32)] = &[
    ("model", 226, 0x5d1ae93c),
    ("meta", 113, 0xd13b56bf),
    ("pagedir", 28, 0x02ffee8f),
    ("attrs", 252, 0x8da1616a),
    ("pages", 8192, 0x344f3fb8),
    ("file", 9051, 0x8f3f8cab),
];
const GOLDEN_GROUPED: &[(&str, u64, u32)] = &[
    ("model", 6072, 0x3f17952f),
    ("meta", 2281, 0x42136ef5),
    ("pagedir", 352, 0x966223db),
    ("ids", 12008, 0x6607d6fb),
    ("pages", 339968, 0xb4db0b17),
    ("file", 360921, 0x2e52919d),
];
const GOLDEN_MODEL_FILE: &[(&str, u64, u32)] =
    &[("model", 218, 0xfe3e7120), ("file", 330, 0x2cd39112)];
const GOLDEN_WAL: &str = "09000000882f0b510303000000000000002500000064f6a755010a0000000000000003000000000000000000e03f000000000000f4bf000000000000100063000000f82a3f97040b00000000000000030000000000000000000080000000000000004000000000000012403a000000030000000600000074656e616e7400f9ffffffffffffff050000007072696365010000000000000a4006000000726567696f6e0202000000657509000000553bda8a020200000000000000";
const GOLDEN_WAL_LEN_CRC: (usize, u32) = (186, 0x68e5b03b);
