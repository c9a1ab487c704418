//! CLI input-validation seatbelts: malformed query files, dimension
//! mismatches and out-of-range `--k` must surface as typed single-line
//! errors with a non-zero exit code — never a panic, never success.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn mmdr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmdr"))
}

/// Temp workspace with a small dataset, model and snapshot, built once and
/// shared by every case (building is the slow part).
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn data(&self) -> PathBuf {
        self.dir.join("data.json")
    }
    fn model(&self) -> PathBuf {
        self.dir.join("model.json")
    }
    fn index(&self) -> PathBuf {
        self.dir.join("index.mmdr")
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mmdr-cli-validation-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fix = Fixture { dir };
        let run = |args: &[&str]| {
            let out = mmdr().args(args).output().unwrap();
            assert!(
                out.status.success(),
                "fixture step {:?} failed: {}",
                args,
                String::from_utf8_lossy(&out.stderr)
            );
        };
        run(&[
            "generate",
            "--out",
            fix.data().to_str().unwrap(),
            "--n",
            "300",
            "--dim",
            "8",
            "--clusters",
            "2",
            "--seed",
            "7",
        ]);
        run(&[
            "reduce",
            "--data",
            fix.data().to_str().unwrap(),
            "--out",
            fix.model().to_str().unwrap(),
            "--clusters",
            "2",
        ]);
        run(&[
            "build-index",
            "--data",
            fix.data().to_str().unwrap(),
            "--model",
            fix.model().to_str().unwrap(),
            "--out",
            fix.index().to_str().unwrap(),
            "--buffer-pages",
            "32",
        ]);
        fix
    })
}

/// Runs `mmdr` with `args` and asserts the typed-failure contract: exit
/// code 1, a single `error:` line on stderr containing `needle`, and no
/// panic backtrace.
fn assert_typed_error(args: &[&str], needle: &str) -> Output {
    let out = mmdr().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?}: expected exit 1, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.starts_with("error: "),
        "{args:?}: stderr is not a typed error line: {stderr}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?}: expected a single-line error, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: the CLI panicked: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: error does not mention `{needle}`: {stderr}"
    );
    out
}

#[test]
fn malformed_dataset_file_is_a_typed_error() {
    let fix = fixture();
    let bad = fix.dir.join("garbage.json");
    std::fs::write(&bad, "{ this is not json").unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            fix.index().to_str().unwrap(),
            "--data",
            bad.to_str().unwrap(),
            "--row",
            "0",
        ],
        "garbage.json",
    );
    let truncated = fix.dir.join("truncated.json");
    let good = std::fs::read_to_string(fix.data()).unwrap();
    std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            fix.index().to_str().unwrap(),
            "--data",
            truncated.to_str().unwrap(),
            "--row",
            "0",
        ],
        "truncated.json",
    );
}

#[test]
fn dimension_mismatched_query_is_a_typed_error() {
    let fix = fixture();
    // The model reduces 8-dim data; a 3-coordinate point cannot match the
    // index dimensionality whatever the reduction chose.
    assert_typed_error(
        &[
            "query",
            "--index-file",
            fix.index().to_str().unwrap(),
            "--point",
            "1.0,2.0,3.0",
        ],
        "coordinates",
    );
}

#[test]
fn k_out_of_range_is_a_typed_error() {
    let fix = fixture();
    let index = fix.index();
    let index = index.to_str().unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--row",
            "0",
            "--data",
            fix.data().to_str().unwrap(),
            "--k",
            "0",
        ],
        "--k must be at least 1",
    );
    // 300 points indexed; 10000 neighbours cannot exist.
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--row",
            "0",
            "--data",
            fix.data().to_str().unwrap(),
            "--k",
            "10000",
        ],
        "exceeds the index size",
    );
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--row",
            "0",
            "--data",
            fix.data().to_str().unwrap(),
            "--k",
            "not-a-number",
        ],
        "--k",
    );
}

#[test]
fn bad_rows_points_and_radii_are_typed_errors() {
    let fix = fixture();
    let index = fix.index();
    let index = index.to_str().unwrap();
    let data = fix.data();
    let data = data.to_str().unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--data",
            data,
            "--row",
            "999999",
        ],
        "out of range",
    );
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--data",
            data,
            "--row",
            "zero",
        ],
        "--row",
    );
    assert_typed_error(
        &["query", "--index-file", index, "--point", "1.0,oops"],
        "bad coordinate",
    );
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--data",
            data,
            "--row",
            "0",
            "--radius",
            "-1.0",
        ],
        "non-negative",
    );
    assert_typed_error(
        &[
            "query",
            "--index-file",
            index,
            "--data",
            data,
            "--row",
            "0",
            "--radius",
            "wide",
        ],
        "--radius",
    );
    // No query at all.
    assert_typed_error(&["query", "--index-file", index], "either --row or --point");
}

#[test]
fn missing_or_damaged_snapshot_is_a_typed_error() {
    let fix = fixture();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            "/nonexistent/index.mmdr",
            "--point",
            "1.0",
        ],
        "index.mmdr",
    );
    // A flip in the section table is caught at open, even by the default
    // demand-read open that never decodes the page payload.
    let damaged = fix.dir.join("damaged.mmdr");
    let mut bytes = std::fs::read(fix.index()).unwrap();
    bytes[100] ^= 0xFF;
    std::fs::write(&damaged, &bytes).unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            damaged.to_str().unwrap(),
            "--point",
            "1.0",
        ],
        "checksum",
    );
    // A flip deep in the page payload is only discovered when a query
    // faults the damaged page in — still a typed checksum error, never a
    // silently wrong answer. The huge radius reads every page that holds a
    // row; the file's last page is the heap's last, which holds some.
    let deep = fix.dir.join("deep-damaged.mmdr");
    let mut bytes = std::fs::read(fix.index()).unwrap();
    let in_last_page = bytes.len() - 2048;
    bytes[in_last_page] ^= 0xFF;
    std::fs::write(&deep, &bytes).unwrap();
    assert_typed_error(
        &[
            "query",
            "--index-file",
            deep.to_str().unwrap(),
            "--data",
            fix.data().to_str().unwrap(),
            "--row",
            "0",
            "--radius",
            "1e9",
        ],
        "checksum",
    );
}

#[test]
fn degenerate_generate_sizes_are_typed_errors() {
    let out = std::env::temp_dir().join(format!("mmdr-cli-degenerate-{}.json", std::process::id()));
    let out = out.to_str().unwrap();
    let generate = |extra: &[&'static str]| {
        let mut args = vec!["generate", "--out", out];
        args.extend_from_slice(extra);
        args
    };
    assert_typed_error(&generate(&["--n", "0"]), "--n 0 is fewer than --clusters 5");
    assert_typed_error(
        &generate(&["--n", "3", "--clusters", "5"]),
        "--n 3 is fewer than --clusters 5",
    );
    assert_typed_error(&generate(&["--dim", "0"]), "--dim must be at least 1");
    assert_typed_error(
        &generate(&["--clusters", "0", "--n", "10"]),
        "--clusters must be at least 1",
    );
    assert!(
        !std::path::Path::new(out).exists(),
        "a refused generate writes no file"
    );
}

/// Runs `mmdr` with `args` and asserts it succeeds; returns its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = mmdr().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn info_attributes_a_snapshot_to_its_sections() {
    let index = fixture().index();
    let out = run_ok(&["info", "--index-file", index.to_str().unwrap()]);
    let image = std::fs::read(&index).unwrap();
    // `  name  bytes B  per-row B a row`, the header first, then the
    // sections in file order.
    let lines: Vec<(&str, u64)> = out
        .lines()
        .skip(1)
        .map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next().unwrap();
            (name, words.next().unwrap().parse().unwrap())
        })
        .collect();
    let section_count = u32::from_le_bytes(image[20..24].try_into().unwrap()) as usize;
    assert_eq!(lines.len(), 1 + section_count, "{out}");
    assert_eq!(lines[0].0, "header", "{out}");
    let names: Vec<&str> = lines[1..].iter().map(|&(name, _)| name).collect();
    assert_eq!(names, ["model", "meta", "pagedir", "ids", "pages"], "{out}");
    let total: u64 = lines.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(total, image.len() as u64, "{out}");
    assert!(
        out.starts_with(&format!("snapshot: {} B, 300 rows\n", image.len())),
        "{out}"
    );
    assert_typed_error(
        &["info", "--index-file", fixture().model().to_str().unwrap()],
        "not a snapshot",
    );
}

#[test]
fn an_idistance_query_splits_its_page_accesses_between_tree_and_heap() {
    let fix = fixture();
    let (data, model, index) = (fix.data(), fix.model(), fix.index());
    let [data, model, index] = [&data, &model, &index].map(|p| p.to_str().unwrap());
    // `N page accesses (T tree + H heap, R reads)`: its numbers.
    let accesses = |out: &str| -> Vec<u64> {
        let line = out
            .lines()
            .find(|l| l.contains(" page accesses ("))
            .unwrap();
        let (head, tail) = line.split_once(" page accesses (").unwrap();
        let total = head.rsplit(' ').next().unwrap().parse().unwrap();
        let parts = tail
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty());
        [total]
            .into_iter()
            .chain(parts.map(|s| s.parse().unwrap()))
            .collect()
    };
    let query = ["--data", data, "--row", "5", "--k", "4"];
    for source in [&["--index-file", index][..], &["--model", model]] {
        let out = run_ok(&[&["query"], source, &query].concat());
        assert!(out.contains(" tree + ") && out.contains(" heap, "), "{out}");
        let [total, tree, heap, _] = accesses(&out)[..] else {
            panic!("four numbers: {out}");
        };
        assert!(tree > 0 && heap > 0, "{out}");
        assert_eq!(total, tree + heap, "{out}");
    }
    // Another backend's pools are not a tree and a heap.
    let scan = ["query", "--model", model, "--backend", "seqscan"];
    let out = run_ok(&[&scan[..], &query].concat());
    assert_eq!(accesses(&out).len(), 2, "{out}");
}

#[test]
fn a_flat_cluster_model_is_read_back() {
    // Every row on one line through two points: the cluster is flat
    // beyond its first axis, so its ellipticity is +inf (Definition 3.4).
    let dir = std::env::temp_dir().join(format!("mmdr-cli-flat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let csv: String = (0..300)
        .map(|i| format!("{},0,0,0,0,0,0,0\n", i % 2))
        .collect();
    std::fs::write(path("flat.csv"), csv).unwrap();
    run_ok(&[
        "convert",
        "--csv",
        &path("flat.csv"),
        "--out",
        &path("d.json"),
    ]);
    run_ok(&[
        "reduce",
        "--data",
        &path("d.json"),
        "--out",
        &path("m.json"),
    ]);
    let info = run_ok(&["info", "--model", &path("m.json")]);
    assert!(
        info.contains("e=inf"),
        "the flat cluster's ellipticity: {info}"
    );
    run_ok(&[
        "build-index",
        "--data",
        &path("d.json"),
        "--model",
        &path("m.json"),
        "--out",
        &path("i.mmdr"),
    ]);
    let answer = run_ok(&[
        "query",
        "--index-file",
        &path("i.mmdr"),
        "--point",
        "1,0,0,0,0,0,0,0",
        "--k",
        "3",
    ]);
    assert_eq!(answer.matches("dist 0.000000").count(), 3, "{answer}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_csv_cells_are_refused_at_convert() {
    let dir = std::env::temp_dir().join(format!("mmdr-cli-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("d.json");
    for (name, text, needle) in [
        (
            "later.csv",
            "1,2\n3,nan\n",
            "line 2: non-finite value `nan`",
        ),
        (
            "first.csv",
            "1,nan\n2,3\n",
            "line 1: non-finite value `nan`",
        ),
        (
            "inf.csv",
            "1,2\n-inf,3\n",
            "line 2: non-finite value `-inf`",
        ),
    ] {
        let csv = dir.join(name);
        std::fs::write(&csv, text).unwrap();
        assert_typed_error(
            &[
                "convert",
                "--csv",
                csv.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ],
            needle,
        );
        assert!(!out.exists(), "{name}: a refused convert writes no file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_zero_workers_before_binding() {
    // The refusal comes before the snapshot is even opened, so a path that
    // does not exist is never read and no port is taken.
    let out = assert_typed_error(
        &[
            "serve",
            "--index-file",
            "/nonexistent/index.mmdr",
            "--workers",
            "0",
        ],
        "--workers must be at least 1",
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening"),
        "nothing was bound"
    );
}
