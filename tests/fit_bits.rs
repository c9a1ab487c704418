//! The fitted model, pinned to the bit.
//!
//! Every other fit test compares one run with another (thread counts,
//! repeated seeds). These compare a fit with a recorded result: a
//! fingerprint over every member index, every `f64` of every cluster by its
//! `to_bits()` (centroid, basis, MPE, the three radii and the
//! ellipticity), the outlier set and the work counters. A change that makes
//! the fit faster must leave all of them where they are.
//!
//! Between them the fixtures reach every branch of the fit: Generate
//! Ellipsoid's entry-probe acceptance, its line-11 acceptance and its
//! recursion; the coplanar merge and the `MaxEC` fold; the adoption pass and
//! the β-outlier test; the streaming path and a pinned `fixed_dim`.

use mmdr::core::{Mmdr, MmdrParams, ParConfig, ReductionResult, ScalableMmdr};
use mmdr::datagen::{generate_correlated, CorrelatedConfig};
use mmdr::linalg::Matrix;

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn indices(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }
}

fn fingerprint(model: &ReductionResult) -> u64 {
    let mut f = Fingerprint::new();
    f.word(model.dim as u64);
    f.word(model.num_points as u64);
    f.word(model.clusters.len() as u64);
    for c in &model.clusters {
        f.indices(&c.members);
        f.word(c.reduced_dim() as u64);
        f.floats(c.subspace.centroid());
        f.floats(c.subspace.basis().as_slice());
        f.floats([
            &c.mpe,
            &c.radius_eliminated,
            &c.radius_retained,
            &c.nearest_radius,
            &c.ellipticity,
        ]);
    }
    f.indices(&model.outliers);
    let s = &model.stats;
    f.word(s.distance_computations);
    f.word(s.ge_invocations);
    f.word(s.max_s_dim_reached as u64);
    f.word(s.streams);
    f.0
}

fn assert_pinned(name: &str, model: &ReductionResult, want: u64) {
    let got = fingerprint(model);
    assert!(
        got == want,
        "{name}: fingerprint {got:#018x}, recorded {want:#018x} \
         ({} clusters, {} outliers, stats {:?})",
        model.clusters.len(),
        model.outliers.len(),
        model.stats
    );
}

/// D1's recipe (the benchmark's 32-d corpus: five rotated clusters with a
/// 12-d retained block, layout seed 7, sample seed 1) at 2 500 rows.
fn d1_small() -> Matrix {
    let mut cfg = CorrelatedConfig::paper_style(2_500, 32, 5, 12, 30.0, 7);
    cfg.seed = 1;
    generate_correlated(&cfg).data
}

/// Five rotated 64-d clusters with a 12-d retained block, plus 50 rows of
/// uniform noise in the unit cube that no subspace represents.
fn wide_with_noise() -> Matrix {
    let mut cfg = CorrelatedConfig::paper_style(1_000, 64, 5, 12, 30.0, 3);
    cfg.seed = 2;
    let mut data = generate_correlated(&cfg).data;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..50 {
        let row: Vec<f64> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        data.push_row(&row).unwrap();
    }
    data
}

#[test]
fn d1_recipe_fit_is_pinned_at_every_thread_count() {
    let data = d1_small();
    for threads in [1, 2] {
        let model = Mmdr::new(MmdrParams {
            max_ec: 5,
            par: ParConfig::threads(threads),
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        assert_pinned(
            &format!("d1_small threads={threads}"),
            &model,
            0x27bc_c557_2c6b_bfb0,
        );
    }
}

#[test]
fn wide_noisy_fit_is_pinned() {
    let model = Mmdr::new(MmdrParams::default())
        .fit(&wide_with_noise())
        .unwrap();
    assert_pinned("wide", &model, 0x7027_8c84_52f5_aa69);
}

#[test]
fn wide_noisy_streaming_fit_is_pinned() {
    let model = ScalableMmdr::new(MmdrParams::default())
        .with_epsilon(0.1)
        .fit(&wide_with_noise())
        .unwrap();
    assert_pinned("wide streaming", &model, 0xe3af_e613_2f4f_09c6);
}

/// `fixed_dim` above every level Generate Ellipsoid accepts at: the PCA a
/// member set carries must hold the columns the pinned dimensionality reads.
#[test]
fn fixed_dim_fit_is_pinned() {
    let mut cfg = CorrelatedConfig::paper_style(1_200, 16, 4, 1, 30.0, 5);
    cfg.seed = 4;
    let model = Mmdr::new(MmdrParams {
        max_ec: 4,
        fixed_dim: Some(3),
        ..Default::default()
    })
    .fit(&generate_correlated(&cfg).data)
    .unwrap();
    assert_pinned("fixed_dim", &model, 0xdd84_b030_c4d0_d7e4);
}
