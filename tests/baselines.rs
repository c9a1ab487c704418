//! Cross-method integration checks: MMDR vs. the LDR/GDR baselines must
//! reproduce the paper's qualitative relationships.

use mmdr::core::{Gdr, Ldr, LdrParams, Mmdr, MmdrParams, ReductionResult};
use mmdr::datagen::{exact_knn, generate_correlated, precision, sample_queries, CorrelatedConfig};
use mmdr::idistance::{SeqScan, VectorIndex};
use mmdr::linalg::Matrix;

fn locally_correlated() -> Matrix {
    generate_correlated(&CorrelatedConfig::paper_style(6_000, 64, 10, 12, 30.0, 23)).data
}

fn mean_precision(data: &Matrix, model: &ReductionResult, k: usize) -> f64 {
    let queries = sample_queries(data, 20, 31).unwrap();
    let scan = SeqScan::build(data, model, 1024).unwrap();
    let mut total = 0.0;
    for q in queries.iter_rows() {
        let exact: Vec<usize> = exact_knn(data, q, k).into_iter().map(|(_, i)| i).collect();
        let approx: Vec<usize> = scan
            .knn(q, k)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id as usize)
            .collect();
        total += precision(&exact, &approx);
    }
    total / queries.rows() as f64
}

#[test]
fn mmdr_beats_gdr_at_equal_dimensionality() {
    let data = locally_correlated();
    // Pin both to 12 retained dims: GDR's single global basis cannot serve
    // ten clusters correlated along different directions.
    let mmdr = Mmdr::new(MmdrParams {
        fixed_dim: Some(12),
        ..Default::default()
    })
    .fit(&data)
    .unwrap();
    let gdr = Gdr::new(12).fit(&data).unwrap();
    let p_mmdr = mean_precision(&data, &mmdr, 10);
    let p_gdr = mean_precision(&data, &gdr, 10);
    assert!(
        p_mmdr > p_gdr + 0.15,
        "MMDR {p_mmdr:.3} should clearly beat GDR {p_gdr:.3}"
    );
}

#[test]
fn mmdr_reduces_further_than_ldr_at_comparable_precision() {
    // The paper's §6.1 headline: a more effective reduction — fewer retained
    // dims and fewer outliers — at equal or better precision.
    let data = locally_correlated();
    let mmdr = Mmdr::new(MmdrParams::default()).fit(&data).unwrap();
    let ldr = Ldr::new(LdrParams::default()).fit(&data).unwrap();
    let p_mmdr = mean_precision(&data, &mmdr, 10);
    let p_ldr = mean_precision(&data, &ldr, 10);
    assert!(p_mmdr >= p_ldr - 0.05, "MMDR {p_mmdr:.3} vs LDR {p_ldr:.3}");
    assert!(
        mmdr.mean_retained_dim() <= ldr.mean_retained_dim() + 1.0,
        "MMDR mean d_r {:.1} vs LDR {:.1}",
        mmdr.mean_retained_dim(),
        ldr.mean_retained_dim()
    );
    assert!(
        mmdr.outlier_fraction() <= ldr.outlier_fraction() + 0.02,
        "MMDR outliers {:.3} vs LDR {:.3}",
        mmdr.outlier_fraction(),
        ldr.outlier_fraction()
    );
}

#[test]
fn all_methods_produce_valid_partitions() {
    let data = locally_correlated();
    for model in [
        Mmdr::new(MmdrParams::default()).fit(&data).unwrap(),
        Ldr::new(LdrParams::default()).fit(&data).unwrap(),
        Gdr::new(20).fit(&data).unwrap(),
    ] {
        assert!(model.is_partition());
        for c in &model.clusters {
            assert!(c.reduced_dim() >= 1 && c.reduced_dim() <= 64);
            assert!(c.radius_retained >= c.nearest_radius);
            assert!(c.mpe.is_finite() && c.mpe >= 0.0);
        }
    }
}
