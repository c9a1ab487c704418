//! Reduction + precision evaluation shared by the figure binaries.

use mmdr_core::{Gdr, Ldr, LdrParams, Mmdr, MmdrParams, ReductionResult};
use mmdr_datagen::{exact_knn, precision};
use mmdr_idistance::{SeqScan, VectorIndex};
use mmdr_linalg::Matrix;

/// The three reduction methods the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Multi-level Mahalanobis-based Dimensionality Reduction (this paper).
    Mmdr,
    /// Local Dimensionality Reduction (Chakrabarti & Mehrotra).
    Ldr,
    /// Global Dimensionality Reduction (single PCA).
    Gdr,
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Mmdr => "MMDR",
            Method::Ldr => "LDR",
            Method::Gdr => "GDR",
        }
    }

    /// All three, in the paper's plotting order.
    pub fn all() -> [Method; 3] {
        [Method::Mmdr, Method::Ldr, Method::Gdr]
    }
}

/// Runs one reduction method with the evaluation defaults.
///
/// `fixed_dim` pins the retained dimensionality (the Figure 8–10 sweeps);
/// `None` lets each method choose (Figure 7). `max_ec` is the cluster
/// budget shared by MMDR and LDR so the comparison stays apples-to-apples.
///
/// When the dimensionality is pinned, the β / reconstruction-threshold
/// outlier escape is disabled: pinning `d_r` below a cluster's intrinsic
/// dimensionality would otherwise expel every member into the outlier set
/// — which is stored at *full* dimensionality and answers queries exactly,
/// turning the sweep into a trivial precision-1.0 measurement of outlier
/// storage instead of reduction quality.
pub fn reduce(
    method: Method,
    data: &Matrix,
    fixed_dim: Option<usize>,
    max_ec: usize,
    seed: u64,
) -> ReductionResult {
    let no_escape = fixed_dim.is_some();
    match method {
        Method::Mmdr => Mmdr::new(MmdrParams {
            max_ec,
            fixed_dim,
            seed,
            beta: if no_escape {
                f64::MAX
            } else {
                MmdrParams::default().beta
            },
            ..Default::default()
        })
        .fit(data)
        .expect("MMDR fit"),
        Method::Ldr => Ldr::new(LdrParams {
            k: max_ec,
            fixed_dim,
            seed,
            recon_threshold: if no_escape {
                f64::MAX
            } else {
                LdrParams::default().recon_threshold
            },
            ..Default::default()
        })
        .fit(data)
        .expect("LDR fit"),
        Method::Gdr => Gdr::new(fixed_dim.unwrap_or(20))
            .fit(data)
            .expect("GDR fit"),
    }
}

/// Mean KNN precision over the query set (the paper's §6 metric): exact
/// `R_d` by linear scan in the original space, `R_dr` from the reduced
/// representations (sequential scan — index choice does not affect the
/// answer set, only its cost).
pub fn mean_precision(data: &Matrix, model: &ReductionResult, queries: &Matrix, k: usize) -> f64 {
    let scan = SeqScan::build(data, model, 4096).expect("seq scan build");
    let mut total = 0.0;
    for q in queries.iter_rows() {
        let exact: Vec<usize> = exact_knn(data, q, k).into_iter().map(|(_, i)| i).collect();
        let approx: Vec<usize> = scan
            .knn(q, k)
            .expect("scan knn")
            .into_iter()
            .map(|(_, id)| id as usize)
            .collect();
        total += precision(&exact, &approx);
    }
    total / queries.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn methods_have_names() {
        assert_eq!(Method::all().map(|m| m.name()), ["MMDR", "LDR", "GDR"]);
    }

    #[test]
    fn mmdr_beats_gdr_on_locally_correlated_data() {
        let ds = workloads::synthetic(2000, 16, 5, 30.0, 3);
        let queries = mmdr_datagen::sample_queries(&ds.data, 20, 7).unwrap();
        let mmdr = reduce(Method::Mmdr, &ds.data, None, 6, 0);
        let gdr = reduce(Method::Gdr, &ds.data, Some(4), 6, 0);
        let p_mmdr = mean_precision(&ds.data, &mmdr, &queries, 10);
        let p_gdr = mean_precision(&ds.data, &gdr, &queries, 10);
        assert!(
            p_mmdr > p_gdr,
            "MMDR {p_mmdr} should beat GDR {p_gdr} on local correlation"
        );
        assert!(p_mmdr > 0.5, "MMDR precision {p_mmdr}");
    }

    #[test]
    fn precision_is_one_for_lossless_reduction() {
        // Perfectly flat data: the reduced representations are exact.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = i as f64 / 299.0;
                vec![t, 2.0 * t, -t, 0.0]
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let queries = mmdr_datagen::sample_queries(&data, 10, 1).unwrap();
        let model = reduce(Method::Gdr, &data, Some(1), 1, 0);
        let p = mean_precision(&data, &model, &queries, 5);
        assert!((p - 1.0).abs() < 1e-9, "precision {p}");
    }
}
