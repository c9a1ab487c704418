//! The three KNN backends, by name.
//!
//! Every comparison scheme in the evaluation answers the same question —
//! nearest neighbours under the reduced-representation distance
//! `‖q − restore(Pᵢ)‖` — so they can all be built from the same
//! `(data, model)` pair ([`crate::build_index`]) and queried through
//! [`mmdr_index::VectorIndex`]. The CLI's `build-index --backend` flag and
//! the benchmark binaries name a backend by [`Backend::name`].

use std::str::FromStr;

/// The three KNN backends behind [`mmdr_index::VectorIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Sequential scan of the reduced heap pages (the paper's baseline).
    SeqScan,
    /// Extended iDistance over the reduction (iMMDR / iLDR depending on
    /// the model).
    IDistance,
    /// The paper's gLDR comparator: one hybrid tree per cluster.
    Gldr,
}

impl Backend {
    /// Flag/display name (`--backend` value).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::SeqScan => "seqscan",
            Backend::IDistance => "idistance",
            Backend::Gldr => "gldr",
        }
    }

    /// All three, in comparison-plot order.
    pub fn all() -> [Backend; 3] {
        [Backend::SeqScan, Backend::IDistance, Backend::Gldr]
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses a `--backend` flag value. The error of a failed parse lists
    /// every valid name (derived from [`Backend::all`], so the list can
    /// never drift from the enum).
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        Backend::all()
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Backend::all().iter().map(|b| b.name()).collect();
                format!(
                    "unknown backend `{s}`; valid backends are: {}",
                    names.join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_index;
    use mmdr_core::{Mmdr, MmdrParams};
    use mmdr_index::VectorIndex;
    use mmdr_linalg::Matrix;

    /// An answer as `(distance bits, id)` pairs.
    fn bits(hits: &[(f64, u64)]) -> Vec<(u64, u64)> {
        hits.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
    }

    #[test]
    fn names_round_trip() {
        for b in Backend::all() {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        assert!("btree".parse::<Backend>().is_err());
    }

    #[test]
    fn parse_error_names_the_offender_and_every_valid_backend() {
        let err = "btre".parse::<Backend>().unwrap_err();
        assert!(err.contains("`btre`"), "offending input quoted: {err}");
        for b in Backend::all() {
            assert!(err.contains(b.name()), "{} missing from {err}", b.name());
        }
        // Near-miss spellings (case, whitespace) are rejected too — the
        // flag is exact-match by design.
        assert!("IDistance".parse::<Backend>().is_err());
        assert!(" seqscan".parse::<Backend>().is_err());
    }

    #[test]
    fn factory_builds_all_three_with_matching_answers() {
        let mut rows = Vec::new();
        let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
        for i in 0..100 {
            let t = i as f64 / 99.0;
            rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
            rows.push(vec![
                5.0 + jit(i, 0.1),
                5.0 + jit(i, 0.9),
                5.0 + t,
                5.0 - 0.5 * t,
            ]);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let model = Mmdr::new(MmdrParams {
            max_ec: 4,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let q = data.row(10);
        let mut answers = Vec::new();
        for b in Backend::all() {
            // Every backend clamps its budget alike: none is too small, and
            // the pool's size never changes an answer.
            let per_budget: Vec<_> = [0, 1, 64]
                .into_iter()
                .map(|pages| {
                    let index = build_index(b, &data, &model, pages).unwrap().into_boxed();
                    assert_eq!(index.name(), b.name());
                    assert_eq!(index.len(), data.rows());
                    assert_eq!(index.dim(), 4);
                    index.knn(q, 5).unwrap()
                })
                .collect();
            for other in &per_budget[1..] {
                assert_eq!(bits(other), bits(&per_budget[0]), "{}", b.name());
            }
            if b == Backend::IDistance {
                let direct = crate::IDistanceIndex::build(&data, &model, 1).unwrap();
                assert_eq!(bits(&direct.knn(q, 5).unwrap()), bits(&per_budget[0]));
            }
            answers.push(per_budget[0].clone());
        }
        for pair in answers.windows(2) {
            assert_eq!(pair[0].len(), pair[1].len());
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(a.1, b.1, "same neighbour ids");
                assert!((a.0 - b.0).abs() < 1e-9, "same distances");
            }
        }
    }
}
