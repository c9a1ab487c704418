//! Shared output types for clusterings.

/// One discovered cluster: centroid and membership.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Centroid in the space the clustering ran in.
    pub centroid: Vec<f64>,
    /// Indices (into the input dataset) of the member points.
    pub members: Vec<usize>,
    /// Total weight of the members (equals `members.len()` when unweighted).
    pub weight: f64,
}

impl Cluster {
    /// Number of member points.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A complete clustering: per-point assignment plus per-cluster models.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// `assignments[i]` is the cluster index of point `i`.
    pub assignments: Vec<usize>,
    /// The clusters, indexed by assignment value.
    pub clusters: Vec<Cluster>,
}

impl Clustering {
    /// Checks the internal consistency of the clustering: every point is
    /// assigned to an existing cluster and membership lists mirror the
    /// assignment vector. Used by tests and `debug_assert!`s.
    pub fn is_consistent(&self) -> bool {
        for (i, &a) in self.assignments.iter().enumerate() {
            if a >= self.clusters.len() || !self.clusters[a].members.contains(&i) {
                return false;
            }
        }
        let total: usize = self.clusters.iter().map(|c| c.members.len()).sum();
        total == self.assignments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_check_accepts_valid() {
        let c = Clustering {
            assignments: vec![0, 1, 0],
            clusters: vec![
                Cluster {
                    centroid: vec![0.0],
                    members: vec![0, 2],
                    weight: 2.0,
                },
                Cluster {
                    centroid: vec![1.0],
                    members: vec![1],
                    weight: 1.0,
                },
            ],
        };
        assert!(c.is_consistent());
        assert_eq!(c.clusters[0].len(), 2);
        assert!(!c.clusters[0].is_empty());
    }

    #[test]
    fn consistency_check_rejects_bad_assignment() {
        let c = Clustering {
            assignments: vec![3],
            clusters: vec![],
        };
        assert!(!c.is_consistent());
    }

    #[test]
    fn consistency_check_rejects_missing_membership() {
        let c = Clustering {
            assignments: vec![0],
            clusters: vec![Cluster {
                centroid: vec![0.0],
                members: vec![],
                weight: 0.0,
            }],
        };
        assert!(!c.is_consistent());
    }
}
