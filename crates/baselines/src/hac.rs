//! Hierarchical agglomerative clustering (HAC) with the nearest-neighbor
//! chain algorithm.
//!
//! These are the COMP (complete-linkage) and AVG (average-linkage)
//! baselines of §VII, modelled after the parallel ParChain implementation
//! the paper uses: the O(n²) distance matrix is built in parallel and the
//! agglomeration itself uses the nearest-neighbor-chain algorithm, which is
//! exact for the reducible linkages implemented here.

use pfg_core::Dendrogram;
use pfg_graph::SymmetricMatrix;

/// The linkage function used to measure the distance between clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Maximum pairwise distance (the COMP baseline).
    Complete,
    /// Unweighted average pairwise distance (UPGMA; the AVG baseline).
    Average,
}

impl Linkage {
    /// Lance–Williams update: distance from the merge of clusters `a` and
    /// `b` (with sizes `size_a`, `size_b`) to another cluster `k`.
    fn update(&self, d_ak: f64, d_bk: f64, size_a: usize, size_b: usize) -> f64 {
        match self {
            Linkage::Complete => d_ak.max(d_bk),
            Linkage::Average => {
                let (sa, sb) = (size_a as f64, size_b as f64);
                (sa * d_ak + sb * d_bk) / (sa + sb)
            }
        }
    }
}

/// Runs hierarchical agglomerative clustering over a dissimilarity matrix,
/// returning the dendrogram whose merge heights are the linkage distances.
///
/// The input matrix is copied into a working distance matrix; the
/// agglomeration is O(n²) time and memory.
pub fn hac(dissimilarity: &SymmetricMatrix, linkage: Linkage) -> Dendrogram {
    let n = dissimilarity.n();
    let mut dendrogram = Dendrogram::new(n);
    if n <= 1 {
        return dendrogram;
    }
    // Working distance matrix between active clusters (indexed by slot).
    let mut dist: Vec<f64> = dissimilarity.as_slice().to_vec();
    let mut active: Vec<bool> = vec![true; n];
    let mut node_of_slot: Vec<usize> = (0..n).collect();
    let mut size_of_slot: Vec<usize> = vec![1; n];
    let mut remaining = n;
    let mut chain: Vec<usize> = Vec::new();

    while remaining > 1 {
        if chain.is_empty() {
            let start = active.iter().position(|&a| a).expect("clusters remain");
            chain.push(start);
        }
        let current = *chain.last().expect("chain non-empty");
        let prev = if chain.len() >= 2 {
            Some(chain[chain.len() - 2])
        } else {
            None
        };
        // Nearest active neighbor, preferring the previous chain element on
        // ties (required for NN-chain termination) and then the smaller slot
        // index (for determinism).
        let mut nearest = usize::MAX;
        let mut nearest_dist = f64::INFINITY;
        for j in 0..n {
            if !active[j] || j == current {
                continue;
            }
            let d = dist[current * n + j];
            let better = d < nearest_dist
                || (d == nearest_dist && Some(j) == prev)
                || (d == nearest_dist && nearest != prev.unwrap_or(usize::MAX) && j < nearest);
            if better {
                nearest = j;
                nearest_dist = d;
            }
        }
        if Some(nearest) == prev {
            chain.pop();
            chain.pop();
            let a = current.min(nearest);
            let b = current.max(nearest);
            let node = dendrogram.merge(node_of_slot[a], node_of_slot[b], nearest_dist);
            // Lance–Williams update into slot a.
            for k in 0..n {
                if active[k] && k != a && k != b {
                    let d = linkage.update(
                        dist[a * n + k],
                        dist[b * n + k],
                        size_of_slot[a],
                        size_of_slot[b],
                    );
                    dist[a * n + k] = d;
                    dist[k * n + a] = d;
                }
            }
            node_of_slot[a] = node;
            size_of_slot[a] += size_of_slot[b];
            active[b] = false;
            remaining -= 1;
        } else {
            chain.push(nearest);
        }
    }
    dendrogram
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance matrix for points on a line at the given positions.
    fn line_points(positions: &[f64]) -> SymmetricMatrix {
        SymmetricMatrix::from_fn(positions.len(), |i, j| (positions[i] - positions[j]).abs())
    }

    #[test]
    fn two_tight_pairs_merge_first() {
        let d = line_points(&[0.0, 1.0, 10.0, 11.5]);
        for linkage in [Linkage::Complete, Linkage::Average] {
            let dend = hac(&d, linkage);
            let labels = dend.cut_to_clusters(2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[2], labels[3]);
            assert_ne!(labels[0], labels[2]);
        }
    }

    #[test]
    fn complete_linkage_root_height_is_diameter() {
        let d = line_points(&[0.0, 1.0, 4.0, 9.0]);
        let dend = hac(&d, Linkage::Complete);
        let root = dend.root().unwrap();
        assert!((dend.node(root).height - 9.0).abs() < 1e-12);
    }

    #[test]
    fn average_linkage_heights_are_monotone() {
        let d = line_points(&[0.0, 0.5, 0.6, 5.0, 5.2, 9.9, 10.0, 10.4]);
        let dend = hac(&d, Linkage::Average);
        assert!(dend.is_monotone());
        assert_eq!(dend.root().map(|r| dend.node(r).size), Some(8));
    }

    #[test]
    fn handles_trivial_inputs() {
        let d = SymmetricMatrix::zeros(1);
        let dend = hac(&d, Linkage::Complete);
        assert_eq!(dend.num_leaves(), 1);
        assert_eq!(dend.root(), Some(0));
        let d0 = SymmetricMatrix::zeros(0);
        let dend0 = hac(&d0, Linkage::Complete);
        assert_eq!(dend0.num_leaves(), 0);
    }

    #[test]
    fn all_equal_distances_still_produce_full_dendrogram() {
        let mut d = SymmetricMatrix::filled(6, 1.0);
        for i in 0..6 {
            d.set(i, i, 0.0);
        }
        let dend = hac(&d, Linkage::Average);
        assert!(dend.root().is_some());
        assert_eq!(dend.cut_to_clusters(1).len(), 6);
        assert!(dend.is_monotone());
    }

    #[test]
    fn complete_matches_bruteforce_on_small_instance() {
        // Brute-force complete linkage on 5 points and compare the merge
        // height sequence.
        let positions = [0.0, 2.0, 3.0, 7.0, 11.0];
        let d = line_points(&positions);
        let dend = hac(&d, Linkage::Complete);
        let mut heights: Vec<f64> = dend
            .internal_nodes()
            .map(|id| dend.node(id).height)
            .collect();
        heights.sort_by(f64::total_cmp);
        // Expected merges: (1,2)@1, (0,{1,2})@3, (3,4)@4, then all@11.
        let expected = [1.0, 3.0, 4.0, 11.0];
        for (h, e) in heights.iter().zip(expected.iter()) {
            assert!((h - e).abs() < 1e-12, "heights {heights:?}");
        }
    }
}
