//! k-means clustering: scalable k-means|| seeding and parallel Lloyd
//! iterations (the K-MEANS baseline of §VII).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Configuration of the k-means baseline.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the relative decrease of the objective.
    pub tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iterations: 100,
            tolerance: 1e-6,
            seed: 1,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster label per point (in `0..k`).
    pub labels: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs k-means on the given points.
///
/// # Panics
/// Panics if `points` is empty, dimensions are inconsistent, or `k == 0`.
pub fn kmeans(points: &[Vec<f64>], config: &KMeansConfig) -> KMeansResult {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert!(config.k >= 1, "k must be at least 1");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent dimensions"
    );
    let k = config.k.min(points.len());
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut centroids = seed_scalable(points, k, &mut rng);
    // Degenerate inputs (e.g. many identical points) can leave the seeding
    // with fewer than k candidates; pad with random points so the Lloyd
    // loop always works with k centroids.
    while centroids.len() < k {
        centroids.push(points[rng.gen_range(0..points.len())].clone());
    }

    let mut labels = vec![0usize; points.len()];
    let mut previous_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for iteration in 0..config.max_iterations {
        iterations = iteration + 1;
        // Assignment step (parallel over points).
        let assignment: Vec<(usize, f64)> = points
            .par_iter()
            .map(|p| nearest_centroid(p, &centroids))
            .collect();
        inertia = assignment.par_iter().map(|&(_, d)| d).sum();
        for (i, &(c, _)) in assignment.iter().enumerate() {
            labels[i] = c;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &(c, _)) in points.iter().zip(assignment.iter()) {
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(p.iter()) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the point farthest from its
                // centroid, a standard k-means repair step.
                let (far, _) = assignment
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                    .expect("points exist");
                centroids[c] = points[far].clone();
            } else {
                for (ci, s) in centroids[c].iter_mut().zip(sums[c].iter()) {
                    *ci = s / counts[c] as f64;
                }
            }
        }
        if (previous_inertia - inertia).abs() <= config.tolerance * previous_inertia.max(1e-12) {
            break;
        }
        previous_inertia = inertia;
    }
    KMeansResult {
        labels,
        centroids,
        inertia,
        iterations,
    }
}

/// Squared Euclidean distance.
fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

/// Index of the nearest centroid and the squared distance to it.
fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_dist = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = squared_distance(point, centroid);
        if d < best_dist {
            best = c;
            best_dist = d;
        }
    }
    (best, best_dist)
}

/// Scalable k-means|| seeding (Bahmani et al. 2012): a few oversampling
/// rounds followed by a weighted k-means++ reduction of the candidate set.
fn seed_scalable(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let oversample = (2 * k).max(2);
    let rounds = 5usize;
    let first = rng.gen_range(0..points.len());
    let mut candidates: Vec<usize> = vec![first];
    let mut distances: Vec<f64> = points
        .par_iter()
        .map(|p| squared_distance(p, &points[first]))
        .collect();
    for _ in 0..rounds {
        let total: f64 = distances.iter().sum();
        if total <= 0.0 {
            break;
        }
        let picks: Vec<usize> = (0..points.len())
            .filter(|&i| {
                let p = (oversample as f64 * distances[i] / total).min(1.0);
                rng.gen_bool(p)
            })
            .collect();
        if picks.is_empty() {
            continue;
        }
        for &i in &picks {
            candidates.push(i);
        }
        distances = points
            .par_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut d = distances[i];
                for &c in &picks {
                    d = d.min(squared_distance(p, &points[c]));
                }
                d
            })
            .collect();
    }
    candidates.sort_unstable();
    candidates.dedup();
    // Weight each candidate by the number of points closest to it, then run
    // weighted k-means++ over the candidates.
    let candidate_points: Vec<Vec<f64>> = candidates.iter().map(|&i| points[i].clone()).collect();
    let closest: Vec<usize> = points
        .par_iter()
        .map(|p| nearest_centroid(p, &candidate_points).0)
        .collect();
    let mut weights = vec![0.0f64; candidate_points.len()];
    for &c in &closest {
        weights[c] += 1.0;
    }
    weighted_plus_plus(&candidate_points, &weights, k, rng)
}

/// Weighted k-means++ over a (small) candidate set.
fn weighted_plus_plus(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let k = k.min(points.len());
    let total_weight: f64 = weights.iter().sum();
    let mut target = rng.gen_range(0.0..total_weight.max(1e-12));
    let mut first = 0;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            first = i;
            break;
        }
        target -= w;
    }
    let mut centroids = vec![points[first].clone()];
    let mut distances: Vec<f64> = points
        .iter()
        .map(|p| squared_distance(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = distances
            .iter()
            .zip(weights.iter())
            .map(|(&d, &w)| d * w)
            .sum();
        let choice = if total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for i in 0..points.len() {
                let mass = distances[i] * weights[i];
                if target < mass {
                    chosen = i;
                    break;
                }
                target -= mass;
            }
            chosen
        };
        centroids.push(points[choice].clone());
        let newest = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            distances[i] = distances[i].min(squared_distance(p, newest));
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs(per_cluster: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per_cluster {
                points.push(vec![
                    center[0] + rng.gen_range(-1.0..1.0),
                    center[1] + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        (points, labels)
    }

    fn pair_agreement(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0;
        let mut total = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if (a[i] == a[j]) == (b[i] == b[j]) {
                    agree += 1;
                }
                total += 1;
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_well_separated_blobs_with_both_seedings() {
        let (points, truth) = blobs(30, 3);
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                seed: 7,
                ..KMeansConfig::default()
            },
        );
        assert!(pair_agreement(&truth, &result.labels) > 0.95);
        assert_eq!(result.centroids.len(), 3);
        assert!(result.inertia.is_finite());
        assert!(result.iterations >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (points, _) = blobs(20, 5);
        let config = KMeansConfig {
            k: 3,
            seed: 11,
            ..KMeansConfig::default()
        };
        let a = kmeans(&points, &config);
        let b = kmeans(&points, &config);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 10,
                ..KMeansConfig::default()
            },
        );
        assert!(result.centroids.len() <= 2);
        assert_eq!(result.labels.len(), 2);
    }

    #[test]
    fn k_equals_one_puts_everything_together() {
        let (points, _) = blobs(10, 1);
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 1,
                ..KMeansConfig::default()
            },
        );
        assert!(result.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (points, _) = blobs(25, 9);
        let inertia = |k: usize| {
            kmeans(
                &points,
                &KMeansConfig {
                    k,
                    seed: 3,
                    ..KMeansConfig::default()
                },
            )
            .inertia
        };
        assert!(inertia(3) < inertia(1));
        assert!(inertia(6) <= inertia(3) + 1e-9);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let points = vec![vec![1.0, 2.0]; 8];
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 3,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(result.labels.len(), 8);
        assert!(result.inertia.abs() < 1e-18);
    }
}
