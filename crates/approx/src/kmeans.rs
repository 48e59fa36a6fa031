//! Lloyd's k-means iteration (Algorithm 4 of the paper).

use rand::seq::index::sample;
use rand::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Final centroids (may be fewer than requested if `k > n`).
    pub centroids: Vec<Vec<f64>>,
    /// `assignment[p]` = index of `p`'s centroid.
    pub assignment: Vec<usize>,
    /// Final within-cluster sum of squared distances (Definition 2.10).
    pub objective: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
    /// True if the assignment stabilized before `max_iter`.
    pub converged: bool,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn assign(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> Vec<usize> {
    points
        .iter()
        .map(|p| {
            centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| sq_dist(p, a).partial_cmp(&sq_dist(p, b)).unwrap())
                .map(|(i, _)| i)
                .expect("at least one centroid")
        })
        .collect()
}

fn objective(points: &[Vec<f64>], centroids: &[Vec<f64>], assignment: &[usize]) -> f64 {
    points
        .iter()
        .zip(assignment)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum()
}

/// Lloyd's k-means: initialize `k` centers by sampling distinct points,
/// then alternate closest-center assignment and centroid recomputation until
/// the assignment stabilizes or `max_iter` is reached (the paper notes the
/// worst case is super-polynomial, so a cap is essential).
///
/// Empty clusters keep their previous centroid. `k` is clamped to `1..=n`.
///
/// # Panics
/// Panics if `points` is empty or dimensions differ.
pub fn kmeans<R: Rng>(points: &[Vec<f64>], k: usize, max_iter: usize, rng: &mut R) -> KMeansResult {
    assert!(!points.is_empty(), "cannot cluster zero points");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "all points must share one dimension"
    );
    let k = k.clamp(1, points.len());

    let mut centroids: Vec<Vec<f64>> = sample(rng, points.len(), k)
        .into_iter()
        .map(|i| points[i].clone())
        .collect();
    let mut assignment = assign(points, &centroids);
    let mut iterations = 0;
    let mut converged = false;

    while iterations < max_iter {
        iterations += 1;
        // Recompute centroids.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignment) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                for (cc, &s) in c.iter_mut().zip(sum) {
                    *cc = s / count as f64;
                }
            }
        }
        let next = assign(points, &centroids);
        if next == assignment {
            converged = true;
            break;
        }
        assignment = next;
    }

    let objective = objective(points, &centroids, &assignment);
    KMeansResult {
        centroids,
        assignment,
        objective,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_blobs() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(7);
        let r = kmeans(&pts, 2, 100, &mut rng);
        assert!(r.converged);
        // Points at even indices share a cluster; odd indices the other.
        let c0 = r.assignment[0];
        assert!(pts
            .iter()
            .zip(&r.assignment)
            .all(|(p, &a)| (p[0] < 5.0) == (a == c0)));
        assert!(r.objective < 1.0);
    }

    #[test]
    fn objective_matches_definition() {
        let pts = vec![vec![0.0], vec![2.0]];
        let mut rng = StdRng::seed_from_u64(1);
        let r = kmeans(&pts, 1, 10, &mut rng);
        // Single centroid at 1.0; objective = 1 + 1 = 2.
        assert!((r.centroids[0][0] - 1.0).abs() < 1e-12);
        assert!((r.objective - 2.0).abs() < 1e-12);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![0.0], vec![1.0]];
        let mut rng = StdRng::seed_from_u64(2);
        let r = kmeans(&pts, 10, 10, &mut rng);
        assert_eq!(r.centroids.len(), 2);
        assert!((r.objective - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, 2, 100, &mut StdRng::seed_from_u64(3));
        let b = kmeans(&pts, 2, 100, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn max_iter_zero_reports_unconverged() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(4);
        let r = kmeans(&pts, 2, 0, &mut rng);
        assert!(!r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_input_panics() {
        kmeans(&[], 2, 10, &mut StdRng::seed_from_u64(0));
    }
}
