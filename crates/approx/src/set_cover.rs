//! Greedy set cover (Algorithm 1 of the paper).

/// Result of a greedy cover computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverResult {
    /// Indices (into the input collection) of the chosen subsets, in pick
    /// order.
    pub chosen: Vec<usize>,
    /// Per-element coverage flags after the run.
    pub covered: Vec<bool>,
    /// True if every universe element ended up covered.
    pub complete: bool,
}

impl CoverResult {
    /// Number of covered elements.
    pub fn covered_count(&self) -> usize {
        self.covered.iter().filter(|&&c| c).count()
    }
}

/// Greedy minimum-cardinality set cover (the paper's Algorithm 1 with unit
/// costs).
///
/// In each iteration picks the subset covering the most still-uncovered
/// elements — equivalently, the subset of lowest average cost
/// `α(S) = 1/|S − Cover|` — until the universe of `universe_size` elements
/// is covered or no subset makes progress. Guarantees a cover within
/// `H(n) ≤ ln n + 1` of optimal when a cover exists (Theorem 2.3).
///
/// Elements are `0..universe_size`; each subset is a list of element ids
/// (out-of-range ids are ignored; duplicates are harmless).
pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<usize>]) -> CoverResult {
    greedy_weighted_set_cover(universe_size, sets, &vec![1.0; sets.len()])
}

/// Greedy weighted set cover: picks, per iteration, the subset minimizing
/// `cost(S) / |S − Cover|` (maximum cost-effectiveness).
///
/// # Panics
/// Panics if `costs.len() != sets.len()` or any cost is not finite/positive.
pub fn greedy_weighted_set_cover(
    universe_size: usize,
    sets: &[Vec<usize>],
    costs: &[f64],
) -> CoverResult {
    assert_eq!(sets.len(), costs.len(), "one cost per subset");
    assert!(
        costs.iter().all(|c| c.is_finite() && *c > 0.0),
        "costs must be finite and positive"
    );
    let mut covered = vec![false; universe_size];
    let mut remaining = universe_size;
    let mut chosen = Vec::new();
    let mut in_cover = vec![false; sets.len()];
    // Scratch for counting *distinct* uncovered elements per subset
    // (duplicate ids inside a subset must not inflate its gain).
    let mut counted = vec![false; universe_size];
    let mut touched: Vec<usize> = Vec::new();

    while remaining > 0 {
        let mut best: Option<(usize, f64, usize)> = None; // (set, ratio, gain)
        for (i, s) in sets.iter().enumerate() {
            if in_cover[i] {
                continue;
            }
            touched.clear();
            let mut gain = 0usize;
            for &e in s {
                if e < universe_size && !covered[e] && !counted[e] {
                    counted[e] = true;
                    touched.push(e);
                    gain += 1;
                }
            }
            for &e in &touched {
                counted[e] = false;
            }
            if gain == 0 {
                continue;
            }
            let ratio = costs[i] / gain as f64;
            let better = match best {
                None => true,
                Some((_, r, _)) => ratio < r,
            };
            if better {
                best = Some((i, ratio, gain));
            }
        }
        let Some((i, _, _)) = best else {
            break; // nothing makes progress: partial cover
        };
        in_cover[i] = true;
        chosen.push(i);
        for &e in &sets[i] {
            if e < universe_size && !covered[e] {
                covered[e] = true;
                remaining -= 1;
            }
        }
    }

    CoverResult {
        chosen,
        complete: remaining == 0,
        covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_instance() {
        // U = {0..5}; optimal cover is {0,1,2} ∪ {3,4,5}.
        let sets = vec![
            vec![0, 1, 2],
            vec![3, 4, 5],
            vec![0, 3],
            vec![1, 4],
            vec![2, 5],
        ];
        let r = greedy_set_cover(6, &sets);
        assert!(r.complete);
        assert_eq!(r.chosen.len(), 2);
        assert_eq!(r.covered_count(), 6);
    }

    #[test]
    fn greedy_picks_largest_first() {
        let sets = vec![vec![0], vec![0, 1, 2, 3], vec![3]];
        let r = greedy_set_cover(4, &sets);
        assert_eq!(r.chosen, vec![1]);
    }

    #[test]
    fn partial_cover_when_infeasible() {
        let sets = vec![vec![0, 1]];
        let r = greedy_set_cover(3, &sets);
        assert!(!r.complete);
        assert_eq!(r.covered, vec![true, true, false]);
        assert_eq!(r.chosen, vec![0]);
    }

    #[test]
    fn empty_universe_needs_nothing() {
        let r = greedy_set_cover(0, &[vec![0]]);
        assert!(r.complete);
        assert!(r.chosen.is_empty());
    }

    #[test]
    fn skips_useless_sets() {
        let sets = vec![vec![], vec![0], vec![0]];
        let r = greedy_set_cover(1, &sets);
        assert!(r.complete);
        assert_eq!(r.chosen.len(), 1);
    }

    #[test]
    fn weighted_prefers_cost_effective() {
        // Set 0 covers both elements at cost 10 (ratio 5);
        // sets 1 and 2 cover one each at cost 1 (ratio 1).
        let sets = vec![vec![0, 1], vec![0], vec![1]];
        let r = greedy_weighted_set_cover(2, &sets, &[10.0, 1.0, 1.0]);
        assert!(r.complete);
        assert_eq!(r.chosen.len(), 2);
        assert!(!r.chosen.contains(&0));
    }

    #[test]
    fn out_of_range_elements_ignored() {
        let sets = vec![vec![0, 99]];
        let r = greedy_set_cover(1, &sets);
        assert!(r.complete);
    }

    #[test]
    fn classic_log_n_adversarial_instance() {
        // Universe 0..6; greedy takes the big set, optimal is two sets.
        // Checks the greedy bound holds loosely: |greedy| <= H(6)*|OPT|.
        let sets = vec![
            vec![0, 1, 2, 3], // greedy bait
            vec![0, 1, 4],    //
            vec![2, 3, 5],    //
            vec![4],
            vec![5],
        ];
        let r = greedy_set_cover(6, &sets);
        assert!(r.complete);
        let h6 = (1..=6).map(|i| 1.0 / i as f64).sum::<f64>();
        assert!((r.chosen.len() as f64) <= h6 * 2.0);
    }

    #[test]
    #[should_panic(expected = "one cost per subset")]
    fn mismatched_costs_panic() {
        greedy_weighted_set_cover(1, &[vec![0]], &[]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_costs_panic() {
        greedy_weighted_set_cover(1, &[vec![0]], &[0.0]);
    }
}
