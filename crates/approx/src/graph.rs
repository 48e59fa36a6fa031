//! A minimal undirected graph plus the greedy dominating-set reduction
//! (Theorem 2.5 of the paper).

use crate::set_cover::{greedy_set_cover, CoverResult};

/// An undirected graph over nodes `0..n` stored as adjacency lists.
#[derive(Debug, Clone, Default)]
pub struct UndirectedGraph {
    adj: Vec<Vec<usize>>,
}

impl UndirectedGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        UndirectedGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds the undirected edge `{u, v}`. Self-loops and duplicates are
    /// ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        if u == v || self.adj[u].contains(&v) {
            return;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
    }

    /// The neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Greedy `O(log n)`-approximate dominating set, via the textbook
    /// reduction to set cover: element universe = nodes, one subset per node
    /// `v` equal to `{v} ∪ N(v)` (Theorem 2.5). The chosen subset indices
    /// *are* the dominator nodes.
    pub fn greedy_dominating_set(&self) -> Vec<usize> {
        let sets: Vec<Vec<usize>> = (0..self.adj.len())
            .map(|v| {
                let mut s = self.adj[v].clone();
                s.push(v);
                s
            })
            .collect();
        let CoverResult { chosen, .. } = greedy_set_cover(self.adj.len(), &sets);
        chosen
    }

    /// Checks that `dom` dominates every node: each node is in `dom` or has
    /// a neighbor in `dom`.
    pub fn is_dominating_set(&self, dom: &[usize]) -> bool {
        let mut in_dom = vec![false; self.adj.len()];
        for &d in dom {
            if d < self.adj.len() {
                in_dom[d] = true;
            }
        }
        (0..self.adj.len()).all(|v| in_dom[v] || self.adj[v].iter().any(|&u| in_dom[u]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_graph_dominated_by_center() {
        let mut g = UndirectedGraph::new(6);
        for v in 1..6 {
            g.add_edge(0, v);
        }
        let dom = g.greedy_dominating_set();
        assert_eq!(dom, vec![0]);
        assert!(g.is_dominating_set(&dom));
    }

    #[test]
    fn path_graph() {
        // 0-1-2-3-4: optimal dominating set has size 2 ({1,3}).
        let mut g = UndirectedGraph::new(5);
        for v in 0..4 {
            g.add_edge(v, v + 1);
        }
        let dom = g.greedy_dominating_set();
        assert!(g.is_dominating_set(&dom));
        assert!(dom.len() <= 3); // greedy may be slightly suboptimal
    }

    #[test]
    fn isolated_nodes_must_self_dominate() {
        let g = UndirectedGraph::new(3);
        let dom = g.greedy_dominating_set();
        assert_eq!(dom.len(), 3);
        assert!(g.is_dominating_set(&dom));
    }

    #[test]
    fn validity_checker_rejects_non_dominators() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_dominating_set(&[0]));
        assert!(g.is_dominating_set(&[0, 2]));
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let mut g = UndirectedGraph::new(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        UndirectedGraph::new(1).add_edge(0, 1);
    }
}
