//! Node/edge identifiers and the [`EdgeRef`] edge view.
//!
//! # Edge representation
//!
//! Edges are **not** stored as owned per-edge objects. The association
//! layer only ever builds tails of one or two nodes and single-node
//! heads, and wide universes (n ≥ 500 attributes) keep millions of such
//! edges alive at once — PR 5 measured ~1.1 GB RSS at n = 240, dominated
//! by per-edge boxed node sets and the slab/order indirection. The store
//! in [`crate::DirectedHypergraph`] therefore packs every edge into a
//! fixed 12-byte inline record (`[t0, t1, h]` raw u32 node ids, with
//! `t1 == t0` encoding a one-node tail) plus an 8-byte weight, both in
//! flat edge-id-indexed arrays. General Definition 2.9 edges — tails of
//! three or more nodes, or multi-node heads — spill their sorted node
//! lists into a shared arena and the inline record becomes a
//! `(offset, lens)` descriptor. Either way an edge costs 20 bytes of
//! record and weight, plus 4 bytes per tail or head node once a star
//! query derives the incidence CSR — even then about 3× less than the
//! previous slab of enum node sets — and reads come back as a borrowed
//! [`EdgeRef`] view instead of a `&Hyperedge`.
//!
//! # Migration from the slab representation
//!
//! Before this refactor `DirectedHypergraph::edge` returned
//! `&Hyperedge`, an owned struct of two small-size-optimized `NodeSet`s.
//! The owned type is gone; [`EdgeRef`] is a `Copy` view with the same
//! accessor surface (`tail()`, `head()`, `weight()`, `tail_len()`,
//! `head_len()`, `tail_contains()`, `head_contains()`, `is_simple()`,
//! `Display`), so call sites that only read through accessors compile
//! unchanged. Code that stored `&Hyperedge` or cloned edges now holds
//! `EdgeRef<'_>` (cheap to copy, borrows the graph) or extracts the
//! slices it needs.

use std::fmt;

/// Identifier of a node (an attribute, in the association-mining layer).
///
/// A `NodeId` is an index into the owning [`crate::DirectedHypergraph`]'s
/// node range `0..num_nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a directed hyperedge within its hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A borrowed view of one weighted directed hyperedge `(T, H)`.
///
/// Invariants (enforced by [`crate::DirectedHypergraph::add_edge`]):
/// `T ≠ ∅`, `H ≠ ∅`, `T ∩ H = ∅`, and both slices are sorted and duplicate
/// free. The view is `Copy` and borrows the graph's compressed edge store
/// (see the module docs); comparing two views compares set contents and
/// weight, not storage location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef<'a> {
    tail: &'a [NodeId],
    head: &'a [NodeId],
    weight: f64,
}

impl<'a> EdgeRef<'a> {
    /// Assembles a view from already-sorted, duplicate-free, disjoint
    /// slices (the store guarantees these invariants).
    #[inline]
    pub(crate) fn new(tail: &'a [NodeId], head: &'a [NodeId], weight: f64) -> Self {
        EdgeRef { tail, head, weight }
    }

    /// The tail (source) set, sorted ascending.
    #[inline]
    pub fn tail(self) -> &'a [NodeId] {
        self.tail
    }

    /// The head (destination) set, sorted ascending.
    #[inline]
    pub fn head(self) -> &'a [NodeId] {
        self.head
    }

    /// The edge weight (an ACV in the association-mining layer).
    #[inline]
    pub fn weight(self) -> f64 {
        self.weight
    }

    /// `|T|`, the tail cardinality.
    #[inline]
    pub fn tail_len(self) -> usize {
        self.tail.len()
    }

    /// `|H|`, the head cardinality.
    #[inline]
    pub fn head_len(self) -> usize {
        self.head.len()
    }

    /// True if `v ∈ T`.
    #[inline]
    pub fn tail_contains(self, v: NodeId) -> bool {
        self.tail.binary_search(&v).is_ok()
    }

    /// True if `v ∈ H`.
    #[inline]
    pub fn head_contains(self, v: NodeId) -> bool {
        self.head.binary_search(&v).is_ok()
    }

    /// True if this is a plain directed edge (`|T| = |H| = 1`).
    #[inline]
    pub fn is_simple(self) -> bool {
        self.tail_len() == 1 && self.head_len() == 1
    }
}

impl fmt::Display for EdgeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({{")?;
        for (i, t) in self.tail.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}} -> {{")?;
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{h}")?;
        }
        write!(f, "}}; w={})", self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.raw(), 7);
        assert_eq!(NodeId::from(7u32), n);
        assert_eq!(n.to_string(), "v7");
    }

    #[test]
    fn edge_accessors() {
        let tail = [NodeId::new(0), NodeId::new(2)];
        let head = [NodeId::new(5)];
        let e = EdgeRef::new(&tail, &head, 0.25);
        assert_eq!(e.tail_len(), 2);
        assert_eq!(e.head_len(), 1);
        assert!(e.tail_contains(NodeId::new(2)));
        assert!(!e.tail_contains(NodeId::new(5)));
        assert!(e.head_contains(NodeId::new(5)));
        assert!(!e.is_simple());
        assert_eq!(e.weight(), 0.25);
        assert_eq!(e.to_string(), "({v0,v2} -> {v5}; w=0.25)");
    }

    #[test]
    fn simple_edge_detection() {
        let tail = [NodeId::new(1)];
        let head = [NodeId::new(2)];
        let e = EdgeRef::new(&tail, &head, 1.0);
        assert!(e.is_simple());
    }

    #[test]
    fn views_compare_by_contents() {
        let big: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let big2 = big.clone();
        let head = [NodeId::new(9)];
        let e = EdgeRef::new(&big, &head, 0.5);
        let e2 = EdgeRef::new(&big2, &head, 0.5);
        assert_eq!(e.tail(), &big[..]);
        assert_eq!(e.tail_len(), 5);
        assert!(e.tail_contains(NodeId::new(4)));
        assert_eq!(e, e2);
    }
}
