//! The [`DirectedHypergraph`] container.

use crate::edge::{EdgeId, EdgeRef, NodeId};
use crate::fx::FxHashMap;
use std::fmt;
use std::sync::OnceLock;

/// Errors raised while mutating a [`DirectedHypergraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// A tail or head set was empty (violates Definition 2.9).
    EmptySet,
    /// Tail and head sets intersect (violates `T ∩ H = ∅`).
    Overlap(NodeId),
    /// A node id was outside `0..num_nodes`.
    NodeOutOfRange(NodeId),
    /// An edge with the identical `(T, H)` pair already exists.
    DuplicateEdge(EdgeId),
    /// A tail or head set contained the same node twice.
    DuplicateNode(NodeId),
    /// Weight was not a finite number.
    NonFiniteWeight,
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypergraphError::EmptySet => write!(f, "tail and head sets must be non-empty"),
            HypergraphError::Overlap(v) => write!(f, "node {v} appears in both tail and head"),
            HypergraphError::NodeOutOfRange(v) => write!(f, "node {v} is out of range"),
            HypergraphError::DuplicateEdge(e) => {
                write!(f, "an edge with this (tail, head) already exists as {e}")
            }
            HypergraphError::DuplicateNode(v) => {
                write!(f, "node {v} appears more than once in the same set")
            }
            HypergraphError::NonFiniteWeight => write!(f, "edge weight must be finite"),
        }
    }
}

impl std::error::Error for HypergraphError {}

/// Key identifying an edge by its `(tail, head)` node sets (both sorted).
type EdgeKey = (Box<[NodeId]>, Box<[NodeId]>);

/// One edge to add via [`DirectedHypergraph::splice_edges`].
#[derive(Debug, Clone)]
pub struct EdgeInsert {
    /// The id the edge must hold after the splice (strictly ascending
    /// across one batch).
    pub new_id: EdgeId,
    /// Sorted, duplicate-free tail set, disjoint from `head`.
    pub tail: Vec<NodeId>,
    /// Sorted, duplicate-free head set.
    pub head: Vec<NodeId>,
    /// Finite edge weight.
    pub weight: f64,
}

/// Marker in an edge record's first lane: the edge's node sets live in
/// the arena, not inline (a node id of `u32::MAX` cannot occur — see the
/// `num_nodes` bound asserted in [`DirectedHypergraph::new`]).
const SPILL: NodeId = NodeId::new(u32::MAX);

/// Byte accounting of a hypergraph's storage (capacities, i.e. what the
/// allocator actually holds). The serving layer and `perf_summary`
/// report these next to the counting-state byte accounting of
/// `incremental_stats`, so the RSS trajectory of wide universes is
/// attributable structure by structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HypergraphMemory {
    /// The packed 12-byte edge records.
    pub edge_record_bytes: usize,
    /// The `f64` weight array.
    pub weight_bytes: usize,
    /// The spill arena holding >2-node tails and multi-node heads.
    pub arena_bytes: usize,
    /// The incidence CSR (both stars' offsets and edge ids); 0 unless a
    /// star query built it after the last edge change.
    pub incidence_bytes: usize,
    /// Entries in the incidence CSR (`Σ_e |T(e)| + |H(e)|`); 0 unless a
    /// star query built it after the last edge change.
    pub incidence_entries: usize,
    /// The record and weight double buffers of
    /// [`DirectedHypergraph::splice_edges`], which hold the arrays the
    /// last splice swapped out; 0 until a splice ran (and in clones).
    pub splice_scratch_bytes: usize,
}

impl HypergraphMemory {
    /// Sum over all tracked structures.
    pub fn total_bytes(&self) -> usize {
        self.edge_record_bytes
            + self.weight_bytes
            + self.arena_bytes
            + self.incidence_bytes
            + self.splice_scratch_bytes
    }
}

/// Both stars of every node in one CSR: node `v`'s forward star is
/// `ids[offsets[v]..offsets[v + 1]]` and its backward star
/// `ids[offsets[n + v]..offsets[n + v + 1]]`, each ascending by id.
#[derive(Debug, Clone)]
struct Incidence {
    offsets: Vec<usize>,
    ids: Vec<EdgeId>,
}

impl Incidence {
    /// Counts every star's size, prefix-sums the counts into offsets,
    /// then fills the stars in id order, so each comes out ascending.
    fn build(g: &DirectedHypergraph) -> Incidence {
        let n = g.num_nodes;
        let mut offsets = vec![0usize; 2 * n + 1];
        for (_, e) in g.edges() {
            for &t in e.tail() {
                offsets[t.index() + 1] += 1;
            }
            for &h in e.head() {
                offsets[n + h.index() + 1] += 1;
            }
        }
        for s in 1..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        let mut next = offsets[..2 * n].to_vec();
        let mut ids = vec![EdgeId::new(0); offsets[2 * n]];
        for (id, e) in g.edges() {
            for &t in e.tail() {
                ids[next[t.index()]] = id;
                next[t.index()] += 1;
            }
            for &h in e.head() {
                ids[next[n + h.index()]] = id;
                next[n + h.index()] += 1;
            }
        }
        Incidence { offsets, ids }
    }

    #[inline]
    fn star(&self, s: usize) -> &[EdgeId] {
        &self.ids[self.offsets[s]..self.offsets[s + 1]]
    }
}

/// A weighted directed hypergraph over a fixed node range `0..num_nodes`.
///
/// The edge records are the only stored state. Two indexes are derived
/// from them **lazily**, each on its first query:
/// - the incidence CSR behind `out_edges(v)` (edges whose **tail**
///   contains `v`, the forward star) and `in_edges(v)` (edges whose
///   **head** contains `v`, the backward star), built in one `O(|E|)`
///   counting pass and dropped by every mutator that changes the edge
///   set, so the next star query rebuilds it;
/// - an exact-match index from `(tail, head)` to [`EdgeId`], used heavily
///   by the association-similarity computation (switching one node of a
///   tail or head and asking whether the resulting hyperedge exists).
///   Once built it is kept in sync by later insertions.
///
/// Bulk construction (the association builder) and the per-slide
/// streaming splice therefore write records and weights only; only
/// batch analyses (dominating adaptation, similarity, B-reachability,
/// best-edge scans) pay for the indexes they read.
///
/// # Compressed edge store
///
/// Edges live in flat edge-id-indexed arrays (see the `edge` module's
/// docs): a 12-byte packed record per edge — `[t0, t1, h]` for
/// the association layer's ≤2-node tails and 1-node heads, with
/// `t1 == t0` encoding `|T| = 1` — plus an 8-byte weight. General
/// Definition 2.9 edges spill their sorted node lists into a shared
/// `arena` and store an `(offset, lens)` descriptor instead. Because an
/// edge's id **is** its position in these arrays, there is no
/// slab/order indirection: [`DirectedHypergraph::splice_edges`]
/// renumbers survivors by memcpy-ing the record runs between splice
/// points, and [`DirectedHypergraph::reset_edges`] is a plain
/// truncation that keeps allocations live for reassembly in place.
#[derive(Debug, Default)]
pub struct DirectedHypergraph {
    num_nodes: usize,
    /// Packed per-edge record, indexed by edge id: `[t0, t1, h]` inline
    /// (sorted; `t1 == t0` means a 1-node tail), or
    /// `[SPILL, offset, (tail_len << 16) | head_len]` with the node
    /// lists at `arena[offset..]` (tail first, then head).
    packed: Vec<[NodeId; 3]>,
    /// Edge weights, indexed by edge id.
    weights: Vec<f64>,
    /// Node lists of spilled (>2-node tail or multi-node head) edges.
    arena: Vec<NodeId>,
    /// Live (referenced) arena entries; the rest is garbage awaiting
    /// [`DirectedHypergraph::maybe_compact_arena`].
    arena_live: usize,
    incidence: OnceLock<Incidence>,
    index: OnceLock<FxHashMap<EdgeKey, EdgeId>>,
    /// Double buffers for [`DirectedHypergraph::splice_edges`]'s record
    /// rebuild — per-slide splices reuse their allocations.
    packed_scratch: Vec<[NodeId; 3]>,
    weights_scratch: Vec<f64>,
}

/// A copy of `lock`, built only if `lock` is.
fn clone_built<T: Clone>(lock: &OnceLock<T>) -> OnceLock<T> {
    let copy = OnceLock::new();
    if let Some(value) = lock.get() {
        let _ = copy.set(value.clone());
    }
    copy
}

impl Clone for DirectedHypergraph {
    fn clone(&self) -> Self {
        DirectedHypergraph {
            num_nodes: self.num_nodes,
            packed: self.packed.clone(),
            weights: self.weights.clone(),
            arena: self.arena.clone(),
            arena_live: self.arena_live,
            incidence: clone_built(&self.incidence),
            index: clone_built(&self.index),
            packed_scratch: Vec::new(),
            weights_scratch: Vec::new(),
        }
    }
}

impl DirectedHypergraph {
    /// Creates an empty hypergraph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes < u32::MAX as usize,
            "node ids are u32 (and u32::MAX is the spill marker)"
        );
        DirectedHypergraph {
            num_nodes,
            packed: Vec::new(),
            weights: Vec::new(),
            arena: Vec::new(),
            arena_live: 0,
            incidence: OnceLock::new(),
            index: OnceLock::new(),
            packed_scratch: Vec::new(),
            weights_scratch: Vec::new(),
        }
    }

    /// Creates an empty hypergraph, pre-allocating for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut g = Self::new(num_nodes);
        g.packed.reserve(num_edges);
        g.weights.reserve(num_edges);
        g
    }

    /// Reserves room for `additional` more edges in the edge store.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.packed.reserve(additional);
        self.weights.reserve(additional);
    }

    /// Removes every edge while keeping the node range and the allocations
    /// of the edge store, for reassembling a graph in place: the streaming
    /// model does so on its first slide (and after its graph was filtered
    /// or replaced), then splices ([`DirectedHypergraph::splice_edges`]).
    /// Both derived indexes are dropped.
    pub fn reset_edges(&mut self) {
        self.packed.clear();
        self.weights.clear();
        self.arena.clear();
        self.arena_live = 0;
        self.incidence.take();
        self.index.take();
    }

    /// Applies a sorted batch of edge removals and insertions while
    /// renumbering the surviving edges as if the final sequence had been
    /// inserted from scratch — the streaming model's way of tracking a
    /// slightly-changed kept-edge set without rebuilding the graph.
    ///
    /// `removes` are **pre-splice** ids, strictly ascending; each
    /// `inserts` entry lands at exactly its **post-splice** id, strictly
    /// ascending, with the same invariants as
    /// [`DirectedHypergraph::add_edge_unchecked`]. The result is
    /// identical to rebuilding with the merged edge sequence, but costs
    /// one memcpy pass over the packed record and weight arrays plus the
    /// inserted edges' packing. Both derived indexes are dropped; the
    /// next query rebuilds them.
    pub fn splice_edges(&mut self, removes: &[EdgeId], inserts: &[EdgeInsert]) {
        if removes.is_empty() && inserts.is_empty() {
            return;
        }
        debug_assert!(removes.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(inserts.windows(2).all(|w| w[0].new_id < w[1].new_id));
        let old_len = self.packed.len();

        // Rebuild the packed record and weight arrays into the double
        // buffers: surviving runs between splice points are copied with
        // `extend_from_slice` (plain POD memcpy — edge ids are positions,
        // so the copy *is* the renumbering), inserted edges pack in
        // place, removed spilled edges release their arena spans.
        let mut packed = std::mem::take(&mut self.packed_scratch);
        let mut weights = std::mem::take(&mut self.weights_scratch);
        packed.clear();
        weights.clear();
        let new_len = old_len - removes.len() + inserts.len();
        packed.reserve(new_len);
        weights.reserve(new_len);
        let (mut i_rm, mut i_in) = (0usize, 0usize);
        let mut o = 0usize;
        loop {
            while i_in < inserts.len() && inserts[i_in].new_id.index() == packed.len() {
                let ins = &inserts[i_in];
                debug_assert!(ins.weight.is_finite());
                debug_assert!(ins.tail.windows(2).all(|w| w[0] < w[1]));
                debug_assert!(ins.head.windows(2).all(|w| w[0] < w[1]));
                let rec = pack_record(&ins.tail, &ins.head, &mut self.arena, &mut self.arena_live);
                packed.push(rec);
                weights.push(ins.weight);
                i_in += 1;
            }
            if o >= old_len {
                break;
            }
            // Copy the surviving run up to the next splice point.
            let next_rm = removes.get(i_rm).map(|r| r.index()).unwrap_or(old_len);
            let next_in = inserts
                .get(i_in)
                .map(|q| o + (q.new_id.index() - packed.len()))
                .unwrap_or(old_len);
            let end = next_rm.min(next_in).min(old_len);
            packed.extend_from_slice(&self.packed[o..end]);
            weights.extend_from_slice(&self.weights[o..end]);
            o = end;
            if o == next_rm && o < old_len {
                self.release_arena(o);
                o += 1;
                i_rm += 1;
            }
        }
        debug_assert_eq!(i_in, inserts.len(), "insert ids must be dense");
        self.packed_scratch = std::mem::replace(&mut self.packed, packed);
        self.weights_scratch = std::mem::replace(&mut self.weights, weights);
        self.maybe_compact_arena();
        self.incidence.take();
        self.index.take();
    }

    /// Returns dropped edge `o`'s arena span (if spilled) to the garbage
    /// count so [`DirectedHypergraph::maybe_compact_arena`] can reclaim
    /// it.
    #[inline]
    fn release_arena(&mut self, o: usize) {
        let rec = self.packed[o];
        if rec[0] == SPILL {
            let lens = rec[2].raw();
            self.arena_live -= ((lens >> 16) + (lens & 0xffff)) as usize;
        }
    }

    /// Rewrites the arena without the garbage spans of dropped edges once
    /// garbage dominates. The association layer's edges are all inline,
    /// so this is cold code that only general >2-node workloads reach.
    fn maybe_compact_arena(&mut self) {
        if self.arena.len() <= 2 * self.arena_live.max(32) {
            return;
        }
        let mut fresh: Vec<NodeId> = Vec::with_capacity(self.arena_live);
        for rec in &mut self.packed {
            if rec[0] == SPILL {
                let off = rec[1].raw() as usize;
                let lens = rec[2].raw();
                let len = ((lens >> 16) + (lens & 0xffff)) as usize;
                rec[1] = NodeId::new(fresh.len() as u32);
                fresh.extend_from_slice(&self.arena[off..off + len]);
            }
        }
        debug_assert_eq!(fresh.len(), self.arena_live);
        self.arena = fresh;
    }

    /// The exact-match index, built on first use (`O(|E|)` once).
    fn index_map(&self) -> &FxHashMap<EdgeKey, EdgeId> {
        self.index.get_or_init(|| {
            let mut map = FxHashMap::default();
            map.reserve(self.packed.len());
            for (id, e) in self.edges() {
                map.insert((e.tail().into(), e.head().into()), id);
            }
            map
        })
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed hyperedges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.packed.len()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u32).map(NodeId::new)
    }

    /// All `(EdgeId, EdgeRef)` pairs, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeRef<'_>)> + '_ {
        (0..self.packed.len()).map(|i| (EdgeId::new(i as u32), self.edge_at(i)))
    }

    /// The edge with the given id. Panics if out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> EdgeRef<'_> {
        self.edge_at(id.index())
    }

    /// Decodes the record at position `i` into a borrowed view.
    #[inline]
    fn edge_at(&self, i: usize) -> EdgeRef<'_> {
        let rec = &self.packed[i];
        let w = self.weights[i];
        if rec[0] != SPILL {
            let tlen = if rec[0] == rec[1] { 1 } else { 2 };
            EdgeRef::new(&rec[..tlen], std::slice::from_ref(&rec[2]), w)
        } else {
            let off = rec[1].raw() as usize;
            let (tlen, hlen) = (
                (rec[2].raw() >> 16) as usize,
                (rec[2].raw() & 0xffff) as usize,
            );
            EdgeRef::new(
                &self.arena[off..off + tlen],
                &self.arena[off + tlen..off + tlen + hlen],
                w,
            )
        }
    }

    /// Every edge's weight, indexed by edge id.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The incidence CSR, built on first use (`O(|E|)` once).
    fn incidence(&self) -> &Incidence {
        self.incidence.get_or_init(|| Incidence::build(self))
    }

    /// Forward star: ids of edges whose tail contains `v`, ascending.
    /// The first star query after a mutation rebuilds the incidence CSR.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        assert!(v.index() < self.num_nodes, "node {v} is out of range");
        self.incidence().star(v.index())
    }

    /// Backward star: ids of edges whose head contains `v`, ascending.
    /// The first star query after a mutation rebuilds the incidence CSR.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        assert!(v.index() < self.num_nodes, "node {v} is out of range");
        self.incidence().star(self.num_nodes + v.index())
    }

    /// Byte accounting of the live storage (see [`HypergraphMemory`]).
    pub fn memory(&self) -> HypergraphMemory {
        let (incidence_bytes, incidence_entries) = self.incidence.get().map_or((0, 0), |inc| {
            (
                inc.offsets.capacity() * std::mem::size_of::<usize>()
                    + inc.ids.capacity() * std::mem::size_of::<EdgeId>(),
                inc.ids.len(),
            )
        });
        HypergraphMemory {
            edge_record_bytes: self.packed.capacity() * std::mem::size_of::<[NodeId; 3]>(),
            weight_bytes: self.weights.capacity() * std::mem::size_of::<f64>(),
            arena_bytes: self.arena.capacity() * std::mem::size_of::<NodeId>(),
            incidence_bytes,
            incidence_entries,
            splice_scratch_bytes: self.packed_scratch.capacity()
                * std::mem::size_of::<[NodeId; 3]>()
                + self.weights_scratch.capacity() * std::mem::size_of::<f64>(),
        }
    }

    fn validate_set(&self, set: &[NodeId]) -> Result<Box<[NodeId]>, HypergraphError> {
        if set.is_empty() {
            return Err(HypergraphError::EmptySet);
        }
        let mut sorted: Vec<NodeId> = set.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(HypergraphError::DuplicateNode(w[0]));
            }
        }
        for &v in &sorted {
            if v.index() >= self.num_nodes {
                return Err(HypergraphError::NodeOutOfRange(v));
            }
        }
        Ok(sorted.into_boxed_slice())
    }

    /// Adds the directed hyperedge `(tail, head)` with the given weight.
    ///
    /// Input slices may be unsorted; they are sorted and validated against
    /// Definition 2.9 (non-empty, disjoint, duplicate-free, in range). At most
    /// one edge may exist per `(T, H)` pair.
    pub fn add_edge(
        &mut self,
        tail: &[NodeId],
        head: &[NodeId],
        weight: f64,
    ) -> Result<EdgeId, HypergraphError> {
        if !weight.is_finite() {
            return Err(HypergraphError::NonFiniteWeight);
        }
        let tail = self.validate_set(tail)?;
        let head = self.validate_set(head)?;
        // Both sorted: linear disjointness check.
        let (mut i, mut j) = (0, 0);
        while i < tail.len() && j < head.len() {
            match tail[i].cmp(&head[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Err(HypergraphError::Overlap(tail[i])),
            }
        }
        if let Some(&existing) = self.index_map().get(&(tail.clone(), head.clone())) {
            return Err(HypergraphError::DuplicateEdge(existing));
        }
        Ok(self.push_edge_unchecked(&tail, &head, weight))
    }

    /// Inserts an edge whose invariants are **promised by the caller** —
    /// `tail` and `head` sorted ascending, duplicate-free, disjoint, in
    /// range, `weight` finite, and no edge with this `(tail, head)` pair
    /// present. Skips the per-edge sort, validation, and duplicate lookup
    /// of [`DirectedHypergraph::add_edge`]; the invariants are still
    /// asserted in debug builds. This is the bulk-insertion path of the
    /// association builder and of the streaming model's per-slide graph
    /// reassembly.
    pub fn add_edge_unchecked(&mut self, tail: &[NodeId], head: &[NodeId], weight: f64) -> EdgeId {
        debug_assert!(weight.is_finite(), "edge weight must be finite");
        debug_assert!(
            !tail.is_empty() && !head.is_empty(),
            "tail and head must be non-empty"
        );
        debug_assert!(
            tail.windows(2).all(|w| w[0] < w[1]) && head.windows(2).all(|w| w[0] < w[1]),
            "sets must be sorted and duplicate-free"
        );
        debug_assert!(
            tail.iter().chain(head).all(|v| v.index() < self.num_nodes),
            "nodes must be in range"
        );
        debug_assert!(
            tail.iter().all(|t| head.binary_search(t).is_err()),
            "tail and head must be disjoint"
        );
        debug_assert!(
            self.find_edge(tail, head).is_none(),
            "an edge with this (tail, head) already exists"
        );
        self.push_edge_unchecked(tail, head, weight)
    }

    /// Inserts an edge whose invariants are already established. If the
    /// exact-match index has been built, it is kept in sync; otherwise no
    /// hashing happens at all. A built incidence CSR is dropped.
    fn push_edge_unchecked(&mut self, tail: &[NodeId], head: &[NodeId], weight: f64) -> EdgeId {
        let id = EdgeId::new(self.packed.len() as u32);
        self.incidence.take();
        if let Some(map) = self.index.get_mut() {
            map.insert((tail.into(), head.into()), id);
        }
        let rec = pack_record(tail, head, &mut self.arena, &mut self.arena_live);
        self.packed.push(rec);
        self.weights.push(weight);
        id
    }

    /// Finds the edge with exactly this `(tail, head)` pair, if present.
    /// Inputs may be unsorted.
    pub fn find_edge(&self, tail: &[NodeId], head: &[NodeId]) -> Option<EdgeId> {
        let mut t: Vec<NodeId> = tail.to_vec();
        let mut h: Vec<NodeId> = head.to_vec();
        t.sort_unstable();
        h.sort_unstable();
        self.index_map()
            .get(&(t.into_boxed_slice(), h.into_boxed_slice()))
            .copied()
    }

    /// Returns true if an edge with exactly this `(tail, head)` pair exists.
    pub fn contains_edge(&self, tail: &[NodeId], head: &[NodeId]) -> bool {
        self.find_edge(tail, head).is_some()
    }

    /// Updates the weight of an existing edge. Both derived indexes stay
    /// valid: neither depends on weights.
    pub fn set_weight(&mut self, id: EdgeId, weight: f64) -> Result<(), HypergraphError> {
        if !weight.is_finite() {
            return Err(HypergraphError::NonFiniteWeight);
        }
        self.weights[id.index()] = weight;
        Ok(())
    }

    /// Weighted in-degree of `v`: `Σ_{e : v ∈ H(e)} w(e) / |H(e)|`.
    ///
    /// With single-head edges this is exactly the paper's
    /// `Σ_{e : {v} = H(e)} w(e)` (Section 5.2).
    pub fn weighted_in_degree(&self, v: NodeId) -> f64 {
        self.in_edges(v)
            .iter()
            .map(|&e| {
                let e = self.edge(e);
                e.weight() / e.head_len() as f64
            })
            .sum()
    }

    /// Weighted out-degree of `v`: `Σ_{e : v ∈ T(e)} w(e) / |T(e)|`
    /// (the paper's normalized out-degree, Section 5.2).
    pub fn weighted_out_degree(&self, v: NodeId) -> f64 {
        self.out_edges(v)
            .iter()
            .map(|&e| {
                let e = self.edge(e);
                e.weight() / e.tail_len() as f64
            })
            .sum()
    }

    /// Unweighted in-degree (number of edges with `v` in the head).
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Unweighted out-degree (number of edges with `v` in the tail).
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// Builds a new hypergraph over the same nodes keeping only edges
    /// satisfying `pred`. Edge ids are *not* preserved. Kept edges are
    /// copied verbatim (already sorted, validated, and unique), skipping
    /// `add_edge`'s per-edge re-sort and re-validation.
    pub fn filter_edges<F>(&self, mut pred: F) -> DirectedHypergraph
    where
        F: FnMut(EdgeId, EdgeRef<'_>) -> bool,
    {
        let mut g = DirectedHypergraph::new(self.num_nodes);
        for (id, e) in self.edges() {
            if pred(id, e) {
                g.push_edge_unchecked(e.tail(), e.head(), e.weight());
            }
        }
        g
    }

    /// Keeps the edges whose weight is at least `min_weight`.
    pub fn filter_by_weight(&self, min_weight: f64) -> DirectedHypergraph {
        self.filter_edges(|_, e| e.weight() >= min_weight)
    }

    /// The weight value such that keeping edges with `w ≥ threshold` retains
    /// (approximately) the top `fraction` of edges by weight. Returns `None`
    /// for an empty graph or a non-positive fraction.
    ///
    /// This implements the paper's "top X% directed hyperedges w.r.t. ACVs"
    /// threshold selection (Section 5.4). It costs one copy of the weights
    /// and an expected-linear selection (`select_nth_unstable_by`), not a
    /// full sort: ~1.3 ms for ~250k edges on a 2-vCPU AVX2 host, where the
    /// sort took ~3.4 ms. The result is the value a descending sort would
    /// hold at position `⌈fraction·|E|⌉ − 1`.
    pub fn weight_percentile_threshold(&self, fraction: f64) -> Option<f64> {
        if self.packed.is_empty() || fraction <= 0.0 {
            return None;
        }
        let mut ws: Vec<f64> = self.weights.clone();
        let keep = ((ws.len() as f64 * fraction).ceil() as usize).clamp(1, ws.len());
        let (_, &mut nth, _) = ws.select_nth_unstable_by(keep - 1, |a, b| {
            b.partial_cmp(a).expect("weights are finite")
        });
        Some(nth)
    }

    /// Total edge weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Mean edge weight, or `None` if there are no edges.
    pub fn mean_weight(&self) -> Option<f64> {
        if self.packed.is_empty() {
            None
        } else {
            Some(self.total_weight() / self.packed.len() as f64)
        }
    }
}

/// Encodes one edge into its packed record, spilling general sets into
/// `arena`. Inputs are sorted, duplicate-free, and disjoint.
#[inline]
fn pack_record(
    tail: &[NodeId],
    head: &[NodeId],
    arena: &mut Vec<NodeId>,
    arena_live: &mut usize,
) -> [NodeId; 3] {
    match (tail, head) {
        (&[a], &[h]) => [a, a, h],
        (&[a, b], &[h]) => [a, b, h],
        _ => {
            assert!(
                tail.len() <= u16::MAX as usize && head.len() <= u16::MAX as usize,
                "spilled set length exceeds the packed u16 descriptor"
            );
            let off = arena.len();
            assert!(off <= u32::MAX as usize, "arena offset exceeds u32");
            arena.extend_from_slice(tail);
            arena.extend_from_slice(head);
            *arena_live += tail.len() + head.len();
            [
                SPILL,
                NodeId::new(off as u32),
                NodeId::new(((tail.len() as u32) << 16) | head.len() as u32),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn add_and_lookup() {
        let mut g = DirectedHypergraph::new(5);
        let e0 = g.add_edge(&[n(1), n(0)], &[n(2)], 0.5).unwrap();
        let e1 = g.add_edge(&[n(0)], &[n(3)], 0.9).unwrap();
        assert_eq!(g.num_edges(), 2);
        // Unsorted query finds the sorted edge.
        assert_eq!(g.find_edge(&[n(1), n(0)], &[n(2)]), Some(e0));
        assert_eq!(g.find_edge(&[n(0), n(1)], &[n(2)]), Some(e0));
        assert_eq!(g.find_edge(&[n(0)], &[n(3)]), Some(e1));
        assert_eq!(g.find_edge(&[n(0)], &[n(2)]), None);
        assert_eq!(g.edge(e0).tail(), &[n(0), n(1)]);
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut g = DirectedHypergraph::new(3);
        assert_eq!(
            g.add_edge(&[], &[n(0)], 1.0),
            Err(HypergraphError::EmptySet)
        );
        assert_eq!(
            g.add_edge(&[n(0)], &[], 1.0),
            Err(HypergraphError::EmptySet)
        );
        assert_eq!(
            g.add_edge(&[n(0), n(1)], &[n(1)], 1.0),
            Err(HypergraphError::Overlap(n(1)))
        );
        assert_eq!(
            g.add_edge(&[n(7)], &[n(0)], 1.0),
            Err(HypergraphError::NodeOutOfRange(n(7)))
        );
        assert_eq!(
            g.add_edge(&[n(0), n(0)], &[n(1)], 1.0),
            Err(HypergraphError::DuplicateNode(n(0)))
        );
        assert_eq!(
            g.add_edge(&[n(0)], &[n(1)], f64::NAN),
            Err(HypergraphError::NonFiniteWeight)
        );
        let e = g.add_edge(&[n(0)], &[n(1)], 1.0).unwrap();
        assert_eq!(
            g.add_edge(&[n(0)], &[n(1)], 0.2),
            Err(HypergraphError::DuplicateEdge(e))
        );
        // Same tail, different head is fine.
        assert!(g.add_edge(&[n(0)], &[n(2)], 0.2).is_ok());
    }

    #[test]
    fn incidence_indexes() {
        let mut g = DirectedHypergraph::new(4);
        let e0 = g.add_edge(&[n(0), n(1)], &[n(2)], 0.4).unwrap();
        let e1 = g.add_edge(&[n(0)], &[n(2)], 0.6).unwrap();
        let e2 = g.add_edge(&[n(2)], &[n(0)], 0.1).unwrap();
        assert_eq!(g.out_edges(n(0)), &[e0, e1]);
        assert_eq!(g.out_edges(n(1)), &[e0]);
        assert_eq!(g.in_edges(n(2)), &[e0, e1]);
        assert_eq!(g.in_edges(n(0)), &[e2]);
        assert_eq!(g.out_degree(n(0)), 2);
        assert_eq!(g.in_degree(n(2)), 2);
    }

    #[test]
    fn weighted_degrees() {
        let mut g = DirectedHypergraph::new(4);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.8).unwrap();
        g.add_edge(&[n(0)], &[n(2)], 0.5).unwrap();
        g.add_edge(&[n(3)], &[n(0)], 0.25).unwrap();
        // in-degree(2) = 0.8 + 0.5; out-degree(0) = 0.8/2 + 0.5.
        assert!((g.weighted_in_degree(n(2)) - 1.3).abs() < 1e-12);
        assert!((g.weighted_out_degree(n(0)) - 0.9).abs() < 1e-12);
        assert_eq!(g.weighted_in_degree(n(1)), 0.0);
        assert!((g.weighted_out_degree(n(1)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn filter_and_percentile() {
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(1)], 0.2).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.5).unwrap();
        g.add_edge(&[n(0)], &[n(2)], 0.8).unwrap();
        g.add_edge(&[n(2)], &[n(0)], 0.9).unwrap();

        let top_half = g.weight_percentile_threshold(0.5).unwrap();
        assert_eq!(top_half, 0.8);
        let f = g.filter_by_weight(top_half);
        assert_eq!(f.num_edges(), 2);
        assert!(f.contains_edge(&[n(0)], &[n(2)]));
        assert!(f.contains_edge(&[n(2)], &[n(0)]));

        assert_eq!(g.weight_percentile_threshold(0.0), None);
        assert_eq!(
            DirectedHypergraph::new(2).weight_percentile_threshold(0.5),
            None
        );
        // fraction > 1 keeps everything.
        assert_eq!(g.weight_percentile_threshold(2.0), Some(0.2));
    }

    #[test]
    fn unchecked_insertion_and_lazy_index_agree() {
        let mut g = DirectedHypergraph::new(4);
        let e0 = g.add_edge_unchecked(&[n(0), n(1)], &[n(2)], 0.4);
        let e1 = g.add_edge_unchecked(&[n(3)], &[n(0)], 0.2);
        assert_eq!(g.num_edges(), 2);
        // The exact-match index is built on the first lookup.
        assert_eq!(g.find_edge(&[n(1), n(0)], &[n(2)]), Some(e0));
        assert_eq!(g.find_edge(&[n(3)], &[n(0)]), Some(e1));
        // Insertions after the index is built keep it in sync.
        let e2 = g.add_edge_unchecked(&[n(1)], &[n(3)], 0.9);
        assert_eq!(g.find_edge(&[n(1)], &[n(3)]), Some(e2));
        assert_eq!(
            g.add_edge(&[n(1)], &[n(3)], 0.9),
            Err(HypergraphError::DuplicateEdge(e2))
        );
        assert_eq!(g.out_edges(n(1)), &[e0, e2]);
    }

    #[test]
    fn reset_edges_keeps_nodes_and_clears_everything_else() {
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(1)], 0.5).unwrap();
        assert!(g.find_edge(&[n(0)], &[n(1)]).is_some());
        g.reset_edges();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 3);
        assert!(g.out_edges(n(0)).is_empty());
        assert!(g.in_edges(n(1)).is_empty());
        assert_eq!(g.find_edge(&[n(0)], &[n(1)]), None);
        // Refilling restarts ids at 0; lookups see only the new edges.
        let e = g.add_edge(&[n(1)], &[n(2)], 0.7).unwrap();
        assert_eq!(e, EdgeId::new(0));
        assert_eq!(g.find_edge(&[n(1)], &[n(2)]), Some(e));
    }

    #[test]
    fn splice_edges_matches_a_from_scratch_rebuild() {
        // Deterministic pseudo-random edge soups; every splice result is
        // compared edge-for-edge (ids, sets, weights, incidence) against
        // a graph rebuilt from the expected final sequence.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let nodes = 6;
            // Base edge list: distinct (tail, head) combos.
            let mut combos = Vec::new();
            for t in 0..nodes as u32 {
                for h in 0..nodes as u32 {
                    if t != h {
                        combos.push((vec![n(t)], vec![n(h)]));
                        for t2 in (t + 1)..nodes as u32 {
                            if t2 != h {
                                combos.push((vec![n(t), n(t2)], vec![n(h)]));
                            }
                        }
                    }
                }
            }
            let base_len = 10 + (rng() % 20) as usize;
            let base: Vec<_> = (0..base_len)
                .map(|i| {
                    let (t, h) = combos[i % combos.len()].clone();
                    (t, h, (i + 1) as f64 / 100.0)
                })
                .collect();
            let mut g = DirectedHypergraph::new(nodes);
            for (t, h, w) in &base {
                g.add_edge_unchecked(t, h, *w);
            }
            // Random removal set (pre-splice ids, ascending).
            let removes: Vec<EdgeId> = (0..base_len)
                .filter(|_| rng() % 3 == 0)
                .map(|i| EdgeId::new(i as u32))
                .collect();
            let removes: Vec<EdgeId> = removes
                .into_iter()
                .filter(|id| id.index() < base_len)
                .collect();
            // Expected survivor sequence, then random insertions woven in
            // at random final positions.
            let mut expected: Vec<(Vec<NodeId>, Vec<NodeId>, f64)> = base
                .iter()
                .enumerate()
                .filter(|(i, _)| !removes.iter().any(|r| r.index() == *i))
                .map(|(_, e)| e.clone())
                .collect();
            let n_ins = (rng() % 4) as usize;
            let mut inserts = Vec::new();
            for x in 0..n_ins {
                let (t, h) = combos[combos.len() - 1 - x].clone();
                let pos = (rng() as usize) % (expected.len() + 1);
                expected.insert(pos, (t, h, 7.5 + x as f64));
            }
            // Re-derive insert ops from the expected sequence (their final
            // positions must be ascending, so walk the expected list).
            for (pos, (t, h, w)) in expected.iter().enumerate() {
                if *w >= 7.5 {
                    inserts.push(EdgeInsert {
                        new_id: EdgeId::new(pos as u32),
                        tail: t.clone(),
                        head: h.clone(),
                        weight: *w,
                    });
                }
            }
            g.splice_edges(&removes, &inserts);
            assert_eq!(g.num_edges(), expected.len(), "round {round}");
            let mut rebuilt = DirectedHypergraph::new(nodes);
            for (t, h, w) in &expected {
                rebuilt.add_edge_unchecked(t, h, *w);
            }
            for (id, e) in rebuilt.edges() {
                let s = g.edge(id);
                assert_eq!(e.tail(), s.tail(), "round {round}, {id}");
                assert_eq!(e.head(), s.head(), "round {round}, {id}");
                assert_eq!(e.weight(), s.weight(), "round {round}, {id}");
            }
            for v in 0..nodes as u32 {
                assert_eq!(
                    g.out_edges(n(v)),
                    rebuilt.out_edges(n(v)),
                    "round {round}, out star of {v}"
                );
                assert_eq!(
                    g.in_edges(n(v)),
                    rebuilt.in_edges(n(v)),
                    "round {round}, in star of {v}"
                );
            }
            // The lazy index matches the spliced structure too.
            for (id, e) in g.edges() {
                assert_eq!(g.find_edge(e.tail(), e.head()), Some(id));
            }
        }
    }

    #[test]
    fn splice_edges_with_spilled_sets_matches_a_rebuild() {
        // General Definition 2.9 edges (3-node tails, 2-node heads) force
        // the arena path through removal, survival (with renumbering),
        // and insertion — plus enough churn to trigger compaction.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes = 8usize;
        let mut combos: Vec<(Vec<NodeId>, Vec<NodeId>)> = Vec::new();
        for a in 0..nodes as u32 {
            for b in (a + 1)..nodes as u32 {
                for c in (b + 1)..nodes as u32 {
                    for h in 0..nodes as u32 {
                        if h != a && h != b && h != c {
                            combos.push((vec![n(a), n(b), n(c)], vec![n(h)]));
                            let h2 = (h + 1) % nodes as u32;
                            if h2 != a && h2 != b && h2 != c && h2 > h {
                                combos.push((vec![n(a), n(b), n(c)], vec![n(h), n(h2)]));
                            }
                        }
                    }
                }
            }
        }
        let mut expected: Vec<(Vec<NodeId>, Vec<NodeId>, f64)> = Vec::new();
        let mut g = DirectedHypergraph::new(nodes);
        let mut next_combo = 0usize;
        for round in 0..25 {
            // Remove a random subset.
            let removes: Vec<EdgeId> = (0..expected.len())
                .filter(|_| rng() % 3 == 0)
                .map(|i| EdgeId::new(i as u32))
                .collect();
            let mut survivors: Vec<(Vec<NodeId>, Vec<NodeId>, f64)> = expected
                .iter()
                .enumerate()
                .filter(|(i, _)| !removes.iter().any(|r| r.index() == *i))
                .map(|(_, e)| e.clone())
                .collect();
            // Insert a few fresh spilled edges at random final positions.
            let n_ins = 1 + (rng() % 3) as usize;
            for _ in 0..n_ins {
                let (t, h) = combos[next_combo].clone();
                next_combo += 1;
                let pos = (rng() as usize) % (survivors.len() + 1);
                survivors.insert(pos, (t, h, 10.0 + next_combo as f64));
            }
            let mut inserts = Vec::new();
            for (pos, (t, h, w)) in survivors.iter().enumerate() {
                if *w >= 10.0 && !expected.iter().any(|(et, eh, _)| et == t && eh == h) {
                    inserts.push(EdgeInsert {
                        new_id: EdgeId::new(pos as u32),
                        tail: t.clone(),
                        head: h.clone(),
                        weight: *w,
                    });
                }
            }
            g.splice_edges(&removes, &inserts);
            expected = survivors;
            assert_eq!(g.num_edges(), expected.len(), "round {round}");
            let mut rebuilt = DirectedHypergraph::new(nodes);
            for (t, h, w) in &expected {
                rebuilt.add_edge_unchecked(t, h, *w);
            }
            for (id, e) in rebuilt.edges() {
                let s = g.edge(id);
                assert_eq!(e.tail(), s.tail(), "round {round}, {id}");
                assert_eq!(e.head(), s.head(), "round {round}, {id}");
                assert_eq!(e.weight(), s.weight(), "round {round}, {id}");
            }
            for v in 0..nodes as u32 {
                assert_eq!(g.out_edges(n(v)), rebuilt.out_edges(n(v)), "round {round}");
                assert_eq!(g.in_edges(n(v)), rebuilt.in_edges(n(v)), "round {round}");
            }
        }
    }

    #[test]
    fn splice_edges_noop_and_pure_cases() {
        let mut g = DirectedHypergraph::new(3);
        let e0 = g.add_edge(&[n(0)], &[n(1)], 0.1).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.2).unwrap();
        let e2 = g.add_edge(&[n(2)], &[n(0)], 0.3).unwrap();
        g.splice_edges(&[], &[]);
        assert_eq!(g.num_edges(), 3);
        // Pure removal: survivors shift down.
        g.splice_edges(&[EdgeId::new(1)], &[]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(e0).weight(), 0.1);
        assert_eq!(g.edge(EdgeId::new(1)).weight(), 0.3);
        assert_eq!(g.in_edges(n(0)), &[EdgeId::new(1)]);
        assert!(g.out_edges(n(1)).is_empty());
        // Pure insertion in the middle: survivors shift up.
        g.splice_edges(
            &[],
            &[EdgeInsert {
                new_id: EdgeId::new(1),
                tail: vec![n(0)],
                head: vec![n(2)],
                weight: 0.9,
            }],
        );
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(EdgeId::new(1)).weight(), 0.9);
        assert_eq!(g.edge(e2).weight(), 0.3);
        assert_eq!(g.out_edges(n(0)), &[e0, EdgeId::new(1)]);
        assert_eq!(g.in_edges(n(0)), &[EdgeId::new(2)]);
    }

    #[test]
    fn clone_preserves_edges_with_or_without_built_index() {
        let mut g = DirectedHypergraph::new(3);
        let e0 = g.add_edge_unchecked(&[n(0)], &[n(1)], 0.5);
        // Clone before the index exists…
        let unindexed = g.clone();
        assert_eq!(unindexed.find_edge(&[n(0)], &[n(1)]), Some(e0));
        // …and after it was built.
        assert!(g.find_edge(&[n(0)], &[n(1)]).is_some());
        let indexed = g.clone();
        assert_eq!(indexed.find_edge(&[n(0)], &[n(1)]), Some(e0));
        assert_eq!(indexed.num_edges(), 1);
    }

    #[test]
    fn mean_weight_empty_and_nonempty() {
        let mut g = DirectedHypergraph::new(2);
        assert_eq!(g.mean_weight(), None);
        g.add_edge(&[n(0)], &[n(1)], 0.4).unwrap();
        g.add_edge(&[n(1)], &[n(0)], 0.6).unwrap();
        assert!((g.mean_weight().unwrap() - 0.5).abs() < 1e-12);
        assert!((g.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_head_edges_supported() {
        // The general model (Def 2.9) allows |H| > 1 even though the
        // association layer restricts to |H| = 1.
        let mut g = DirectedHypergraph::new(5);
        g.add_edge(&[n(0)], &[n(1), n(2)], 0.6).unwrap();
        assert_eq!(g.in_degree(n(1)), 1);
        assert_eq!(g.in_degree(n(2)), 1);
        assert!((g.weighted_in_degree(n(1)) - 0.3).abs() < 1e-12);
        assert_eq!(g.edge(EdgeId::new(0)).head(), &[n(1), n(2)]);
    }

    #[test]
    fn memory_accounting_tracks_all_structures() {
        let mut g = DirectedHypergraph::new(4);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.4).unwrap();
        g.add_edge(&[n(0), n(1), n(2)], &[n(3)], 0.6).unwrap();
        let mem = g.memory();
        assert!(mem.edge_record_bytes >= 2 * 12);
        assert!(mem.weight_bytes >= 2 * 8);
        assert!(mem.arena_bytes >= 4 * 4, "spilled 3+1 nodes");
        // Nobody queried a star yet, so no incidence CSR exists.
        assert_eq!(mem.incidence_entries, 0);
        assert_eq!(mem.incidence_bytes, 0);
        assert_eq!(g.in_degree(n(3)), 1);
        let mem = g.memory();
        // 2 + 1 (edge 0) + 3 + 1 (edge 1) incidence entries.
        assert_eq!(mem.incidence_entries, 7);
        assert!(mem.incidence_bytes >= 7 * 4);
        assert_eq!(mem.splice_scratch_bytes, 0, "no splice ran");
        assert_eq!(
            mem.total_bytes(),
            mem.edge_record_bytes + mem.weight_bytes + mem.arena_bytes + mem.incidence_bytes
        );
    }

    #[test]
    fn memory_accounting_counts_the_splice_double_buffers() {
        let mut g = DirectedHypergraph::new(4);
        for (t, h) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(&[n(t)], &[n(h)], 0.5).unwrap();
        }
        let insert = EdgeInsert {
            new_id: EdgeId::new(0),
            tail: vec![n(0)],
            head: vec![n(2)],
            weight: 0.25,
        };
        g.splice_edges(&[EdgeId::new(1)], &[insert]);
        // The swapped-out arrays held the four pre-splice edges.
        let mem = g.memory();
        assert!(mem.splice_scratch_bytes >= 4 * (12 + 8));
        let both_buffers = (g.packed.capacity() + g.packed_scratch.capacity()) * 12
            + (g.weights.capacity() + g.weights_scratch.capacity()) * 8;
        assert_eq!(
            mem.edge_record_bytes + mem.weight_bytes + mem.splice_scratch_bytes,
            both_buffers
        );
        assert!(mem.total_bytes() >= both_buffers);
        assert_eq!(g.clone().memory().splice_scratch_bytes, 0);
    }

    /// Asserts that `g`'s stars and incidence accounting equal those of
    /// a graph rebuilt from its edge records (leaving `g`'s CSR built).
    fn assert_stars_match_a_rebuild(g: &DirectedHypergraph, what: &str) {
        let mut rebuilt = DirectedHypergraph::new(g.num_nodes());
        for (_, e) in g.edges() {
            rebuilt.add_edge_unchecked(e.tail(), e.head(), e.weight());
        }
        for v in g.nodes() {
            assert_eq!(
                g.out_edges(v),
                rebuilt.out_edges(v),
                "{what}: out star of {v}"
            );
            assert_eq!(g.in_edges(v), rebuilt.in_edges(v), "{what}: in star of {v}");
        }
        let (mem, want) = (g.memory(), rebuilt.memory());
        assert_eq!(mem.incidence_entries, want.incidence_entries, "{what}");
        assert_eq!(mem.incidence_bytes, want.incidence_bytes, "{what}");
    }

    #[test]
    fn every_edge_mutator_drops_a_built_incidence_csr() {
        fn ins(id: u32, tail: &[u32], head: &[u32], weight: f64) -> EdgeInsert {
            EdgeInsert {
                new_id: EdgeId::new(id),
                tail: tail.iter().map(|&v| n(v)).collect(),
                head: head.iter().map(|&v| n(v)).collect(),
                weight,
            }
        }
        let mut g = DirectedHypergraph::new(6);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.4).unwrap();
        g.add_edge(&[n(0)], &[n(3)], 0.6).unwrap();
        // A spilled edge (3-node tail, 2-node head).
        g.add_edge(&[n(1), n(2), n(4)], &[n(5), n(0)], 0.2).unwrap();
        g.add_edge(&[n(3)], &[n(1)], 0.9).unwrap();
        assert_eq!(g.memory().incidence_entries, 0, "no star queried yet");
        assert_stars_match_a_rebuild(&g, "first query");

        type Step = Box<dyn Fn(&mut DirectedHypergraph)>;
        let steps: Vec<(&str, Step)> = vec![
            (
                "add_edge",
                Box::new(|g| {
                    g.add_edge(&[n(4)], &[n(2)], 0.3).unwrap();
                }),
            ),
            (
                "add_edge_unchecked",
                Box::new(|g| {
                    g.add_edge_unchecked(&[n(2), n(5)], &[n(1)], 0.7);
                }),
            ),
            (
                "splice removals",
                Box::new(|g| g.splice_edges(&[EdgeId::new(0), EdgeId::new(4)], &[])),
            ),
            (
                "splice inserts",
                Box::new(|g| {
                    g.splice_edges(&[], &[ins(0, &[5], &[4], 0.8), ins(3, &[0, 2], &[1], 0.1)])
                }),
            ),
            (
                // Removes the spilled edge too.
                "splice removals and inserts",
                Box::new(|g| {
                    g.splice_edges(
                        &[EdgeId::new(1), EdgeId::new(2)],
                        &[ins(1, &[4], &[3], 0.5)],
                    )
                }),
            ),
            ("reset_edges", Box::new(|g| g.reset_edges())),
        ];
        for (what, step) in steps {
            assert!(g.memory().incidence_bytes > 0, "{what}: the CSR is built");
            step(&mut g);
            assert_eq!(g.memory().incidence_bytes, 0, "{what} drops the CSR");
            assert_stars_match_a_rebuild(&g, what);
        }

        // Weight writes and clones keep a built CSR valid.
        g.add_edge(&[n(0)], &[n(1)], 0.1).unwrap();
        g.add_edge(&[n(2), n(3)], &[n(1)], 0.2).unwrap();
        assert_stars_match_a_rebuild(&g, "refill");
        let built = g.memory();
        g.set_weight(EdgeId::new(1), 0.6).unwrap();
        assert_eq!(g.memory(), built, "set_weight keeps the CSR");
        assert_stars_match_a_rebuild(&g, "set_weight");
        let copy = g.clone();
        assert_eq!(
            copy.memory().incidence_entries,
            5,
            "clone copies a built CSR"
        );
        assert_stars_match_a_rebuild(&copy, "clone");
        assert_eq!(
            DirectedHypergraph::new(2).clone().memory().incidence_bytes,
            0
        );
    }
}
