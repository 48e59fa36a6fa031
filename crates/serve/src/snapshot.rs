//! Epoch-tagged, immutable serving snapshots of an association model.
//!
//! A [`ModelSnapshot`] is everything a query needs, precomputed at
//! publish time so answering is pointer-chasing, not recounting:
//!
//! - the window's hypergraph and database;
//! - the cached leading-indicator (dominator) set, computed with the
//!   same ACV-percentile filter + set-cover adaptation the streaming
//!   example uses, plus membership flags for O(1) lookups;
//! - per-head best simple edge / best hyperedge and the full in-edge
//!   ranking by ACV (the "top-γ" view), both in CSR layout;
//! - pre-materialized [`AssociationTable`]s for every kept edge whose
//!   tail lies inside the dominator — the hot set Algorithm 9 consults —
//!   grouped per target in edge-id order so votes accumulate in exactly
//!   the order [`AssociationClassifier::predict`] uses (bit-identical
//!   scores);
//! - the strongest mined rules ([`top_rules`]) above the spec's floors;
//! - an FNV-1a digest over the graph, dominator and rules (see
//!   [`ModelSnapshot::digest`] for exactly what it covers), so stress
//!   tests can prove no torn snapshot is ever observable;
//! - the wall time of each build stage ([`ModelSnapshot::publish_phases`]),
//!   kept out of the digest.
//!
//! The read path allocates nothing: callers keep a [`QueryScratch`]
//! (sized once per schema, valid across epochs) and tail values ride in
//! a stack buffer (tails have at most 2 attributes by Definition 3.7).
//!
//! [`AssociationClassifier::predict`]: hypermine_core::AssociationClassifier::predict

use hypermine_core::{
    attr_of, node_of, set_cover_adaptation_filtered, top_rules, AssociationModel, MinedRule,
    ModelConfig, ModelExport, Phase, PhaseLaps, PhaseTimer, SetCoverOptions,
};
use hypermine_data::{AttrId, Database, Value};
use hypermine_hypergraph::{DirectedHypergraph, EdgeId, EdgeRef, HypergraphMemory, NodeId};

use hypermine_core::AssociationTable;

/// How to derive the serving indexes from a model at publish time.
#[derive(Debug, Clone)]
pub struct SnapshotSpec {
    /// Keep only the strongest `fraction` of edges (by ACV percentile)
    /// before computing the dominator, mirroring the streaming example;
    /// `None` runs set cover on the unfiltered graph.
    pub acv_keep_fraction: Option<f64>,
    /// Set-cover adaptation options for the dominator computation.
    pub set_cover: SetCoverOptions,
    /// How many mined rules to pre-rank for [`ModelSnapshot::top_rules`].
    /// `0` skips rule mining entirely, for streams that only serve
    /// dominators and predictions. Ranking is support-bounded
    /// ([`top_rules`]): on a 40-ticker, 756-day window at k = 3 (~12k
    /// edges) the default 32 cost ~0.8 ms of a ~2.4 ms publish, where
    /// sorting every row cost 80 ms of ~100 ms.
    pub rule_limit: usize,
    /// Support floor for the pre-ranked rules.
    pub rule_min_support: f64,
    /// Confidence floor for the pre-ranked rules.
    pub rule_min_confidence: f64,
}

impl Default for SnapshotSpec {
    fn default() -> Self {
        SnapshotSpec {
            acv_keep_fraction: Some(0.4),
            set_cover: SetCoverOptions::default(),
            rule_limit: 32,
            rule_min_support: 0.0,
            rule_min_confidence: 0.0,
        }
    }
}

/// The stages of [`ModelSnapshot::build`], in the order they run. Every
/// publish times each one ([`ModelSnapshot::publish_phases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishPhase {
    /// [`AssociationModel::export`]: cloning the graph, the window's
    /// database and the per-attribute metadata.
    Export,
    /// Deriving every edge's ACV level ([`ModelExport::acv_levels`]).
    Levels,
    /// The ACV threshold, set cover over the edges at or above it, and
    /// the dominator's membership flags.
    Dominator,
    /// The per-head in-edge rankings and best edges.
    Rankings,
    /// Materializing the classifier's hot tables.
    Tables,
    /// Ranking the mined rules ([`top_rules`]).
    Rules,
    /// The content digest.
    Digest,
}

impl Phase for PublishPhase {
    const ALL: &'static [Self] = &[
        PublishPhase::Export,
        PublishPhase::Levels,
        PublishPhase::Dominator,
        PublishPhase::Rankings,
        PublishPhase::Tables,
        PublishPhase::Rules,
        PublishPhase::Digest,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            PublishPhase::Export => "export",
            PublishPhase::Levels => "levels",
            PublishPhase::Dominator => "dominator",
            PublishPhase::Rankings => "rankings",
            PublishPhase::Tables => "tables",
            PublishPhase::Rules => "rules",
            PublishPhase::Digest => "digest",
        }
    }
}

/// Per-stage wall time of one [`ModelSnapshot::build`].
pub type PublishLaps = PhaseLaps<PublishPhase, 7>;

/// Reusable per-reader scratch for [`ModelSnapshot::predict_into`]. One
/// allocation per reader thread, valid for every snapshot sharing the
/// schema (`k` never changes across slides of one stream).
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// Raw vote accumulator, `scores[v - 1]` for value `v ∈ 1..=k`.
    /// After a successful predict it holds the same bits
    /// `Prediction::scores` would.
    pub scores: Vec<f64>,
}

/// Itemized resident bytes of one [`ModelSnapshot`] — the
/// `incremental_stats()`-style byte accounting extended across the
/// serving layer, with the hypergraph side further itemized by
/// [`HypergraphMemory`] (edge records, weights, arena spill, an
/// incidence CSR and splice buffers; a published snapshot holds neither
/// of the last two: publish reads no star, and its graph is never
/// spliced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMemory {
    /// The snapshot's hypergraph, itemized (incidence only once a star
    /// query built it).
    pub graph: HypergraphMemory,
    /// The pre-materialized voting tables (the classifier's hot set).
    pub table_bytes: usize,
    /// Every other serving index: CSR rankings, best-edge vectors,
    /// dominator set + membership flags, and the pre-ranked rules.
    pub index_bytes: usize,
}

impl SnapshotMemory {
    /// Total bytes across the graph and all serving indexes (the
    /// window's database is accounted separately — it is shared with
    /// the writer, not owned by the snapshot's indexes).
    pub fn total_bytes(&self) -> usize {
        self.graph.total_bytes() + self.table_bytes + self.index_bytes
    }
}

/// An immutable, epoch-tagged view of one window's association model
/// with all serving indexes precomputed. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    epoch: u64,
    graph: DirectedHypergraph,
    db: Database,
    k: Value,
    config: ModelConfig,
    majority: Vec<Option<Value>>,
    baseline: Vec<f64>,
    /// The cached dominator, sorted ascending.
    dominator: Vec<NodeId>,
    /// `in_dominator[a]` — O(1) membership.
    in_dominator: Vec<bool>,
    /// Dominator attrs in the order predictions read them (sorted).
    known: Vec<AttrId>,
    /// Fraction of nodes the dominator covers (its `percent_covered`).
    coverage: f64,
    /// Per-attr best simple in-edge / best in-hyperedge.
    best_in: Vec<Option<EdgeId>>,
    best_in_hyper: Vec<Option<EdgeId>>,
    /// CSR: in-edges of each head, strongest ACV first (ties by id).
    ranked_offsets: Vec<u32>,
    ranked_edges: Vec<EdgeId>,
    /// CSR: per target, the tables of kept edges with tail ⊆ dominator,
    /// in edge-id order (the classifier's exact accumulation order).
    relevant_offsets: Vec<u32>,
    relevant_tables: Vec<AssociationTable>,
    /// Pre-ranked mined rules.
    rules: Vec<MinedRule>,
    /// FNV-1a digest of the logical content, for torn-snapshot checks.
    digest: u64,
    /// How long each stage of the build took (not part of the digest).
    phases: PublishLaps,
}

impl ModelSnapshot {
    /// Builds a snapshot of `model`'s current state. This is the
    /// publish-time cost the writer pays so that readers pay nothing:
    /// one [`AssociationModel::export`], one pass deriving every edge's
    /// ACV level, one ACV threshold and set-cover dominator, two passes
    /// for the rankings and best edges, one table materialization pass
    /// over the hot edge set, one rule ranking, and one digest pass.
    /// Every stage is a full pass — a slide moves two rows of every
    /// edge's table, so every ACV changes — kept linear instead: an ACV
    /// is an exact count over the window's `m` observations, so the
    /// rankings are one counting sort of all edges on (head, level) with
    /// levels in `0..=m`, fused with the best-edge scan; the threshold
    /// is a selection rather than a sort; and set cover scans the edges
    /// at or above it in place ([`set_cover_adaptation_filtered`]). No
    /// stage queries the graph's stars, so the exported graph never
    /// builds its incidence CSR. On an 80-attribute, 252-day window at
    /// k = 5 (~247k kept edges, no rules) a publish takes 15–18 ms on a
    /// 2-vCPU AVX2 host: 4.0–4.7 ms each for the dominator (threshold
    /// and set cover) and the digest, 2.8–3.5 ms for the tables,
    /// 3.1–3.5 ms for the rankings and best edges, and 0.7 ms for the
    /// export. Each stage's time is kept in
    /// [`ModelSnapshot::publish_phases`].
    pub fn build(model: &AssociationModel, spec: &SnapshotSpec) -> ModelSnapshot {
        let mut timer = PhaseTimer::start();
        let export = model.export();
        timer.lap(PublishPhase::Export);
        let levels = export.acv_levels();
        timer.lap(PublishPhase::Levels);
        let ModelExport {
            graph,
            db,
            k,
            baseline,
            majority,
            epoch,
            config,
        } = export;
        let n = db.num_attrs();

        // Dominator over the edges at or above the ACV threshold (every
        // edge without one), exactly as the streaming example derives its
        // leading indicators from the filtered graph.
        let nodes: Vec<NodeId> = db.attrs().map(node_of).collect();
        let threshold = spec
            .acv_keep_fraction
            .and_then(|f| graph.weight_percentile_threshold(f))
            .unwrap_or(f64::NEG_INFINITY);
        let dom_result = set_cover_adaptation_filtered(&graph, &nodes, &spec.set_cover, |_, e| {
            e.weight() >= threshold
        });
        let coverage = dom_result.percent_covered();
        let mut dominator = dom_result.dominator;
        dominator.sort_unstable();
        let mut in_dominator = vec![false; n];
        for &v in &dominator {
            in_dominator[v.index()] = true;
        }
        let known: Vec<AttrId> = dominator.iter().map(|&v| attr_of(v)).collect();
        timer.lap(PublishPhase::Dominator);

        // Per-head in-edge rankings (CSR) and best edges, in two passes
        // over the edges in id order and no star query. The first finds
        // each head's best edges — the strongest 1-node (2-node) tail,
        // ties by ascending id — and counts the in-edges in each bucket
        // (head, top − level); the second places every edge at its
        // bucket's next position. Buckets run strongest level first
        // within a head, and edges enter them in ascending id order, so
        // ties keep ascending ids.
        let top = levels.iter().copied().max().unwrap_or(0);
        let bottom = levels.iter().copied().min().unwrap_or(0);
        let span = (top - bottom) as usize + 1;
        let bucket = |h: NodeId, level: u32| h.index() * span + (top - level) as usize;
        let mut slots = vec![0u32; n * span];
        let mut best_in: Vec<Option<EdgeId>> = vec![None; n];
        let mut best_in_hyper: Vec<Option<EdgeId>> = vec![None; n];
        for (id, e) in graph.edges() {
            let level = levels[id.index()];
            for &h in e.head() {
                slots[bucket(h, level)] += 1;
                let best = match e.tail_len() {
                    1 => &mut best_in[h.index()],
                    2 => &mut best_in_hyper[h.index()],
                    _ => continue,
                };
                if best.is_none_or(|b| level > levels[b.index()]) {
                    *best = Some(id);
                }
            }
        }
        // `slots[b]`: the next ranked position of bucket `b`.
        let mut ranked_offsets = Vec::with_capacity(n + 1);
        let mut next = 0u32;
        for (b, slot) in slots.iter_mut().enumerate() {
            if b % span == 0 {
                ranked_offsets.push(next);
            }
            let count = *slot;
            *slot = next;
            next += count;
        }
        ranked_offsets.push(next);
        let mut ranked_edges = vec![EdgeId::new(0); next as usize];
        for (id, e) in graph.edges() {
            for &h in e.head() {
                let slot = &mut slots[bucket(h, levels[id.index()])];
                ranked_edges[*slot as usize] = id;
                *slot += 1;
            }
        }
        timer.lap(PublishPhase::Rankings);

        // The classifier's hot set: tables of kept edges with tail ⊆
        // dominator, grouped per target. Collection order is edge-id
        // order, matching `AssociationClassifier::new` so the batched
        // materialization and the per-target vote order are identical.
        let mut targets_and_ids = Vec::new();
        for (id, e) in graph.edges() {
            if e.tail().iter().all(|t| in_dominator[t.index()]) {
                for &h in e.head() {
                    if !in_dominator[h.index()] {
                        targets_and_ids.push((h.index(), id));
                    }
                }
            }
        }
        let ids: Vec<EdgeId> = targets_and_ids.iter().map(|&(_, id)| id).collect();
        let batch = model.tables().tables_for_edges(&ids);
        let mut per_target: Vec<Vec<AssociationTable>> = vec![Vec::new(); n];
        for ((h, _), table) in targets_and_ids.into_iter().zip(batch) {
            per_target[h].push(table);
        }
        let mut relevant_offsets = Vec::with_capacity(n + 1);
        let mut relevant_tables = Vec::new();
        relevant_offsets.push(0u32);
        for tables in per_target {
            relevant_tables.extend(tables);
            relevant_offsets.push(relevant_tables.len() as u32);
        }
        timer.lap(PublishPhase::Tables);

        let rules = top_rules(
            model,
            spec.rule_min_support,
            spec.rule_min_confidence,
            spec.rule_limit,
        );
        timer.lap(PublishPhase::Rules);

        let mut snapshot = ModelSnapshot {
            epoch,
            graph,
            db,
            k,
            config,
            majority,
            baseline,
            dominator,
            in_dominator,
            known,
            coverage,
            best_in,
            best_in_hyper,
            ranked_offsets,
            ranked_edges,
            relevant_offsets,
            relevant_tables,
            rules,
            digest: 0,
            phases: PublishLaps::default(),
        };
        snapshot.digest = snapshot.compute_digest();
        timer.lap(PublishPhase::Digest);
        snapshot.phases = timer.finish();
        snapshot
    }

    /// The model epoch this snapshot was published at. Strictly
    /// increasing along one stream's publish order.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The window's hypergraph (nodes = attributes, weights = ACVs).
    ///
    /// Publishing builds no incidence: the first star query on this
    /// graph (`in_edges`, `out_edges`, a degree) derives its CSR once,
    /// with one `O(|E|)` allocation, which the query path must not do.
    /// Readers use [`ModelSnapshot::ranked_in_edges`] instead.
    pub fn graph(&self) -> &DirectedHypergraph {
        &self.graph
    }

    /// The training window behind this snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Discretization arity `k`.
    pub fn k(&self) -> Value {
        self.k
    }

    /// The mining configuration the window was mined with.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of attributes (= nodes).
    pub fn num_attrs(&self) -> usize {
        self.db.num_attrs()
    }

    /// Attribute name lookup (no allocation).
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.db.attr_name(a)
    }

    /// The cached leading-indicator (dominator) set, sorted ascending.
    pub fn dominator(&self) -> &[NodeId] {
        &self.dominator
    }

    /// The dominator as attributes — the classifier's known set `S`.
    pub fn known(&self) -> &[AttrId] {
        &self.known
    }

    /// O(1): is `a` a leading indicator in this snapshot?
    pub fn is_leading(&self, a: AttrId) -> bool {
        self.in_dominator[a.index()]
    }

    /// Fraction of nodes the cached dominator covers.
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Strongest simple in-edge of `a` (highest ACV), if any.
    pub fn best_in_edge(&self, a: AttrId) -> Option<EdgeId> {
        self.best_in[a.index()]
    }

    /// Strongest in-hyperedge of `a` (highest ACV), if any.
    pub fn best_in_hyperedge(&self, a: AttrId) -> Option<EdgeId> {
        self.best_in_hyper[a.index()]
    }

    /// All kept in-edges of `a`, strongest ACV first (ties by edge id).
    /// The top-γ view: `ranked_in_edges(a).get(..m)` is the m strongest
    /// associations into `a`.
    pub fn ranked_in_edges(&self, a: AttrId) -> &[EdgeId] {
        let lo = self.ranked_offsets[a.index()] as usize;
        let hi = self.ranked_offsets[a.index() + 1] as usize;
        &self.ranked_edges[lo..hi]
    }

    /// The edge behind an id (borrowed from the snapshot's graph).
    pub fn edge(&self, id: EdgeId) -> EdgeRef<'_> {
        self.graph.edge(id)
    }

    /// The pre-ranked strongest mined rules (see [`SnapshotSpec`]).
    pub fn top_rules(&self) -> &[MinedRule] {
        &self.rules
    }

    /// Number of hyperedges that can vote for `target` given the cached
    /// dominator as the known set.
    pub fn relevant_edge_count(&self, target: AttrId) -> usize {
        (self.relevant_offsets[target.index() + 1] - self.relevant_offsets[target.index()]) as usize
    }

    /// The pre-materialized voting tables for `target`, in edge-id order.
    pub fn relevant_tables(&self, target: AttrId) -> &[AssociationTable] {
        let lo = self.relevant_offsets[target.index()] as usize;
        let hi = self.relevant_offsets[target.index() + 1] as usize;
        &self.relevant_tables[lo..hi]
    }

    /// Training-majority value of `a` (the no-vote fallback).
    pub fn majority_value(&self, a: AttrId) -> Option<Value> {
        self.majority[a.index()]
    }

    /// Baseline ACV of head `a` in this window.
    pub fn baseline_acv(&self, a: AttrId) -> f64 {
        self.baseline[a.index()]
    }

    /// A scratch buffer sized for this snapshot's schema; reusable
    /// across snapshots of the same stream.
    pub fn scratch(&self) -> QueryScratch {
        QueryScratch {
            scores: vec![0.0; self.k as usize],
        }
    }

    /// Algorithm 9 on the cached dominator: predicts `target`'s value
    /// from `row` (one value per attribute; only the dominator
    /// attributes are read) and returns `(value, confidence)`, or `None`
    /// when no relevant hyperedge casts a positive vote.
    ///
    /// Zero-allocation, and **bit-identical** to
    /// `AssociationClassifier::new(model, snapshot.known()).predict(..)`
    /// on the same window: tables, grouping, accumulation order, and the
    /// argmax tie-break all match; `scratch.scores` afterwards holds the
    /// same bits `Prediction::scores` would.
    ///
    /// # Panics
    /// Panics if `row` is not one value per attribute, a dominator
    /// attribute's value lies outside `1..=k`, or `target` is itself a
    /// leading indicator.
    pub fn predict_into(
        &self,
        scratch: &mut QueryScratch,
        row: &[Value],
        target: AttrId,
    ) -> Option<(Value, f64)> {
        assert_eq!(row.len(), self.num_attrs(), "one value per attribute");
        assert!(
            !self.in_dominator[target.index()],
            "target must not be one of the known attributes"
        );
        let k = self.k as usize;
        debug_assert!(
            self.known
                .iter()
                .all(|&a| row[a.index()] >= 1 && (row[a.index()] as usize) <= k),
            "known values must lie in 1..=k"
        );
        scratch.scores.iter_mut().for_each(|s| *s = 0.0);
        // Tails have at most two attributes (simple edges and 2-to-1
        // hyperedges), so tail values live on the stack.
        let mut tail_vals = [0 as Value; 2];
        for table in self.relevant_tables(target) {
            let tail = table.tail();
            for (slot, t) in tail_vals.iter_mut().zip(tail) {
                *slot = row[t.index()];
            }
            let (best, vote) = table.row_vote(&tail_vals[..tail.len()]);
            if let Some(best) = best {
                scratch.scores[best as usize - 1] += vote;
            }
        }
        let total: f64 = scratch.scores.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let (best_idx, &best_val) = scratch
            .scores
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.partial_cmp(b).unwrap().then(ib.cmp(ia)))
            .expect("k >= 1");
        Some(((best_idx + 1) as Value, best_val / total))
    }

    /// [`ModelSnapshot::predict_into`] with the classifier's fallback:
    /// the window's majority value when no hyperedge votes.
    pub fn predict_or_majority(
        &self,
        scratch: &mut QueryScratch,
        row: &[Value],
        target: AttrId,
    ) -> Value {
        match self.predict_into(scratch, row, target) {
            Some((v, _)) => v,
            None => self.majority_value(target).unwrap_or(1),
        }
    }

    /// Itemized resident bytes of this snapshot (see
    /// [`SnapshotMemory`]), so RSS growth can be attributed to the graph
    /// store, the tables or the serving indexes instead of guessed from
    /// process RSS.
    pub fn memory(&self) -> SnapshotMemory {
        let table_bytes: usize = self
            .relevant_tables
            .iter()
            .map(|t| std::mem::size_of::<AssociationTable>() + t.heap_bytes())
            .sum();
        let index_bytes = self.dominator.capacity() * std::mem::size_of::<NodeId>()
            + self.in_dominator.capacity()
            + self.known.capacity() * std::mem::size_of::<AttrId>()
            + (self.best_in.capacity() + self.best_in_hyper.capacity())
                * std::mem::size_of::<Option<EdgeId>>()
            + (self.ranked_offsets.capacity() + self.relevant_offsets.capacity()) * 4
            + self.ranked_edges.capacity() * std::mem::size_of::<EdgeId>()
            + self.rules.capacity() * std::mem::size_of::<MinedRule>()
            + self.baseline.capacity() * 8
            + self.majority.capacity() * std::mem::size_of::<Option<Value>>();
        SnapshotMemory {
            graph: self.graph.memory(),
            table_bytes,
            index_bytes,
        }
    }

    /// How long each stage of this snapshot's build took. Timing is
    /// machine-dependent, so it stays out of the digest.
    pub fn publish_phases(&self) -> &PublishLaps {
        &self.phases
    }

    /// The content digest stamped at build time: FNV-1a over the
    /// little-endian bytes of the epoch, the attribute count and `k`,
    /// every edge's nodes and ACV bits, the dominator, the baselines, the
    /// hot-table CSR offsets, the rules' heads, values and measure bits,
    /// and the coverage, each hashed as a `u64`. A word's zero high bytes
    /// are folded into one multiply by a power of the FNV prime (hashing
    /// a zero byte only multiplies), so a small node id costs one round
    /// rather than eight; the value is the byte-at-a-time hash's, and a
    /// unit test pins it to a recorded constant.
    ///
    /// It does not hash the per-head rankings and best edges, the
    /// majorities, or the tables' contents. Each is a deterministic
    /// function of the window and the hashed graph and dominator, and
    /// hashing them too would add a pass over every ranked edge and table
    /// row to each publish. That they equal their
    /// straightforward derivations is pinned by tests instead: rankings
    /// and best edges by the `publish_indexes_match_the_originals`
    /// property test, tables by the bit-identity of predictions with the
    /// batch classifier.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Recomputes the digest from the content it covers (see
    /// [`ModelSnapshot::digest`]) and compares it to the stamp. A mismatch
    /// would mean a reader observed a torn snapshot — the concurrency
    /// tests assert this never fails.
    /// O(edges); intended for tests and debugging, not the hot path.
    pub fn verify_digest(&self) -> bool {
        self.compute_digest() == self.digest
    }

    fn compute_digest(&self) -> u64 {
        // FNV-1a over the fields listed on `digest()`; the derived
        // per-head indexes are deliberately left out (see there).
        let mut h = Fnv::new();
        h.u64(self.epoch);
        h.u64(self.num_attrs() as u64);
        h.u64(self.k as u64);
        h.u64(self.graph.num_edges() as u64);
        for (_, e) in self.graph.edges() {
            for &t in e.tail() {
                h.u64(t.index() as u64);
            }
            for &head in e.head() {
                h.u64(head.index() as u64);
            }
            h.u64(e.weight().to_bits());
        }
        for &v in &self.dominator {
            h.u64(v.index() as u64);
        }
        for &b in &self.baseline {
            h.u64(b.to_bits());
        }
        for &o in &self.relevant_offsets {
            h.u64(o as u64);
        }
        for r in &self.rules {
            h.u64(r.head.index() as u64);
            h.u64(r.head_value as u64);
            h.u64(r.support.to_bits());
            h.u64(r.confidence.to_bits());
        }
        h.u64(self.coverage.to_bits());
        h.finish()
    }
}

/// FNV-1a over the little-endian bytes of each hashed word. Hashing a
/// zero byte only multiplies by the prime (`h ^ 0 = h`), so a word's run
/// of zero high bytes folds, with the round of the byte below them, into
/// one multiply by a power of the prime: a node id below 256 costs one
/// xor and one multiply rather than eight of each, and the value is the
/// byte-at-a-time hash's.
struct Fnv(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[i]` is `FNV_PRIME^i`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    pow
};

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        let bytes = x.to_le_bytes();
        // The highest nonzero byte (the first for x = 0): its round and
        // the zero bytes above it take one multiply by a prime power.
        let last = ((71 - x.leading_zeros() as usize) / 8).max(1) - 1;
        let mut h = self.0;
        for &byte in &bytes[..last] {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.0 = (h ^ u64::from(bytes[last])).wrapping_mul(FNV_PRIME_POW[8 - last]);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_core::AssociationClassifier;

    fn db() -> Database {
        let m = 300;
        let x: Vec<Value> = (0..m).map(|o| (o % 3 + 1) as Value).collect();
        let y = x.clone();
        let z: Vec<Value> = x
            .iter()
            .enumerate()
            .map(|(o, &v)| if o % 5 == 0 { (v % 3) + 1 } else { v })
            .collect();
        let w: Vec<Value> = (0..m).map(|o| ((o / 11) % 3 + 1) as Value).collect();
        Database::from_columns(
            vec!["x".into(), "y".into(), "z".into(), "w".into()],
            3,
            vec![x, y, z, w],
        )
        .unwrap()
    }

    fn snap(model: &AssociationModel) -> ModelSnapshot {
        ModelSnapshot::build(model, &SnapshotSpec::default())
    }

    /// The digest of `snapshot_mirrors_the_model`'s snapshot, recorded
    /// with the byte-at-a-time hash. The digest's value and inputs are
    /// fixed by design: a stream's digests prove one build equal to
    /// another, so a faster hash must produce the same value.
    const GOLDEN_DIGEST: u64 = 0x93b7_54ca_a316_0edf;

    #[test]
    fn snapshot_mirrors_the_model() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s = snap(&m);
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.num_attrs(), 4);
        assert_eq!(s.k(), 3);
        assert_eq!(s.graph().num_edges(), m.hypergraph().num_edges());
        assert_eq!(s.database(), m.database());
        for a in d.attrs() {
            assert_eq!(s.best_in_edge(a), m.best_in_edge(a));
            assert_eq!(s.best_in_hyperedge(a), m.best_in_hyperedge(a));
            assert_eq!(s.majority_value(a), m.majority_value(a));
            assert_eq!(s.baseline_acv(a).to_bits(), m.baseline_acv(a).to_bits());
        }
        assert!(s.verify_digest());
        assert_eq!(s.digest(), GOLDEN_DIGEST, "the digest's value is fixed");
    }

    #[test]
    fn folded_word_hash_matches_byte_at_a_time_fnv() {
        fn bytewise(mut h: u64, x: u64) -> u64 {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut words = vec![
            0,
            1,
            0xff,
            0x100,
            u64::from(u32::MAX),
            u64::MAX,
            0x0100_0001,
            0x00ff_0000_00ff_0000,
            0x8000_0000_0000_0001,
            1 << 63,
        ];
        for (c, m) in [
            (0u64, 5usize),
            (5, 5),
            (1, 3),
            (2, 7),
            (126, 252),
            (251, 252),
            (97, 756),
        ] {
            words.push((c as f64 / m as f64).to_bits());
        }
        let mut folded = Fnv::new();
        let mut expected = Fnv::new().finish();
        for &x in &words {
            let mut one = Fnv::new();
            one.u64(x);
            assert_eq!(
                one.finish(),
                bytewise(Fnv::new().finish(), x),
                "word {x:#x}"
            );
            folded.u64(x);
            expected = bytewise(expected, x);
            assert_eq!(folded.finish(), expected, "running hash after {x:#x}");
        }
    }

    #[test]
    fn ranked_in_edges_sort_by_acv_descending() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s = snap(&m);
        for a in d.attrs() {
            let ranked = s.ranked_in_edges(a);
            assert_eq!(ranked.len(), m.hypergraph().in_edges(node_of(a)).len());
            for pair in ranked.windows(2) {
                assert!(s.edge(pair[0]).weight() >= s.edge(pair[1]).weight());
            }
            if let (Some(best), Some(&first)) = (s.best_in_edge(a), ranked.first()) {
                // The ranking's head is at least as strong as the best
                // simple edge (it may be a hyperedge).
                assert!(s.edge(first).weight() >= s.edge(best).weight());
            }
        }
    }

    #[test]
    fn predictions_are_bit_identical_to_the_classifier() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s = snap(&m);
        assert!(!s.known().is_empty(), "fixture yields a dominator");
        let clf = AssociationClassifier::new(&m, s.known());
        let mut scratch = s.scratch();
        let mut row = vec![0 as Value; d.num_attrs()];
        for obs in 0..d.num_obs() {
            for a in d.attrs() {
                row[a.index()] = d.value(a, obs);
            }
            let values: Vec<Value> = s.known().iter().map(|&a| d.value(a, obs)).collect();
            for target in d.attrs().filter(|&t| !s.is_leading(t)) {
                let got = s.predict_into(&mut scratch, &row, target);
                match clf.predict(&values, target) {
                    None => assert_eq!(got, None),
                    Some(p) => {
                        let (v, c) = got.expect("classifier voted");
                        assert_eq!(v, p.value);
                        assert_eq!(c.to_bits(), p.confidence.to_bits());
                        for (a, b) in scratch.scores.iter().zip(&p.scores) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                }
                assert_eq!(
                    s.predict_or_majority(&mut scratch, &row, target),
                    clf.predict_observation(&d, obs, target)
                );
            }
        }
    }

    #[test]
    fn top_rules_match_the_mining_module() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let spec = SnapshotSpec {
            rule_limit: 8,
            ..SnapshotSpec::default()
        };
        let s = ModelSnapshot::build(&m, &spec);
        assert_eq!(s.top_rules(), &top_rules(&m, 0.0, 0.0, 8)[..]);
    }

    #[test]
    fn memory_itemizes_graph_tables_and_indexes() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s = snap(&m);
        let mem = s.memory();
        assert_eq!(
            mem.graph.total_bytes(),
            s.graph().memory().total_bytes(),
            "graph side is the hypergraph's own accounting"
        );
        assert_eq!(
            mem.graph.incidence_bytes, 0,
            "a fresh snapshot's graph builds no incidence"
        );
        assert!(mem.index_bytes > 0, "CSR rankings are counted");
        let tables: usize = d.attrs().map(|a| s.relevant_tables(a).len()).sum();
        assert_eq!(tables > 0, mem.table_bytes > 0);
        assert_eq!(
            mem.total_bytes(),
            mem.graph.total_bytes() + mem.table_bytes + mem.index_bytes
        );
    }

    #[test]
    fn digest_detects_content_drift() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s0 = snap(&m);
        let mut m2 = m.clone();
        let mut row = vec![0 as Value; d.num_attrs()];
        for a in d.attrs() {
            row[a.index()] = d.value(a, 0);
        }
        m2.advance(&row).unwrap();
        let s1 = snap(&m2);
        assert_ne!(s0.digest(), s1.digest(), "epoch alone separates digests");
        assert!(s0.verify_digest() && s1.verify_digest());
    }
}
