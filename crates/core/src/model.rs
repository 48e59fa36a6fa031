//! The association hypergraph model (Definition 3.6).

use crate::builder;
use crate::config::ModelConfig;
use crate::counting::{acv_level, CountingEngine, KernelPath, PairRows};
use crate::incremental::{AdvanceError, AdvancePhase, AdvanceTimer, IncrementalState, WindowShape};
use crate::simd::SimdLevel;
use crate::table::AssociationTable;
use hypermine_data::{AttrId, Database, Value};
use hypermine_hypergraph::{DirectedHypergraph, EdgeId, NodeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// Converts an attribute id to its hypergraph node (same raw index).
#[inline]
pub fn node_of(a: AttrId) -> NodeId {
    NodeId::new(a.raw())
}

/// Converts a hypergraph node back to its attribute id.
#[inline]
pub fn attr_of(n: NodeId) -> AttrId {
    AttrId::new(n.raw())
}

/// A self-contained, owned export of a model's queryable state — the
/// seam between the mutable mining side and read-only consumers.
///
/// The streaming writer mutates its [`AssociationModel`] in place on every
/// slide, so concurrent readers can never borrow the live model; instead
/// the serving layer calls [`AssociationModel::export`] at publish time and
/// hands each reader an immutable copy. An export carries everything a
/// query needs — the kept hypergraph, the exact training window, the
/// γ baselines and majority fallbacks — and nothing the mining side
/// needs back (not the raw pass-1 ACV matrix of every ordered pair,
/// which only γ tests read), so producing one never touches counting
/// state: it is a handful of `memcpy`-shaped clones
/// (`O(edges + n·m)`), orders of magnitude cheaper than a rebuild.
#[derive(Debug, Clone)]
pub struct ModelExport {
    /// The kept association hypergraph (weights are ACVs).
    pub graph: DirectedHypergraph,
    /// The exact training window the model currently covers.
    pub db: Database,
    /// The value-domain size `k`.
    pub k: Value,
    /// `ACV(∅, {h})` per attribute (the γ baselines).
    pub baseline: Vec<f64>,
    /// Training-set majority value per attribute (classifier fallback).
    pub majority: Vec<Option<Value>>,
    /// The model's window epoch at export time (see
    /// [`AssociationModel::epoch`]).
    pub epoch: u64,
    /// The configuration the model was mined under.
    pub config: ModelConfig,
}

impl ModelExport {
    /// Every kept edge's ACV level, indexed by edge id: the exact integer
    /// numerator (in `0..=m`) of its weight over the window's `m`
    /// observations. Levels order edges exactly as their ACVs do, so a
    /// consumer can rank or bucket edges by integer keys (the snapshot's
    /// in-edge rankings count-sort them).
    pub fn acv_levels(&self) -> Vec<u32> {
        let m = self.db.num_obs();
        self.graph
            .weights()
            .iter()
            .map(|&w| acv_level(w, m))
            .collect()
    }
}

/// Errors raised by [`AssociationModel::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// γ values below 1 admit edges *worse* than their sub-edges, which
    /// Definition 3.7 explicitly rules out (`γ ≥ 1`).
    GammaBelowOne(f64),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::GammaBelowOne(g) => {
                write!(f, "gamma must be >= 1 (Definition 3.7), got {g}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An association hypergraph over a discretized database: nodes are
/// attributes, directed edges/2-to-1 hyperedges carry ACV weights and
/// association tables.
#[derive(Debug, Clone)]
pub struct AssociationModel {
    pub(crate) graph: DirectedHypergraph,
    /// The (discretized) training database. Association tables are
    /// recomputed from it on demand via [`AssociationModel::tables`] —
    /// storing a `k^|T|`-row table per kept hyperedge would dominate memory
    /// on full-scale models with hundreds of thousands of hyperedges.
    pub(crate) db: Database,
    pub(crate) k: Value,
    /// `ACV(∅, {h})` per attribute.
    pub(crate) baseline: Vec<f64>,
    /// Training-set majority value per attribute (classifier fallback).
    pub(crate) majority: Vec<Option<Value>>,
    /// Raw directed-edge ACVs for *all* ordered pairs (`tail · n + head`),
    /// including pairs that failed the γ test — needed by the γ test for
    /// 2-to-1 hyperedges and by Table 5.2.
    pub(crate) raw_edge_acv: Vec<f64>,
    /// The configuration the model was built under; `advance` re-applies
    /// the same γ tests when the window slides.
    pub(crate) cfg: ModelConfig,
    /// Number of [`AssociationModel::advance`] slides applied since the
    /// batch build (0 for a fresh build).
    pub(crate) epoch: u64,
    /// Sliding-window counting state, created lazily by the first
    /// `advance` call. Boxed: most models are batch-built and never pay
    /// for it.
    pub(crate) incremental: Option<Box<IncrementalState>>,
}

/// On-demand access to association tables: holds a [`CountingEngine`] over
/// the model's training database and recomputes any edge's table exactly
/// (`O(k³ · m/64)` word operations per table).
///
/// Many kept 2-to-1 hyperedges share an unordered tail pair (the builder
/// keeps every significant head of a pair), and rebuilding that pair's
/// `k²` row bitsets per edge dominated table access. [`ModelTables::table`]
/// therefore memoizes the most recently built [`PairRows`] — edges are
/// stored pair-major, so iterating edges in id order builds each pair once
/// — and [`ModelTables::tables_for_edges`] groups an arbitrary edge batch
/// by pair explicitly.
///
/// These per-head table paths and rule ranking ([`crate::top_rules`],
/// which walks edges the same way but counts only the rows that can
/// still rank) are the remaining homes of [`PairRows`]: the construction
/// sweep's observation-major pass derives pair rows from `PairBuckets`
/// instead and never builds bitset intersections, but a *single* edge's
/// rows want exactly one head counted over cached row bitsets, which is
/// what `PairRows` is shaped for.
#[derive(Debug)]
pub struct ModelTables<'m> {
    model: &'m AssociationModel,
    engine: CountingEngine<'m>,
    /// Most recently built pair rows (see the type-level docs).
    last_pair: RefCell<Option<PairRows>>,
}

impl<'m> ModelTables<'m> {
    fn tail_and_head(&self, e: EdgeId) -> (Vec<AttrId>, AttrId) {
        let edge = self.model.graph.edge(e);
        let tail: Vec<AttrId> = edge.tail().iter().map(|&n| attr_of(n)).collect();
        (tail, attr_of(edge.head()[0]))
    }

    /// The association table of edge `e`. Consecutive calls for hyperedges
    /// sharing one unordered tail pair reuse the pair's cached row bitsets.
    pub fn table(&self, e: EdgeId) -> AssociationTable {
        let (tail, head) = self.tail_and_head(e);
        match tail[..] {
            [a, b] => {
                let mut memo = self.last_pair.borrow_mut();
                if memo.as_ref().is_none_or(|p| p.pair() != (a, b)) {
                    *memo = Some(self.engine.pair_rows(a, b));
                }
                self.engine
                    .hyper_table(memo.as_ref().expect("just built"), head)
            }
            _ => self.engine.table_for(&tail, head),
        }
    }

    /// The association tables of `ids`, in input order, building each
    /// distinct unordered tail pair's row bitsets exactly once no matter
    /// how the ids are ordered. Preferred over per-edge [`ModelTables::table`]
    /// calls when materializing a batch (e.g. a classifier's relevant
    /// edges).
    pub fn tables_for_edges(&self, ids: &[EdgeId]) -> Vec<AssociationTable> {
        let mut pairs: HashMap<(AttrId, AttrId), PairRows> = HashMap::new();
        ids.iter()
            .map(|&id| {
                let (tail, head) = self.tail_and_head(id);
                match tail[..] {
                    [a, b] => {
                        let pair = pairs
                            .entry((a, b))
                            .or_insert_with(|| self.engine.pair_rows(a, b));
                        self.engine.hyper_table(pair, head)
                    }
                    _ => self.engine.table_for(&tail, head),
                }
            })
            .collect()
    }

    /// The table of an arbitrary `(tail, head)` combination, kept or not
    /// (used by Table 5.2 to display constituent directed edges).
    pub fn table_for(&self, tail: &[AttrId], head: AttrId) -> AssociationTable {
        self.engine.table_for(tail, head)
    }

    /// The underlying counting engine.
    pub fn engine(&self) -> &CountingEngine<'m> {
        &self.engine
    }
}

impl AssociationModel {
    /// Builds the association hypergraph of `db` under `cfg`
    /// (Section 3.2.1): computes every directed-edge ACV, keeps the
    /// γ₁-significant ones, then (if enabled) sweeps all
    /// `(unordered pair, head)` combinations in parallel keeping the
    /// γ₂-significant 2-to-1 hyperedges. Zero-ACV candidates are never
    /// added (they carry no information; this only matters for degenerate
    /// databases).
    pub fn build(db: &Database, cfg: &ModelConfig) -> Result<Self, BuildError> {
        if cfg.gamma_edge < 1.0 {
            return Err(BuildError::GammaBelowOne(cfg.gamma_edge));
        }
        if cfg.gamma_hyper < 1.0 {
            return Err(BuildError::GammaBelowOne(cfg.gamma_hyper));
        }
        Ok(builder::build(db, cfg))
    }

    /// [`AssociationModel::build`] plus an explicit epoch stamp: rebuilds
    /// the model over `db` under `cfg` and sets [`AssociationModel::epoch`]
    /// to `epoch` instead of 0.
    ///
    /// This is the recovery constructor for a durable serving layer
    /// (`hypermine-serve`'s checkpoint + WAL store): a checkpoint captures
    /// the windowed database, the config, and the epoch. Because `advance`
    /// / `advance_batch` / `retire_oldest` are bit-identical to batch
    /// rebuilds of the slid window, recovery folds the logged slides into
    /// the checkpoint's window and restores once over the result, at the
    /// folded epoch. That reconstructs the pre-crash model exactly — same
    /// edges, ids, ACVs, *and* epoch numbering, so recovered snapshots
    /// keep the epoch clock monotone across the crash. Like any build,
    /// the restored model builds its incremental state on its first
    /// [`AssociationModel::advance`].
    pub fn restore(db: &Database, cfg: &ModelConfig, epoch: u64) -> Result<Self, BuildError> {
        let mut model = Self::build(db, cfg)?;
        model.epoch = epoch;
        Ok(model)
    }

    /// Slides the model's observation window one step forward: the oldest
    /// observation retires, `new_obs` (one value per attribute, each in
    /// `1..=k`) joins, and the model — kept edges, edge ids, ACVs,
    /// baselines, raw ACV matrix, training database — is brought to
    /// exactly the state a fresh [`AssociationModel::build`] over the slid
    /// window would produce, bit for bit, at a fraction of the cost.
    ///
    /// The first call lazily builds the incremental counting state
    /// (treating the current training database as the full window, so the
    /// window capacity is `num_obs` at that moment; its time is the call's
    /// [`crate::AdvancePhase::State`] stage); subsequent slides
    /// update the pass-1 joint-count tensor in `O(n²)`, recount only the
    /// two pair rows each slide actually touches for pass 2, and
    /// reassemble (or weight-patch) the hypergraph in place. See
    /// `crate::incremental` for the machinery and the cost model.
    ///
    /// [`AssociationModel::epoch`] increments by one per slide. On an
    /// error nothing changes.
    ///
    /// Note: advancing a model obtained from
    /// [`AssociationModel::filter_by_acv`] re-mines the **unfiltered**
    /// γ-model of the new window (the ACV filter is a derived view, not
    /// part of the mining configuration); re-apply the filter afterwards
    /// if needed.
    pub fn advance(&mut self, new_obs: &[Value]) -> Result<(), AdvanceError> {
        self.advance_rows(&[new_obs])
    }

    /// Slides the model's observation window `obs.len()` steps forward in
    /// one batch (oldest row first), producing **exactly** the model `d`
    /// sequential [`AssociationModel::advance`] calls would — bit for bit
    /// — at a fraction of their cost: the per-observation count
    /// maintenance still runs per row, but the γ re-test sweep, the
    /// kept-mask diff, and the single `splice_edges` call amortize over
    /// the whole batch (the dirty bits accumulate across rows and are
    /// resolved once against the batch's net changes). The win is largest
    /// exactly where single slides are weakest — small `k`, where a
    /// slide's fixed re-test cost dominates — e.g. multi-day catch-ups
    /// over a weekend or a backfill of a few calendar days.
    ///
    /// All rows are validated up front; on an error nothing changes.
    /// [`AssociationModel::epoch`] advances by `obs.len()`.
    pub fn advance_batch(&mut self, obs: &[Vec<Value>]) -> Result<(), AdvanceError> {
        let rows: Vec<&[Value]> = obs.iter().map(Vec::as_slice).collect();
        self.advance_rows(&rows)
    }

    /// Shared advance machinery: checks the rows against the window
    /// ([`WindowShape::check_advance`]), lazily builds the incremental
    /// state and applies one batch of slides through it.
    fn advance_rows(&mut self, rows: &[&[Value]]) -> Result<(), AdvanceError> {
        WindowShape::of(&self.db).check_advance(rows)?;
        if rows.is_empty() {
            // A no-op either way; don't pay the state build for it.
            return Ok(());
        }
        let mut timer = AdvanceTimer::start();
        let mut state = match self.incremental.take() {
            Some(state) => state,
            None => {
                let state = Box::new(IncrementalState::new(&self.db, &self.cfg));
                timer.lap(AdvancePhase::State);
                state
            }
        };
        state.advance_many(self, rows, timer);
        self.incremental = Some(state);
        self.epoch += rows.len() as u64;
        Ok(())
    }

    /// Contracts the window from the *old* end: the oldest observation
    /// retires and nothing joins, leaving the model exactly as a fresh
    /// [`AssociationModel::build`] over the shrunk window would — the
    /// streaming counterpart of a calendar gap (market holiday, missing
    /// data day), where a served window must age out stale observations
    /// without waiting for new ones.
    ///
    /// Currently rebuild-backed: the incremental engine maintains
    /// fixed-width windows (retire + append in one step), so a pure
    /// contraction re-mines the shrunk window and drops any live
    /// incremental state (the next [`AssociationModel::advance`] lazily
    /// rebuilds it over the new, smaller capacity). That costs one batch
    /// build per retirement — acceptable for occasional gaps; a stream of
    /// pure retirements should batch them between rebuilds.
    ///
    /// [`AssociationModel::epoch`] increments by one (the window changed,
    /// so snapshot consumers must observe a new epoch). Fails with
    /// [`AdvanceError::EmptyModel`] when fewer than two observations
    /// remain — a model cannot cover an empty window. On an error nothing
    /// changes.
    pub fn retire_oldest(&mut self) -> Result<(), AdvanceError> {
        WindowShape::of(&self.db).check_retire()?;
        let shrunk = self.db.slice_obs(1..self.db.num_obs());
        let mut rebuilt = builder::build(&shrunk, &self.cfg);
        rebuilt.epoch = self.epoch + 1;
        *self = rebuilt;
        Ok(())
    }

    /// Number of observations [`AssociationModel::advance`] /
    /// [`AssociationModel::advance_batch`] slid past since the batch
    /// build (0 for a fresh build), plus one per
    /// [`AssociationModel::retire_oldest`] contraction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Exports the model's queryable state — the kept graph, the window,
    /// the baselines and the majorities — as an owned, immutable
    /// [`ModelExport`], the cheap snapshot path for read-mostly serving
    /// (see the type-level docs for the cost model). The export observes
    /// the model at the current [`AssociationModel::epoch`]; later
    /// `advance`/`retire_oldest` calls never affect it.
    pub fn export(&self) -> ModelExport {
        ModelExport {
            graph: self.graph.clone(),
            db: self.db.clone(),
            k: self.k,
            baseline: self.baseline.clone(),
            majority: self.majority.clone(),
            epoch: self.epoch,
            config: self.cfg.clone(),
        }
    }

    /// Size and layout of the live incremental counting state: `None`
    /// until the first advance built it, then whether the triple-count
    /// tensor is in use and how many bytes each maintained tensor holds
    /// (`perf_summary` reports these next to the slide latencies; capacity
    /// planning for wide streams reads them to see which side of the
    /// tensor budget a configuration landed on).
    pub fn incremental_stats(&self) -> Option<crate::incremental::IncrementalStats> {
        self.incremental.as_ref().map(|s| s.stats())
    }

    /// How long each stage of the last successful
    /// [`AssociationModel::advance`] / [`AssociationModel::advance_batch`]
    /// call took ([`crate::AdvancePhase`]): `None` until the first
    /// advance built the incremental state, whose build is that call's
    /// `state` stage (0 on every later call). Timing is machine-dependent,
    /// so it takes no part in any model comparison or digest.
    pub fn advance_phases(&self) -> Option<crate::incremental::AdvanceLaps> {
        self.incremental.as_ref().map(|s| s.laps())
    }

    /// The configuration the model was built under.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The counter-lane width ([`KernelPath`]) this model's database
    /// dimensions select for the blocked flat kernel — the width `build`
    /// counted in and every batch-grade sweep over this window (the
    /// incremental fallback's initial `S₂` build) will. Log it wherever
    /// build times are reported: a universe outgrowing the u16 lanes
    /// silently switches to the slower u32 lanes, and this is the signal
    /// that says so.
    pub fn kernel_path(&self) -> KernelPath {
        KernelPath::select(self.db.num_attrs(), self.db.k() as usize, self.db.num_obs())
    }

    /// The SIMD tier ([`SimdLevel`]) the flat counting kernels engage
    /// under this model's `simd` policy on the current host — `build`
    /// used it, and every batch-grade recount will. Surfaced next to
    /// [`AssociationModel::kernel_path`] for the same reason: a binary
    /// running on hardware without AVX2/NEON (or with the scalar policy
    /// forced) should report so wherever build times are logged.
    pub fn simd_level(&self) -> SimdLevel {
        self.cfg.simd.resolve()
    }

    /// The underlying weighted directed hypergraph (weights are ACVs).
    pub fn hypergraph(&self) -> &DirectedHypergraph {
        &self.graph
    }

    /// The training database the model was built from.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// On-demand association-table access (builds one counting engine; keep
    /// it around when reading many tables).
    pub fn tables(&self) -> ModelTables<'_> {
        let mut engine = CountingEngine::new(&self.db);
        engine.set_simd_policy(self.cfg.simd);
        ModelTables {
            model: self,
            engine,
            last_pair: RefCell::new(None),
        }
    }

    /// The ACV of an edge (its weight).
    pub fn acv(&self, e: EdgeId) -> f64 {
        self.graph.edge(e).weight()
    }

    /// Number of attributes (= hypergraph nodes).
    pub fn num_attrs(&self) -> usize {
        self.db.num_attrs()
    }

    /// The value-domain size `k`.
    pub fn k(&self) -> Value {
        self.k
    }

    /// Attribute name.
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.db.attr_name(a)
    }

    /// Looks up an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.db.attr_by_name(name)
    }

    /// All attribute ids.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.db.attrs()
    }

    /// `ACV(∅, {h})` — the γ baseline for directed edges into `h`.
    pub fn baseline_acv(&self, h: AttrId) -> f64 {
        self.baseline[h.index()]
    }

    /// The training-set majority value of attribute `a`.
    pub fn majority_value(&self, a: AttrId) -> Option<Value> {
        self.majority[a.index()]
    }

    /// The raw (pre-γ-filter) ACV of the directed edge `({tail}, {head})`.
    pub fn raw_edge_acv(&self, tail: AttrId, head: AttrId) -> f64 {
        self.raw_edge_acv[tail.index() * self.num_attrs() + head.index()]
    }

    /// The kept directed edge of highest ACV whose head is `h`
    /// (Table 5.1's "top directed edge").
    pub fn best_in_edge(&self, h: AttrId) -> Option<EdgeId> {
        self.best_in_by(h, |e| e == 1)
    }

    /// The kept 2-to-1 hyperedge of highest ACV whose head is `h`
    /// (Table 5.1's "top 2-to-1 directed hyperedge").
    pub fn best_in_hyperedge(&self, h: AttrId) -> Option<EdgeId> {
        self.best_in_by(h, |e| e == 2)
    }

    fn best_in_by(&self, h: AttrId, tail_len_ok: impl Fn(usize) -> bool) -> Option<EdgeId> {
        self.graph
            .in_edges(node_of(h))
            .iter()
            .copied()
            .filter(|&e| tail_len_ok(self.graph.edge(e).tail_len()))
            .max_by(|&x, &y| {
                self.graph
                    .edge(x)
                    .weight()
                    .partial_cmp(&self.graph.edge(y).weight())
                    .expect("ACVs are finite")
                    .then(y.cmp(&x))
            })
    }

    /// A copy of the model keeping only edges with `ACV ≥ min_acv`
    /// (Section 5.4's ACV-threshold filtering). Baselines, majorities, raw
    /// ACVs, and the training database are preserved.
    pub fn filter_by_acv(&self, min_acv: f64) -> AssociationModel {
        AssociationModel {
            graph: self.graph.filter_by_weight(min_acv),
            db: self.db.clone(),
            k: self.k,
            baseline: self.baseline.clone(),
            majority: self.majority.clone(),
            raw_edge_acv: self.raw_edge_acv.clone(),
            cfg: self.cfg.clone(),
            epoch: self.epoch,
            // The filtered graph's edge ids no longer correspond to the
            // kept-candidate order, so any later `advance` must start from
            // a fresh incremental state (and re-mines unfiltered).
            incremental: None,
        }
    }

    /// The ACV threshold that keeps (approximately) the top `fraction` of
    /// edges by ACV (the paper's "top 40/30/20% directed hyperedges
    /// w.r.t. ACVs", Section 5.4).
    pub fn acv_percentile_threshold(&self, fraction: f64) -> Option<f64> {
        self.graph.weight_percentile_threshold(fraction)
    }

    /// Summary statistics in the shape of Section 5.1.2.
    pub fn stats(&self) -> ModelStats {
        let mut n1 = 0usize;
        let mut n2 = 0usize;
        let mut sum1 = 0.0;
        let mut sum2 = 0.0;
        for (_, e) in self.graph.edges() {
            match e.tail_len() {
                1 => {
                    n1 += 1;
                    sum1 += e.weight();
                }
                _ => {
                    n2 += 1;
                    sum2 += e.weight();
                }
            }
        }
        ModelStats {
            num_directed_edges: n1,
            num_hyperedges: n2,
            mean_acv_directed: if n1 > 0 { Some(sum1 / n1 as f64) } else { None },
            mean_acv_hyper: if n2 > 0 { Some(sum2 / n2 as f64) } else { None },
        }
    }
}

/// Edge counts and mean ACVs by arity (Section 5.1.2's reporting format).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Number of kept directed edges (`|T| = 1`).
    pub num_directed_edges: usize,
    /// Number of kept 2-to-1 directed hyperedges (`|T| = 2`).
    pub num_hyperedges: usize,
    /// Mean ACV over directed edges.
    pub mean_acv_directed: Option<f64>,
    /// Mean ACV over 2-to-1 hyperedges.
    pub mean_acv_hyper: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    /// Three attributes where y is a noisy copy of x and z is independent.
    fn db() -> Database {
        let x: Vec<Value> = (0..120).map(|i| (i % 3 + 1) as Value).collect();
        let y: Vec<Value> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 10 == 0 { (v % 3) + 1 } else { v })
            .collect();
        let z: Vec<Value> = (0..120).map(|i| ((i / 7) % 3 + 1) as Value).collect();
        Database::from_columns(vec!["x".into(), "y".into(), "z".into()], 3, vec![x, y, z]).unwrap()
    }

    #[test]
    fn build_finds_strong_edges() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        // x <-> y strongly associated: both directed edges survive γ = 1.15.
        let xy = m.hypergraph().find_edge(&[node_of(a(0))], &[node_of(a(1))]);
        let yx = m.hypergraph().find_edge(&[node_of(a(1))], &[node_of(a(0))]);
        assert!(xy.is_some() && yx.is_some());
        assert!(m.acv(xy.unwrap()) > 0.8);
        // Raw ACV matrix is populated even for non-kept pairs.
        assert!(m.raw_edge_acv(a(0), a(2)) > 0.0);
    }

    #[test]
    fn gamma_below_one_rejected() {
        let d = db();
        let bad = ModelConfig {
            gamma_edge: 0.9,
            ..ModelConfig::default()
        };
        assert_eq!(
            AssociationModel::build(&d, &bad).err(),
            Some(BuildError::GammaBelowOne(0.9))
        );
        let bad = ModelConfig {
            gamma_hyper: 0.5,
            ..ModelConfig::default()
        };
        assert!(matches!(
            AssociationModel::build(&d, &bad),
            Err(BuildError::GammaBelowOne(_))
        ));
    }

    #[test]
    fn tables_align_with_edges() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let tables = m.tables();
        for (id, e) in m.hypergraph().edges() {
            let t = tables.table(id);
            assert_eq!(t.tail().len(), e.tail_len());
            assert_eq!(node_of(t.head()), e.head()[0]);
            assert!((t.acv() - e.weight()).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_tables_match_per_edge_tables() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let tables = m.tables();
        let ids: Vec<EdgeId> = m.hypergraph().edges().map(|(id, _)| id).collect();
        let batch = tables.tables_for_edges(&ids);
        assert_eq!(batch.len(), ids.len());
        for (&id, t) in ids.iter().zip(&batch) {
            // The memoized per-edge path and the ungrouped engine path
            // agree with the pair-grouped batch.
            assert_eq!(*t, tables.table(id));
            let (tail, head) = (t.tail().to_vec(), t.head());
            assert_eq!(*t, tables.engine().naive_table(&tail, head));
        }
        // Reversed order regroups pairs but must not change any table.
        let rev_ids: Vec<EdgeId> = ids.iter().rev().copied().collect();
        let rev = tables.tables_for_edges(&rev_ids);
        for (t, r) in batch.iter().zip(rev.iter().rev()) {
            assert_eq!(t, r);
        }
    }

    #[test]
    fn filter_by_acv_keeps_tables_aligned() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let thr = m.acv_percentile_threshold(0.5).unwrap();
        let f = m.filter_by_acv(thr);
        assert!(f.hypergraph().num_edges() <= m.hypergraph().num_edges());
        assert!(f.hypergraph().num_edges() > 0);
        let tables = f.tables();
        for (id, e) in f.hypergraph().edges() {
            assert!(e.weight() >= thr);
            assert!((tables.table(id).acv() - e.weight()).abs() < 1e-12);
        }
        // Metadata preserved.
        assert_eq!(f.num_attrs(), m.num_attrs());
        assert_eq!(f.raw_edge_acv(a(0), a(1)), m.raw_edge_acv(a(0), a(1)));
    }

    #[test]
    fn best_in_edges() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let best = m.best_in_edge(a(1)).expect("x -> y kept");
        // Best predictor of y must be x.
        assert_eq!(m.hypergraph().edge(best).tail(), &[node_of(a(0))]);
        if let Some(h) = m.best_in_hyperedge(a(1)) {
            assert_eq!(m.hypergraph().edge(h).tail_len(), 2);
        }
    }

    #[test]
    fn stats_split_by_arity() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let s = m.stats();
        assert_eq!(
            s.num_directed_edges + s.num_hyperedges,
            m.hypergraph().num_edges()
        );
        if let Some(mean) = s.mean_acv_directed {
            assert!(mean > 0.0 && mean <= 1.0);
        }
    }

    #[test]
    fn attr_lookup() {
        let d = db();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        assert_eq!(m.attr_by_name("y"), Some(a(1)));
        assert_eq!(m.attr_by_name("nope"), None);
        assert_eq!(m.attr_name(a(2)), "z");
        assert_eq!(m.k(), 3);
    }

    #[test]
    fn retire_oldest_matches_batch_rebuild() {
        let d = db();
        let cfg = ModelConfig::default();
        let mut m = AssociationModel::build(&d, &cfg).unwrap();
        m.retire_oldest().unwrap();
        assert_eq!(m.epoch(), 1);
        let batch = AssociationModel::build(&d.slice_obs(1..d.num_obs()), &cfg).unwrap();
        assert_eq!(m.hypergraph().num_edges(), batch.hypergraph().num_edges());
        for (id, e) in batch.hypergraph().edges() {
            let o = m.hypergraph().edge(id);
            assert_eq!(e.tail(), o.tail());
            assert_eq!(e.head(), o.head());
            assert_eq!(e.weight().to_bits(), o.weight().to_bits());
        }
        assert_eq!(m.database(), &d.slice_obs(1..d.num_obs()));
    }

    #[test]
    fn retire_then_advance_matches_batch_rebuild() {
        // A calendar gap: one day retires with nothing to replace it, then
        // the stream resumes. The survived window must be bit-identical to
        // mining it from scratch.
        let d = db();
        let cfg = ModelConfig::default();
        let mut m = AssociationModel::build(&d.slice_obs(0..100), &cfg).unwrap();
        // Warm the incremental state so retirement exercises dropping it.
        let mut row = vec![0 as Value; d.num_attrs()];
        for (at, v) in row.iter_mut().enumerate() {
            *v = d.value(a(at as u32), 100);
        }
        m.advance(&row).unwrap();
        m.retire_oldest().unwrap();
        m.retire_oldest().unwrap();
        for (i, obs) in (101..110).enumerate() {
            for (at, v) in row.iter_mut().enumerate() {
                *v = d.value(a(at as u32), obs);
            }
            m.advance(&row).unwrap();
            assert_eq!(m.epoch(), 4 + i as u64);
        }
        let batch = AssociationModel::build(m.database(), &cfg).unwrap();
        assert_eq!(m.hypergraph().num_edges(), batch.hypergraph().num_edges());
        for (id, e) in batch.hypergraph().edges() {
            let o = m.hypergraph().edge(id);
            assert_eq!(e.tail(), o.tail());
            assert_eq!(e.head(), o.head());
            assert_eq!(e.weight().to_bits(), o.weight().to_bits());
        }
        // `advance` slides at fixed width, so the window keeps the shrunk
        // width the two retirements left behind: 100 - 2.
        assert_eq!(m.database().num_obs(), 98);
    }

    #[test]
    fn retire_oldest_guards_degenerate_windows() {
        let d = db();
        let mut m = AssociationModel::build(&d.slice_obs(0..2), &ModelConfig::default()).unwrap();
        m.retire_oldest().unwrap(); // 2 -> 1 is legal (a degenerate mine)...
        m.retire_oldest().unwrap_err(); // ...but 1 -> 0 would empty the window.
        assert_eq!(m.database().num_obs(), 1, "failed retire changes nothing");
        assert_eq!(m.epoch(), 1, "failed retire does not consume an epoch");
    }

    #[test]
    fn export_is_detached_from_the_live_model() {
        let d = db();
        let mut m = AssociationModel::build(&d.slice_obs(0..100), &ModelConfig::default()).unwrap();
        let export = m.export();
        assert_eq!(export.epoch, 0);
        assert_eq!(export.k, m.k());
        assert_eq!(export.graph.num_edges(), m.hypergraph().num_edges());
        assert_eq!(export.db, *m.database());
        // Mutating the model afterwards must not bleed into the export.
        let mut row = vec![0 as Value; d.num_attrs()];
        for (at, v) in row.iter_mut().enumerate() {
            *v = d.value(a(at as u32), 100);
        }
        m.advance(&row).unwrap();
        assert_eq!(export.epoch, 0);
        assert_eq!(export.db.num_obs(), 100);
        assert_eq!(
            export.baseline,
            AssociationModel::build(&d.slice_obs(0..100), &ModelConfig::default())
                .unwrap()
                .baseline
        );
    }

    #[test]
    fn hyperedges_can_be_disabled() {
        let d = db();
        let cfg = ModelConfig {
            with_hyperedges: false,
            ..ModelConfig::default()
        };
        let m = AssociationModel::build(&d, &cfg).unwrap();
        assert_eq!(m.stats().num_hyperedges, 0);
    }
}
