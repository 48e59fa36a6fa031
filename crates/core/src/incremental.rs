//! Incremental (sliding-window) model maintenance.
//!
//! [`AssociationModel::advance`] slides the training window one
//! observation forward and brings the model to **exactly** the state a
//! batch rebuild over the slid window would produce — same kept edges,
//! same edge ids, bit-identical ACVs — without re-counting the window
//! from scratch. [`IncrementalState`] is the persistent machinery behind
//! it:
//!
//! - slot-indexed [`ValueIndex`] / [`ObsMatrix`] / counter-slot
//!   mirrors of the window, kept as a ring (each slide's observation
//!   takes the retired one's slot) and maintained in `O(n)` per slide
//!   (one observation's bits cleared, one set, one code row and one slot
//!   row written — ACVs are counts of value combinations and do not
//!   depend on observation order, so ring slots count exactly like
//!   chronological ids);
//! - the **pass-1 joint-count tensor**: for every unordered attribute
//!   pair, the `k × k` table of value-combination counts
//!   (`n·(n−1)/2 · k²` counters, updated in `O(n²)` per slide — one
//!   decrement and one increment per pair). Every directed-edge ACV
//!   numerator, both orientations, is a row-max/column-max sum over one
//!   pair's block, recomputed exactly in `O(n²·k²)` per slide;
//! - the **pass-2 numerators** `S₂[pair][head]` (`n·(n−1)/2 · n`
//!   counters). A slide changes at most two of a pair's `k²`
//!   `(v_a, v_b)` rows — the retired observation's row and the appended
//!   one's. With the triple-count tensor in budget
//!   ([`TRIPLE_TENSOR_MAX_BYTES`]) each `(pair, head)` update is one
//!   histogram-cell decrement/increment checked against a cached
//!   row-max — `O(n³)` per slide with **no observation enumeration at
//!   all**. Otherwise the **row-recount fallback** applies one rule per
//!   pair: `ΔS₂[p][h] = Σ best(post-slide rows) − Σ best(pre-slide
//!   rows)` over the touched rows, where `best` is a head's largest
//!   value count in a row, counted for all heads at once by the batch
//!   build's dense-row fold: the SIMD vertical kernel, else the blocked
//!   flat kernel over the window's slot rows. A row's post-slide
//!   observations come off one bitset intersection; its pre-slide list
//!   drops the appended slot and reads the retired observation back
//!   from a spare code-matrix and slot row. That is at most four rows of
//!   `~m/k²` observations per pair.
//!   Both paths produce identical integers, and every nonzero net
//!   change sets a **dirty bit**;
//! - the **kept-candidate mask** from the previous slide, word-aligned
//!   (one `⌈n/64⌉`-word block of head bits per tail and per pair, the
//!   same layout as the dirty masks). The γ tests are re-derived each
//!   slide as a *diff*: a clean word — no `S₂`, floor, or baseline
//!   change across its 64 candidates — is carried over with one
//!   popcount; dirty candidates are re-tested, yielding in-place weight
//!   patches (their edge ids are provably unchanged while the kept
//!   prefix matches) and a handful of structural flips applied with one
//!   `DirectedHypergraph::splice_edges` batch, which renumbers
//!   surviving edges by copying the record runs between splice points
//!   instead of reinserting them (the graph keeps no incidence to
//!   shift; batch analyses derive it on their first star query).
//!
//! The result on the 40-ticker fixture (k = 5, three-year window):
//! 4.2–7.0× faster per slide than a batch rebuild (≥ 10× before the
//! SIMD vertical kernel halved the rebuild side), bit-identical output.
//! The `streaming` integration suite proves `advance` ≡ `build` across
//! k and thread counts; `perf_summary` measures the
//! per-slide latency against a full rebuild and CI gates on it.

use crate::builder;
use crate::config::ModelConfig;
use crate::counting::{acv_of, for_each_bit, CountingEngine, HeadCounter, KernelPath, Slots};
use crate::model::AssociationModel;
use crate::parallel::{parallel_blocks, steal_block_size};
use crate::phase::{Phase, PhaseLaps, PhaseTimer};
use crate::simd::SimdLevel;
use hypermine_data::{AttrId, Database, ObsMatrix, PairBuckets, Value, ValueIndex};
use hypermine_hypergraph::{EdgeId, EdgeInsert};
use std::fmt;

/// Errors raised by [`AssociationModel::advance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvanceError {
    /// The appended observation row does not have one value per attribute.
    ArityMismatch { expected: usize, got: usize },
    /// An appended value was 0 or exceeded `k`.
    ValueOutOfRange { attr: usize, value: Value },
    /// The model has no attributes or no observations — there is no
    /// window to slide.
    EmptyModel,
}

impl fmt::Display for AdvanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvanceError::ArityMismatch { expected, got } => {
                write!(f, "observation has {got} values for {expected} attributes")
            }
            AdvanceError::ValueOutOfRange { attr, value } => {
                write!(f, "value {value} at attribute {attr} is outside 1..=k")
            }
            AdvanceError::EmptyModel => {
                write!(
                    f,
                    "cannot advance a model with no attributes or observations"
                )
            }
        }
    }
}

impl std::error::Error for AdvanceError {}

/// The shape of an observation window — attributes, observations and
/// the value domain `1..=k` — and the rules a slide must obey on it.
/// [`AssociationModel::advance`], [`AssociationModel::advance_batch`]
/// and [`AssociationModel::retire_oldest`] check their input against
/// the window's shape before touching anything; a replay that folds
/// logged slides into a window without running them (`hypermine-serve`'s
/// recovery) checks each record against the shape folded so far, so
/// both reject exactly the same records.
///
/// [`AssociationModel::advance`]: crate::AssociationModel::advance
/// [`AssociationModel::advance_batch`]: crate::AssociationModel::advance_batch
/// [`AssociationModel::retire_oldest`]: crate::AssociationModel::retire_oldest
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowShape {
    /// Values per observation (`n`).
    pub attrs: usize,
    /// Observations in the window (`m`).
    pub obs: usize,
    /// The value-domain size `k`.
    pub k: Value,
}

impl WindowShape {
    /// The shape of `db`'s window.
    pub fn of(db: &Database) -> Self {
        WindowShape {
            attrs: db.num_attrs(),
            obs: db.num_obs(),
            k: db.k(),
        }
    }

    /// Checks `rows` (oldest first) for sliding into the window, which
    /// keeps its shape. An empty batch is a no-op and always passes.
    /// Otherwise the window must hold an attribute and an observation
    /// ([`AdvanceError::EmptyModel`]), and every row one value per
    /// attribute, each in `1..=k`; the first offending row is reported.
    pub fn check_advance<R: AsRef<[Value]>>(&self, rows: &[R]) -> Result<(), AdvanceError> {
        if rows.is_empty() {
            return Ok(());
        }
        if self.attrs == 0 || self.obs == 0 {
            return Err(AdvanceError::EmptyModel);
        }
        for row in rows {
            let row = row.as_ref();
            if row.len() != self.attrs {
                return Err(AdvanceError::ArityMismatch {
                    expected: self.attrs,
                    got: row.len(),
                });
            }
            if let Some((attr, &value)) =
                row.iter().enumerate().find(|&(_, &v)| v == 0 || v > self.k)
            {
                return Err(AdvanceError::ValueOutOfRange { attr, value });
            }
        }
        Ok(())
    }

    /// Checks one retirement of the oldest observation, which shrinks the
    /// window by one: a model cannot cover an empty window, so at least
    /// two observations (and an attribute) must be there
    /// ([`AdvanceError::EmptyModel`]).
    pub fn check_retire(&self) -> Result<(), AdvanceError> {
        if self.attrs == 0 || self.obs <= 1 {
            return Err(AdvanceError::EmptyModel);
        }
        Ok(())
    }
}

/// Default memory budget for the optional triple-count tensor
/// (`n·(n−1)/2 · k³ · n` u16 counters), overridable per model via
/// `ModelConfig::triple_tensor_max_bytes`. 32 MB covers the paper's
/// C1/C2 settings and the 40-ticker bench fixture up to k = 8; larger
/// `k·n` products (n = 128 at k = 3 wants 56 MB, n = 80 at k = 5
/// 63 MB) fall back to the row-recount path. Both cost `O(n³)` per
/// slide; the fallback's rows hold `~m/k²` observations, so it is the
/// slower path at small `k` and long windows (n = 40, k = 3, m = 756)
/// and on par with the tensor at n = 80, k = 5, m = 252.
const TRIPLE_TENSOR_MAX_BYTES: usize = 32 << 20;

/// The stages of one [`AssociationModel::advance`] /
/// [`AssociationModel::advance_batch`] call, in the order they run.
/// Every call times each one ([`AssociationModel::advance_phases`]);
/// the first call's lazy state build is not part of any stage.
///
/// [`AssociationModel::advance`]: crate::AssociationModel::advance
/// [`AssociationModel::advance_batch`]: crate::AssociationModel::advance_batch
/// [`AssociationModel::advance_phases`]: crate::AssociationModel::advance_phases
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvancePhase {
    /// Per-observation window maintenance: the slot-indexed index and
    /// code-matrix mirrors, the value counts and the model's training
    /// database.
    Window,
    /// The pass-1 joint counts and the pass-2 numerators `S₂`: the
    /// triple-tensor cell updates, or the fallback's pair row recounts.
    Pairs,
    /// Baselines, majorities and the raw pass-1 ACV matrix, recomputed
    /// from the maintained counts.
    Pass1,
    /// The γ re-test of dirty candidates: the kept-mask diff and the
    /// in-place weight patches.
    Retest,
    /// The structural flips applied as one `splice_edges` batch (on the
    /// first slide, the full graph assembly).
    Splice,
}

impl Phase for AdvancePhase {
    const ALL: &'static [Self] = &[
        AdvancePhase::Window,
        AdvancePhase::Pairs,
        AdvancePhase::Pass1,
        AdvancePhase::Retest,
        AdvancePhase::Splice,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            AdvancePhase::Window => "window",
            AdvancePhase::Pairs => "pairs",
            AdvancePhase::Pass1 => "pass1",
            AdvancePhase::Retest => "retest",
            AdvancePhase::Splice => "splice",
        }
    }
}

/// Per-stage wall time of one advance call.
pub type AdvanceLaps = PhaseLaps<AdvancePhase, 5>;

/// Size and layout of a model's live incremental counting state — see
/// `AssociationModel::incremental_stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Whether the pass-2 numerators are maintained through the
    /// triple-count tensor (`true`) or the per-slide row-recount fallback
    /// (`false`).
    pub uses_triple_tensor: bool,
    /// Bytes held by the triple-count tensor (0 on the fallback path).
    pub triple_tensor_bytes: usize,
    /// Bytes held by the tensor's cached per-`(pair, row, head)` maxima.
    pub row_max_bytes: usize,
    /// Bytes held by the pass-1 joint-count tensor.
    pub pair_counts_bytes: usize,
    /// Bytes held by the pass-2 numerators `S₂`.
    pub s2_bytes: usize,
    /// The counter-lane width ([`KernelPath`]) the window's database
    /// selects for the blocked flat kernel, which counts every row the
    /// vertical kernel declines: in the initial state build's `S₂` sweep
    /// and in the row-recount fallback's per-slide recounts alike.
    /// Surfaced so a stream outgrowing the u16 lanes degrades *visibly* —
    /// the u32 lanes are bit-identical but slower, and "slower" without a
    /// reported cause is exactly the silent degradation this field exists
    /// to prevent.
    pub kernel_path: KernelPath,
    /// The SIMD tier ([`SimdLevel`]) the model's `simd` policy resolves
    /// to: the initial state build's sweep and the row-recount
    /// fallback's per-slide recounts run the vertical kernel at this
    /// tier on every row it accepts, and the flat kernel on the rest and
    /// throughout under `scalar` (a stream running on the scalar
    /// fallback should say so, not just run slower).
    pub simd: SimdLevel,
}

/// Persistent sliding-window counting state (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct IncrementalState {
    /// Attributes, domain size and window length (fixed).
    n: usize,
    k: usize,
    m: usize,
    /// The ring slot the next appended observation takes: the slot of
    /// the observation it retires.
    next_slot: usize,
    /// Slot-indexed observation bitsets, maintained incrementally.
    idx: ValueIndex,
    /// Slot-indexed row-major code matrix, maintained incrementally,
    /// plus one spare row past the ring's slots (`spare_row`) that holds
    /// the retired observation during a fallback recount.
    obs: ObsMatrix,
    /// The flat kernel's counter-slot stripes of the same rows, spare
    /// included, written wherever `obs` is: the fallback's recounts fold
    /// the rows the vertical kernel declines through them.
    slots: Slots,
    /// `value_counts[a·k + (v−1)]` — baseline/majority numerators.
    value_counts: Vec<u32>,
    /// Pass-1 joint counts `C[p·k² + (v_i−1)·k + (v_j−1)]` for the `p`'th
    /// unordered pair (lexicographic order).
    pair_counts: Vec<u32>,
    /// Pass-2 ACV numerators `S₂[p·n + h]` (0 at the two tail slots);
    /// empty when hyperedges are disabled or `n < 3`.
    s2: Vec<u32>,
    /// Optional triple-count tensor
    /// `count₃[((p·k² + r)·n + h)·k + (v−1)]` — for every pair `p`, pair
    /// row `r = (v_i−1)·k + (v_j−1)`, and head `h`, the histogram of
    /// `h`'s values within that row. When present (small `k·n`, see
    /// [`TRIPLE_TENSOR_MAX_BYTES`]), a slide updates exactly one cell per
    /// `(pair, head)` for each affected row and reads `k` contiguous
    /// cells for the row-max delta — no observation enumeration at all.
    /// Empty = fall back to re-counting the two affected rows per pair
    /// off the bitset index. Both paths produce identical integers.
    /// `u16` cells (counts are bounded by the window capacity, which the
    /// tensor gate caps at `u16::MAX`) halve the memory traffic of the
    /// per-slide update, which is bandwidth-bound.
    triple: Vec<u16>,
    /// Companion to `triple`: the current max over each `(pair, row,
    /// head)` histogram (`row_max[(p·k² + r)·n + h]`). An increment can
    /// only raise the max by becoming it, and a decrement can only lower
    /// it when it hit the unique argmax — so almost every slide update is
    /// a compare against this cache instead of a `k`-cell scan. Entries
    /// for a pair's own tail heads are never read and may go stale.
    row_max: Vec<u16>,
    /// Kept-candidate bitset of the previous slide, word-aligned: one
    /// `⌈n/64⌉`-word block of head bits per pass-1 tail (blocks `0..n`)
    /// and per pass-2 pair (blocks `n..n+npairs`). Empty until the first
    /// slide assembled a graph — an empty/mis-sized mask forces a full
    /// rebuild, which also covers models whose graph was filtered after
    /// building.
    kept: Vec<u64>,
    /// One head-bit block per pair (same word layout as `kept`): `S₂`
    /// changed this slide. A candidate whose γ-test inputs (`S₂`, both
    /// floor entries, baseline, `m`) are all unchanged kept the same
    /// decision *and* the same weight, so the graph refresh skips it
    /// with word-level bulk tests.
    s2_dirty: Vec<u64>,
    /// One head-bit block per tail: the raw pass-1 ACV changed this
    /// slide.
    raw_dirty: Vec<u64>,
    /// One head-bit block: the baseline ACV changed this slide.
    baseline_dirty: Vec<u64>,
    /// Scratch: this slide's kept-candidate bitset.
    kept_scratch: Vec<u64>,
    /// Scratch: bitset intersection of a recounted pair row.
    row_bits: Vec<u64>,
    /// Scratch: the observation slots of a recounted pair row.
    row_ids: Vec<u32>,
    /// Fallback recount counters: per-head best counts summed over a
    /// pair's post-slide rows and over its pre-slide rows.
    post: HeadCounter,
    pre: HeadCounter,
    /// Scratch: the retired observation's values.
    old_row: Vec<Value>,
    /// Per-stage wall time of the last successful advance call.
    laps: AdvanceLaps,
    /// The model's resolved SIMD tier, kept so `stats()` can report it
    /// without re-threading the config (and applied to every batch-grade
    /// recount engine this state builds).
    simd: SimdLevel,
}

impl IncrementalState {
    /// Builds the counting state over `db`, treating it as a full window
    /// (capacity = `db.num_obs()`); one batch-grade counting pass, paid
    /// once per model.
    pub(crate) fn new(db: &Database, cfg: &ModelConfig) -> Self {
        let n = db.num_attrs();
        let m = db.num_obs();
        let k = db.k() as usize;
        debug_assert!(
            n > 0 && m > 0,
            "WindowShape::check_advance rejects empty windows"
        );
        // Initially logical order == slot order, so the batch-built
        // indexes are exactly the slot-indexed ones.
        let idx = ValueIndex::build(db);
        let obs = ObsMatrix::build_with_capacity(db, m + 1);
        let slots = Slots::build(db, m + 1);

        let mut value_counts = vec![0u32; n * k];
        for a in db.attrs() {
            for (v, &c) in db.value_counts(a).iter().enumerate() {
                value_counts[a.index() * k + v] = c as u32;
            }
        }

        // Pass-1 joint counts, pass-2 numerators, and (in budget) the
        // triple-count tensor are all built **per pair**, so the whole
        // state build fans out over pair blocks claimed off the
        // work-stealing harness: each worker counting-sorts its pairs'
        // observations into a thread-local `PairBuckets` once, reads the
        // joint counts straight off the bucket lengths, and fills
        // chunk-local tensors that concatenate (in block order —
        // deterministic at every thread count) into the persistent state.
        // Chunk-local tensor allocation also bounds the build's working
        // set: the full tensor is reserved once and filled by copy, never
        // allocated alongside a second zeroed copy.
        let npairs = n * (n - 1) / 2;
        let k2 = k * k;
        let want_hyper = cfg.with_hyperedges && n >= 3;
        let budget = cfg
            .triple_tensor_max_bytes
            .unwrap_or(TRIPLE_TENSOR_MAX_BYTES);
        let tensor_bytes = npairs
            .saturating_mul(k2)
            .saturating_mul(n)
            .saturating_mul(k)
            .saturating_mul(2);
        let use_tensor = want_hyper && tensor_bytes <= budget && m <= u16::MAX as usize;

        // The batch counting engine only backs the row-recount fallback's
        // numerator build; the tensor path derives everything from the
        // buckets and the code matrix.
        let engine = (want_hyper && !use_tensor).then(|| {
            let mut engine = CountingEngine::new(db);
            engine.set_simd_policy(cfg.simd);
            engine
        });

        struct PairChunk {
            pair_counts: Vec<u32>,
            triple: Vec<u16>,
            row_max: Vec<u16>,
            s2: Vec<u32>,
        }

        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(npairs);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                pairs.push((i, j));
            }
        }
        let threads = cfg.effective_threads();
        let block = steal_block_size(pairs.len(), threads);
        let (engine, obs_ref) = (engine.as_ref(), &obs);
        let chunks: Vec<PairChunk> = parallel_blocks(&pairs, threads, block, || {
            let mut buckets = PairBuckets::new();
            let mut counter = HeadCounter::new(n, db.k());
            move |slice: &[(u32, u32)]| {
                let mut out = PairChunk {
                    pair_counts: vec![0u32; slice.len() * k2],
                    triple: vec![
                        0u16;
                        if use_tensor {
                            slice.len() * k2 * n * k
                        } else {
                            0
                        }
                    ],
                    row_max: vec![0u16; if use_tensor { slice.len() * k2 * n } else { 0 }],
                    s2: vec![0u32; if want_hyper { slice.len() * n } else { 0 }],
                };
                for (p, &(i, j)) in slice.iter().enumerate() {
                    let (a, b) = (AttrId::new(i), AttrId::new(j));
                    let (i, j) = (i as usize, j as usize);
                    buckets.rebuild(db, a, b);
                    for r in 0..k2 {
                        out.pair_counts[p * k2 + r] = buckets.row(r).len() as u32;
                    }
                    if use_tensor {
                        for r in 0..k2 {
                            let row_base = (p * k2 + r) * n * k;
                            for &o in buckets.row(r) {
                                for (h, &v) in obs_ref.row(o as usize).iter().enumerate() {
                                    out.triple[row_base + h * k + (v as usize - 1)] += 1;
                                }
                            }
                            for h in 0..n {
                                let cells = &out.triple[row_base + h * k..row_base + (h + 1) * k];
                                let best = cells.iter().copied().max().unwrap_or(0);
                                out.row_max[(p * k2 + r) * n + h] = best;
                                if h != i && h != j {
                                    out.s2[p * n + h] += best as u32;
                                }
                            }
                        }
                    } else if let Some(engine) = engine {
                        engine.hyper_acv_all_heads(&buckets, &mut counter);
                        for h in 0..n {
                            out.s2[p * n + h] = if h == i || h == j {
                                0
                            } else {
                                counter.total(AttrId::new(h as u32)) as u32
                            };
                        }
                    }
                }
                out
            }
        });
        let mut pair_counts = Vec::with_capacity(npairs * k2);
        let mut triple = Vec::with_capacity(if use_tensor { npairs * k2 * n * k } else { 0 });
        let mut row_max = Vec::with_capacity(if use_tensor { npairs * k2 * n } else { 0 });
        let mut s2 = Vec::with_capacity(if want_hyper { npairs * n } else { 0 });
        for c in chunks {
            pair_counts.extend_from_slice(&c.pair_counts);
            triple.extend_from_slice(&c.triple);
            row_max.extend_from_slice(&c.row_max);
            s2.extend_from_slice(&c.s2);
        }

        IncrementalState {
            n,
            k,
            m,
            next_slot: 0,
            idx,
            obs,
            slots,
            value_counts,
            pair_counts,
            s2,
            triple,
            row_max,
            kept: Vec::new(),
            s2_dirty: Vec::new(),
            raw_dirty: Vec::new(),
            baseline_dirty: Vec::new(),
            kept_scratch: Vec::new(),
            row_bits: Vec::new(),
            row_ids: Vec::new(),
            post: HeadCounter::new(n, db.k()),
            pre: HeadCounter::new(n, db.k()),
            old_row: vec![0; n],
            laps: AdvanceLaps::default(),
            simd: cfg.simd.resolve(),
        }
    }

    /// Per-stage wall time of the last successful advance call.
    pub(crate) fn laps(&self) -> AdvanceLaps {
        self.laps
    }

    /// Size and layout of this state (see
    /// `AssociationModel::incremental_stats`).
    pub(crate) fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            uses_triple_tensor: !self.triple.is_empty(),
            triple_tensor_bytes: self.triple.len() * 2,
            row_max_bytes: self.row_max.len() * 2,
            pair_counts_bytes: self.pair_counts.len() * 4,
            s2_bytes: self.s2.len() * 4,
            kernel_path: KernelPath::select(self.n, self.k, self.m),
            simd: self.simd,
        }
    }

    /// Slides the window by `rows.len()` observations (oldest first) and
    /// updates `model` in place to the exact batch-rebuild state of the
    /// final window. The per-slide count maintenance (indexes,
    /// value counts, pair tensors) runs once per observation, but the
    /// expensive tail — the exact pass-1 recompute, the γ re-test sweep
    /// over the accumulated dirty bits, and the single `splice_edges`
    /// diff — runs **once for the whole batch**, which is what makes a
    /// `d`-day advance markedly cheaper than `d` single slides while
    /// staying bit-identical to them. The caller has checked the rows
    /// ([`WindowShape::check_advance`]) and passes at least one. The
    /// call keeps its per-stage wall time ([`IncrementalState::laps`]).
    pub(crate) fn advance_many(&mut self, model: &mut AssociationModel, rows: &[&[Value]]) {
        debug_assert!(!rows.is_empty());
        let mut timer = PhaseTimer::start();
        let n = self.n;
        // The S₂ dirty bits accumulate across the whole batch; one clear.
        if !self.s2.is_empty() {
            self.s2_dirty.clear();
            self.s2_dirty.resize((n * (n - 1) / 2) * n.div_ceil(64), 0);
        }
        // Slide by slide: the fallback's recounts read the index state
        // each slide leaves, and the tensor path's cell pokes need only
        // the slide's (retired, appended) rows.
        for &new_obs in rows {
            let slot = self.slide_window_state(model, new_obs);
            timer.lap(AdvancePhase::Window);
            self.update_pairs(new_obs, slot);
            timer.lap(AdvancePhase::Pairs);
        }
        let m = self.m;

        // Baselines, majorities, and the raw pass-1 ACV matrix — exact
        // recomputes from the maintained integer counts into the model's
        // own vectors; the dirty bits fall out of comparing against the
        // model's pre-batch values, so candidates whose inputs net out
        // unchanged across the batch stay clean.
        self.recompute_pass1(model, m);
        timer.lap(AdvancePhase::Pass1);

        // γ tests → kept mask diff → graph (weight patches plus one
        // splice for the whole batch's flipped candidates).
        self.refresh_graph(model, m, &mut timer);
        self.laps = timer.finish();
    }

    /// One observation's window maintenance — slides the slot-indexed
    /// index/matrix mirrors, the per-attribute value counts, and the
    /// model's training database — and leaves the retired row in
    /// `self.old_row`. Returns the ring slot the appended observation
    /// took over. Pair-tensor maintenance is separate (`update_pairs`).
    fn slide_window_state(&mut self, model: &mut AssociationModel, new_obs: &[Value]) -> usize {
        // The window keeps its length from the state build on, so every
        // slide retires the oldest observation (the training database's
        // first) from the slot the new one takes.
        let k = self.k;
        for (a, v) in self.old_row.iter_mut().enumerate() {
            *v = model.db.value(AttrId::new(a as u32), 0);
        }
        let slot = self.next_slot;
        self.next_slot = (slot + 1) % self.m;
        self.idx.clear_obs(slot, &self.old_row);
        self.idx.set_obs(slot, new_obs);
        self.obs.set_row(slot, new_obs);
        self.slots.set_row(slot, new_obs);

        // Per-attribute value counts (baseline/majority numerators).
        for (a, &v) in self.old_row.iter().enumerate() {
            self.value_counts[a * k + (v as usize - 1)] -= 1;
        }
        for (a, &v) in new_obs.iter().enumerate() {
            self.value_counts[a * k + (v as usize - 1)] += 1;
        }

        // The training database, slid in place (chronological order).
        model.db.retire_oldest_obs();
        model
            .db
            .append_obs(new_obs)
            .expect("row was validated by the caller");
        slot
    }

    /// The code-matrix row past the ring's slots that holds the retired
    /// observation while the fallback recounts the rows it left.
    fn spare_row(&self) -> usize {
        self.m
    }

    /// Updates `pair_counts` and `s2` for one slide, pair by pair:
    /// through the triple-count tensor when there is one, else by the
    /// row-recount fallback (see module docs). Accumulates into the
    /// batch's `s2_dirty` bits. `slot` is the appended observation's
    /// ring slot; the retired row is in `self.old_row`.
    fn update_pairs(&mut self, new_obs: &[Value], slot: usize) {
        let (n, k) = (self.n, self.k);
        let tensor = !self.triple.is_empty();
        let recount = !tensor && !self.s2.is_empty();
        if recount {
            let spare = self.spare_row();
            self.obs.set_row(spare, &self.old_row);
            self.slots.set_row(spare, &self.old_row);
        }
        let mut p = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let base = p * k * k;
                let r_old = (self.old_row[i] as usize - 1) * k + (self.old_row[j] as usize - 1);
                let r_new = (new_obs[i] as usize - 1) * k + (new_obs[j] as usize - 1);
                self.pair_counts[base + r_old] -= 1;
                self.pair_counts[base + r_new] += 1;
                if tensor {
                    self.fold_tensor(p, i, j, r_old, r_new, new_obs);
                } else if recount {
                    self.recount_pair(p, i, j, new_obs, slot);
                }
                p += 1;
            }
        }
    }

    /// Applies one slide's exact `S₂` change to the pair `p = {i, j}`:
    /// `ΔS₂[p][h] = Σ best(post-slide rows) − Σ best(pre-slide rows)`
    /// over the (one or two) pair rows the slide touched, `best` being
    /// head `h`'s largest value count in a row. Post-slide rows come off
    /// the index. The appended row's pre-slide list is its post-slide
    /// list without `slot`; the retired row's adds the retired
    /// observation back as the spare code row, because the slide
    /// overwrote its slot. When both observations share a row, the spare
    /// row takes `slot`'s place in that one list.
    fn recount_pair(&mut self, p: usize, i: usize, j: usize, new_obs: &[Value], slot: usize) {
        let n = self.n;
        let wpb = n.div_ceil(64);
        let spare = self.spare_row() as u32;
        let (a, b) = (AttrId::new(i as u32), AttrId::new(j as u32));
        let Self {
            idx,
            obs,
            slots,
            row_bits,
            row_ids,
            post,
            pre,
            old_row,
            s2,
            s2_dirty,
            simd,
            ..
        } = self;
        let mut list_row = |va: Value, vb: Value, ids: &mut Vec<u32>| {
            row_bits.resize(idx.words(), 0);
            idx.intersect_into(a, va, b, vb, row_bits);
            ids.clear();
            for_each_bit(row_bits, |o| ids.push(o as u32));
        };
        post.begin_rows([i, j], *simd);
        pre.begin_rows([i, j], *simd);
        list_row(new_obs[i], new_obs[j], row_ids);
        post.add_row(obs, slots, row_ids);
        let at = row_ids
            .binary_search(&(slot as u32))
            .expect("the appended observation is in its own row");
        let same_row = old_row[i] == new_obs[i] && old_row[j] == new_obs[j];
        if same_row {
            row_ids[at] = spare;
        } else {
            row_ids.remove(at);
        }
        pre.add_row(obs, slots, row_ids);
        if !same_row {
            list_row(old_row[i], old_row[j], row_ids);
            post.add_row(obs, slots, row_ids);
            row_ids.push(spare);
            pre.add_row(obs, slots, row_ids);
        }
        let s2_row = &mut s2[p * n..(p + 1) * n];
        let dirty_row = &mut s2_dirty[p * wpb..(p + 1) * wpb];
        let heads = s2_row
            .iter_mut()
            .zip(post.finish_rows())
            .zip(pre.finish_rows())
            .enumerate();
        for (h, ((s, &after), &before)) in heads {
            if after != before {
                *s = (*s as i64 + after as i64 - before as i64) as u32;
                dirty_row[h / 64] |= 1u64 << (h % 64);
            }
        }
    }

    /// Tensor-path slide update for one pair when the window is full:
    /// moves the retired observation's cell (`self.old_row`) out of row
    /// `r_old` and the appended one's into `r_new` (one cell each per
    /// head), folding the exact row-max changes into `S₂`. Tail heads
    /// (`i`, `j`) get their cells updated but no delta (their `row_max`
    /// may go stale; it is never read).
    fn fold_tensor(
        &mut self,
        p: usize,
        i: usize,
        j: usize,
        r_old: usize,
        r_new: usize,
        new_obs: &[Value],
    ) {
        // Monomorphize the per-head loop on the common domain sizes so
        // the k-cell max rescans fully unroll (KC = 0 keeps a runtime-k
        // body for everything else).
        match self.k {
            2 => self.fold_tensor_impl::<2>(p, i, j, r_old, r_new, new_obs),
            3 => self.fold_tensor_impl::<3>(p, i, j, r_old, r_new, new_obs),
            4 => self.fold_tensor_impl::<4>(p, i, j, r_old, r_new, new_obs),
            5 => self.fold_tensor_impl::<5>(p, i, j, r_old, r_new, new_obs),
            6 => self.fold_tensor_impl::<6>(p, i, j, r_old, r_new, new_obs),
            8 => self.fold_tensor_impl::<8>(p, i, j, r_old, r_new, new_obs),
            _ => self.fold_tensor_impl::<0>(p, i, j, r_old, r_new, new_obs),
        }
    }

    /// `fold_tensor` body for compile-time `KC == k` (`KC == 0` means
    /// runtime `k`).
    fn fold_tensor_impl<const KC: usize>(
        &mut self,
        p: usize,
        i: usize,
        j: usize,
        r_old: usize,
        r_new: usize,
        new_obs: &[Value],
    ) {
        let n = self.n;
        let k = if KC > 0 { KC } else { self.k };
        let k2 = k * k;
        let wpb = n.div_ceil(64);
        // Split borrows once: the per-head loop below is the hottest
        // scalar loop of a slide (O(n³) cell pokes per slide across all
        // pairs), so the row regions, max caches, and numerator rows are
        // hoisted to plain slices iterated in per-head chunks instead of
        // re-indexing `self` fields per head.
        let Self {
            s2,
            s2_dirty,
            triple,
            row_max,
            old_row,
            ..
        } = self;
        let s2_row = &mut s2[p * n..(p + 1) * n];
        let dirty_row = &mut s2_dirty[p * wpb..(p + 1) * wpb];
        if r_old == r_new {
            let base = (p * k2 + r_old) * n * k;
            let cells = &mut triple[base..base + n * k];
            let maxes = &mut row_max[(p * k2 + r_old) * n..(p * k2 + r_old) * n + n];
            let heads = cells
                .chunks_exact_mut(k)
                .zip(maxes.iter_mut())
                .zip(old_row.iter().zip(new_obs))
                .enumerate();
            for (h, ((hc, max), (&v_old, &v_new))) in heads {
                let cell_old = v_old as usize - 1;
                let cell_new = v_new as usize - 1;
                if cell_old == cell_new {
                    continue;
                }
                hc[cell_old] -= 1;
                hc[cell_new] += 1;
                if h == i || h == j {
                    continue;
                }
                // Both pokes hit one row: re-derive its max with a
                // branch-free k-cell scan (the tensor only exists at
                // small k, where the unrolled scan is cheaper than the
                // mispredicted was-it-the-argmax branches it replaces).
                let mut new_max = 0u16;
                for &c in hc.iter() {
                    new_max = new_max.max(c);
                }
                let delta = new_max as i64 - *max as i64;
                *max = new_max;
                s2_row[h] = (s2_row[h] as i64 + delta) as u32;
                dirty_row[h / 64] |= u64::from(delta != 0) << (h % 64);
            }
        } else {
            // Distinct rows: split the tensor and max cache so both
            // regions borrow mutably at once.
            let (lo_r, hi_r) = (r_old.min(r_new), r_old.max(r_new));
            let lo_base = (p * k2 + lo_r) * n * k;
            let hi_base = (p * k2 + hi_r) * n * k;
            let (head_t, tail_t) = triple.split_at_mut(hi_base);
            let lo_cells = &mut head_t[lo_base..lo_base + n * k];
            let hi_cells = &mut tail_t[..n * k];
            let (head_m, tail_m) = row_max.split_at_mut((p * k2 + hi_r) * n);
            let lo_maxes = &mut head_m[(p * k2 + lo_r) * n..(p * k2 + lo_r) * n + n];
            let hi_maxes = &mut tail_m[..n];
            let (old_cells, old_maxes, new_cells, new_maxes) = if r_old == lo_r {
                (lo_cells, lo_maxes, hi_cells, hi_maxes)
            } else {
                (hi_cells, hi_maxes, lo_cells, lo_maxes)
            };
            let heads = old_cells
                .chunks_exact_mut(k)
                .zip(new_cells.chunks_exact_mut(k))
                .zip(old_maxes.iter_mut().zip(new_maxes.iter_mut()))
                .zip(old_row.iter().zip(new_obs))
                .enumerate();
            for (h, (((old_hc, new_hc), (old_max, new_max)), (&v_old, &v_new))) in heads {
                let cell_old = v_old as usize - 1;
                let cell_new = v_new as usize - 1;
                old_hc[cell_old] -= 1;
                new_hc[cell_new] += 1;
                if h == i || h == j {
                    continue;
                }
                // Decremented row: branch-free k-cell max rescan (see the
                // same-row arm). Incremented row: the max can only grow
                // by becoming the bumped cell — no scan needed.
                let mut old_new_max = 0u16;
                for &c in old_hc.iter() {
                    old_new_max = old_new_max.max(c);
                }
                let delta_old = old_new_max as i64 - *old_max as i64;
                *old_max = old_new_max;
                let c = new_hc[cell_new];
                let delta_new = i64::from(c > *new_max);
                *new_max = (*new_max).max(c);
                let delta = delta_old + delta_new;
                s2_row[h] = (s2_row[h] as i64 + delta) as u32;
                dirty_row[h / 64] |= u64::from(delta != 0) << (h % 64);
            }
        }
    }

    /// Recomputes baselines, majority values, and the raw pass-1 ACV
    /// matrix into `model` from the maintained integer counts — the same
    /// integers the batch counting paths produce, so the divisions yield
    /// bit-identical `f64`s.
    fn recompute_pass1(&mut self, model: &mut AssociationModel, m: usize) {
        let (n, k) = (self.n, self.k);
        let wpb = n.div_ceil(64);
        self.baseline_dirty.clear();
        self.baseline_dirty.resize(wpb, 0);
        self.raw_dirty.clear();
        self.raw_dirty.resize(n * wpb, 0);
        for h in 0..n {
            // Ties toward the smaller value, like `Database::majority_value`.
            let mut best_v = 0usize;
            let mut best_c = 0u32;
            for v in 0..k {
                let c = self.value_counts[h * k + v];
                if c > best_c {
                    best_c = c;
                    best_v = v;
                }
            }
            let acv = acv_of(u64::from(best_c), m);
            if acv.to_bits() != model.baseline[h].to_bits() {
                self.baseline_dirty[h / 64] |= 1u64 << (h % 64);
            }
            model.baseline[h] = acv;
            model.majority[h] = Some((best_v + 1) as Value);
        }
        // Both orientations of each pair in one scan over its k×k block:
        // S(i→j) sums row maxes, S(j→i) sums column maxes.
        let raw = &mut model.raw_edge_acv;
        for d in 0..n {
            raw[d * n + d] = 0.0;
        }
        let mut col_max = [0u32; 256];
        let mut p = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let base = p * k * k;
                let mut s_ij = 0u64;
                col_max[..k].fill(0);
                for vi in 0..k {
                    let row = &self.pair_counts[base + vi * k..base + (vi + 1) * k];
                    let mut row_max = 0u32;
                    for (vj, &c) in row.iter().enumerate() {
                        row_max = row_max.max(c);
                        col_max[vj] = col_max[vj].max(c);
                    }
                    s_ij += row_max as u64;
                }
                let s_ji: u64 = col_max[..k].iter().map(|&c| c as u64).sum();
                let acv_ij = acv_of(s_ij, m);
                let acv_ji = acv_of(s_ji, m);
                if acv_ij.to_bits() != raw[i * n + j].to_bits() {
                    self.raw_dirty[i * wpb + j / 64] |= 1u64 << (j % 64);
                }
                if acv_ji.to_bits() != raw[j * n + i].to_bits() {
                    self.raw_dirty[j * wpb + i / 64] |= 1u64 << (i % 64);
                }
                raw[i * n + j] = acv_ij;
                raw[j * n + i] = acv_ji;
                p += 1;
            }
        }
    }

    /// Re-runs the γ tests from the maintained numerators and applies
    /// the *difference* to the graph.
    ///
    /// The kept mask is laid out word-aligned — one `⌈n/64⌉`-word block
    /// of head bits per pass-1 tail (blocks `0..n`) and per pass-2 pair
    /// (blocks `n..n+npairs`) — and the dirty masks share the layout, so
    /// one `u64` read decides 64 candidates at once: a clean word copies
    /// its old kept bits and advances both id cursors by a popcount;
    /// only dirty bits are re-tested. Edge ids are positions in kept
    /// order, so the scan tracks the old and new id cursors in parallel:
    /// a dirty candidate kept on both sides gets a weight write on its
    /// **pre-splice** id (only when its own numerator moved — a dirty
    /// *floor* can flip the decision but never the weight), and the few
    /// structural flips become one
    /// [`DirectedHypergraph::splice_edges`] batch, which renumbers the
    /// surviving edges by copying the record runs between splice points
    /// instead of reinserting them.
    ///
    /// [`DirectedHypergraph::splice_edges`]:
    /// hypermine_hypergraph::DirectedHypergraph::splice_edges
    fn refresh_graph(
        &mut self,
        model: &mut AssociationModel,
        m: usize,
        timer: &mut PhaseTimer<AdvancePhase, 5>,
    ) {
        let n = self.n;
        let hyper = !self.s2.is_empty();
        let npairs = n * (n - 1) / 2;
        let wpb = n.div_ceil(64);
        let words = (n + if hyper { npairs } else { 0 }) * wpb;
        if self.kept.len() != words {
            // First slide, or a model whose graph was filtered/replaced:
            // no trusted previous mask — rebuild from edge 0.
            self.rebuild_graph_full(model, m, words);
            timer.lap(AdvancePhase::Splice);
            return;
        }
        self.kept_scratch.clear();
        self.kept_scratch.resize(words, 0);

        let gamma_edge = model.cfg.gamma_edge;
        let gamma_hyper = model.cfg.gamma_hyper;
        let raw = &model.raw_edge_acv;
        let baseline = &model.baseline;
        let graph = &mut model.graph;
        let mut eid_old = 0usize;
        let mut eid_new = 0usize;
        let mut removes: Vec<EdgeId> = Vec::new();
        let mut inserts: Vec<EdgeInsert> = Vec::new();
        // Walks one kept word: bulk-advances over clean bits, evaluates
        // dirty ones. `$eval` yields (weight_dirty, kept, acv) for head
        // `h`; `$tail`/`$head` are only built in the insert arm.
        macro_rules! walk_word {
            ($kw:expr, $dirt:expr, $w:expr, $eval:expr, $tail:expr, $head:expr) => {{
                let oldw = self.kept[$kw];
                let mut dirt: u64 = $dirt;
                if dirt == 0 {
                    self.kept_scratch[$kw] = oldw;
                    let c = oldw.count_ones() as usize;
                    eid_old += c;
                    eid_new += c;
                } else {
                    let mut neww = oldw & !dirt;
                    let mut prev = 0u32;
                    while dirt != 0 {
                        let b = dirt.trailing_zeros();
                        dirt &= dirt - 1;
                        let gap = bits_below(b) & !bits_below(prev);
                        let c = (oldw & gap).count_ones() as usize;
                        eid_old += c;
                        eid_new += c;
                        let h = $w * 64 + b as usize;
                        let was = (oldw >> b) & 1 == 1;
                        #[allow(clippy::redundant_closure_call)]
                        let (weight_dirty, kept, acv) = $eval(h);
                        if kept {
                            neww |= 1u64 << b;
                        }
                        match (was, kept) {
                            (true, true) => {
                                if weight_dirty {
                                    graph
                                        .set_weight(EdgeId::new(eid_old as u32), acv)
                                        .expect("ACVs are finite");
                                }
                                eid_old += 1;
                                eid_new += 1;
                            }
                            (true, false) => {
                                removes.push(EdgeId::new(eid_old as u32));
                                eid_old += 1;
                            }
                            (false, true) => {
                                inserts.push(EdgeInsert {
                                    new_id: EdgeId::new(eid_new as u32),
                                    tail: $tail(h),
                                    head: $head(h),
                                    weight: acv,
                                });
                                eid_new += 1;
                            }
                            (false, false) => {}
                        }
                        prev = b + 1;
                    }
                    let gap = !bits_below(prev);
                    let c = (oldw & gap).count_ones() as usize;
                    eid_old += c;
                    eid_new += c;
                    self.kept_scratch[$kw] = neww;
                }
            }};
        }
        for t in 0..n {
            for w in 0..wpb {
                let valid = head_word_mask(n, w, [t, usize::MAX]);
                let dirt = (self.raw_dirty[t * wpb + w] | self.baseline_dirty[w]) & valid;
                walk_word!(
                    t * wpb + w,
                    dirt,
                    w,
                    |h: usize| {
                        (
                            (self.raw_dirty[t * wpb + h / 64] >> (h % 64)) & 1 == 1,
                            builder::edge_kept(raw, baseline, gamma_edge, n, t, h),
                            raw[t * n + h],
                        )
                    },
                    |_| vec![crate::model::node_of(AttrId::new(t as u32))],
                    |h: usize| vec![crate::model::node_of(AttrId::new(h as u32))]
                );
            }
        }
        if hyper {
            let mut p = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    for w in 0..wpb {
                        let valid = head_word_mask(n, w, [i, j]);
                        let dirt = (self.s2_dirty[p * wpb + w]
                            | self.raw_dirty[i * wpb + w]
                            | self.raw_dirty[j * wpb + w])
                            & valid;
                        walk_word!(
                            (n + p) * wpb + w,
                            dirt,
                            w,
                            |h: usize| {
                                let acv = acv_of(u64::from(self.s2[p * n + h]), m);
                                (
                                    (self.s2_dirty[p * wpb + h / 64] >> (h % 64)) & 1 == 1,
                                    builder::hyper_kept(raw, gamma_hyper, n, i, j, h, acv),
                                    acv,
                                )
                            },
                            |_| vec![
                                crate::model::node_of(AttrId::new(i as u32)),
                                crate::model::node_of(AttrId::new(j as u32)),
                            ],
                            |h: usize| vec![crate::model::node_of(AttrId::new(h as u32))]
                        );
                    }
                    p += 1;
                }
            }
        }
        std::mem::swap(&mut self.kept, &mut self.kept_scratch);
        timer.lap(AdvancePhase::Retest);
        if !removes.is_empty() || !inserts.is_empty() {
            graph.splice_edges(&removes, &inserts);
        }
        debug_assert_eq!(eid_new, graph.num_edges());
        timer.lap(AdvancePhase::Splice);
    }

    /// Rebuilds the graph from scratch in kept order (first slide, or a
    /// model whose graph was filtered/replaced after building) through
    /// the batch builder's `assemble_into`, so the first slide inserts
    /// edges exactly as a build does, then records the kept mask: one
    /// bit per assembled edge.
    fn rebuild_graph_full(&mut self, model: &mut AssociationModel, m: usize, words: usize) {
        let n = self.n;
        let attr = |i: usize| AttrId::new(i as u32);
        let (raw, s2, gamma_hyper) = (&model.raw_edge_acv, &self.s2, model.cfg.gamma_hyper);
        // Pass-2 candidates in (pair, head) order, the builder's order.
        let hyper_pairs = if s2.is_empty() { 0 } else { n * (n - 1) / 2 };
        let hyperedges = (0..n)
            .flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
            .take(hyper_pairs)
            .enumerate()
            .flat_map(move |(p, (i, j))| {
                (0..n)
                    .filter(move |&h| h != i && h != j)
                    .filter_map(move |h| {
                        let acv = acv_of(u64::from(s2[p * n + h]), m);
                        builder::hyper_kept(raw, gamma_hyper, n, i, j, h, acv)
                            .then(|| (attr(i), attr(j), attr(h), acv))
                    })
            });
        model.graph.reset_edges();
        builder::assemble_into(
            &mut model.graph,
            raw,
            &model.baseline,
            model.cfg.gamma_edge,
            hyperedges,
        );
        let wpb = n.div_ceil(64);
        self.kept.clear();
        self.kept.resize(words, 0);
        for (_, e) in model.graph.edges() {
            // Pass-1 tails own blocks `0..n`, then pair `(i, j)` (i < j)
            // owns block `n + p` at its lexicographic rank `p`.
            let block = match *e.tail() {
                [t] => t.index(),
                [a, b] => {
                    let (i, j) = (a.index(), b.index());
                    n + i * (2 * n - i - 1) / 2 + (j - i - 1)
                }
                _ => unreachable!("association edges have 1- or 2-node tails"),
            };
            let h = e.head()[0].index();
            self.kept[block * wpb + h / 64] |= 1u64 << (h % 64);
        }
    }
}

/// `(1 << b) - 1` tolerating `b == 64`.
#[inline]
fn bits_below(b: u32) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// The valid head bits of word `w` in an `n`-head block: heads `< n`,
/// minus the (up to two) excluded tail positions.
#[inline]
fn head_word_mask(n: usize, w: usize, excl: [usize; 2]) -> u64 {
    let lo = w * 64;
    let mut mask = if n >= lo + 64 {
        u64::MAX
    } else if n <= lo {
        0
    } else {
        (1u64 << (n - lo)) - 1
    };
    for e in excl {
        if e >= lo && e < lo + 64 {
            mask &= !(1u64 << (e - lo));
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_data::Database;

    /// Deterministic pseudo-random stream of observation rows.
    fn rows(n: usize, k: u8, count: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % k as u64 + 1) as Value
                    })
                    .collect()
            })
            .collect()
    }

    fn db_from(rows: &[Vec<Value>], k: u8) -> Database {
        let n = rows[0].len();
        let cols: Vec<Vec<Value>> = (0..n)
            .map(|a| rows.iter().map(|r| r[a]).collect())
            .collect();
        Database::from_columns((0..n).map(|i| format!("A{i}")).collect(), k, cols).unwrap()
    }

    fn assert_models_identical(adv: &AssociationModel, batch: &AssociationModel, what: &str) {
        assert_eq!(
            adv.hypergraph().num_edges(),
            batch.hypergraph().num_edges(),
            "{what}: edge count"
        );
        for (id, e) in batch.hypergraph().edges() {
            let o = adv.hypergraph().edge(id);
            assert_eq!(e.tail(), o.tail(), "{what}: tail of {id:?}");
            assert_eq!(e.head(), o.head(), "{what}: head of {id:?}");
            assert_eq!(
                e.weight().to_bits(),
                o.weight().to_bits(),
                "{what}: ACV of {id:?}"
            );
        }
        for t in adv.attrs() {
            assert_eq!(
                adv.baseline_acv(t).to_bits(),
                batch.baseline_acv(t).to_bits(),
                "{what}: baseline of {t:?}"
            );
            assert_eq!(adv.majority_value(t), batch.majority_value(t), "{what}");
            for h in adv.attrs() {
                assert_eq!(
                    adv.raw_edge_acv(t, h).to_bits(),
                    batch.raw_edge_acv(t, h).to_bits(),
                    "{what}: raw ({t:?}, {h:?})"
                );
            }
        }
        assert_eq!(adv.database(), batch.database(), "{what}: window database");
    }

    #[test]
    fn advance_matches_batch_rebuild_on_the_slid_window() {
        let k = 3u8;
        let stream = rows(5, k, 40, 0xfeed);
        let window = 12;
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig::default();
        let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
        for step in 0..stream.len() - window {
            model.advance(&stream[window + step]).unwrap();
            let batch = AssociationModel::build(&full.slice_obs(step + 1..step + 1 + window), &cfg)
                .unwrap();
            assert_models_identical(&model, &batch, &format!("step {step}"));
            assert_eq!(model.epoch(), (step + 1) as u64);
        }
    }

    #[test]
    fn advance_grows_a_window_seeded_below_capacity() {
        // A model advanced from a 1-observation database treats m = 1 as
        // the capacity, so every advance slides. Check a couple of slides
        // against batch builds of the 1-observation windows.
        let k = 2u8;
        let stream = rows(3, k, 6, 7);
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig::default();
        let mut model = AssociationModel::build(&full.slice_obs(0..1), &cfg).unwrap();
        for step in 0..3 {
            model.advance(&stream[1 + step]).unwrap();
            let batch = AssociationModel::build(&full.slice_obs(step + 1..step + 2), &cfg).unwrap();
            assert_models_identical(&model, &batch, &format!("tiny step {step}"));
        }
    }

    #[test]
    fn advance_without_hyperedges() {
        let k = 3u8;
        let stream = rows(4, k, 24, 99);
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig {
            with_hyperedges: false,
            ..Default::default()
        };
        let mut model = AssociationModel::build(&full.slice_obs(0..10), &cfg).unwrap();
        for step in 0..8 {
            model.advance(&stream[10 + step]).unwrap();
            let batch =
                AssociationModel::build(&full.slice_obs(step + 1..step + 11), &cfg).unwrap();
            assert_models_identical(&model, &batch, &format!("no-hyper step {step}"));
            assert_eq!(model.stats().num_hyperedges, 0);
        }
    }

    #[test]
    fn advance_validates_input_and_leaves_the_model_unchanged() {
        let k = 3u8;
        let stream = rows(4, k, 12, 5);
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig::default();
        let mut model = AssociationModel::build(&full.slice_obs(0..10), &cfg).unwrap();
        let before = model.clone();
        assert_eq!(
            model.advance(&[1, 2]),
            Err(AdvanceError::ArityMismatch {
                expected: 4,
                got: 2
            })
        );
        assert_eq!(
            model.advance(&[1, 2, 4, 1]),
            Err(AdvanceError::ValueOutOfRange { attr: 2, value: 4 })
        );
        assert_eq!(
            model.advance(&[1, 2, 0, 1]),
            Err(AdvanceError::ValueOutOfRange { attr: 2, value: 0 })
        );
        assert_eq!(model.epoch(), 0);
        assert_models_identical(&model, &before, "after rejected advances");
        // A valid advance still works afterwards.
        model.advance(&stream[10]).unwrap();
        assert_eq!(model.epoch(), 1);
    }

    #[test]
    fn advance_on_an_empty_model_errors() {
        let d =
            Database::from_columns(vec!["x".into(), "y".into()], 2, vec![vec![], vec![]]).unwrap();
        let cfg = crate::config::ModelConfig::default();
        let mut model = AssociationModel::build(&d, &cfg).unwrap();
        assert_eq!(model.advance(&[1, 1]), Err(AdvanceError::EmptyModel));
        assert_eq!(model.epoch(), 0);
    }

    #[test]
    fn advance_after_filter_re_mines_the_full_model() {
        let k = 3u8;
        let stream = rows(5, k, 30, 0xabc);
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig::default();
        let model = AssociationModel::build(&full.slice_obs(0..20), &cfg).unwrap();
        let thr = model.acv_percentile_threshold(0.5);
        let mut filtered = match thr {
            Some(t) => model.filter_by_acv(t),
            None => model.clone(),
        };
        filtered.advance(&stream[20]).unwrap();
        // The advanced model is the *unfiltered* γ-model of the new window.
        let batch = AssociationModel::build(&full.slice_obs(1..21), &cfg).unwrap();
        assert_models_identical(&filtered, &batch, "advance after filter");
    }

    #[test]
    fn constant_and_extreme_columns_stay_identical_under_slides() {
        // Constant columns (baseline 1, no kept in-edges) plus a
        // two-valued column exercise the kept-mask transitions.
        let k = 4u8;
        let n = 4;
        let mut stream = rows(n, k, 30, 0x77);
        for row in stream.iter_mut() {
            row[1] = 2; // constant column
        }
        let full = db_from(&stream, k);
        let cfg = crate::config::ModelConfig::default();
        let mut model = AssociationModel::build(&full.slice_obs(0..10), &cfg).unwrap();
        for step in 0..stream.len() - 10 {
            model.advance(&stream[10 + step]).unwrap();
            let batch =
                AssociationModel::build(&full.slice_obs(step + 1..step + 11), &cfg).unwrap();
            assert_models_identical(&model, &batch, &format!("constant col step {step}"));
        }
    }
}
