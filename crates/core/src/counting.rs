//! The counting engine behind association-hypergraph construction.
//!
//! All ACVs reduce to counts of observations matching value combinations.
//! [`CountingEngine`] indexes one database both ways — a [`ValueIndex`]
//! (per `(attribute, value)` observation bitsets) and an [`ObsMatrix`]
//! (row-major `m × n` code matrix) — and counts tail rows two ways:
//!
//! - **Observation-major** (multi-head), the one construction path:
//!   [`edge_acv_all_heads`] / [`hyper_acv_all_heads`] iterate each tail
//!   row's observations *once* and bump `counts[head][value(head, obs)]`
//!   for **all** heads simultaneously into a reusable [`HeadCounter`].
//!   Pass 1 reads a tail's value rows off the [`ValueIndex`]; the pair
//!   sweep reads row memberships straight off [`PairBuckets`] (obs ids
//!   grouped by `(v_a, v_b)` in one counting-sort pass), never
//!   intersecting bitsets. Dense rows take the **blocked
//!   flat kernel**: per head tile of at most `TILE_BYTES` (16 KB) of
//!   counter lanes (L1-sized — the "head blocking" lever for wide
//!   attribute sets), the observations' precomputed [`SlotMatrix`] slot
//!   stripes are streamed four observations in lockstep and
//!   `counts[slot]` bumped directly — no per-head multiply, no byte
//!   widening, ≈1 increment per cycle sustained; the per-row fold is a
//!   branch-free `k`-monomorphized max reduction over padded,
//!   lane-aligned chunks plus one bulk memset. Rows of 1–4 observations
//!   skip the counters entirely (exact `O(n)` comparison folds). Per pair:
//!   `O(m + m·(n−2) + Σ_rows fold)` — no `k³/64` per-head factor and no
//!   `k²·m/64` pair-setup term — and the constant in front of
//!   `m·(n−2)` is ~0.7 of the pre-blocked per-head walk's (measured at
//!   n ∈ {40, 120, 240}).
//! - **Per-head** (bitset), one edge at a time: a directed edge
//!   `({a}, {h})` needs `k·(k−1)` intersection popcounts; a 2-to-1
//!   hyperedge `({a,b}, {h})` reuses `k²` cached tail-row bitsets (built
//!   once per unordered pair via [`CountingEngine::pair_rows`]) and
//!   performs `k²·(k−1)` intersection popcounts per head —
//!   `O(rows · (k−1) · m/64)` words per head, cubic in `k`. It backs the
//!   `*_table` methods and rule ranking, and [`CountingEngine::edge_acv`]
//!   / [`CountingEngine::hyper_acv`] are the independent reference the
//!   construction tests hold the sweeps to.
//!
//! Both produce bit-identical ACVs (they accumulate the same integer
//! counts and perform the same final division). Builds never choose
//! between them: with the SIMD vertical kernel below, the sweep is the
//! faster construction path at every `k` (n = 40, m = 504, one AVX2
//! thread: a third to a half of the per-head path's time at the paper's
//! C1 setting `k = 3`, a fifth to a tenth at `k = 5`, under a twentieth
//! at `k = 8`; the per-head side grows as `k³`). The one loss is a
//! forced-scalar build at `k = 3`, 1.2–1.5× slower than the per-head
//! path on the same window, which no gated workload runs.
//!
//! **Lane width** ([`KernelPath`]): the flat kernel is generic over its
//! counter-lane width and runs the same loops at either. It counts in
//! u16 lanes where `n · stride ≤ 65536` and `m ≤ 65535` (every slot and
//! every row count fit 16 bits, and half-width lanes halve the bump's
//! store traffic and the fold's scan), and in u32 lanes beyond either
//! bound, which admits any window the u32 obs ids allow. Both widths
//! produce bit-identical counts. The width depends only on the database
//! and is surfaced via [`CountingEngine::kernel_path`], so outgrowing
//! the u16 lanes is visible rather than silently slower. Past
//! `n · stride > 2^32` (at least 16.7 M attributes) the slot build
//! panics: no build over that many attribute pairs could finish.
//!
//! **SIMD tier.** On top of the flat kernel rides a runtime-detected
//! vector tier (`crate::simd`): when the host has AVX2 (x86-64) or NEON
//! (aarch64) and a dense row satisfies the **vertical kernel**'s bounds
//! — `|row| ≤ 255` observations, `k ∈ 2..=8`, `n ≥` one vector block
//! (32 heads AVX2 / 16 NEON) — the flat kernel's whole
//! bump-fold-memset cycle is replaced by per-head-block byte-compare
//! counting straight off the [`ObsMatrix`] rows: one 32-byte row load
//! per observation, `k` compare/subtract accumulations into u8 lanes
//! (the 255-row bound is what keeps them exact), a `k−1`-deep vector
//! max, and a single widening add into the u64 totals. Measured on the
//! 240-attribute wide fixture (single thread, AVX2): 2.2–3.3× over
//! the scalar flat kernel at `k ∈ {5, 8}`. The vertical kernel is the
//! tier's one kernel: rows it declines (c > 255, k outside 2..=8, n
//! below a block) take the portable blocked bump and its
//! `k`-monomorphized max fold at every level. Detection is cached per
//! process, overridable per model via
//! `ModelConfig::simd` (`SimdPolicy::ForceScalar`) and globally via
//! `HYPERMINE_FORCE_SCALAR` for CI's portable-fallback leg; hosts with
//! neither instruction set run the scalar kernels verbatim. Every
//! lane width × policy combination is bit-identical — property-tested in
//! `tests/strategies.rs` and unit-tested against scalar references in
//! `crate::simd` — and the engaged level is surfaced via
//! [`CountingEngine::simd_level`] next to the kernel path.
//!
//! The `*_acv*` methods are allocation-free
//! (the construction sweep touches tens of millions of `(pair, head)`
//! combinations); the `*_table` methods materialize full
//! [`AssociationTable`]s and are used on demand — by the classifier for
//! its relevant edges and by reporting code. [`PairRows`] lives on for
//! exactly those per-head table paths and for rule ranking
//! (`crate::mining`), which counts single rows' best heads over the same
//! cached bitsets without materializing tables. A naive recount path
//! cross-validates both fast paths in tests.
//!
//! **Work-stealing block sizing.** The parallel pass-2 sweeps (batch
//! construction and the incremental state build) cut their pair lists
//! into `threads × BLOCKS_PER_THREAD` blocks claimed off an atomic
//! cursor (`crate::parallel`). Re-measured under the flat u16 kernels
//! (the PR 3 sizing predated them): full C2 builds at `threads = 4`,
//! `m = 400`, `k = 5`, median of 5, release, on a single-core host (the
//! 4 workers time-slice, which is also the oversubscribed worst case) —
//! blocks/thread 4 / 8 / 16 gave 12.6 / 8.6–10.3 / 7.6–8.0 ms at
//! `n = 40` and 1539 / 1613–1659 / 1390–1524 ms at `n = 240` across two
//! sweeps. 16 won at both sizes (~10–15% over 8): pair blocks have
//! strongly uneven cost under the adaptive folds, and finer blocks
//! rebalance better while cursor traffic stays negligible at this
//! granularity. Default: `BLOCKS_PER_THREAD = 16`, shared by both call
//! sites via `steal_block_size`; the harness
//! (`parallel::tests::block_sizing_measurement`, `--ignored`) reruns
//! the sweep on any future hardware. Re-swept after the SIMD vertical
//! kernel landed ({8, 16, 32} on the same single-core host): 312.6 /
//! 309.6 / 325.2 ms at `n = 240`, `n = 40` within noise — the vector
//! tier cuts per-block cost roughly in half but leaves the balance
//! point at 16.
//!
//! These are the **batch** counting paths: one pass over a fixed window,
//! the fastest way to build a model from scratch and the reference the
//! incremental path must match bit for bit. When the window *slides*
//! (`AssociationModel::advance`), `crate::incremental` instead maintains
//! the count tensors across slides and touches only what one
//! retired/appended observation can change — `O(n²)`–`O(n³)` per slide
//! versus the batch passes' `O(n²·m)`-and-up, a 3.6–7.6× per-slide win
//! on the bench fixture at k ∈ {3, 5, 8} (≥ 13× before the SIMD
//! vertical kernel halved the batch side). Its triple-tensor path
//! slides without dense sweeps, and builds its per-row head histograms
//! once with the **row-histogram kernel** ([`row_histograms`]): the
//! vertical kernel's byte-compare scheme in plain Rust, keeping every
//! value's count in u8 lanes spilled into the tensor's u16 cells every
//! 255 observations. Its row-recount fallback, past the tensor budget,
//! builds its numerators with the batch pair sweep ([`pair_sweep`])
//! over the window mirrors it keeps, and counts the one or two pair rows
//! a slide touches through the same dense-row fold
//! (`HeadCounter::add_row`): the vertical kernel, else the blocked flat
//! kernel over slot stripes the window keeps row by row
//! (`Slots::set_row`), at the lane width [`KernelPath::select`] picks
//! for the window. Batch wins for one-shot builds and for bulk window
//! jumps; incremental wins as soon as the same model is slid more than a
//! couple of observations at a time.
//!
//! [`edge_acv_all_heads`]: CountingEngine::edge_acv_all_heads
//! [`hyper_acv_all_heads`]: CountingEngine::hyper_acv_all_heads
//! [`PairBuckets`]: hypermine_data::PairBuckets

use crate::simd::{self, SimdLevel};
use crate::table::{AssociationTable, RowCounts};
use hypermine_data::{
    counter_stride, AttrId, Database, ObsMatrix, PairBuckets, SlotLane, SlotMatrix, Value,
    ValueIndex,
};
use std::ops::AddAssign;

/// The ACV with exact numerator `count` over a window of `m`
/// observations. Every ACV a model stores — edge weights, the raw pair
/// matrix, baselines — is a count of observations (for an edge, the sum
/// over its tail rows of each row's largest head-value count) divided
/// here, batch and incremental paths alike.
#[inline]
pub(crate) fn acv_of(count: u64, m: usize) -> f64 {
    count as f64 / m as f64
}

/// The exact numerator ("level", in `0..=m`) of an ACV [`acv_of`]
/// produced over `m` observations: `round(acv · m)`, computed as
/// `acv · m + 0.5` truncated, since the product lies within rounding
/// error of the count. Levels order edges exactly as their ACVs do, so
/// integer keys can rank them. Debug builds assert that the level divides
/// back to the ACV's bits.
#[inline]
pub(crate) fn acv_level(acv: f64, m: usize) -> u32 {
    let level = (acv * m as f64 + 0.5) as u32;
    debug_assert_eq!(
        acv_of(u64::from(level), m).to_bits(),
        acv.to_bits(),
        "ACV {acv} is not a count over {m} observations"
    );
    level
}

/// The counter-lane width a [`CountingEngine`]'s blocked flat kernel
/// counts dense rows in: u16 where every slot and every row count fit
/// 16 bits (`n·stride ≤ 65536` and `m ≤ 65535`), u32 beyond. Both
/// produce bit-identical counts; they differ only in speed and counter
/// footprint.
///
/// Surfaced by [`CountingEngine::kernel_path`] (and from there by
/// `incremental_stats()` / `perf_summary` / the `report` bin) so a
/// database outgrowing the u16 lanes is visible instead of just slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Blocked flat bumps over u16 [`SlotMatrix`] stripes into u16
    /// counter lanes.
    FlatU16,
    /// Blocked flat bumps over u32 [`SlotMatrix`] stripes into u32
    /// counter lanes.
    FlatU32,
}

impl KernelPath {
    /// Stable lower-case name for JSON output and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelPath::FlatU16 => "flat_u16",
            KernelPath::FlatU32 => "flat_u32",
        }
    }

    /// The lane width a [`CountingEngine`] over a `num_attrs × num_obs`
    /// database with codes in `1..=k` counts in — the same decision
    /// [`CountingEngine::kernel_path`] makes, as a pure function of the
    /// dimensions, so stats paths can report it without holding (or
    /// building) an engine.
    pub fn select(num_attrs: usize, k: usize, num_obs: usize) -> KernelPath {
        if num_obs <= u16::MAX as usize && SlotMatrix::<u16>::fits(num_attrs, k) {
            KernelPath::FlatU16
        } else {
            KernelPath::FlatU32
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cached tail-row bitsets for an unordered attribute pair `{a, b}`:
/// `k²` bitsets (one per `(v_a, v_b)` assignment) plus their popcounts.
#[derive(Debug, Clone)]
pub struct PairRows {
    a: AttrId,
    b: AttrId,
    k: usize,
    words: usize,
    bits: Vec<u64>,
    counts: Vec<usize>,
}

impl PairRows {
    /// The bitset for the row `(v_a, v_b)` (1-based values).
    pub(crate) fn row_bits(&self, va: Value, vb: Value) -> &[u64] {
        let idx = (va as usize - 1) * self.k + (vb as usize - 1);
        &self.bits[idx * self.words..(idx + 1) * self.words]
    }

    /// The popcount for the row `(v_a, v_b)`.
    pub(crate) fn row_count(&self, va: Value, vb: Value) -> usize {
        self.counts[(va as usize - 1) * self.k + (vb as usize - 1)]
    }

    /// The pair this cache was built for.
    pub fn pair(&self) -> (AttrId, AttrId) {
        (self.a, self.b)
    }
}

/// Bytes of counter lanes per head tile of the blocked flat bump pass: a
/// tile bounds the slice of the counter array one dense row sweep
/// touches to 16 KB (8192 u16 or 4096 u32 lanes), keeping the histogram
/// L1-resident even as `n·stride` grows (128 KB of u16 counters at
/// `n·stride = 65536`). At the bench fixtures (`n·stride ≤ 1920` lanes
/// for n = 240, k = 8) a single tile covers every head and the blocking
/// adds no work at all; the tile loop only splits past 16 KB.
const TILE_BYTES: usize = 16 << 10;

/// A counter-lane width of the blocked flat kernel: the [`SlotLane`] its
/// slot stripes are stored in, which is also the width of the counters
/// those slots address.
trait FlatLane: SlotLane + Default + Ord + AddAssign + From<u8> + Into<u64> {
    /// This width's counter lanes in `flat`.
    fn lanes(flat: &mut FlatLanes) -> &mut Vec<Self>;
}

impl FlatLane for u16 {
    fn lanes(flat: &mut FlatLanes) -> &mut Vec<u16> {
        &mut flat.u16
    }
}

impl FlatLane for u32 {
    fn lanes(flat: &mut FlatLanes) -> &mut Vec<u32> {
        &mut flat.u32
    }
}

/// The flat kernel's counter lanes at each width, laid out at the padded
/// [`counter_stride`] and addressed by [`SlotMatrix`] stripes. A width's
/// lanes are allocated on the first dense row counted at that width, so
/// a counter holds only the width its engine uses. The padding lanes
/// are never bumped and stay zero; the fold re-zeroes the rest between
/// rows.
#[derive(Debug, Clone, Default)]
struct FlatLanes {
    u16: Vec<u16>,
    u32: Vec<u32>,
}

/// Counter-slot stripes feeding the blocked flat kernel, at the lane
/// width [`KernelPath::select`] picks for a database: a
/// [`CountingEngine`]'s, and the sliding window's, which the incremental
/// state keeps row by row beside its code matrix.
#[derive(Debug, Clone)]
pub(crate) enum Slots {
    U16(SlotMatrix<u16>),
    U32(SlotMatrix<u32>),
}

impl Slots {
    /// `db`'s slot stripes in `num_obs ≥ db.num_obs()` rows (the rows
    /// past the database wait for [`Slots::set_row`]), at the lane width
    /// [`KernelPath::select`] picks for `db`.
    pub(crate) fn build(db: &Database, num_obs: usize) -> Slots {
        match KernelPath::select(db.num_attrs(), db.k() as usize, db.num_obs()) {
            KernelPath::FlatU16 => Slots::U16(SlotMatrix::build_with_capacity(db, num_obs)),
            KernelPath::FlatU32 => Slots::U32(SlotMatrix::build_with_capacity(db, num_obs)),
        }
    }

    /// Overwrites observation `o`'s slot row from its values.
    pub(crate) fn set_row(&mut self, o: usize, row: &[Value]) {
        match self {
            Slots::U16(slots) => slots.set_row(o, row),
            Slots::U32(slots) => slots.set_row(o, row),
        }
    }
}

/// Reusable scratch for the observation-major multi-head sweep: per-head
/// per-value counters within the current tail row, plus per-head
/// accumulated best counts across rows.
///
/// Allocate once per worker thread (`O(n·k)` words) and pass to
/// [`CountingEngine::edge_acv_all_heads`] /
/// [`CountingEngine::hyper_acv_all_heads`]; after a sweep, [`HeadCounter::acv`]
/// reads any head's ACV.
///
/// The per-row best-count fold is adaptive on the row's observation count
/// `c`:
///
/// - `c == 1`: every head's best count is 1 — the row is tallied in `O(1)`
///   and folded into the totals once per sweep, with no counting at all;
/// - `c ∈ {2, 3, 4}` (pair pass; `c == 2` in pass 1): the observation
///   rows are compared directly — the best multiplicity of 2–4 values
///   falls out of their pairwise equalities — `O(n)` with no counter
///   traffic at all;
/// - dense rows, and every row a sliding window's recount adds: the SIMD
///   vertical kernel where it accepts the row, else **flat blocked
///   bumps** off the database's precomputed [`SlotMatrix`]: per head tile
///   of at most `TILE_BYTES` (16 KB) of counter lanes, the row's
///   observations' contiguous slot stripes are streamed and
///   `counts[slot]` incremented directly — no per-head multiply, no byte
///   widening, no segment branches — with four observations in lockstep
///   to overlap the read-modify-write chains, then a `k`-monomorphized
///   unrolled max-and-zero scan over each head's padded lanes.
#[derive(Debug, Clone)]
pub struct HeadCounter {
    k: usize,
    num_obs: usize,
    /// Counter lanes of the blocked flat kernel, at the width of the
    /// engine's [`SlotMatrix`]: halving the lane width where a database
    /// admits u16 halves both the bump pass's L1 store traffic and the
    /// fold's read+memset traffic, and lets the unrolled max reduction
    /// run twice as many lanes per vector. Zeroed between rows by
    /// [`HeadCounter::fold_row_flat`].
    flat: FlatLanes,
    /// [`counter_stride`]`(k)` — the per-head lane stride of `flat` and
    /// of the slot values addressing it.
    stride: usize,
    /// Obs ids of the dense value row being swept (scratch of the flat
    /// blocked pass-1 bump, which needs the row's ids materialized to
    /// stream four slot stripes in lockstep).
    ids: Vec<u32>,
    /// Rows with exactly one observation seen this sweep; folded into
    /// every non-tail total by `finish` (each contributes best count 1).
    single_rows: u64,
    /// Per head: `Σ_rows max_v counts[head][v]` — the ACV numerator.
    totals: Vec<u64>,
    /// The attribute indices of the swept tail (`usize::MAX` padding);
    /// their totals are pinned to zero by `finish`.
    tail: [usize; 2],
    /// The vector tier the dense-row fold engages (see
    /// [`crate::simd`]); defaults to the detected level and is
    /// re-stamped from the engine's resolved policy at the start of
    /// every sweep, so a counter built by any worker follows the
    /// engine's [`crate::SimdPolicy`].
    simd: SimdLevel,
}

impl HeadCounter {
    /// A counter for databases of `num_attrs` attributes over values
    /// `1..=k`.
    pub fn new(num_attrs: usize, k: Value) -> Self {
        HeadCounter {
            k: k as usize,
            num_obs: 0,
            flat: FlatLanes::default(),
            stride: counter_stride(k as usize),
            ids: Vec::new(),
            single_rows: 0,
            totals: vec![0u64; num_attrs],
            tail: [usize::MAX; 2],
            simd: simd::detect(),
        }
    }

    /// Resets the accumulated totals for a new sweep over `num_obs`
    /// observations with the given tail attribute indices (the row scratch
    /// is kept zeroed by the folds themselves).
    fn begin(&mut self, num_obs: usize, tail: [usize; 2]) {
        self.num_obs = num_obs;
        self.tail = tail;
        self.single_rows = 0;
        self.totals.fill(0);
    }

    /// Tallies a row with exactly one observation: every head's best count
    /// is 1, deferred to `finish` as a single per-sweep addition.
    #[inline]
    fn fold_single(&mut self) {
        self.single_rows += 1;
    }

    /// Folds a row with exactly two observations by comparing their value
    /// rows directly: a head's best count is 2 where they agree, else 1.
    fn fold_two(&mut self, row_a: &[Value], row_b: &[Value]) {
        let [t0, t1] = self.tail;
        for (h, (&va, &vb)) in row_a.iter().zip(row_b).enumerate() {
            if h != t0 && h != t1 {
                self.totals[h] += 1 + u64::from(va == vb);
            }
        }
    }

    /// Folds a row with exactly three observations by comparing their
    /// value rows directly: a head's best count is 3 when all agree, 2
    /// when any pair agrees, else 1. `O(n)` with no counter traffic —
    /// branch-free accumulation, tail totals pinned by `finish` like the
    /// dense folds.
    fn fold_three(&mut self, row_a: &[Value], row_b: &[Value], row_c: &[Value]) {
        for (((&va, &vb), &vc), t) in row_a
            .iter()
            .zip(row_b)
            .zip(row_c)
            .zip(self.totals.iter_mut())
        {
            let ab = va == vb;
            let pair = ab | (va == vc) | (vb == vc);
            *t += 1 + u64::from(pair) + u64::from(ab & (va == vc));
        }
    }

    /// Folds a row with exactly four observations by comparing their
    /// value rows directly. The number of equal pairs among four values
    /// determines the best multiplicity uniquely: 0 pairs → 1, 1–2 pairs
    /// (one pair / two disjoint pairs) → 2, 3 pairs (a triple) → 3,
    /// 6 pairs (all equal) → 4; 4 and 5 equal pairs are impossible.
    /// `O(n)` with no counter traffic, tail totals pinned by `finish`.
    fn fold_four(&mut self, rows: [&[Value]; 4]) {
        const BEST: [u64; 7] = [1, 2, 2, 3, 0, 0, 4];
        let [ra, rb, rc, rd] = rows;
        for ((((&va, &vb), &vc), &vd), t) in ra
            .iter()
            .zip(rb)
            .zip(rc)
            .zip(rd)
            .zip(self.totals.iter_mut())
        {
            let pairs = u8::from(va == vb)
                + u8::from(va == vc)
                + u8::from(va == vd)
                + u8::from(vb == vc)
                + u8::from(vb == vd)
                + u8::from(vc == vd);
            *t += BEST[pairs as usize];
        }
    }

    /// Folds a dense row — the observations `ids` of `obs` — into the
    /// totals: the fused vertical kernel ([`simd::dense_row_vertical`])
    /// where the resolved vector tier has one and the row is inside its
    /// bounds (`c ≤ 255`, `k ∈ 2..=8`, at least one vector block of
    /// heads), else the blocked flat kernel at the lane width of `slots`.
    /// The vertical kernel counts a register-resident block of heads per
    /// pass straight off the byte code matrix and folds the per-head best
    /// counts into the totals — no counter histogram, no fold scan, no
    /// memset. Either way tail columns are accumulated like any other
    /// head and pinned back to zero by `finish`.
    fn fold_dense_row(&mut self, obs: &ObsMatrix, slots: &Slots, ids: &[u32]) {
        let (codes, n) = (obs.codes(), obs.num_attrs());
        if simd::dense_row_vertical(self.simd, codes, n, ids, self.k, &mut self.totals) {
            return;
        }
        match slots {
            Slots::U16(slots) => self.fold_row_flat(slots, ids),
            Slots::U32(slots) => self.fold_row_flat(slots, ids),
        }
    }

    /// The blocked flat kernel at lane width `L`: bumps the row's slot
    /// stripes into the counter lanes ([`bump_row_flat`]), folds each
    /// head's padded [`counter_stride`] chunk — always a multiple of
    /// four lanes, so the monomorphized max reductions vectorize evenly
    /// at every `k` (the padding lanes hold zero and never win the max)
    /// — into its total, and re-zeroes the lanes with one memset. The
    /// max pass is portable at every vector tier: the vertical kernel
    /// takes the dense rows a vector tier can count.
    fn fold_row_flat<L: FlatLane>(&mut self, slots: &SlotMatrix<L>, ids: &[u32]) {
        let stride = self.stride;
        let counts = L::lanes(&mut self.flat);
        if counts.is_empty() {
            counts.resize(self.totals.len() * stride, L::default());
        }
        let tile_heads = (TILE_BYTES / std::mem::size_of::<L>() / stride).max(1);
        bump_row_flat(counts, slots, ids, tile_heads);
        match stride {
            4 => fold_flat_k::<L, 4>(counts, &mut self.totals),
            8 => fold_flat_k::<L, 8>(counts, &mut self.totals),
            12 => fold_flat_k::<L, 12>(counts, &mut self.totals),
            16 => fold_flat_k::<L, 16>(counts, &mut self.totals),
            _ => fold_flat_any(counts, stride, &mut self.totals),
        }
        counts.fill(L::default());
    }

    /// Ends a sweep: folds the deferred single-observation rows into every
    /// non-tail total and pins the tail totals back to zero (the branch-free
    /// dense folds accumulate them like any other head; they are never
    /// read, but the zero keeps the "tail totals are 0" invariant the
    /// debug asserts and release reads rely on).
    fn finish(&mut self) {
        let [t0, t1] = self.tail;
        if self.single_rows > 0 {
            for (h, t) in self.totals.iter_mut().enumerate() {
                if h != t0 && h != t1 {
                    *t += self.single_rows;
                }
            }
        }
        if t0 != usize::MAX {
            self.totals[t0] = 0;
        }
        if t1 != usize::MAX {
            self.totals[t1] = 0;
        }
    }

    /// Starts a recount of explicitly listed rows of the pair `tail`
    /// at vector tier `simd`: clears the totals, which
    /// [`HeadCounter::add_row`] then accumulates row by row. The
    /// incremental row-recount fallback (`crate::incremental`) counts
    /// the few pair rows a slide touches this way instead of sweeping a
    /// whole pair.
    pub(crate) fn begin_rows(&mut self, tail: [usize; 2], simd: SimdLevel) {
        self.simd = simd;
        self.begin(0, tail);
    }

    /// Adds every head's best value count over one row — the
    /// observations `ids` of `obs`, in any order, whose slot stripes are
    /// the same rows of `slots` — to the totals, through the batch
    /// sweeps' dense-row fold: the vertical kernel when it accepts the
    /// row, else the blocked flat kernel. Both count exact integers.
    pub(crate) fn add_row(&mut self, obs: &ObsMatrix, slots: &Slots, ids: &[u32]) {
        if !ids.is_empty() {
            self.fold_dense_row(obs, slots, ids);
        }
    }

    /// Ends a [`HeadCounter::begin_rows`] recount: the per-head totals,
    /// the tail heads' pinned to 0.
    pub(crate) fn finish_rows(&mut self) -> &[u64] {
        self.finish();
        &self.totals
    }

    /// The accumulated ACV numerator of head `h` from the last sweep.
    ///
    /// `h` must lie outside the swept tail: tail heads are never
    /// accumulated (debug builds assert; release builds read the
    /// constant 0 their totals are pinned to).
    pub fn total(&self, h: AttrId) -> u64 {
        debug_assert!(
            !self.tail.contains(&h.index()),
            "HeadCounter::total read for swept tail head {h:?}"
        );
        self.totals[h.index()]
    }

    /// The ACV of head `h` from the last sweep; zero on an empty database.
    ///
    /// `h` must lie outside the swept tail: tail heads are never
    /// accumulated (debug builds assert; release builds read the
    /// constant 0 their totals are pinned to).
    pub fn acv(&self, h: AttrId) -> f64 {
        debug_assert!(
            !self.tail.contains(&h.index()),
            "HeadCounter::acv read for swept tail head {h:?}"
        );
        if self.num_obs == 0 {
            return 0.0;
        }
        acv_of(self.totals[h.index()], self.num_obs)
    }
}

/// Dense-row bump pass over precomputed slot stripes, blocked by head
/// tile: for each tile of `tile_heads` heads, the row's observations'
/// contiguous slot lanes are streamed and `counts[slot]` incremented
/// directly. The slot index `h·stride + (v−1)` is independent of the
/// swept tail, so the stripes come straight off the shared
/// [`SlotMatrix`] — no per-head multiply, no byte widening. Four
/// observations go through each tile in lockstep, which overlaps the
/// four independent read-modify-write chains the one-row loop would
/// serialize.
///
/// Tail columns are bumped like any other (their counts are zeroed by
/// the fold and their totals never accumulated), keeping the stripes
/// branch-free and contiguous.
fn bump_row_flat<L: FlatLane>(
    counts: &mut [L],
    slots: &SlotMatrix<L>,
    ids: &[u32],
    tile_heads: usize,
) {
    let one = L::from(1);
    let n = slots.num_attrs();
    let mut h0 = 0usize;
    while h0 < n {
        let h1 = (h0 + tile_heads).min(n);
        let mut quads = ids.chunks_exact(4);
        for q in &mut quads {
            let s0 = slots.stripe(q[0] as usize, h0, h1);
            let s1 = slots.stripe(q[1] as usize, h0, h1);
            let s2 = slots.stripe(q[2] as usize, h0, h1);
            let s3 = slots.stripe(q[3] as usize, h0, h1);
            // Four heads per step off one 4-lane read per stripe: 4
            // loads feed 16 increments, keeping the loop store-bound
            // instead of load-bound.
            let mut w0 = s0.chunks_exact(4);
            let mut w1 = s1.chunks_exact(4);
            let mut w2 = s2.chunks_exact(4);
            let mut w3 = s3.chunks_exact(4);
            for (((a, b), c), d) in (&mut w0).zip(&mut w1).zip(&mut w2).zip(&mut w3) {
                for i in 0..4 {
                    counts[a[i].index()] += one;
                    counts[b[i].index()] += one;
                    counts[c[i].index()] += one;
                    counts[d[i].index()] += one;
                }
            }
            for (((&a, &b), &c), &d) in w0
                .remainder()
                .iter()
                .zip(w1.remainder())
                .zip(w2.remainder())
                .zip(w3.remainder())
            {
                counts[a.index()] += one;
                counts[b.index()] += one;
                counts[c.index()] += one;
                counts[d.index()] += one;
            }
        }
        for &o in quads.remainder() {
            for &s in slots.stripe(o as usize, h0, h1) {
                counts[s.index()] += one;
            }
        }
        h0 = h1;
    }
}

/// The flat kernel's scalar max pass at a compile-time stride `K`: adds
/// each head's largest counter lane to its total.
fn fold_flat_k<L: FlatLane, const K: usize>(counts: &[L], totals: &mut [u64]) {
    for (chunk, t) in counts.chunks_exact(K).zip(totals.iter_mut()) {
        let chunk: &[L; K] = chunk.try_into().expect("chunk length is K");
        let mut best = L::default();
        for &c in chunk {
            best = best.max(c);
        }
        *t += best.into();
    }
}

/// The flat kernel's scalar max pass for arbitrary runtime strides.
fn fold_flat_any<L: FlatLane>(counts: &[L], stride: usize, totals: &mut [u64]) {
    for (chunk, t) in counts.chunks_exact(stride).zip(totals.iter_mut()) {
        let mut best = L::default();
        for &c in chunk {
            if c > best {
                best = c;
            }
        }
        *t += best.into();
    }
}

/// The pass-2 pair sweep behind [`CountingEngine::hyper_acv_all_heads`]:
/// every head's `Σ_rows max_v count` over the `k²` rows of `buckets`,
/// left in `out`, counted off the window's code matrix `obs` and slot
/// stripes `slots` (each with at least the bucketed observations' rows)
/// at vector tier `simd`, with the adaptive per-row fold of
/// [`HeadCounter`]. The incremental row-recount fallback's state build
/// runs it over the window mirrors it keeps anyway, so the window is
/// indexed once.
pub(crate) fn pair_sweep(
    obs: &ObsMatrix,
    slots: &Slots,
    simd: SimdLevel,
    buckets: &PairBuckets,
    out: &mut HeadCounter,
) {
    let (a, b) = buckets.pair();
    out.simd = simd;
    out.begin(buckets.num_obs(), [a.index(), b.index()]);
    for r in 0..buckets.num_rows() {
        let ids = buckets.row(r);
        match *ids {
            [] => continue,
            [_] => out.fold_single(),
            [o1, o2] => out.fold_two(obs.row(o1 as usize), obs.row(o2 as usize)),
            [o1, o2, o3] => out.fold_three(
                obs.row(o1 as usize),
                obs.row(o2 as usize),
                obs.row(o3 as usize),
            ),
            [o1, o2, o3, o4] => out.fold_four([
                obs.row(o1 as usize),
                obs.row(o2 as usize),
                obs.row(o3 as usize),
                obs.row(o4 as usize),
            ]),
            _ => out.fold_dense_row(obs, slots, ids),
        }
    }
    out.finish();
}

/// Per-head value histograms of one dense row, the triple-count
/// tensor's cells: for the observations `ids` of the row-major code
/// matrix `codes` (row width `n`, values `1..=k`), writes into
/// `cells[h·k + (v−1)]` how many hold value `v` at head `h`, and into
/// `maxes[h]` the largest of head `h`'s `k` counts, for every head.
///
/// The vertical kernel's scheme ([`simd::dense_row_vertical`]) in plain
/// Rust, which the compiler vectorizes at the target's baseline: per
/// block of heads and per observation, one load of the block's codes
/// and `k` compare-accumulates into u8 lanes, one lane per head. Unlike
/// the vertical kernel it keeps every value's count, so it spills the u8
/// lanes into `cells` every 255 observations (a u8 lane cannot count a
/// 256th) and after the last one, and takes the maxima as a vector max
/// over the lanes when the row fits one spill. Blocks are 32 heads wide
/// up to `k = 4` and 16 above, so the `k` accumulators stay within eight
/// 16-byte registers (over the pair rows of a 40 × 756 window, one
/// thread: 16 lanes 1.2–1.3× faster than 32 at `k ∈ {5, 8}`, 32 lanes
/// about 3× faster than 16 at `k = 3`). A universe
/// wider than one block but not a multiple of it ends with a block
/// ending exactly at the last head, whose lanes already counted are not
/// spilled; a narrower one counts one zero-padded block (no code is 0,
/// so the padding never matches). Any `k` is accepted; `k ∈ 2..=8` run
/// monomorphized.
pub(crate) fn row_histograms(
    codes: &[Value],
    n: usize,
    ids: &[u32],
    k: usize,
    cells: &mut [u16],
    maxes: &mut [u16],
) {
    assert_eq!(cells.len(), n * k, "one u16 cell per (head, value)");
    assert_eq!(maxes.len(), n, "one maximum per head");
    if ids.is_empty() {
        cells.fill(0);
        maxes.fill(0);
        return;
    }
    let row = (codes, n, ids);
    match k {
        2 => row_histograms_w::<32>(row, cells, maxes, &mut [[0; 32]; 2]),
        3 => row_histograms_w::<32>(row, cells, maxes, &mut [[0; 32]; 3]),
        4 => row_histograms_w::<32>(row, cells, maxes, &mut [[0; 32]; 4]),
        5 => row_histograms_w::<16>(row, cells, maxes, &mut [[0; 16]; 5]),
        6 => row_histograms_w::<16>(row, cells, maxes, &mut [[0; 16]; 6]),
        7 => row_histograms_w::<16>(row, cells, maxes, &mut [[0; 16]; 7]),
        8 => row_histograms_w::<16>(row, cells, maxes, &mut [[0; 16]; 8]),
        _ => row_histograms_w::<16>(row, cells, maxes, &mut vec![[0; 16]; k]),
    }
}

/// [`row_histograms`] in blocks of `W` heads over the zeroed per-value
/// u8 lanes `acc` (one array per value, `acc.len() == k`).
#[inline(always)]
fn row_histograms_w<const W: usize>(
    (codes, n, ids): (&[Value], usize, &[u32]),
    cells: &mut [u16],
    maxes: &mut [u16],
    acc: &mut [[u8; W]],
) {
    if n < W {
        let load = |o: usize| {
            let mut block = [0; W];
            block[..n].copy_from_slice(&codes[o * n..(o + 1) * n]);
            block
        };
        histogram_block(ids, load, 0, 0..n, cells, maxes, acc);
        return;
    }
    let mut h0 = 0;
    while h0 < n {
        // The last block of a width that is not a multiple of W ends at
        // the last head; its first lanes were counted already.
        let base = h0.min(n - W);
        let load = |o: usize| -> [Value; W] {
            let start = o * n + base;
            codes[start..start + W]
                .try_into()
                .expect("a block is W codes")
        };
        histogram_block(ids, load, base, h0 - base..W, cells, maxes, acc);
        h0 = base + W;
    }
}

/// Counts one block of heads `base..base + W` of a row: `load(o)`
/// yields observation `o`'s codes at those heads. Lanes `keep` are
/// spilled into `cells` every 255 observations and at the end (the first
/// spill stores, later ones add), and their maxima written to `maxes`;
/// `acc` is left zeroed.
#[inline(always)]
fn histogram_block<const W: usize>(
    ids: &[u32],
    load: impl Fn(usize) -> [Value; W],
    base: usize,
    keep: std::ops::Range<usize>,
    cells: &mut [u16],
    maxes: &mut [u16],
    acc: &mut [[u8; W]],
) {
    let k = acc.len();
    let one_spill = ids.len() <= u8::MAX as usize;
    for (spill, run) in ids.chunks(u8::MAX as usize).enumerate() {
        for &o in run {
            let codes = load(o as usize);
            for (v, lanes) in acc.iter_mut().enumerate() {
                let value = (v + 1) as Value;
                for (lane, &code) in lanes.iter_mut().zip(&codes) {
                    *lane += u8::from(code == value);
                }
            }
        }
        for lane in keep.clone() {
            let head = &mut cells[(base + lane) * k..(base + lane + 1) * k];
            let counts = head.iter_mut().zip(acc.iter());
            if spill == 0 {
                counts.for_each(|(cell, lanes)| *cell = u16::from(lanes[lane]));
            } else {
                counts.for_each(|(cell, lanes)| *cell += u16::from(lanes[lane]));
            }
        }
        if one_spill {
            let mut best = [0u8; W];
            for lanes in acc.iter() {
                for (best, &count) in best.iter_mut().zip(lanes) {
                    *best = (*best).max(count);
                }
            }
            for lane in keep.clone() {
                maxes[base + lane] = u16::from(best[lane]);
            }
        }
        for lanes in acc.iter_mut() {
            *lanes = [0; W];
        }
    }
    if !one_spill {
        for lane in keep {
            let head = &cells[(base + lane) * k..(base + lane + 1) * k];
            maxes[base + lane] = head.iter().copied().max().unwrap_or(0);
        }
    }
}

/// Calls `f` with the index of every set bit of `bits`, ascending.
#[inline]
pub(crate) fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w_idx, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w_idx * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The indices of the first two set bits of `bits` (which must have at
/// least two).
#[inline]
fn first_two_bits(bits: &[u64]) -> (usize, usize) {
    let mut first = None;
    for (w_idx, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let o = w_idx * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            match first {
                None => first = Some(o),
                Some(f) => return (f, o),
            }
        }
    }
    unreachable!("caller guarantees at least two set bits");
}

/// Support/ACV counting over one database.
#[derive(Debug)]
pub struct CountingEngine<'a> {
    db: &'a Database,
    idx: ValueIndex,
    /// Row-major transpose backing the observation-major sweeps, built on
    /// first use: per-head table paths (classifier, mining, reporting)
    /// never touch it, and it costs `n·m` bytes. `OnceLock` keeps the
    /// engine shareable across the builder's scoped worker threads.
    obs: std::sync::OnceLock<ObsMatrix>,
    /// Precomputed counter-slot stripes feeding the blocked flat kernel,
    /// at the lane width [`KernelPath::select`] picks; built on first
    /// use.
    slots: std::sync::OnceLock<Slots>,
    /// The vector tier the dense-row fold engages
    /// ([`CountingEngine::set_simd_policy`]); defaults to the runtime-
    /// detected level.
    simd: SimdLevel,
}

impl<'a> CountingEngine<'a> {
    /// Builds the engine (one pass to build the column-major bitset index;
    /// the row-major code matrix is built lazily on the first
    /// observation-major sweep).
    pub fn new(db: &'a Database) -> Self {
        CountingEngine {
            db,
            idx: ValueIndex::build(db),
            obs: std::sync::OnceLock::new(),
            slots: std::sync::OnceLock::new(),
            simd: simd::detect(),
        }
    }

    /// Resolves `policy` against the host CPU and pins the dense-row
    /// fold's vector tier. Counts are bit-identical under every
    /// policy.
    pub fn set_simd_policy(&mut self, policy: crate::SimdPolicy) {
        self.simd = policy.resolve();
    }

    /// The vector tier this engine's dense-row fold engages (scalar when
    /// forced, or when the host has no supported vector extension).
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// The counter-lane width this engine's flat kernel counts its
    /// database's dense rows in ([`KernelPath::select`]).
    pub fn kernel_path(&self) -> KernelPath {
        KernelPath::select(self.db.num_attrs(), self.db.k() as usize, self.db.num_obs())
    }

    /// The row-major code matrix, built on first use.
    fn obs(&self) -> &ObsMatrix {
        self.obs.get_or_init(|| ObsMatrix::build(self.db))
    }

    /// The counter-slot stripes feeding the blocked flat kernel, at the
    /// engine's lane width, built on first use.
    fn slots(&self) -> &Slots {
        self.slots
            .get_or_init(|| Slots::build(self.db, self.db.num_obs()))
    }

    /// The underlying database.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// `ACV(∅, {h})`: the fraction of observations carrying `h`'s most
    /// frequent value (see the proof of Theorem 3.8 — `Maj(d)/d`). Zero on
    /// an empty database.
    pub fn baseline_acv(&self, h: AttrId) -> f64 {
        match self.db.majority_value(h) {
            Some((_, count)) => acv_of(count as u64, self.db.num_obs()),
            None => 0.0,
        }
    }

    /// Counts head values within a tail bitset, returning
    /// `(best_head, best_count)`; ties break toward the smaller value.
    /// The last head value's count is derived (counts partition the tail).
    pub(crate) fn best_head(&self, tail_bits: &[u64], tail_count: usize, h: AttrId) -> (u8, u32) {
        if tail_count == 0 {
            return (0, 0);
        }
        let k = self.db.k();
        let mut best_v = 1u8;
        let mut best_c = 0usize;
        let mut seen = 0usize;
        for vh in 1..=k {
            if seen == tail_count {
                // The counted values already partition the tail: every
                // remaining value counts zero and cannot beat best_c ≥ 1
                // (ties break low, so an earlier winner stands). Common on
                // the many sparse rows of large-k pair tables.
                break;
            }
            let c = if vh < k {
                let c = self.idx.count_with(tail_bits, h, vh);
                seen += c;
                c
            } else {
                tail_count - seen
            };
            if c > best_c {
                best_c = c;
                best_v = vh;
            }
        }
        (best_v, best_c as u32)
    }

    /// The single-attribute tail row `a = va`: its observation bitset and
    /// popcount, the `|T| = 1` counterpart of a [`PairRows`] row.
    pub(crate) fn value_row(&self, a: AttrId, va: Value) -> (&[u64], usize) {
        (self.idx.bitset(a, va), self.idx.count1(a, va))
    }

    /// Checks that `out` matches this engine's database dimensions.
    fn check_counter(&self, out: &HeadCounter) {
        assert_eq!(
            out.totals.len(),
            self.db.num_attrs(),
            "HeadCounter sized for a different attribute count"
        );
        assert_eq!(
            out.k,
            self.db.k() as usize,
            "HeadCounter sized for a different k"
        );
    }

    /// Observation-major sweep for pass 1: the ACVs of the directed edges
    /// `({a}, {h})` for **every** head `h ≠ a` in one pass, left in `out`.
    ///
    /// Iterates each of `a`'s `k` value rows' set observations once and
    /// counts all heads simultaneously off the row-major code matrix —
    /// `O(k·m/64 + m·(n−1) + fold)` per tail versus the bitset path's
    /// `O((n−1)·k·(k−1)·m/64)`, with the adaptive per-row fold of
    /// [`HeadCounter`]. Produces bit-identical ACVs.
    pub fn edge_acv_all_heads(&self, a: AttrId, out: &mut HeadCounter) {
        self.check_counter(out);
        let obs = self.obs();
        let slots = self.slots();
        out.simd = self.simd;
        out.begin(self.db.num_obs(), [a.index(), usize::MAX]);
        for va in 1..=self.db.k() {
            let count = self.idx.count1(a, va);
            let bits = self.idx.bitset(a, va);
            match count {
                0 => continue,
                1 => out.fold_single(),
                2 => {
                    let (o1, o2) = first_two_bits(bits);
                    out.fold_two(obs.row(o1), obs.row(o2));
                }
                _ => {
                    let mut ids = std::mem::take(&mut out.ids);
                    ids.clear();
                    for_each_bit(bits, |o| ids.push(o as u32));
                    out.fold_dense_row(obs, slots, &ids);
                    out.ids = ids;
                }
            }
        }
        out.finish();
    }

    /// Buckets the observations of the pair `{a, b}` by `(v_a, v_b)` row
    /// into a reusable scratch — the input of
    /// [`CountingEngine::hyper_acv_all_heads`]. One counting-sort pass
    /// over the two value columns; no bitset intersections, no per-pair
    /// allocation once the scratch is warm.
    pub fn bucket_pair(&self, a: AttrId, b: AttrId, buckets: &mut PairBuckets) {
        buckets.rebuild(self.db, a, b);
    }

    /// Observation-major sweep for pass 2: the ACVs of the 2-to-1
    /// hyperedges `({a,b}, {h})` for **every** head `h ∉ {a,b}` in one
    /// pass, left in `out`.
    ///
    /// Sweeps the pair's `k²` observation buckets (no `PairRows`, no
    /// bitset intersections) and counts all heads simultaneously with the
    /// adaptive per-row fold of [`HeadCounter`] —
    /// `O(m·(n−2) + fold)` per pair versus the bitset path's
    /// `O(k²·m/64 + (n−2)·k²·(k−1)·m/64)`. Produces ACVs bit-identical to
    /// [`CountingEngine::hyper_acv`].
    pub fn hyper_acv_all_heads(&self, buckets: &PairBuckets, out: &mut HeadCounter) {
        self.check_counter(out);
        let (a, b) = buckets.pair();
        assert_ne!(a, b, "pair attributes must differ");
        assert_eq!(
            buckets.k(),
            self.db.k() as usize,
            "PairBuckets built for a different k"
        );
        assert_eq!(
            buckets.num_obs(),
            self.db.num_obs(),
            "PairBuckets built for a different database"
        );
        pair_sweep(self.obs(), self.slots(), self.simd, buckets, out);
    }

    /// ACV of the directed edge `({a}, {h})` without materializing its
    /// table.
    pub fn edge_acv(&self, a: AttrId, h: AttrId) -> f64 {
        assert_ne!(a, h, "tail and head must differ");
        let m = self.db.num_obs();
        if m == 0 {
            return 0.0;
        }
        let mut total = 0u64;
        for va in 1..=self.db.k() {
            let (bits, count) = self.value_row(a, va);
            total += self.best_head(bits, count, h).1 as u64;
        }
        acv_of(total, m)
    }

    /// Builds the association table of the directed edge `({a}, {h})`.
    pub fn edge_table(&self, a: AttrId, h: AttrId) -> AssociationTable {
        assert_ne!(a, h, "tail and head must differ");
        let k = self.db.k();
        let mut rows = Vec::with_capacity(k as usize);
        for va in 1..=k {
            let (bits, count) = self.value_row(a, va);
            let (best_head, best_count) = self.best_head(bits, count, h);
            rows.push(RowCounts {
                tail_count: count as u32,
                best_count,
                best_head,
            });
        }
        AssociationTable::from_counts(vec![a], h, k, self.db.num_obs() as u32, rows)
    }

    /// Precomputes the `k²` tail-row bitsets of the pair `{a, b}`
    /// (`a ≠ b`); reused across all heads.
    pub fn pair_rows(&self, a: AttrId, b: AttrId) -> PairRows {
        assert_ne!(a, b, "pair attributes must differ");
        let k = self.db.k() as usize;
        let words = self.idx.words();
        let mut bits = vec![0u64; k * k * words];
        let mut counts = vec![0usize; k * k];
        for va in 1..=self.db.k() {
            for vb in 1..=self.db.k() {
                let idx = (va as usize - 1) * k + (vb as usize - 1);
                let dst = &mut bits[idx * words..(idx + 1) * words];
                self.idx.intersect_into(a, va, b, vb, dst);
                counts[idx] = dst.iter().map(|w| w.count_ones() as usize).sum();
            }
        }
        PairRows {
            a,
            b,
            k,
            words,
            bits,
            counts,
        }
    }

    /// ACV of the 2-to-1 hyperedge `({a,b}, {h})` without materializing its
    /// table — the inner loop of the construction sweep.
    pub fn hyper_acv(&self, pair: &PairRows, h: AttrId) -> f64 {
        let (a, b) = pair.pair();
        assert!(h != a && h != b, "head must not be in the tail");
        let m = self.db.num_obs();
        if m == 0 {
            return 0.0;
        }
        let mut total = 0u64;
        for va in 1..=self.db.k() {
            for vb in 1..=self.db.k() {
                let bits = pair.row_bits(va, vb);
                let count = pair.row_count(va, vb);
                total += self.best_head(bits, count, h).1 as u64;
            }
        }
        acv_of(total, m)
    }

    /// Builds the association table of the 2-to-1 hyperedge `({a,b}, {h})`
    /// from cached pair rows. Head `h` must differ from both tail
    /// attributes.
    pub fn hyper_table(&self, pair: &PairRows, h: AttrId) -> AssociationTable {
        let (a, b) = pair.pair();
        assert!(h != a && h != b, "head must not be in the tail");
        let k = self.db.k();
        let mut rows = Vec::with_capacity((k as usize) * (k as usize));
        for va in 1..=k {
            for vb in 1..=k {
                let bits = pair.row_bits(va, vb);
                let count = pair.row_count(va, vb);
                let (best_head, best_count) = self.best_head(bits, count, h);
                rows.push(RowCounts {
                    tail_count: count as u32,
                    best_count,
                    best_head,
                });
            }
        }
        AssociationTable::from_counts(vec![a, b], h, k, self.db.num_obs() as u32, rows)
    }

    /// Builds the table for an arbitrary tail (size 1 or 2, matching the
    /// model's `|T| ≤ 2` restriction).
    ///
    /// # Panics
    /// Panics for other tail arities.
    pub fn table_for(&self, tail: &[AttrId], h: AttrId) -> AssociationTable {
        match tail {
            [a] => self.edge_table(*a, h),
            [a, b] => self.hyper_table(&self.pair_rows(*a, *b), h),
            _ => panic!("association tables support |T| in {{1, 2}}"),
        }
    }

    /// Naive (bitset-free) recount of an association table for arbitrary
    /// tails; used to cross-validate the fast path in tests.
    pub fn naive_table(&self, tail: &[AttrId], h: AttrId) -> AssociationTable {
        assert!(!tail.is_empty(), "tail must be non-empty");
        assert!(!tail.contains(&h), "head must not be in the tail");
        let k = self.db.k();
        let m = self.db.num_obs();
        let n_rows = (k as usize).pow(tail.len() as u32);
        // joint[row][head_value - 1]
        let mut joint = vec![vec![0u32; k as usize]; n_rows];
        let mut tail_counts = vec![0u32; n_rows];
        for o in 0..m {
            let mut row = 0usize;
            for &t in tail {
                row = row * k as usize + (self.db.value(t, o) as usize - 1);
            }
            tail_counts[row] += 1;
            joint[row][self.db.value(h, o) as usize - 1] += 1;
        }
        let rows = (0..n_rows)
            .map(|idx| {
                if tail_counts[idx] == 0 {
                    return RowCounts {
                        tail_count: 0,
                        best_count: 0,
                        best_head: 0,
                    };
                }
                let (bi, &bc) = joint[idx]
                    .iter()
                    .enumerate()
                    .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
                    .expect("k >= 1");
                RowCounts {
                    tail_count: tail_counts[idx],
                    best_count: bc,
                    best_head: (bi + 1) as u8,
                }
            })
            .collect();
        AssociationTable::from_counts(tail.to_vec(), h, k, m as u32, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermine_data::Database;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn db() -> Database {
        Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[
                [1, 1, 2],
                [1, 2, 1],
                [2, 2, 3],
                [3, 1, 3],
                [1, 2, 3],
                [2, 3, 2],
                [1, 1, 1],
                [2, 2, 3],
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_heads_sweeps_are_bit_identical_to_per_head_paths() {
        let d = db();
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(d.num_attrs(), d.k());
        for t in 0..3u32 {
            e.edge_acv_all_heads(a(t), &mut counter);
            for h in 0..3u32 {
                if h == t {
                    continue;
                }
                assert_eq!(
                    counter.acv(a(h)).to_bits(),
                    e.edge_acv(a(t), a(h)).to_bits(),
                    "edge ({t} -> {h})"
                );
            }
        }
        let mut buckets = PairBuckets::new();
        for (x, y) in [(0u32, 1u32), (0, 2), (1, 2)] {
            let pair = e.pair_rows(a(x), a(y));
            e.bucket_pair(a(x), a(y), &mut buckets);
            e.hyper_acv_all_heads(&buckets, &mut counter);
            let h = (0..3u32).find(|&h| h != x && h != y).unwrap();
            assert_eq!(
                counter.acv(a(h)).to_bits(),
                e.hyper_acv(&pair, a(h)).to_bits(),
                "pair ({x},{y}) -> {h}"
            );
        }
    }

    #[test]
    fn row_histograms_match_naive_counts() {
        // Rows of 0, 1, 255, 256 and 600 observations (the u8 lanes
        // spill every 255), universes narrower than a block and not a
        // multiple of either block width, and every block width and k
        // path; the outputs start as garbage, which the kernel overwrites.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let m = 700;
        for n in [3usize, 20, 33, 45] {
            for k in [2usize, 3, 5, 8, 9] {
                let codes: Vec<Value> = (0..m * n)
                    .map(|_| (next() % k as u64) as Value + 1)
                    .collect();
                for len in [0usize, 1, 255, 256, 600] {
                    let ids: Vec<u32> = (0..len as u32).map(|i| (i * 7 + 3) % m as u32).collect();
                    let mut want = vec![0u16; n * k];
                    for &o in &ids {
                        for h in 0..n {
                            want[h * k + codes[o as usize * n + h] as usize - 1] += 1;
                        }
                    }
                    let want_max: Vec<u16> = want
                        .chunks_exact(k)
                        .map(|c| *c.iter().max().unwrap())
                        .collect();
                    let mut cells = vec![0xbeef; n * k];
                    let mut maxes = vec![0xbeef; n];
                    row_histograms(&codes, n, &ids, k, &mut cells, &mut maxes);
                    assert_eq!(cells, want, "n = {n}, k = {k}, {len} observations");
                    assert_eq!(maxes, want_max, "n = {n}, k = {k}, {len} observations");
                }
            }
        }
    }

    #[test]
    fn kernel_path_degrades_with_database_size() {
        let d = db();
        assert_eq!(CountingEngine::new(&d).kernel_path(), KernelPath::FlatU16);
        assert_eq!(KernelPath::FlatU16.to_string(), "flat_u16");
        // Past the u16 slot range the u32 lanes engage on their own.
        let wide = Database::from_columns(
            (0..16385).map(|i| format!("A{i}")).collect(),
            3,
            vec![vec![1, 2]; 16385],
        )
        .unwrap();
        let e = CountingEngine::new(&wide);
        assert_eq!(e.kernel_path(), KernelPath::FlatU32);
        assert_eq!(e.kernel_path().as_str(), "flat_u32");
        // So do windows whose row counts could overflow u16 lanes.
        assert_eq!(KernelPath::select(6, 3, 65_535), KernelPath::FlatU16);
        assert_eq!(KernelPath::select(6, 3, 65_536), KernelPath::FlatU32);
        assert_eq!(KernelPath::select(16_384, 3, 10), KernelPath::FlatU16);
        assert_eq!(KernelPath::select(16_385, 3, 10), KernelPath::FlatU32);
    }

    #[test]
    fn head_counter_is_reusable_across_sweeps() {
        let d = db();
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(d.num_attrs(), d.k());
        e.edge_acv_all_heads(a(0), &mut counter);
        let first = counter.acv(a(2));
        // A different sweep in between must not contaminate the next one.
        let mut buckets = PairBuckets::new();
        buckets.rebuild(e.database(), a(0), a(1));
        e.hyper_acv_all_heads(&buckets, &mut counter);
        e.edge_acv_all_heads(a(0), &mut counter);
        assert_eq!(counter.acv(a(2)).to_bits(), first.to_bits());
        assert_eq!(counter.total(a(2)), (first * 8.0).round() as u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "swept tail head")]
    fn tail_head_reads_are_rejected_in_debug_builds() {
        let d = db();
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(d.num_attrs(), d.k());
        let mut buckets = PairBuckets::new();
        buckets.rebuild(&d, a(0), a(1));
        e.hyper_acv_all_heads(&buckets, &mut counter);
        // a(1) is in the swept tail: its total was never accumulated.
        let _ = counter.acv(a(1));
    }

    #[test]
    fn small_rows_at_k_16_match_naive() {
        // k = 16 with 3-observation tail rows, which pass 1 counts as
        // dense rows far sparser than the counter lanes they sweep; every
        // ACV must still match the naive recount.
        let x: Vec<Value> = (0..15).map(|o| (o / 3 + 1) as Value).collect();
        let y: Vec<Value> = (0..15).map(|o| (o % 5 * 3 + 1) as Value).collect();
        let z: Vec<Value> = (0..15).map(|o| (o * 7 % 16 + 1) as Value).collect();
        let w: Vec<Value> = (0..15).map(|o| (o % 2 * 15 + 1) as Value).collect();
        let d = Database::from_columns(
            vec!["x".into(), "y".into(), "z".into(), "w".into()],
            16,
            vec![x, y, z, w],
        )
        .unwrap();
        let e = CountingEngine::new(&d);
        let attrs: Vec<AttrId> = d.attrs().collect();
        let mut counter = HeadCounter::new(d.num_attrs(), d.k());
        for &t in &attrs {
            e.edge_acv_all_heads(t, &mut counter);
            for &h in &attrs {
                if h == t {
                    continue;
                }
                let naive = e.naive_table(&[t], h).acv();
                assert_eq!(
                    counter.acv(h).to_bits(),
                    naive.to_bits(),
                    "({t:?} -> {h:?})"
                );
            }
        }
        let mut buckets = PairBuckets::new();
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                e.bucket_pair(a, b, &mut buckets);
                e.hyper_acv_all_heads(&buckets, &mut counter);
                for &h in &attrs {
                    if h == a || h == b {
                        continue;
                    }
                    let naive = e.naive_table(&[a, b], h).acv();
                    assert_eq!(
                        counter.acv(h).to_bits(),
                        naive.to_bits(),
                        "({a:?},{b:?}) -> {h:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_columns_touch_one_slot_per_head() {
        // Every column constant: each row sweep touches exactly one counter
        // slot per head. All-heads sweeps must still match the per-head
        // paths exactly.
        let d = Database::from_columns(
            vec!["x".into(), "y".into(), "z".into()],
            4,
            vec![vec![2; 10], vec![4; 10], vec![1; 10]],
        )
        .unwrap();
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(d.num_attrs(), d.k());
        e.edge_acv_all_heads(a(0), &mut counter);
        assert_eq!(
            counter.acv(a(1)).to_bits(),
            e.edge_acv(a(0), a(1)).to_bits()
        );
        assert_eq!(counter.total(a(2)), 10);
        let mut buckets = PairBuckets::new();
        buckets.rebuild(&d, a(0), a(2));
        e.hyper_acv_all_heads(&buckets, &mut counter);
        let pair = e.pair_rows(a(0), a(2));
        assert_eq!(
            counter.acv(a(1)).to_bits(),
            e.hyper_acv(&pair, a(1)).to_bits()
        );
        assert_eq!(counter.acv(a(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "sized for a different k")]
    fn mis_sized_head_counter_rejected() {
        let d = db(); // k = 3
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(d.num_attrs(), 5);
        e.edge_acv_all_heads(a(0), &mut counter);
    }

    #[test]
    fn all_heads_sweep_on_empty_database() {
        let d =
            Database::from_columns(vec!["x".into(), "y".into()], 2, vec![vec![], vec![]]).unwrap();
        let e = CountingEngine::new(&d);
        let mut counter = HeadCounter::new(2, 2);
        e.edge_acv_all_heads(a(0), &mut counter);
        assert_eq!(counter.acv(a(1)), 0.0);
    }

    #[test]
    fn best_head_short_circuit_matches_naive() {
        // x=1 observations all carry z=1, so counting z=1 already accounts
        // for the whole tail row and values 2..=k short-circuit.
        let d = Database::from_rows(
            vec!["x".into(), "z".into()],
            3,
            &[[1, 1], [1, 1], [1, 1], [2, 2], [2, 3], [3, 2]],
        )
        .unwrap();
        let e = CountingEngine::new(&d);
        assert_eq!(e.edge_table(a(0), a(1)), e.naive_table(&[a(0)], a(1)));
        assert_eq!(e.edge_table(a(1), a(0)), e.naive_table(&[a(1)], a(0)));
    }

    #[test]
    fn baseline_acv_is_majority_fraction() {
        let d = db();
        let e = CountingEngine::new(&d);
        // x: values [1,1,2,3,1,2,1,2] -> majority 1 with 4/8.
        assert!((e.baseline_acv(a(0)) - 0.5).abs() < 1e-12);
        // z: [2,1,3,3,3,2,1,3] -> majority 3 with 4/8.
        assert!((e.baseline_acv(a(2)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_table_matches_naive() {
        let d = db();
        let e = CountingEngine::new(&d);
        for (x, y) in [(0u32, 1u32), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            let fast = e.edge_table(a(x), a(y));
            let naive = e.naive_table(&[a(x)], a(y));
            assert_eq!(fast, naive, "edge ({x} -> {y})");
            assert!((e.edge_acv(a(x), a(y)) - fast.acv()).abs() < 1e-15);
        }
    }

    #[test]
    fn hyper_table_matches_naive() {
        let d = db();
        let e = CountingEngine::new(&d);
        let pair = e.pair_rows(a(0), a(1));
        let fast = e.hyper_table(&pair, a(2));
        let naive = e.naive_table(&[a(0), a(1)], a(2));
        assert_eq!(fast, naive);
        assert!((e.hyper_acv(&pair, a(2)) - fast.acv()).abs() < 1e-15);
    }

    #[test]
    fn table_for_dispatches_by_arity() {
        let d = db();
        let e = CountingEngine::new(&d);
        assert_eq!(e.table_for(&[a(0)], a(2)), e.edge_table(a(0), a(2)));
        assert_eq!(
            e.table_for(&[a(0), a(1)], a(2)),
            e.naive_table(&[a(0), a(1)], a(2))
        );
    }

    #[test]
    fn hand_checked_edge_table() {
        let d = db();
        let e = CountingEngine::new(&d);
        let t = e.edge_table(a(0), a(2));
        // x=1 rows: obs 0,1,4,6 -> z values [2,1,3,1]: best z=1 conf 2/4.
        let r = t.row(&[1]);
        assert!((r.support - 0.5).abs() < 1e-12);
        assert_eq!(r.best_head, Some(1));
        assert!((r.confidence - 0.5).abs() < 1e-12);
        // x=3: obs 3 -> z=3, conf 1.
        let r = t.row(&[3]);
        assert!((r.support - 0.125).abs() < 1e-12);
        assert_eq!(r.best_head, Some(3));
        assert_eq!(r.confidence, 1.0);
    }

    #[test]
    fn zero_support_rows_contribute_nothing() {
        let d = db();
        let e = CountingEngine::new(&d);
        let pair = e.pair_rows(a(0), a(1));
        let t = e.hyper_table(&pair, a(2));
        // x=3 ∧ y=3 never occurs.
        let r = t.row(&[3, 3]);
        assert_eq!(r.support, 0.0);
        assert_eq!(r.best_head, None);
        assert_eq!(r.confidence, 0.0);
        // ACV is still well defined.
        assert!(t.acv() > 0.0 && t.acv() <= 1.0);
    }

    #[test]
    fn theorem_3_8_monotonicity_on_fixture() {
        // ACV({a},{h}) >= ACV(∅,{h}) and
        // ACV({a,b},{h}) >= max over constituents (Theorem 3.8).
        let d = db();
        let e = CountingEngine::new(&d);
        for h in 0..3u32 {
            for x in 0..3u32 {
                if x == h {
                    continue;
                }
                let acv1 = e.edge_acv(a(x), a(h));
                assert!(acv1 + 1e-12 >= e.baseline_acv(a(h)), "({x})->({h})");
                for y in (x + 1)..3u32 {
                    if y == h {
                        continue;
                    }
                    let pair = e.pair_rows(a(x), a(y));
                    let acv2 = e.hyper_acv(&pair, a(h));
                    let acv_y = e.edge_acv(a(y), a(h));
                    assert!(
                        acv2 + 1e-12 >= acv1.max(acv_y),
                        "({x},{y})->({h}): {acv2} vs {acv1}/{acv_y}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_database_tables() {
        let d =
            Database::from_columns(vec!["x".into(), "y".into()], 2, vec![vec![], vec![]]).unwrap();
        let e = CountingEngine::new(&d);
        let t = e.edge_table(a(0), a(1));
        assert_eq!(t.acv(), 0.0);
        assert_eq!(e.edge_acv(a(0), a(1)), 0.0);
        assert_eq!(e.baseline_acv(a(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_edge_rejected() {
        let d = db();
        CountingEngine::new(&d).edge_table(a(0), a(0));
    }

    #[test]
    #[should_panic(expected = "head must not be in the tail")]
    fn head_in_tail_rejected() {
        let d = db();
        let e = CountingEngine::new(&d);
        let pair = e.pair_rows(a(0), a(1));
        e.hyper_table(&pair, a(0));
    }
}
