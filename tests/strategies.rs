//! Cross-validation of the counting paths: model builds must equal a
//! reference assembled independently from the per-head counting paths —
//! bit for bit, in edge ids, at every thread count — and the
//! observation-major sweeps behind every build must agree with the
//! per-head paths and the naive recount on random databases across the
//! k, counter-lane width and SIMD matrix.

use hypermine::core::{
    node_of, AssociationModel, CountingEngine, HeadCounter, KernelPath, ModelConfig, SimdPolicy,
};
use hypermine::data::{AttrId, Database, PairBuckets, Value};
use proptest::prelude::*;

/// Random database over `k ∈ {2, 3, 5, 8}` — the paper's C1/C2 settings
/// plus the large-k regime the observation-major sweep targets. Roughly a
/// quarter of the columns are forced constant, so pair rows with a single
/// touched counter slot per head show up routinely.
fn db_with_k() -> impl Strategy<Value = Database> {
    (2usize..=5, 5usize..=60, 0usize..4).prop_flat_map(|(n_attrs, n_obs, k_idx)| {
        let k = [2u8, 3, 5, 8][k_idx];
        (
            proptest::collection::vec(proptest::collection::vec(1..=k, n_obs), n_attrs),
            proptest::collection::vec(0u8..4, n_attrs),
        )
            .prop_map(move |(mut cols, const_mask)| {
                for (col, &mask) in cols.iter_mut().zip(&const_mask) {
                    if mask == 0 {
                        let v = col[0];
                        col.fill(v);
                    }
                }
                Database::from_columns((0..cols.len()).map(|i| format!("A{i}")).collect(), k, cols)
                    .expect("generated values are in range")
            })
    })
}

/// One edge of an expected model: tail, head, and the weight's bits.
type RefEdge = (Vec<AttrId>, AttrId, u64);

/// The edge list `AssociationModel::build` must produce under `cfg`, in id
/// order, assembled without the builder: directed-edge ACVs from the
/// per-head bitset path (`edge_acv`), hyperedge ACVs from cached pair
/// rows (`pair_rows` + `hyper_acv`), baselines from `baseline_acv`, and
/// this function's own γ tests (Definition 3.7) — directed edges in
/// tail-major order, then hyperedges in `(pair, head)` order.
fn reference_edges(db: &Database, cfg: &ModelConfig) -> Vec<RefEdge> {
    let engine = CountingEngine::new(db);
    let attrs: Vec<AttrId> = db.attrs().collect();
    let n = attrs.len();
    let mut raw = vec![0.0f64; n * n];
    for &t in &attrs {
        for &h in &attrs {
            if h != t {
                raw[t.index() * n + h.index()] = engine.edge_acv(t, h);
            }
        }
    }
    let mut edges = Vec::new();
    for &t in &attrs {
        for &h in &attrs {
            let acv = raw[t.index() * n + h.index()];
            if h != t && acv > 0.0 && acv >= cfg.gamma_edge * engine.baseline_acv(h) {
                edges.push((vec![t], h, acv.to_bits()));
            }
        }
    }
    if cfg.with_hyperedges {
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                let pair = engine.pair_rows(a, b);
                for &h in &attrs {
                    if h == a || h == b {
                        continue;
                    }
                    let acv = engine.hyper_acv(&pair, h);
                    let floor = raw[a.index() * n + h.index()].max(raw[b.index() * n + h.index()]);
                    if acv > 0.0 && acv >= cfg.gamma_hyper * floor {
                        edges.push((vec![a, b], h, acv.to_bits()));
                    }
                }
            }
        }
    }
    edges
}

/// Asserts that `m` holds exactly `expected`: same edge ids, tails,
/// heads, and weight bits.
fn assert_matches_reference(m: &AssociationModel, expected: &[RefEdge], what: &str) {
    let g = m.hypergraph();
    assert_eq!(g.num_edges(), expected.len(), "{what}: edge count");
    for ((id, e), (tail, head, bits)) in g.edges().zip(expected) {
        let tail: Vec<_> = tail.iter().map(|&a| node_of(a)).collect();
        assert_eq!(e.tail(), &tail[..], "{what}: tail of {id:?}");
        assert_eq!(e.head(), &[node_of(*head)][..], "{what}: head of {id:?}");
        assert_eq!(e.weight().to_bits(), *bits, "{what}: ACV of {id:?}");
    }
}

/// Builds `db` under `cfg` at threads {1, 3} and checks both models
/// against [`reference_edges`]; returns the reference.
fn check_against_reference(db: &Database, cfg: &ModelConfig, what: &str) -> Vec<RefEdge> {
    let expected = reference_edges(db, cfg);
    for threads in [1usize, 3] {
        let m = AssociationModel::build(
            db,
            &ModelConfig {
                threads,
                ..cfg.clone()
            },
        )
        .expect("valid gammas");
        assert_matches_reference(&m, &expected, &format!("{what} x{threads} threads"));
    }
    expected
}

fn assert_identical(a: &AssociationModel, b: &AssociationModel, what: &str) {
    assert_eq!(
        a.hypergraph().num_edges(),
        b.hypergraph().num_edges(),
        "{what}: edge count"
    );
    for (id, e) in a.hypergraph().edges() {
        let other = b.hypergraph().edge(id);
        assert_eq!(e.tail(), other.tail(), "{what}: tail of {id:?}");
        assert_eq!(e.head(), other.head(), "{what}: head of {id:?}");
        assert_eq!(
            e.weight().to_bits(),
            other.weight().to_bits(),
            "{what}: ACV of {id:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Builds at every thread count equal the independent per-head
    /// reference — same edge ids, same tails/heads, bit-identical ACVs —
    /// with and without the hyperedge pass.
    #[test]
    fn builds_match_the_per_head_reference(db in db_with_k()) {
        let cfg = ModelConfig::default();
        check_against_reference(&db, &cfg, "default gammas");
        let directed = ModelConfig { with_hyperedges: false, ..cfg };
        check_against_reference(&db, &directed, "directed edges only");
    }

    /// Both fast sweeps agree with the naive (bitset-free) recount on every
    /// directed edge and 2-to-1 hyperedge ACV.
    #[test]
    fn sweeps_match_naive_recount(db in db_with_k()) {
        let engine = CountingEngine::new(&db);
        let attrs: Vec<AttrId> = db.attrs().collect();
        let mut counter = HeadCounter::new(db.num_attrs(), db.k());
        for &t in &attrs {
            engine.edge_acv_all_heads(t, &mut counter);
            for &h in &attrs {
                if h == t {
                    continue;
                }
                let naive = engine.naive_table(&[t], h).acv();
                prop_assert_eq!(engine.edge_acv(t, h).to_bits(), naive.to_bits());
                prop_assert_eq!(counter.acv(h).to_bits(), naive.to_bits());
            }
        }
        if attrs.len() >= 3 {
            let mut buckets = PairBuckets::new();
            for (i, &a) in attrs.iter().enumerate() {
                for &b in &attrs[i + 1..] {
                    let pair = engine.pair_rows(a, b);
                    engine.bucket_pair(a, b, &mut buckets);
                    engine.hyper_acv_all_heads(&buckets, &mut counter);
                    for &h in &attrs {
                        if h == a || h == b {
                            continue;
                        }
                        let naive = engine.naive_table(&[a, b], h).acv();
                        prop_assert_eq!(engine.hyper_acv(&pair, h).to_bits(), naive.to_bits());
                        prop_assert_eq!(counter.acv(h).to_bits(), naive.to_bits());
                    }
                }
            }
        }
    }
}

/// All-constant columns: every pair sweep touches exactly one `(v_a, v_b)`
/// bucket and one counter slot per head, and builds at every thread count
/// must still equal the per-head reference bit for bit, down to the k = 2
/// minimum.
#[test]
fn all_constant_columns_are_bit_identical_across_strategies() {
    for k in [2u8, 3, 5, 8] {
        let n_attrs = 5usize;
        let cols: Vec<Vec<u8>> = (0..n_attrs)
            .map(|a| vec![(a % k as usize + 1) as u8; 30])
            .collect();
        let db = Database::from_columns((0..n_attrs).map(|i| format!("A{i}")).collect(), k, cols)
            .unwrap();
        // Cross-check the sweeps against the naive recount directly (the
        // model keeps no edges here — constant heads have baseline 1).
        let engine = CountingEngine::new(&db);
        let attrs: Vec<AttrId> = db.attrs().collect();
        let mut counter = HeadCounter::new(db.num_attrs(), db.k());
        let mut buckets = PairBuckets::new();
        for (i, &a) in attrs.iter().enumerate() {
            for &b in &attrs[i + 1..] {
                engine.bucket_pair(a, b, &mut buckets);
                engine.hyper_acv_all_heads(&buckets, &mut counter);
                for &h in &attrs {
                    if h == a || h == b {
                        continue;
                    }
                    let naive = engine.naive_table(&[a, b], h).acv();
                    assert_eq!(
                        counter.acv(h).to_bits(),
                        naive.to_bits(),
                        "k = {k}, pair ({a:?}, {b:?}) -> {h:?}"
                    );
                    assert_eq!(counter.acv(h), 1.0);
                }
            }
        }
        check_against_reference(
            &db,
            &ModelConfig::default(),
            &format!("constant columns, k = {k}"),
        );
    }
}

/// Wide-attribute fixture: n = 128 (every earlier suite stopped at
/// n ≈ 40), deterministic mixed-correlation columns with a handful of
/// constant ones. Builds at every thread count — and therefore the
/// blocked flat u16 kernels the sweeps take at this width — must equal
/// the per-head reference bit for bit. Gammas are raised so the
/// kept-edge set stays small enough for a debug-mode run; the counting
/// sweeps still evaluate every one of the ~1M (pair, head) candidates.
#[test]
fn wide_attribute_fixture_is_bit_identical_across_strategies() {
    let n_attrs = 128usize;
    let n_obs = 40usize;
    let k = 3u8;
    let cols: Vec<Vec<u8>> = (0..n_attrs)
        .map(|a| {
            (0..n_obs)
                .map(|o| match a % 5 {
                    // A correlated family, shifted copies, a constant
                    // column, and two pseudo-random stripes.
                    0 => (o % 3 + 1) as u8,
                    1 => ((o + a / 5) % 3 + 1) as u8,
                    2 => 2u8,
                    3 => ((o * 7 + a * 13) % 3 + 1) as u8,
                    _ => ((o / 2 + a) % 3 + 1) as u8,
                })
                .collect()
        })
        .collect();
    let db =
        Database::from_columns((0..n_attrs).map(|i| format!("A{i}")).collect(), k, cols).unwrap();
    let cfg = ModelConfig {
        gamma_edge: 1.3,
        gamma_hyper: 1.25,
        ..ModelConfig::default()
    };
    let expected = check_against_reference(&db, &cfg, "n=128");
    assert!(!expected.is_empty(), "fixture keeps some edges");
}

/// Beyond one head tile: once `n · stride` lanes outgrow one 16 KB tile
/// the flat dense bump runs blocked over several head tiles. Thin
/// databases with thousands of attributes exercise the multi-tile path
/// cheaply at both lane widths: n = 2400 at k = 3 (9600 u16 lanes, two
/// tiles of 2048 heads) and n = 16,400 (65,600 lanes, past the u16 slot
/// range, so u32 lanes in 17 tiles of at most 1024 heads). Each runs
/// under `ForceScalar` as well as `Auto`, since on vector hosts the
/// vertical kernel takes these 18-observation rows; every ACV must match
/// the naive recount, the last head's included.
#[test]
fn multi_tile_flat_sweeps_match_naive() {
    let n_obs = 18usize;
    let k = 3u8;
    for (n_attrs, lanes) in [
        (2400usize, KernelPath::FlatU16),
        (16_400, KernelPath::FlatU32),
    ] {
        // Even columns are constant: any pair over two of them puts all
        // 18 observations into one (v_a, v_b) row — deep past the exact
        // small-c folds, so the blocked flat bump walks every head tile.
        // Odd columns vary, covering mixed-density rows.
        let cols: Vec<Vec<u8>> = (0..n_attrs)
            .map(|a| {
                (0..n_obs)
                    .map(|o| {
                        if a % 2 == 0 {
                            (a % 3 + 1) as u8
                        } else {
                            ((o * 7 + a) % 3 + 1) as u8
                        }
                    })
                    .collect()
            })
            .collect();
        let db = Database::from_columns((0..n_attrs).map(|i| format!("A{i}")).collect(), k, cols)
            .unwrap();
        let last = n_attrs as u32 - 1;
        let mid = n_attrs as u32 / 2;
        for policy in [SimdPolicy::ForceScalar, SimdPolicy::Auto] {
            let mut engine = CountingEngine::new(&db);
            engine.set_simd_policy(policy);
            assert_eq!(engine.kernel_path(), lanes, "n = {n_attrs}");
            let mut counter = HeadCounter::new(db.num_attrs(), db.k());
            let mut buckets = PairBuckets::new();
            // A handful of pairs and tails is enough — each sweep crosses
            // every tile boundary for every dense row.
            for t in [0, 1, mid - 1, last].map(AttrId::new) {
                engine.edge_acv_all_heads(t, &mut counter);
                for h in [7, mid, last - 1, last].map(AttrId::new) {
                    if h == t {
                        continue;
                    }
                    let naive = engine.naive_table(&[t], h).acv();
                    assert_eq!(
                        counter.acv(h).to_bits(),
                        naive.to_bits(),
                        "n = {n_attrs} {policy:?}: {t:?} -> {h:?}"
                    );
                }
            }
            for (a, b) in [(0, 2), (0, 1), (5, last - 1), (mid - 1, mid)] {
                let (a, b) = (AttrId::new(a), AttrId::new(b));
                engine.bucket_pair(a, b, &mut buckets);
                engine.hyper_acv_all_heads(&buckets, &mut counter);
                for h in [3, mid + 1, last - 2, last].map(AttrId::new) {
                    if h == a || h == b {
                        continue;
                    }
                    let naive = engine.naive_table(&[a, b], h).acv();
                    assert_eq!(
                        counter.acv(h).to_bits(),
                        naive.to_bits(),
                        "n = {n_attrs} {policy:?}: ({a:?},{b:?}) -> {h:?}"
                    );
                }
            }
        }
    }
}

/// Columns of the wide fixtures: a correlated family,
/// shifted copies, a constant column, and two pseudo-random stripes.
fn wide_fixture_db(n_attrs: usize, n_obs: usize) -> Database {
    wide_fixture_db_k(n_attrs, n_obs, 3)
}

/// The same column families at an arbitrary value-domain size `k` —
/// the SIMD matrix below sweeps k through the vertical kernel's whole
/// eligibility range and past it (k = 16 declines to the fold tier).
fn wide_fixture_db_k(n_attrs: usize, n_obs: usize, k: u8) -> Database {
    let ku = k as usize;
    let cols: Vec<Vec<u8>> = (0..n_attrs)
        .map(|a| {
            (0..n_obs)
                .map(|o| match a % 5 {
                    0 => (o % ku + 1) as u8,
                    1 => ((o + a / 5) % ku + 1) as u8,
                    2 => 2u8,
                    3 => ((o * 7 + a * 13) % ku + 1) as u8,
                    _ => ((o / 2 + a) % ku + 1) as u8,
                })
                .collect()
        })
        .collect();
    Database::from_columns((0..n_attrs).map(|i| format!("A{i}")).collect(), k, cols).unwrap()
}

/// SIMD bit-identity matrix: models built under `SimdPolicy::Auto`
/// (whatever level runtime detection engages — AVX2, NEON, or scalar)
/// must be bit-identical to `ForceScalar` builds across every thread
/// count the perf tier reports and a k sweep spanning the vertical
/// kernel's whole eligibility range (k ∈ {3, 5, 8}) plus a width past it
/// (k = 16, which declines to the fold tier — on hosts without AVX2/NEON
/// the two builds run the same scalar code and the assertion is
/// trivially true, which is exactly the portable-fallback contract).
/// n = 40 runs the single-head-tile path, n = 128 the multi-tile one.
#[test]
fn simd_policies_are_bit_identical_through_model_builds() {
    for &(n_attrs, n_obs) in &[(40usize, 60usize), (128, 40)] {
        for k in [3u8, 5, 8, 16] {
            let db = wide_fixture_db_k(n_attrs, n_obs, k);
            let cfg = |simd, threads| ModelConfig {
                simd,
                threads,
                gamma_edge: 1.3,
                gamma_hyper: 1.25,
                ..ModelConfig::default()
            };
            let reference = AssociationModel::build(&db, &cfg(SimdPolicy::ForceScalar, 1)).unwrap();
            assert!(
                reference.hypergraph().num_edges() > 0,
                "n={n_attrs} k={k} fixture keeps some edges"
            );
            for threads in [1usize, 4, 8] {
                let m = AssociationModel::build(&db, &cfg(SimdPolicy::Auto, threads)).unwrap();
                assert_identical(
                    &m,
                    &reference,
                    &format!("n={n_attrs} k={k} Auto x{threads} vs ForceScalar x1"),
                );
            }
        }
    }
}

/// n = 500 — the CI wide fixture's width — SIMD-swept at the engine
/// level (full debug-mode builds at this width cost minutes; the
/// release-mode `perf_summary` wide fixture builds it for real). The
/// `Auto` engine must agree bit for
/// bit with the `ForceScalar` engine and with the naive recount on
/// sampled tails, pairs, and heads spanning both head-tile boundaries.
#[test]
fn simd_policies_agree_at_the_wide_fixture_width() {
    let db = wide_fixture_db(500, 24);
    let policies = [SimdPolicy::ForceScalar, SimdPolicy::Auto];
    let engines: Vec<CountingEngine> = policies
        .iter()
        .map(|&policy| {
            let mut e = CountingEngine::new(&db);
            e.set_simd_policy(policy);
            e
        })
        .collect();
    let mut counter = HeadCounter::new(db.num_attrs(), db.k());
    let heads: Vec<AttrId> = [3u32, 77, 250, 499].map(AttrId::new).into();
    for t in [0u32, 1, 250, 499].map(AttrId::new) {
        let probe: Vec<AttrId> = heads.iter().copied().filter(|&h| h != t).collect();
        let mut per_policy = Vec::new();
        for e in &engines {
            e.edge_acv_all_heads(t, &mut counter);
            per_policy.push(
                probe
                    .iter()
                    .map(|&h| counter.acv(h).to_bits())
                    .collect::<Vec<u64>>(),
            );
        }
        assert_eq!(
            per_policy[1], per_policy[0],
            "pass 1 tail {t:?}, Auto vs ForceScalar"
        );
        for (&h, &bits) in probe.iter().zip(&per_policy[0]) {
            let naive = engines[0].naive_table(&[t], h).acv();
            assert_eq!(bits, naive.to_bits(), "pass 1 {t:?} -> {h:?} vs naive");
        }
    }
    let mut buckets = PairBuckets::new();
    for (a, b) in [(0u32, 1u32), (0, 2), (5, 499), (249, 250)] {
        let (a, b) = (AttrId::new(a), AttrId::new(b));
        let probe: Vec<AttrId> = heads
            .iter()
            .copied()
            .filter(|&h| h != a && h != b)
            .collect();
        let mut per_policy = Vec::new();
        for e in &engines {
            e.bucket_pair(a, b, &mut buckets);
            e.hyper_acv_all_heads(&buckets, &mut counter);
            per_policy.push(
                probe
                    .iter()
                    .map(|&h| counter.acv(h).to_bits())
                    .collect::<Vec<u64>>(),
            );
        }
        assert_eq!(
            per_policy[1], per_policy[0],
            "pass 2 pair ({a:?},{b:?}), Auto vs ForceScalar"
        );
        for (&h, &bits) in probe.iter().zip(&per_policy[0]) {
            let naive = engines[0].naive_table(&[a, b], h).acv();
            assert_eq!(bits, naive.to_bits(), "pass 2 ({a:?},{b:?}) -> {h:?}");
        }
    }
}

/// Pass-1 parallelization regression: directed-edge ids must be assigned in
/// the same tail-major order at every thread count (pass 2 was already
/// parallel; pass 1 newly runs through the same chunking harness), equal
/// to the per-head reference's.
#[test]
fn pass_1_edge_ids_are_deterministic_across_thread_counts() {
    // Strongly associated attribute family so pass 1 keeps many edges.
    let n_attrs = 9;
    let n_obs = 120;
    let cols: Vec<Vec<u8>> = (0..n_attrs)
        .map(|a| (0..n_obs).map(|o| ((o + a / 3) % 3 + 1) as u8).collect())
        .collect();
    let db =
        Database::from_columns((0..n_attrs).map(|i| format!("A{i}")).collect(), 3, cols).unwrap();
    let cfg = ModelConfig {
        with_hyperedges: false, // isolate pass 1
        ..ModelConfig::default()
    };
    let expected = reference_edges(&db, &cfg);
    assert!(
        expected.len() >= n_attrs,
        "fixture keeps plenty of directed edges"
    );
    for threads in [1usize, 2, 3, 4, 9, 16] {
        let m = AssociationModel::build(
            &db,
            &ModelConfig {
                threads,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_matches_reference(&m, &expected, &format!("pass 1 with {threads} threads"));
    }
}

/// A window longer than u16 row counts allow: m = 65,600 selects the u32
/// lanes, and n = 6 (under one vector block) keeps the vertical kernel
/// out, so every dense row runs the u32 flat kernel. Gammas of 1 keep
/// every candidate (Theorem 3.8), so all 90 ACVs are compared: builds at
/// threads {1, 3} equal the per-head reference, and one advance equals a
/// rebuild of the slid window. The triple tensor is off past
/// m = 65,535, so the row-recount fallback's initial `S₂` build is a u32
/// sweep too.
#[test]
fn u32_lanes_build_and_advance_like_the_reference() {
    let (n, k, m) = (6usize, 3u8, 65_600usize);
    let rows = fallback_stream(n, k, m + 1, 0x0001_0040);
    let cols: Vec<Vec<Value>> = (0..n)
        .map(|a| rows.iter().map(|r| r[a]).collect())
        .collect();
    let full = Database::from_columns((0..n).map(|i| format!("A{i}")).collect(), k, cols)
        .expect("generated values are in range");
    let db = full.slice_obs(0..m);
    let cfg = ModelConfig {
        gamma_edge: 1.0,
        gamma_hyper: 1.0,
        ..ModelConfig::default()
    };
    let expected = check_against_reference(&db, &cfg, "m = 65,600");
    assert_eq!(expected.len(), n * (n - 1) + n * (n - 1) / 2 * (n - 2));
    let mut model = AssociationModel::build(&db, &cfg).unwrap();
    assert_eq!(model.kernel_path(), KernelPath::FlatU32);
    model.advance(&rows[m]).unwrap();
    let stats = model
        .incremental_stats()
        .expect("an advance builds the incremental state");
    assert!(!stats.uses_triple_tensor, "no tensor past u16 row counts");
    assert_eq!(stats.kernel_path, KernelPath::FlatU32);
    let fresh = AssociationModel::build(model.database(), &cfg).unwrap();
    assert_identical(&model, &fresh, "advance vs rebuild at m = 65,600");
}

/// A deterministic observation stream over `n` attributes with values in
/// `1..=k`: pseudo-random columns, every third one a noisy copy of its
/// left neighbour, so the γ tests keep some edges and hyperedges. Three
/// in four values fall in the domain's first three, so pair rows stay
/// populated at large `k` (a 40-observation window spread evenly over
/// all 81 rows of k = 9 would score nearly every hyperedge ACV 1).
fn fallback_stream(n: usize, k: u8, len: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..len)
        .map(|_| {
            let mut row: Vec<Value> = Vec::with_capacity(n);
            for a in 0..n {
                let v = if a % 3 == 1 && next() % 4 != 0 {
                    row[a - 1]
                } else if next() % 4 == 0 {
                    (next() % k as usize + 1) as Value
                } else {
                    (next() % 3.min(k as usize) + 1) as Value
                };
                row.push(v);
            }
            row
        })
        .collect()
}

/// Strict gammas for the n = 70 streams: they keep ~22k of the ~170k
/// candidates, where the defaults keep ~135k, whose maintenance would
/// dominate these debug-build slides.
fn strict_gammas() -> ModelConfig {
    ModelConfig {
        gamma_edge: 1.5,
        gamma_hyper: 1.5,
        ..ModelConfig::default()
    }
}

/// One step of a fallback stream: slide by one, slide by a batch, or
/// contract the window.
#[derive(Debug, Clone, Copy)]
enum Step {
    Advance,
    Batch(usize),
    Retire,
}

/// Streams `rows[window..]` into models built over `rows[..window]` on
/// the row-recount fallback (`triple_tensor_max_bytes: Some(0)`) under
/// both SIMD policies, and — where its tensor stays under 64 MB — into a
/// tensor-path twin (`Some(usize::MAX)`), all mining under `base`'s
/// gammas. After every step each model must equal a fresh build of the
/// slid window, and the fallback models must equal the tensor twin.
fn check_fallback_stream(
    rows: &[Vec<Value>],
    k: u8,
    window: usize,
    base: &ModelConfig,
    what: &str,
) {
    let n = rows[0].len();
    let cols: Vec<Vec<Value>> = (0..n)
        .map(|a| rows.iter().map(|r| r[a]).collect())
        .collect();
    let full = Database::from_columns((0..n).map(|i| format!("A{i}")).collect(), k, cols)
        .expect("generated values are in range");
    let base = ModelConfig {
        threads: 1,
        ..base.clone()
    };
    let cfg = |budget, simd| ModelConfig {
        triple_tensor_max_bytes: Some(budget),
        simd,
        ..base.clone()
    };
    let ku = k as usize;
    let tensor_bytes = n * (n - 1) / 2 * ku * ku * n * ku * 2;
    let initial = full.slice_obs(0..window);
    let mut fallback: Vec<(SimdPolicy, AssociationModel)> =
        [SimdPolicy::Auto, SimdPolicy::ForceScalar]
            .into_iter()
            .map(|simd| {
                (
                    simd,
                    AssociationModel::build(&initial, &cfg(0, simd)).unwrap(),
                )
            })
            .collect();
    let mut tensor = (tensor_bytes <= 64 << 20)
        .then(|| AssociationModel::build(&initial, &cfg(usize::MAX, SimdPolicy::Auto)).unwrap());
    let steps = [Step::Advance, Step::Batch(2), Step::Retire, Step::Batch(2)];
    let mut next = window;
    for (s, &step) in steps.iter().enumerate() {
        let apply = |m: &mut AssociationModel| match step {
            Step::Advance => m.advance(&rows[next]).unwrap(),
            Step::Batch(d) => m.advance_batch(&rows[next..next + d]).unwrap(),
            Step::Retire => m.retire_oldest().unwrap(),
        };
        for (_, m) in fallback.iter_mut() {
            apply(m);
        }
        if let Some(t) = tensor.as_mut() {
            apply(t);
        }
        next += match step {
            Step::Advance => 1,
            Step::Batch(d) => d,
            Step::Retire => 0,
        };
        let fresh = AssociationModel::build(fallback[0].1.database(), &base).unwrap();
        for (simd, m) in &fallback {
            let at = format!("{what} step {s} {step:?} fallback {simd:?}");
            assert_eq!(m.database(), fresh.database(), "{at}: window");
            assert_identical(m, &fresh, &format!("{at} vs fresh build"));
            if let Some(t) = &tensor {
                assert_identical(m, t, &format!("{at} vs tensor path"));
            }
            if let Some(stats) = m.incremental_stats() {
                assert!(!stats.uses_triple_tensor, "{at}: forced fallback");
            }
        }
        if let Some(stats) = tensor
            .as_ref()
            .and_then(AssociationModel::incremental_stats)
        {
            assert!(stats.uses_triple_tensor, "{what} step {s}: tensor twin");
        }
    }
    assert!(
        fallback[0].1.hypergraph().num_edges() > 0,
        "{what}: the stream keeps some edges"
    );
}

/// Row-recount fallback bit-identity at the vertical kernel's
/// boundaries, around one AVX2 block of 32 heads (n = 31 declines, 33
/// ends on an overlapped tail block) and across k ∈ {2, 5, 8, 9}, the
/// kernel's value range and one past it (k = 9 declines to the blocked
/// flat kernel on every host).
#[test]
fn fallback_recounts_are_bit_identical_around_one_block() {
    for n in [31usize, 32, 33] {
        for k in [2u8, 5, 8, 9] {
            let rows = fallback_stream(n, k, 48, (n as u64) << 8 | k as u64);
            let base = ModelConfig::default();
            check_fallback_stream(&rows, k, 40, &base, &format!("n={n} k={k}"));
        }
    }
}

/// The same matrix at n = 70: two full blocks and an overlapped tail,
/// with the tensor twin.
#[test]
fn fallback_recounts_are_bit_identical_past_two_blocks() {
    for k in [2u8, 5] {
        let rows = fallback_stream(70, k, 48, 70 << 8 | k as u64);
        check_fallback_stream(&rows, k, 40, &strict_gammas(), &format!("n=70 k={k}"));
    }
}

/// n = 70 at the top of the kernel's value range and one past it. The
/// tensor twin would need 173–246 MB here, so these compare with fresh
/// builds only.
#[test]
fn fallback_recounts_are_bit_identical_past_two_blocks_at_large_k() {
    for k in [8u8, 9] {
        let rows = fallback_stream(70, k, 48, 70 << 8 | k as u64);
        check_fallback_stream(&rows, k, 40, &strict_gammas(), &format!("n=70 k={k}"));
    }
}

/// A window whose pair rows hold more than 255 observations, which the
/// vertical kernel declines row by row, so the flat kernel counts them.
#[test]
fn fallback_recounts_are_bit_identical_on_rows_past_255() {
    // Attribute triples (a, b, c): a and b are 1 in ~90% of the
    // observations, c is 1 where they agree (with 2% noise), so most
    // pairs' (1, 1) row holds ~275 of the m = 340 observations and the
    // hyperedges ({a, b}, c) are kept.
    let (n, k, window) = (33usize, 2u8, 340usize);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |percent: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 100 < percent
    };
    let rows: Vec<Vec<Value>> = (0..window + 8)
        .map(|_| {
            let mut row: Vec<Value> = Vec::with_capacity(n);
            for a in 0..n {
                let v = if a % 3 == 2 {
                    let agree = row[a - 2] == row[a - 1];
                    if agree != draw(2) {
                        1
                    } else {
                        2
                    }
                } else if draw(90) {
                    1
                } else {
                    2
                };
                row.push(v);
            }
            row
        })
        .collect();
    let big_row = rows[..window]
        .iter()
        .filter(|r| r[0] == 1 && r[1] == 1)
        .count();
    assert!(
        big_row > 255,
        "pair (0, 1) row (1, 1) holds {big_row} observations"
    );
    let base = ModelConfig::default();
    check_fallback_stream(&rows, k, window, &base, "n=33 k=2 rows past 255");
}
