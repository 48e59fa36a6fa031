//! Sliding-window lifecycle: `AssociationModel::advance` must produce a
//! model **bit-identical** to a full `AssociationModel::build` over the
//! equivalent `slice_obs` window — same edge ids, same kept-edge sets,
//! bit-identical ACVs/baselines/raw matrices — across k ∈ {3, 5, 8},
//! all counting strategies, and thread counts {1, 3}, at every step of
//! the stream.

use hypermine::core::{AdvanceError, AssociationModel, ModelConfig};
use hypermine::data::{Database, StreamEvent, Value, WindowedDatabase};
use proptest::prelude::*;

/// Asserts full model equivalence: hypergraph (ids, sets, weights bit
/// for bit), baselines, majorities, raw ACV matrix, and the training
/// database itself.
fn assert_identical(adv: &AssociationModel, batch: &AssociationModel, what: &str) {
    assert_eq!(
        adv.hypergraph().num_edges(),
        batch.hypergraph().num_edges(),
        "{what}: edge count"
    );
    for (id, e) in batch.hypergraph().edges() {
        let o = adv.hypergraph().edge(id);
        assert_eq!(e.tail(), o.tail(), "{what}: tail of {id}");
        assert_eq!(e.head(), o.head(), "{what}: head of {id}");
        assert_eq!(
            e.weight().to_bits(),
            o.weight().to_bits(),
            "{what}: ACV of {id}"
        );
    }
    for t in adv.attrs() {
        assert_eq!(
            adv.baseline_acv(t).to_bits(),
            batch.baseline_acv(t).to_bits(),
            "{what}: baseline of {t}"
        );
        assert_eq!(
            adv.majority_value(t),
            batch.majority_value(t),
            "{what}: majority of {t}"
        );
        for h in adv.attrs() {
            assert_eq!(
                adv.raw_edge_acv(t, h).to_bits(),
                batch.raw_edge_acv(t, h).to_bits(),
                "{what}: raw ACV ({t}, {h})"
            );
        }
    }
    assert_eq!(adv.database(), batch.database(), "{what}: window database");
}

/// A random observation stream over `n_attrs` attributes with values in
/// `1..=k`, plus the window length to slide.
fn stream_with_k() -> impl Strategy<Value = (Vec<Vec<Value>>, usize, u8)> {
    (3usize..=5, 0usize..3).prop_flat_map(|(n_attrs, k_idx)| {
        let k = [3u8, 5, 8][k_idx];
        (8usize..=14, 6usize..=18).prop_flat_map(move |(window, extra)| {
            (
                proptest::collection::vec(
                    proptest::collection::vec(1..=k, n_attrs),
                    window + extra,
                ),
                Just(window),
                Just(k),
            )
        })
    })
}

fn db_from(rows: &[Vec<Value>], k: u8) -> Database {
    let n = rows[0].len();
    let cols: Vec<Vec<Value>> = (0..n)
        .map(|a| rows.iter().map(|r| r[a]).collect())
        .collect();
    Database::from_columns((0..n).map(|i| format!("A{i}")).collect(), k, cols).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `advance_batch(d)` produces exactly the model `d` sequential
    /// `advance` calls do — same edge ids, bit-identical ACVs, same
    /// epoch — for every batch size that divides the stream, on both
    /// the triple-tensor and (via the `Some(0)` budget override) the
    /// row-recount fallback paths.
    #[test]
    fn advance_batch_is_bit_identical_to_sequential_advances(
        (stream, window, k) in stream_with_k(),
        d in 2usize..=4,
        fallback_sel in 0usize..2,
    ) {
        let force_fallback = fallback_sel == 1;
        let full = db_from(&stream, k);
        let cfg = ModelConfig {
            threads: 1,
            triple_tensor_max_bytes: force_fallback.then_some(0),
            ..ModelConfig::default()
        };
        let mut sequential = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
        let mut batched = sequential.clone();
        let tail: Vec<Vec<Value>> = stream[window..].to_vec();
        for chunk in tail.chunks(d) {
            for row in chunk {
                sequential.advance(row).unwrap();
            }
            batched.advance_batch(chunk).unwrap();
            assert_identical(&batched, &sequential, &format!("after chunk of {}", chunk.len()));
            prop_assert_eq!(batched.epoch(), sequential.epoch());
        }
        let stats = batched.incremental_stats().expect("state built");
        prop_assert_eq!(stats.uses_triple_tensor, !force_fallback);
    }

    /// Sliding a model with `advance` equals rebuilding from scratch on
    /// the slid window, at every thread count, at every step.
    #[test]
    fn advance_is_bit_identical_to_batch_rebuild((stream, window, k) in stream_with_k()) {
        let full = db_from(&stream, k);
        let cfg = ModelConfig {
            threads: 1,
            ..ModelConfig::default()
        };
        let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
        for step in 0..stream.len() - window {
            model.advance(&stream[window + step]).unwrap();
            prop_assert_eq!(model.epoch(), (step + 1) as u64);
            let w = full.slice_obs(step + 1..step + 1 + window);
            for threads in [1usize, 3] {
                let batch = AssociationModel::build(
                    &w,
                    &ModelConfig { threads, ..ModelConfig::default() },
                )
                .unwrap();
                assert_identical(&model, &batch, &format!("step {step}, k {k}, x{threads}"));
            }
        }
    }

    /// Retire-only contraction: every `retire_oldest` — interleaved with
    /// fixed-width slides, after the ring has wrapped — leaves the model
    /// bit-identical to a batch rebuild of the contracted window, with
    /// the `WindowedDatabase` ring (driven through `StreamEvent`)
    /// materializing exactly the same window. Draining the model to one
    /// observation is rejected with `EmptyModel`.
    #[test]
    fn retire_only_contraction_matches_batch_rebuild((stream, window, k) in stream_with_k()) {
        let full = db_from(&stream, k);
        let cfg = ModelConfig { threads: 1, ..ModelConfig::default() };
        let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
        let mut ring =
            WindowedDatabase::from_database(&full.slice_obs(0..window), window).unwrap();
        let epoch0 = model.epoch();

        // Phase A: slide through all but two tail rows so the ring's
        // start pointer wraps before any contraction happens.
        let tail = stream.len() - window;
        let reserve = 2usize.min(tail);
        let mut s = 0usize; // fixed-width slides so far
        let mut r = 0usize; // retires so far
        for _ in 0..tail - reserve {
            let row = &stream[window + s];
            prop_assert!(ring.apply(StreamEvent::Obs(row)).unwrap().is_some());
            model.advance(row).unwrap();
            s += 1;
        }

        // Phase B: contract halfway down via Gap events, checking the
        // ring and a batch rebuild at every step.
        let half = (window - 2) / 2;
        for _ in 0..half {
            prop_assert!(ring.apply(StreamEvent::Gap).unwrap().is_some());
            model.retire_oldest().unwrap();
            r += 1;
            let expect = full.slice_obs(s + r..s + window);
            prop_assert_eq!(ring.to_database(), expect.clone());
            let batch = AssociationModel::build(&expect, &cfg).unwrap();
            assert_identical(&model, &batch, &format!("retire {r} after {s} slides"));
        }

        // Phase C: the reserved rows slide at the contracted width (the
        // model's `advance` is a fixed-width slide, so the ring mirrors
        // it with an explicit retire + append).
        for _ in 0..reserve {
            let row = &stream[window + s];
            prop_assert!(ring.retire_oldest().is_some());
            ring.append_obs(row).unwrap();
            model.advance(row).unwrap();
            s += 1;
            let expect = full.slice_obs(s + r..s + window);
            prop_assert_eq!(ring.to_database(), expect.clone());
            let batch = AssociationModel::build(&expect, &cfg).unwrap();
            assert_identical(&model, &batch, &format!("contracted slide {s}"));
        }

        // Phase D: drain to two observations, still bit-identical.
        while window - r > 2 {
            prop_assert!(ring.apply(StreamEvent::Gap).unwrap().is_some());
            model.retire_oldest().unwrap();
            r += 1;
            let expect = full.slice_obs(s + r..s + window);
            prop_assert_eq!(ring.to_database(), expect.clone());
            let batch = AssociationModel::build(&expect, &cfg).unwrap();
            assert_identical(&model, &batch, &format!("drain to {}", window - r));
        }
        // Every slide and every retire bumped the epoch exactly once.
        prop_assert_eq!(model.epoch(), epoch0 + (s + r) as u64);

        // One more retire reaches a single observation; beyond that the
        // model refuses rather than going empty.
        model.retire_oldest().unwrap();
        prop_assert_eq!(model.database().num_obs(), 1);
        prop_assert_eq!(model.retire_oldest(), Err(AdvanceError::EmptyModel));
    }

    /// The `WindowedDatabase` ring materializes exactly the `slice_obs`
    /// window at every slide, including after wrap-around.
    #[test]
    fn windowed_database_tracks_slice_obs((stream, window, k) in stream_with_k()) {
        let full = db_from(&stream, k);
        let mut ring = WindowedDatabase::from_database(&full.slice_obs(0..window), window).unwrap();
        for step in 0..stream.len() - window {
            ring.advance(&stream[window + step]).unwrap();
            prop_assert_eq!(ring.num_obs(), window);
            let expect = full.slice_obs(step + 1..step + 1 + window);
            prop_assert_eq!(ring.to_database(), expect);
        }
    }
}

/// The paper-configuration (C2, k = 5) market-shaped case: a longer
/// deterministic stream with strong cross-attribute structure, advanced
/// far enough to wrap the ring several times.
#[test]
fn long_structured_stream_stays_identical() {
    let n = 7usize;
    let k = 5u8;
    let len = 90usize;
    let window = 30usize;
    let rows: Vec<Vec<Value>> = (0..len)
        .map(|o| {
            (0..n)
                .map(|a| {
                    // Attributes 0/1 track each other; others cycle.
                    let v = match a {
                        0 => o % 5,
                        1 => (o + usize::from(o % 11 == 0)) % 5,
                        _ => (o / (a + 1) + a) % 5,
                    };
                    (v + 1) as Value
                })
                .collect()
        })
        .collect();
    let full = db_from(&rows, k);
    let cfg = ModelConfig {
        gamma_edge: 1.20,
        gamma_hyper: 1.12,
        threads: 1,
        ..ModelConfig::default()
    };
    let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
    for step in 0..len - window {
        model.advance(&rows[window + step]).unwrap();
        // Check a batch rebuild every few slides (and always at the end).
        if step % 5 == 4 || step == len - window - 1 {
            let batch =
                AssociationModel::build(&full.slice_obs(step + 1..step + 1 + window), &cfg)
                    .unwrap();
            assert_identical(&model, &batch, &format!("C2 step {step}"));
        }
    }
    assert_eq!(model.epoch(), (len - window) as u64);
}

/// Derived read paths (association tables, classifier-grade per-edge
/// tables) agree after advancing, because the model's database slid
/// exactly.
#[test]
fn tables_after_advance_match_batch_tables() {
    let k = 3u8;
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|o| {
            vec![
                (o % 3 + 1) as Value,
                ((o / 2) % 3 + 1) as Value,
                ((o * 5 / 3) % 3 + 1) as Value,
            ]
        })
        .collect();
    let full = db_from(&rows, k);
    let cfg = ModelConfig::default();
    let mut model = AssociationModel::build(&full.slice_obs(0..25), &cfg).unwrap();
    for step in 0..10 {
        model.advance(&rows[25 + step]).unwrap();
    }
    let batch = AssociationModel::build(&full.slice_obs(10..35), &cfg).unwrap();
    let (mt, bt) = (model.tables(), batch.tables());
    for (id, _) in batch.hypergraph().edges() {
        assert_eq!(mt.table(id), bt.table(id), "table of {id}");
    }
}

/// Wide-attribute streaming: at n = 128, k = 3 the triple tensor wants
/// ~56 MB and the default 32 MB budget forces the **row-recount
/// fallback** (the ROADMAP's untested n ≫ 100 crossover). Both single
/// and batched advances on that path must stay bit-identical to batch
/// rebuilds of the slid window.
#[test]
fn wide_attribute_stream_uses_fallback_and_stays_identical() {
    let n = 128usize;
    let k = 3u8;
    let window = 36usize;
    let len = window + 8;
    let rows: Vec<Vec<Value>> = (0..len)
        .map(|o| {
            (0..n)
                .map(|a| match a % 4 {
                    0 => (o % 3 + 1) as Value,
                    1 => ((o + a / 4) % 3 + 1) as Value,
                    2 => (((o * 5 + a * 11) / 2) % 3 + 1) as Value,
                    _ => ((o / 3 + a) % 3 + 1) as Value,
                })
                .collect()
        })
        .collect();
    let full = db_from(&rows, k);
    let cfg = ModelConfig {
        threads: 1,
        gamma_edge: 1.3,
        gamma_hyper: 1.25,
        ..ModelConfig::default()
    };
    // Single advances for the first half of the stream…
    let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
    for step in 0..4 {
        model.advance(&rows[window + step]).unwrap();
    }
    let stats = model.incremental_stats().expect("state built");
    assert!(
        !stats.uses_triple_tensor,
        "n = 128 must exceed the default tensor budget"
    );
    assert_eq!(stats.triple_tensor_bytes, 0);
    assert!(stats.s2_bytes > 0);
    let batch = AssociationModel::build(&full.slice_obs(4..4 + window), &cfg).unwrap();
    assert_identical(&model, &batch, "n=128 fallback after 4 single advances");
    // …one advance_batch for the second half.
    model.advance_batch(&rows[window + 4..]).unwrap();
    let batch = AssociationModel::build(&full.slice_obs(8..8 + window), &cfg).unwrap();
    assert_identical(&model, &batch, "n=128 fallback after advance_batch(4)");
    assert_eq!(model.epoch(), 8);
}

/// The `triple_tensor_max_bytes` override steers the engine between the
/// tensor and row-recount paths on the same fixture, with bit-identical
/// results either way; `incremental_stats` reports which side ran.
#[test]
fn tensor_budget_override_switches_paths_identically() {
    let k = 4u8;
    let rows: Vec<Vec<Value>> = (0..30)
        .map(|o| {
            vec![
                (o % 4 + 1) as Value,
                ((o / 2) % 4 + 1) as Value,
                ((o * 3 / 2) % 4 + 1) as Value,
                ((o / 5) % 4 + 1) as Value,
            ]
        })
        .collect();
    let full = db_from(&rows, k);
    let window = 20usize;
    let mut models = Vec::new();
    for budget in [None, Some(0), Some(usize::MAX)] {
        let cfg = ModelConfig {
            threads: 1,
            triple_tensor_max_bytes: budget,
            ..ModelConfig::default()
        };
        let mut model = AssociationModel::build(&full.slice_obs(0..window), &cfg).unwrap();
        for row in &rows[window..] {
            model.advance(row).unwrap();
        }
        let stats = model.incremental_stats().expect("state built");
        // n = 4, k = 4: the tensor costs 6·16·4·4·2 = 3 KB — within the
        // default budget, excluded by Some(0).
        assert_eq!(stats.uses_triple_tensor, budget != Some(0), "budget {budget:?}");
        assert_eq!(stats.triple_tensor_bytes > 0, budget != Some(0));
        models.push(model);
    }
    let batch = AssociationModel::build(
        &full.slice_obs(10..30),
        &ModelConfig {
            threads: 1,
            ..ModelConfig::default()
        },
    )
    .unwrap();
    for model in &models {
        assert_identical(model, &batch, "tensor-budget override");
    }
}

/// A bad row anywhere in a batch rejects the whole batch up front: the
/// model is untouched (no partial slides) and batching resumes cleanly.
#[test]
fn rejected_batches_leave_the_model_unchanged() {
    let k = 3u8;
    let rows: Vec<Vec<Value>> = (0..26)
        .map(|o| vec![(o % 3 + 1) as Value, ((o / 2) % 3 + 1) as Value, 1])
        .collect();
    let full = db_from(&rows, k);
    let cfg = ModelConfig::default();
    let mut model = AssociationModel::build(&full.slice_obs(0..20), &cfg).unwrap();
    model.advance(&rows[20]).unwrap();
    let before = model.clone();
    // Second row of the batch is invalid: arity, then range.
    assert_eq!(
        model.advance_batch(&[rows[21].clone(), vec![1, 2]]),
        Err(AdvanceError::ArityMismatch {
            expected: 3,
            got: 2
        })
    );
    assert_eq!(
        model.advance_batch(&[rows[21].clone(), vec![1, 4, 1]]),
        Err(AdvanceError::ValueOutOfRange { attr: 1, value: 4 })
    );
    assert_eq!(model.epoch(), 1);
    assert_identical(&model, &before, "after rejected batches");
    // An empty batch is a no-op, then a valid batch lands.
    model.advance_batch(&[]).unwrap();
    assert_eq!(model.epoch(), 1);
    model.advance_batch(&rows[21..24]).unwrap();
    assert_eq!(model.epoch(), 4);
    let batch = AssociationModel::build(&full.slice_obs(4..24), &cfg).unwrap();
    assert_identical(&model, &batch, "after the recovering batch");
}

/// Validation errors leave the model untouched and advancing resumes
/// cleanly afterwards.
#[test]
fn rejected_rows_do_not_corrupt_the_stream() {
    let k = 4u8;
    let rows: Vec<Vec<Value>> = (0..30)
        .map(|o| vec![(o % 4 + 1) as Value, ((o / 3) % 4 + 1) as Value, 1])
        .collect();
    let full = db_from(&rows, k);
    let cfg = ModelConfig::default();
    let mut model = AssociationModel::build(&full.slice_obs(0..20), &cfg).unwrap();
    model.advance(&rows[20]).unwrap();
    assert_eq!(
        model.advance(&[1, 2]),
        Err(AdvanceError::ArityMismatch {
            expected: 3,
            got: 2
        })
    );
    assert_eq!(
        model.advance(&[5, 1, 1]),
        Err(AdvanceError::ValueOutOfRange { attr: 0, value: 5 })
    );
    model.advance(&rows[21]).unwrap();
    assert_eq!(model.epoch(), 2);
    let batch = AssociationModel::build(&full.slice_obs(2..22), &cfg).unwrap();
    assert_identical(&model, &batch, "after rejected rows");
}
