//! Section 5.1.2 benchmark: association-hypergraph construction — the cost
//! of computing every directed-edge and 2-to-1 hyperedge ACV with the
//! γ-significance filter, across universe size `n` and value-domain size
//! `k` (C1 uses k = 3, C2 uses k = 5; k = 8 and k = 12 probe the large-k
//! regime), on the one observation-major counting path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_market::{discretize_market, Market, SimConfig, Universe};
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for &tickers in &[20usize, 40, 60] {
        let market = Market::simulate(
            Universe::sp500(tickers),
            &SimConfig {
                n_days: 2 * 252,
                seed: 5,
                ..SimConfig::default()
            },
        );
        for &k in &[3u8, 5, 8, 12] {
            let disc = discretize_market(&market, k, None);
            let cfg = ModelConfig::c1();
            group.bench_with_input(
                BenchmarkId::new(format!("n{tickers}"), format!("k{k}")),
                &disc.database,
                |b, db| b.iter(|| AssociationModel::build(black_box(db), &cfg).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_edge_acv_kernels(c: &mut Criterion) {
    use hypermine_core::{CountingEngine, HeadCounter};
    use hypermine_data::{AttrId, PairBuckets};
    let market = Market::simulate(
        Universe::sp500(40),
        &SimConfig {
            n_days: 4 * 252,
            seed: 6,
            ..SimConfig::default()
        },
    );
    let disc = discretize_market(&market, 3, None);
    let engine = CountingEngine::new(&disc.database);
    let a = AttrId::new(0);
    let b_attr = AttrId::new(1);
    let h = AttrId::new(2);
    c.bench_function("kernel/edge_acv", |bch| {
        bch.iter(|| black_box(engine.edge_acv(black_box(a), black_box(h))))
    });
    let pair = engine.pair_rows(a, b_attr);
    c.bench_function("kernel/hyper_acv", |bch| {
        bch.iter(|| black_box(engine.hyper_acv(black_box(&pair), black_box(h))))
    });
    c.bench_function("kernel/pair_rows", |bch| {
        bch.iter(|| black_box(engine.pair_rows(black_box(a), black_box(b_attr))))
    });
    // Per-pair setup of the observation-major path (counting sort into a
    // warm scratch) — compare against kernel/pair_rows, its bitset-path
    // counterpart.
    let mut buckets = PairBuckets::new();
    c.bench_function("kernel/pair_buckets", |bch| {
        bch.iter(|| {
            engine.bucket_pair(black_box(a), black_box(b_attr), &mut buckets);
            black_box(buckets.num_obs())
        })
    });
    // The multi-head sweeps count *every* head per call; per-head compare
    // against the single-head kernels divided by (n − |T|).
    let mut counter = HeadCounter::new(disc.database.num_attrs(), disc.database.k());
    c.bench_function("kernel/edge_acv_all_heads", |bch| {
        bch.iter(|| {
            engine.edge_acv_all_heads(black_box(a), &mut counter);
            black_box(counter.acv(h))
        })
    });
    engine.bucket_pair(a, b_attr, &mut buckets);
    c.bench_function("kernel/hyper_acv_all_heads", |bch| {
        bch.iter(|| {
            engine.hyper_acv_all_heads(black_box(&buckets), &mut counter);
            black_box(counter.acv(h))
        })
    });
}

criterion_group!(benches, bench_construction, bench_edge_acv_kernels);
criterion_main!(benches);
