//! Ablation benchmarks for the design choices the README's "Counting"
//! section and the paper's Chapters 3–4 make:
//!
//! - bitset counting engine vs the naive per-observation recount;
//! - Algorithm 6 with and without Enhancements 1/2;
//! - hyperedges on/off (directed-graph-only model — the paper's "directed
//!   hypergraphs capture more relationships than directed graphs").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hypermine_bench::fixture;
use hypermine_core::{
    node_of, set_cover_adaptation, AssociationModel, CountingEngine, ModelConfig,
    SetCoverOptions, StopRule,
};
use hypermine_data::AttrId;
use hypermine_hypergraph::NodeId;
use std::hint::black_box;

fn bench_counting_paths(c: &mut Criterion) {
    let f = fixture(30, 3 * 252, 3, 12);
    let engine = CountingEngine::new(&f.disc.database);
    let a = AttrId::new(0);
    let b_attr = AttrId::new(1);
    let h = AttrId::new(2);
    let mut group = c.benchmark_group("ablation_counting");
    group.bench_function("bitset_hyper_table", |b| {
        let pair = engine.pair_rows(a, b_attr);
        b.iter(|| black_box(engine.hyper_table(black_box(&pair), h)))
    });
    group.bench_function("naive_hyper_table", |b| {
        b.iter(|| black_box(engine.naive_table(black_box(&[a, b_attr]), h)))
    });
    group.finish();
}

fn bench_enhancements(c: &mut Criterion) {
    let f = fixture(50, 2 * 252, 3, 13);
    let thr = f.model.acv_percentile_threshold(0.4).unwrap();
    let filtered = f.model.filter_by_acv(thr);
    let nodes: Vec<NodeId> = f.model.attrs().map(node_of).collect();
    let mut group = c.benchmark_group("ablation_enhancements");
    group.sample_size(20);
    for (label, e1, e2) in [
        ("neither", false, false),
        ("enh1", true, false),
        ("enh2", false, true),
        ("both", true, true),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(e1, e2), |b, &(e1, e2)| {
            let opts = SetCoverOptions {
                stop: StopRule::NoCrossGain,
                enhancement1: e1,
                enhancement2: e2,
            };
            b.iter(|| {
                black_box(set_cover_adaptation(
                    filtered.hypergraph(),
                    black_box(&nodes),
                    &opts,
                ))
            })
        });
    }
    group.finish();
}

fn bench_hyperedges_on_off(c: &mut Criterion) {
    let f = fixture(40, 2 * 252, 3, 14);
    let mut group = c.benchmark_group("ablation_hyperedges");
    group.sample_size(10);
    for (label, with) in [("directed_only", false), ("with_hyperedges", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &with, |b, &with| {
            let cfg = ModelConfig {
                with_hyperedges: with,
                ..ModelConfig::c1()
            };
            b.iter(|| black_box(AssociationModel::build(&f.disc.database, &cfg).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_counting_paths,
    bench_enhancements,
    bench_hyperedges_on_off
);
criterion_main!(benches);
