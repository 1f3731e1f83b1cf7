//! The propagation engine on a 10k-query synthetic graph: `engine::run`
//! (the pull kernel) under the uniform and the weighted transition.
//! `bench_ci` records the same series in `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use simrankpp_core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::SimrankConfig;
use simrankpp_graph::WeightKind;
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};

fn ten_k_graph() -> SynthDataset {
    let mut gen = GeneratorConfig::small();
    gen.n_queries = 10_000;
    gen.n_ads = 7_000;
    generate(&gen)
}

fn propagation(c: &mut Criterion) {
    let dataset = ten_k_graph();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);

    let mut group = c.benchmark_group("engine_10k");
    group.sample_size(10);
    group.bench_function("pull_uniform", |b| {
        b.iter(|| engine::run(&dataset.graph, &cfg, &UniformTransition))
    });
    let weighted = WeightedTransition {
        kind: WeightKind::ExpectedClickRate,
        spread: SpreadMode::Exponential,
    };
    group.bench_function("pull_weighted", |b| {
        b.iter(|| engine::run(&dataset.graph, &cfg, &weighted))
    });
    group.finish();
}

criterion_group!(benches, propagation);
criterion_main!(benches);
