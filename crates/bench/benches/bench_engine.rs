//! The propagation engine on a 10k-query synthetic graph, monolithic and
//! component-sharded.
//!
//! The first group times `engine::run` (the pull kernel) under the uniform
//! and the weighted transition. The sharded group compares `engine::run`
//! against `engine::run_with_strategy(Components)` (decomposition cost
//! included) on two 10k-query shapes: the standard synth graph (§9.2's
//! one-giant-component regime) and a federated disjoint union of 8
//! independent worlds (the multi-market regime where component structure is
//! real). `bench_ci` records the same series in `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simrankpp_core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::{ShardStrategy, SimrankConfig};
use simrankpp_graph::{AdId, ClickGraph, ClickGraphBuilder, QueryId, WeightKind};
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};

fn ten_k_graph() -> SynthDataset {
    let mut gen = GeneratorConfig::small();
    gen.n_queries = 10_000;
    gen.n_ads = 7_000;
    generate(&gen)
}

/// A 10k-query graph as the disjoint union of `k` independent worlds
/// (distinct seeds, offset id ranges) — the shape a multi-market /
/// multi-language deployment produces, where every market is its own
/// component.
fn federated_graph(k: usize) -> ClickGraph {
    let per_q = 10_000 / k;
    let per_a = 7_000 / k;
    let mut b = ClickGraphBuilder::new();
    b.reserve_queries((per_q * k) as u32);
    b.reserve_ads((per_a * k) as u32);
    for world in 0..k {
        let mut gen = GeneratorConfig::small();
        gen.n_queries = per_q;
        gen.n_ads = per_a;
        gen.seed = 0xFEDE_0000 + world as u64;
        let d = generate(&gen);
        let (qo, ao) = ((world * per_q) as u32, (world * per_a) as u32);
        for (q, a, e) in d.graph.edges() {
            b.add_edge(QueryId(qo + q.0), AdId(ao + a.0), *e);
        }
    }
    b.build()
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

fn sharded(c: &mut Criterion) {
    let standard = ten_k_graph().graph;
    let federated = federated_graph(8);
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);
    let cfg_sharded = cfg.with_sharding(ShardStrategy::Components);

    let mut group = c.benchmark_group("engine_10k_sharded");
    group.sample_size(10);
    for (name, g) in [("standard", &standard), ("federated8", &federated)] {
        group.bench_with_input(BenchmarkId::new("monolithic", name), g, |b, g| {
            b.iter(|| engine::run(g, &cfg, &UniformTransition))
        });
        group.bench_with_input(BenchmarkId::new("components", name), g, |b, g| {
            b.iter(|| engine::run_with_strategy(g, &cfg_sharded, &UniformTransition))
        });
    }
    // Steady-state regime: past the first few iterations the pair set is
    // stable and per-iteration cost dominates, where the per-component
    // working sets (prev/next merges, max-delta scans) are smaller and
    // cache-friendlier than the monolithic whole — the superlinear-cost
    // effect component decomposition exploits.
    let deep = cfg.with_iterations(20);
    let deep_sharded = deep.with_sharding(ShardStrategy::Components);
    group.bench_with_input(
        BenchmarkId::new("monolithic", "federated8_deep20"),
        &federated,
        |b, g| b.iter(|| engine::run(g, &deep, &UniformTransition)),
    );
    group.bench_with_input(
        BenchmarkId::new("components", "federated8_deep20"),
        &federated,
        |b, g| b.iter(|| engine::run_with_strategy(g, &deep_sharded, &UniformTransition)),
    );
    group.finish();
}

criterion_group!(benches, propagation, sharded);
criterion_main!(benches);
