//! Criterion-free wall-clock bench harness for CI.
//!
//! The criterion benches under `benches/` are thorough but slow; CI needs a
//! smoke-level signal that still catches real regressions. `bench_ci`
//! re-measures the headline series of `BENCH_engine.json` and
//! `BENCH_serve.json` with plain `Instant` timings (median of a few reps),
//! emits both files in the committed schema, and — with `--check` —
//! compares the fresh engine numbers against the committed baseline:
//!
//! * any gated engine series more than `--tolerance` percent (default 25 —
//!   deliberately tolerant, CI runners are noisy) slower than the baseline
//!   fails the run;
//! * the serve incremental series must show `rebuild_incremental` after a
//!   single-world delta at least 5× faster than a full index rebuild on the
//!   multi-component 10k-query federated graph — the number the
//!   dirty-component refresh exists to deliver (machine-relative);
//! * the single-source engine must answer one top-k query (a row of the
//!   same `S^(k)` the run stores) at least 3 000× faster than a full
//!   all-pairs run over the same graph — the ratio the on-demand mode exists
//!   to deliver (measured in-process, so machine-relative);
//! * building that engine (`single_source/precompute_ms`) must cost at most
//!   2× one all-pairs run over the same graph in the same process — the live
//!   mode may not cost more than the run it avoids;
//! * the `serve_tcp` closed-loop series (real loopback sockets against an
//!   in-process threaded `NetServer`) must show 8 concurrent clients
//!   delivering at least 1.2× the QPS of a single client on runners with
//!   ≥ 4 cores — machine-relative, so a serializing server fails for a real
//!   reason; on smaller runners the gate degrades to a ≥ 0.5× collapse
//!   guard, since one core gives 8 threads nothing to overlap with.
//!
//! ```text
//! bench_ci [--quick] [--out-dir DIR] [--check] [--baseline-dir DIR]
//!          [--tolerance PCT] [--tier default|1m|stream] [--target-queries N]
//! ```
//!
//! `--quick` lowers repetitions (graph shapes stay identical, so keys stay
//! comparable across modes). To refresh the committed baseline after an
//! intentional perf change: `bench_ci --out-dir .` at the repo root and
//! commit the two JSON files.
//!
//! `--tier 1m` replaces the default series with the beyond-RAM scale proof
//! (`BENCH_scale.json`): a ~1M-query federated store is streamed to disk,
//! index-built segment-at-a-time under a peak-RSS ceiling, and served via
//! `MappedIndex` whose open time must stay flat from 10k to 1M queries.
//! Its gates are machine-relative ceilings — no committed baseline needed.
//! `--target-queries` shrinks the tier for smoke runs (labels keep their
//! nominal 10k/100k/1m names).
//!
//! `--tier stream` measures the streaming-ingestion path
//! (`BENCH_stream.json`): a 2k-query synth graph is replayed through an
//! `EpochIngestor` one component-slice per epoch at steady state (each
//! epoch renews exactly the slice the window retires), so every epoch
//! boundary drives a dirty-component refresh plus hot-swap into a live
//! `ServeState`. Reported: click-to-serve freshness p50/p95 (first event
//! of the batch → new generation swapped in), per-epoch refresh
//! wall-clock p50/p95, and the reused-vs-recomputed row split. Gated: the
//! median epoch refresh must beat a from-scratch rebuild by a
//! machine-relative floor, the windowed spam-campaign contamination must
//! be exactly zero while the unwindowed observer's is positive, and the
//! freshness/refresh series diff against the committed baseline like the
//! engine keys.

use simrankpp_core::engine::{self, UniformTransition, WeightedTransition};
use simrankpp_core::montecarlo::{mc_topk_into, McConfig};
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::{
    Method, MethodKind, Rewriter, RewriterConfig, RowWorkspace, SimrankConfig, SingleSourceEngine,
};
use simrankpp_eval::{run_windowed_spam_experiment, SpamTimeline};
use simrankpp_graph::components::connected_components;
use simrankpp_graph::{
    AdId, ClickGraph, ClickGraphBuilder, EdgeData, GraphDelta, QueryId, SegmentedStore, WeightKind,
};
use simrankpp_serve::{
    serve_session, EpochIngestor, IndexMeta, IngestConfig, IngestMetrics, LiveContext, LogTailer,
    MappedIndex, NetConfig, NetServer, RewriteIndex, ServeState,
};
use simrankpp_synth::federation::write_store;
use simrankpp_synth::generator::{generate, GeneratorConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::time::Instant;

struct Options {
    quick: bool,
    out_dir: String,
    check: bool,
    baseline_dir: String,
    tolerance_pct: f64,
    tier: String,
    target_queries: u64,
}

/// Engine series whose absolute time is gated against the committed
/// baseline. The pull kernel is the path every workload funnels through.
const GATED_ENGINE_KEYS: [&str; 4] = [
    "engine_10k/pull_uniform",
    "engine_10k/pull_weighted",
    "single_source/linearized_topk_x100_ms",
    "single_source/montecarlo_topk_x100_ms",
];

/// Floor on the incremental-vs-full index rebuild speedup (see module docs).
const MIN_INCREMENTAL_SPEEDUP: f64 = 5.0;

/// Floor on the per-query single-source win: one top-k query must be at
/// least this many times faster than a full all-pairs engine run on the
/// same 10k graph, measured in the same process. This is the headline
/// number of the on-demand mode — a cold serve-path query costs one row,
/// not the whole matrix. The row is `⌊k/2⌋+1` sparse series levels (3 at
/// this tier's `k = 5`): ≈ 15 600× when recorded, so the floor keeps ≥ 5×
/// headroom.
const MIN_SINGLE_SOURCE_SPEEDUP: f64 = 3000.0;

/// Ceiling on the live engine's precompute, in all-pairs runs: building the
/// single-source engine (one engine run per component block + reading the
/// diagonal off it) may cost at most this many times `engine_10k/pull_uniform`
/// on the same graph at the same config, measured in the same process — the
/// committed form of "the live mode costs no more than the run it avoids".
const MAX_PRECOMPUTE_VS_FULL_RUN: f64 = 2.0;

/// Ceiling on the §9.3 funnel's share of an offline build, machine-relative:
/// `RewriteIndex::build` over every query, in `Method::compute` runs of the
/// same graph, config and process. The read-out should cost what it returns
/// (a top-100 selection and an integer dedup per row), not what it could have
/// ranked: 0.11 when recorded (0.57 while every candidate of every row was
/// stemmed and every row fully sorted); the ceiling is twice the recorded
/// ratio, rounded up to one decimal.
const MAX_INDEX_BUILD_VS_METHOD_COMPUTE: f64 = 0.3;

/// Closed-loop requests each TCP load-generator client sends per run.
const TCP_REQS_PER_CLIENT: usize = 400;

/// Floor on the TCP throughput win of 8 closed-loop clients over 1,
/// machine-relative (both sides measured against the same in-process server
/// on this runner). Thread-per-connection serving exists to overlap
/// per-connection syscall latency; if 8 clients can't beat one client's QPS
/// by at least this factor, connections are serializing somewhere. Applied
/// only where the runner has cores to overlap (≥ 4).
const MIN_TCP_CONCURRENCY_SPEEDUP: f64 = 1.2;

/// On runners with < 4 cores there is no parallelism for 8 clients to win
/// with — thread-per-connection can only tie 1 client there, minus
/// scheduling overhead. The gate degrades to a collapse guard: anything
/// below this means connections are blocking each other outright (a held
/// lock across request handling), not just sharing a core.
const MIN_TCP_NO_COLLAPSE: f64 = 0.5;

/// Ceiling on the `--tier 1m` segmented build's peak RSS (VmHWM). The whole
/// point of the segmented pipeline is that build memory is bounded by the
/// largest segment plus the output index, never by the store — a 1M-query
/// build that climbs past this is holding more than one segment's scores.
const MAX_1M_PEAK_RSS_MB: f64 = 2048.0;

/// Ceiling on opening the 1M-query snapshot via [`MappedIndex`]: open cost
/// is O(#sections) header/table work plus one `mmap` — milliseconds flat,
/// regardless of index size.
const MAX_MAPPED_OPEN_MS_1M: f64 = 50.0;

/// Ceiling on `open(1M) / open(10k)`: startup must stay flat as the index
/// grows 100×. A ratio drifting up means something O(n) crept into open.
const MAX_OPEN_FLATNESS: f64 = 8.0;

/// Component slices the `--tier stream` replay rotates through — also the
/// window length, so at steady state each epoch renews exactly the slice
/// the window retires (1/8 of the graph dirty per epoch, 7/8 copied).
const STREAM_SLICES: u32 = 8;

/// Floor on the stream tier's incremental win, machine-relative: the
/// median epoch refresh (1 dirty slice of 8) must beat a from-scratch
/// rebuild of the whole surviving window by at least this factor — the
/// number the per-epoch dirty-component path exists to deliver.
const MIN_STREAM_INCREMENTAL_SPEEDUP: f64 = 5.0;

/// Floor on the crash-recovery win, machine-relative: restarting from a
/// durable checkpoint (replay = surviving window + tail) must beat
/// re-ingesting the whole click log from byte zero by at least this
/// factor. The log in the series is long on purpose — this is the number
/// that keeps restart time bounded by the window, not by process uptime.
const MIN_RECOVERY_SPEEDUP: f64 = 2.0;

/// Stream series gated against the committed `BENCH_stream.json`.
const GATED_STREAM_KEYS: [&str; 3] = [
    "stream_2k/freshness_p50_ms",
    "stream_2k/freshness_p95_ms",
    "stream_2k/epoch_refresh_p50_ms",
];

fn main() {
    let mut opts = Options {
        quick: false,
        out_dir: ".".to_owned(),
        check: false,
        baseline_dir: ".".to_owned(),
        tolerance_pct: 25.0,
        tier: "default".to_owned(),
        target_queries: 1_000_000,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("{} needs a value", args[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--check" => {
                opts.check = true;
                i += 1;
            }
            "--out-dir" => {
                opts.out_dir = value(i);
                i += 2;
            }
            "--baseline-dir" => {
                opts.baseline_dir = value(i);
                i += 2;
            }
            "--tolerance" => {
                opts.tolerance_pct = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance needs a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--tier" => {
                opts.tier = value(i);
                if !matches!(opts.tier.as_str(), "default" | "1m" | "stream") {
                    eprintln!("--tier must be 'default', '1m' or 'stream'");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--target-queries" => {
                opts.target_queries = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--target-queries needs a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_ci [--quick] [--out-dir DIR] [--check] \
                     [--baseline-dir DIR] [--tolerance PCT] [--tier default|1m|stream] \
                     [--target-queries N]"
                );
                std::process::exit(2);
            }
        }
    }

    let reps = if opts.quick { 3 } else { 5 };
    eprintln!(
        "bench_ci: {} mode, {reps} reps per series",
        if opts.quick { "quick" } else { "full" }
    );

    if opts.tier == "1m" {
        let (scale_results, scale_derived) = scale_series(&opts, reps);
        let scale_json = render_scale_json(&opts, &scale_results, &scale_derived);
        std::fs::create_dir_all(&opts.out_dir).expect("cannot create --out-dir");
        let scale_path = format!("{}/BENCH_scale.json", opts.out_dir);
        simrankpp_util::atomic_write_bytes(
            std::path::Path::new(&scale_path),
            scale_json.as_bytes(),
        )
        .expect("cannot write BENCH_scale.json");
        eprintln!("wrote {scale_path}");
        if opts.check {
            let failures = check_scale(&scale_results, &scale_derived);
            if !failures.is_empty() {
                eprintln!("bench-check (1m tier) FAILED:");
                for f in &failures {
                    eprintln!("  - {f}");
                }
                std::process::exit(1);
            }
            eprintln!("bench-check (1m tier) passed");
        }
        return;
    }

    if opts.tier == "stream" {
        let (stream_results, stream_derived) = stream_series(&opts, reps);
        let stream_json = render_stream_json(&opts, &stream_results, &stream_derived);
        std::fs::create_dir_all(&opts.out_dir).expect("cannot create --out-dir");
        let stream_path = format!("{}/BENCH_stream.json", opts.out_dir);
        simrankpp_util::atomic_write_bytes(
            std::path::Path::new(&stream_path),
            stream_json.as_bytes(),
        )
        .expect("cannot write BENCH_stream.json");
        eprintln!("wrote {stream_path}");
        if opts.check {
            let failures = check_stream(&opts, &stream_results, &stream_derived);
            if !failures.is_empty() {
                eprintln!("bench-check (stream tier) FAILED:");
                for f in &failures {
                    eprintln!("  - {f}");
                }
                std::process::exit(1);
            }
            eprintln!("bench-check (stream tier) passed");
        }
        return;
    }

    let (engine_results, engine_speedups) = engine_series(reps);
    let (serve_results, serve_derived) = serve_series(reps);

    let engine_json = render_engine_json(&opts, &engine_results, &engine_speedups);
    let serve_json = render_serve_json(&opts, &serve_results, &serve_derived);
    std::fs::create_dir_all(&opts.out_dir).expect("cannot create --out-dir");
    let engine_path = format!("{}/BENCH_engine.json", opts.out_dir);
    let serve_path = format!("{}/BENCH_serve.json", opts.out_dir);
    simrankpp_util::atomic_write_bytes(std::path::Path::new(&engine_path), engine_json.as_bytes())
        .expect("cannot write BENCH_engine.json");
    simrankpp_util::atomic_write_bytes(std::path::Path::new(&serve_path), serve_json.as_bytes())
        .expect("cannot write BENCH_serve.json");
    eprintln!("wrote {engine_path} and {serve_path}");

    if opts.check {
        let failures = check(&opts, &engine_results, &engine_speedups, &serve_derived);
        if !failures.is_empty() {
            eprintln!("bench-check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        eprintln!("bench-check passed");
    }
}

/// Median wall-clock milliseconds of `reps` runs (after one warmup).
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f()); // warmup
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn ten_k_graph() -> ClickGraph {
    let mut gen = GeneratorConfig::small();
    gen.n_queries = 10_000;
    gen.n_ads = 7_000;
    generate(&gen).graph
}

/// 10k queries as a disjoint union of `k` independently generated worlds —
/// the multi-market regime where component structure (and incrementality)
/// is real.
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

/// A delta confined to world 0 of a `k`-world federated graph: the
/// single-market update stream every other market should not pay for.
fn world0_delta(k: usize) -> GraphDelta {
    let (per_q, per_a) = ((10_000 / k) as u32, (7_000 / k) as u32);
    let mut d = GraphDelta::new();
    for i in 0..8u32 {
        d.upsert(
            QueryId((i * 157) % per_q),
            AdId((i * 211) % per_a),
            EdgeData::from_clicks(3),
        );
    }
    d
}

fn engine_series(reps: usize) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut r = BTreeMap::new();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);
    let weighted = WeightedTransition {
        kind: WeightKind::ExpectedClickRate,
        spread: SpreadMode::Exponential,
    };

    eprintln!("engine: kernel series (10k standard graph)");
    let standard = ten_k_graph();
    r.insert(
        "engine_10k/pull_uniform".to_owned(),
        median_ms(reps, || engine::run(&standard, &cfg, &UniformTransition)),
    );
    r.insert(
        "engine_10k/pull_weighted".to_owned(),
        median_ms(reps, || engine::run(&standard, &cfg, &weighted)),
    );
    eprintln!("engine: single-source series (10k standard graph, 100 queries/rep)");
    // Precompute = transition factors + the block-local per-iteration
    // diagonals (one engine run per component at `cfg`, recording them):
    // the one-off cost a live server pays before answering its first query.
    // Not in
    // GATED_ENGINE_KEYS; gated as a same-run ratio to `pull_uniform` instead
    // (`single_source_precompute_vs_full_run`).
    let mut ss_engine = None;
    r.insert(
        "single_source/precompute_ms".to_owned(),
        median_ms(reps, || {
            ss_engine = Some(SingleSourceEngine::new(&standard, &cfg, &UniformTransition))
        }),
    );
    let ss_engine = ss_engine.expect("timed run constructs the engine");
    let nq = standard.n_queries() as u32;
    let mut ws = RowWorkspace::new(standard.n_queries(), standard.n_ads());
    let mut top = Vec::new();
    r.insert(
        "single_source/linearized_topk_x100_ms".to_owned(),
        median_ms(reps, || {
            let mut total = 0usize;
            for i in 0..100u32 {
                ss_engine.top_k_into(&standard, QueryId((i * 7919) % nq), 10, &mut ws, &mut top);
                total += top.len();
            }
            total
        }),
    );
    let mc = McConfig {
        walks: 512,
        ..McConfig::default()
    };
    r.insert(
        "single_source/montecarlo_topk_x100_ms".to_owned(),
        median_ms(reps, || {
            let mut total = 0usize;
            for i in 0..100u32 {
                mc_topk_into(&standard, QueryId((i * 7919) % nq), 10, &cfg, &mc, &mut top);
                total += top.len();
            }
            total
        }),
    );
    drop(ss_engine);
    drop(standard);

    let mut speedups = BTreeMap::new();
    // Per-query single-source latency vs one full all-pairs run: both sides
    // measured in this process, so the ratio is machine-relative.
    speedups.insert(
        "single_source_linearized_query_vs_full_run".to_owned(),
        r["engine_10k/pull_uniform"] / (r["single_source/linearized_topk_x100_ms"] / 100.0),
    );
    speedups.insert(
        "single_source_montecarlo_query_vs_full_run".to_owned(),
        r["engine_10k/pull_uniform"] / (r["single_source/montecarlo_topk_x100_ms"] / 100.0),
    );
    // A cost ratio, not a speedup: lower is better, gated by a ceiling.
    speedups.insert(
        "single_source_precompute_vs_full_run".to_owned(),
        r["single_source/precompute_ms"] / r["engine_10k/pull_uniform"],
    );
    (r, speedups)
}

/// One closed-loop TCP load run: `clients` connections each round-tripping
/// `reqs` `rewrite` requests against the server at `addr`. Returns
/// `(p50_ms, p99_ms, qps)` over the merged per-request latencies.
fn tcp_load(
    addr: std::net::SocketAddr,
    clients: usize,
    reqs: usize,
    names: &[String],
) -> (f64, f64, f64) {
    use std::io::{BufRead, BufReader, Write};
    let t0 = Instant::now();
    let mut lat: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let stream = std::net::TcpStream::connect(addr).expect("connect load client");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = stream;
                    let mut lat = Vec::with_capacity(reqs);
                    let mut req = String::new();
                    let mut line = String::new();
                    for i in 0..reqs {
                        let name = &names[(c * reqs + i) % names.len()];
                        req.clear();
                        req.push_str("rewrite ");
                        req.push_str(name);
                        req.push('\n');
                        let t = Instant::now();
                        writer.write_all(req.as_bytes()).expect("send request");
                        line.clear();
                        reader.read_line(&mut line).expect("read response");
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        assert!(line.starts_with("ok\t"), "load answer: {line:?}");
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
    (pct(0.50), pct(0.99), (clients * reqs) as f64 / wall)
}

fn serve_series(reps: usize) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut r = BTreeMap::new();
    let mut derived = BTreeMap::new();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);

    eprintln!("serve: lookup + offline series (10k standard graph)");
    let g = ten_k_graph();
    let method_compute_ms = median_ms(reps, || {
        Method::compute(MethodKind::WeightedSimrank, &g, &cfg)
    });
    let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
    let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
    // The rewriter interns its stem-class table in the warm-up build; the
    // timed builds are the funnel alone.
    r.insert(
        "serve_10k_offline/index_build_t1_ms".to_owned(),
        median_ms(reps, || RewriteIndex::build(&rewriter, None, 1)),
    );
    derived.insert(
        "serve_10k_offline/index_build_vs_method_compute".to_owned(),
        r["serve_10k_offline/index_build_t1_ms"] / method_compute_ms,
    );
    eprintln!(
        "serve: index build {:.1} ms vs Method::compute {method_compute_ms:.1} ms",
        r["serve_10k_offline/index_build_t1_ms"]
    );
    let index = RewriteIndex::build(&rewriter, None, 1);
    let n = index.n_queries() as u32;
    r.insert(
        "serve_10k/lookup_by_id_x1000_ms".to_owned(),
        median_ms(reps, || {
            let mut total = 0usize;
            for i in 0..1000u32 {
                total += index.rewrites_of(QueryId((i * 7919) % n)).len();
            }
            total
        }),
    );
    let names: Vec<&str> = (0..1000u32)
        .filter_map(|i| index.query_name(QueryId((i * 7919) % n)))
        .collect();
    r.insert(
        "serve_10k/lookup_by_name_x1000_ms".to_owned(),
        median_ms(reps, || {
            let mut total = 0usize;
            for name in &names {
                total += index.lookup(name).map_or(0, |s| s.len());
            }
            total
        }),
    );
    r.insert(
        "serve_10k_offline/snapshot_roundtrip_ms".to_owned(),
        median_ms(reps, || {
            let mut buf = Vec::new();
            index.write_snapshot(&mut buf).expect("snapshot write");
            RewriteIndex::read_snapshot(buf.as_slice()).expect("snapshot read")
        }),
    );
    drop(names);

    eprintln!("serve: TCP closed-loop series (10k standard graph, in-process server)");
    // The load generator speaks the real wire protocol against a real
    // in-process NetServer on loopback: closed-loop (each client waits for
    // its answer before sending the next request), 1 client for the
    // single-connection floor and 8 for the concurrency headline.
    let load_names: Vec<String> = (0..1000u32)
        .filter_map(|i| index.query_name(QueryId((i * 7919) % n)))
        .map(str::to_owned)
        .collect();
    let server = NetServer::bind(
        std::sync::Arc::new(ServeState::fixed(index)),
        NetConfig::default(),
    )
    .expect("bind bench server");
    let addr = server.local_addr().expect("bench server addr");
    let signal = server.shutdown_signal();
    let server_join = std::thread::spawn(move || server.serve());
    tcp_load(addr, 1, 50, &load_names); // connection + cache warmup
    for clients in [1usize, 8] {
        // Median-QPS run of `reps` keeps the committed numbers stable; the
        // percentiles come from that same run so they describe one load.
        let mut runs: Vec<(f64, f64, f64)> = (0..reps)
            .map(|_| tcp_load(addr, clients, TCP_REQS_PER_CLIENT, &load_names))
            .collect();
        runs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite qps"));
        let (p50, p99, qps) = runs[runs.len() / 2];
        r.insert(format!("serve_tcp/clients{clients}_p50_ms"), p50);
        r.insert(format!("serve_tcp/clients{clients}_p99_ms"), p99);
        derived.insert(format!("tcp_qps_clients{clients}"), qps);
        eprintln!(
            "serve: tcp clients={clients}: p50 {:.0} us, p99 {:.0} us, {:.0} qps",
            p50 * 1e3,
            p99 * 1e3,
            qps
        );
    }
    derived.insert(
        "tcp_qps_scaling_8_vs_1".to_owned(),
        derived["tcp_qps_clients8"] / derived["tcp_qps_clients1"],
    );
    signal.trigger();
    server_join
        .join()
        .expect("bench server thread")
        .expect("bench server serve");
    drop(rewriter);

    eprintln!("serve: single-source cold/warm series (10k standard graph, 100 queries/rep)");
    // Cold reps each hit 100 queries nobody asked before (7919 is coprime
    // with the query count, so the stream never repeats an id); the warm rep
    // replays one fixed batch that has already been served. The gap between
    // the two series is what the row cache buys on a repeat query.
    let nq = g.n_queries() as u32;
    let name_of = |i: u32| {
        g.query_name(QueryId(i % nq))
            .expect("synthetic graphs carry query names")
            .to_owned()
    };
    let mut cold_inputs = (0..=reps)
        .map(|rep| {
            let mut s = String::new();
            for j in 0..100 {
                let i = (rep * 100 + j) as u32;
                s.push_str("rewrite ");
                s.push_str(&name_of((i * 7919) % nq));
                s.push('\n');
            }
            s
        })
        .collect::<Vec<_>>()
        .into_iter();
    let warm_input: String = (0..100u32).fold(String::new(), |mut s, i| {
        s.push_str("rewrite ");
        s.push_str(&name_of(i));
        s.push('\n');
        s
    });
    let meta = IndexMeta {
        method: MethodKind::WeightedSimrank,
        max_rewrites: 5,
        bid_filtered: false,
        approx_sharding: false,
        kernel: cfg.kernel,
        segments: 0,
    };
    let live = LiveContext::new(
        g,
        MethodKind::WeightedSimrank,
        cfg,
        RewriterConfig::default(),
    )
    .expect("live context over a recursive method");
    let state = ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, 1024);
    let run_batch = |input: &str| {
        let mut out = Vec::new();
        serve_session(&state, input.as_bytes(), &mut out).expect("serve session");
        out.len()
    };
    r.insert(
        "serve_10k_single_source/cold_query_x100_ms".to_owned(),
        median_ms(reps, || {
            run_batch(&cold_inputs.next().expect("one cold batch per rep"))
        }),
    );
    run_batch(&warm_input); // prime the cache once
    r.insert(
        "serve_10k_single_source/warm_query_x100_ms".to_owned(),
        median_ms(reps, || run_batch(&warm_input)),
    );
    drop(state);

    eprintln!("serve: incremental rebuild series (10k federated8 graph)");
    let federated = federated_graph(8);
    let build_full = |g: &ClickGraph| {
        let method = Method::compute(MethodKind::WeightedSimrank, g, &cfg);
        let rewriter = Rewriter::new(g, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    };
    let old_index = build_full(&federated);
    let delta = world0_delta(8);
    let g1 = delta.apply(&federated);
    let dirty = delta.dirty_components(&g1);
    r.insert(
        "serve_10k_incremental/full_rebuild_ms".to_owned(),
        median_ms(reps, || build_full(&g1)),
    );
    r.insert(
        "serve_10k_incremental/incremental_update_ms".to_owned(),
        median_ms(reps, || {
            old_index
                .rebuild_incremental(&g1, &dirty, &cfg, &RewriterConfig::default(), None)
                .expect("incremental rebuild")
        }),
    );
    derived.insert(
        "speedup_incremental_vs_full_rebuild".to_owned(),
        r["serve_10k_incremental/full_rebuild_ms"]
            / r["serve_10k_incremental/incremental_update_ms"],
    );
    derived.insert(
        "speedup_warm_vs_cold_query".to_owned(),
        r["serve_10k_single_source/cold_query_x100_ms"]
            / r["serve_10k_single_source/warm_query_x100_ms"],
    );
    (r, derived)
}

/// Peak resident set size of this process in MB (Linux `VmHWM`), `None`
/// where `/proc` is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `--tier 1m` series: federated store write, segmented index build
/// with a peak-RSS ceiling, and mmap open-time flatness at 1×/10×/100× of
/// `--target-queries / 100`. With the default target the labels are literal:
/// 10k, 100k and 1M query nodes. Returns `(results_ms, derived)`.
fn scale_series(opts: &Options, reps: usize) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut r = BTreeMap::new();
    let mut derived = BTreeMap::new();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);
    let world = GeneratorConfig::small();
    let tmp = std::env::temp_dir();
    let scales: [(u64, &str); 3] = [
        ((opts.target_queries / 100).max(1), "10k"),
        ((opts.target_queries / 10).max(1), "100k"),
        (opts.target_queries.max(1), "1m"),
    ];

    let mut cleanup: Vec<std::path::PathBuf> = Vec::new();
    for (target, label) in scales {
        let store_path = tmp.join(format!("simrankpp_bench_scale_{label}.seg"));
        let snap_path = tmp.join(format!("simrankpp_bench_scale_{label}.idx"));
        cleanup.push(store_path.clone());
        cleanup.push(snap_path.clone());

        eprintln!("scale: {label}: writing federated store ({target} query target)");
        let t0 = Instant::now();
        let stats = write_store(&world, target, &store_path).expect("write federated store");
        let write_ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "scale: {label}: {} queries / {} segments / {:.1} MB in {:.0} ms",
            stats.total_queries,
            stats.n_worlds,
            stats.file_bytes as f64 / 1e6,
            write_ms
        );

        let mut store = SegmentedStore::open(&store_path).expect("open federated store");
        let t0 = Instant::now();
        let index = RewriteIndex::build_segmented(
            &mut store,
            MethodKind::WeightedSimrank,
            &cfg,
            RewriterConfig::default(),
            None,
        )
        .expect("segmented build");
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "scale: {label}: segmented build of {} rows in {:.0} ms",
            index.n_queries(),
            build_ms
        );

        let t0 = Instant::now();
        index.save(&snap_path).expect("write snapshot");
        let snap_write_ms = t0.elapsed().as_secs_f64() * 1e3;

        if label == "1m" {
            r.insert("scale_1m/store_write_ms".to_owned(), write_ms);
            r.insert("engine_1m/segmented_build_ms".to_owned(), build_ms);
            r.insert("serve_1m/snapshot_write_ms".to_owned(), snap_write_ms);
            derived.insert("store_queries".to_owned(), stats.total_queries as f64);
            derived.insert("store_segments".to_owned(), stats.n_worlds as f64);
            derived.insert("store_edges".to_owned(), stats.total_edges as f64);
            derived.insert("store_mb".to_owned(), stats.file_bytes as f64 / 1e6);
            derived.insert("index_entries".to_owned(), index.n_entries() as f64);
            derived.insert(
                "snapshot_mb".to_owned(),
                std::fs::metadata(&snap_path)
                    .expect("snapshot metadata")
                    .len() as f64
                    / 1e6,
            );
            if let Some(mb) = peak_rss_mb() {
                derived.insert("peak_rss_mb".to_owned(), mb);
            }
        }
        drop(index);
        drop(store);

        r.insert(
            format!("serve_1m/mapped_open_{label}_ms"),
            median_ms(reps, || MappedIndex::open(&snap_path).expect("mapped open")),
        );
        if label == "1m" {
            let t0 = Instant::now();
            let heap = RewriteIndex::read_snapshot(File::open(&snap_path).expect("open snapshot"))
                .expect("heap decode");
            r.insert(
                "serve_1m/heap_decode_ms".to_owned(),
                t0.elapsed().as_secs_f64() * 1e3,
            );
            drop(heap);
        }
    }

    derived.insert(
        "open_flatness_1m_vs_10k".to_owned(),
        r["serve_1m/mapped_open_1m_ms"] / r["serve_1m/mapped_open_10k_ms"],
    );
    derived.insert(
        "mapped_open_vs_heap_decode_1m".to_owned(),
        r["serve_1m/heap_decode_ms"] / r["serve_1m/mapped_open_1m_ms"],
    );
    for p in cleanup {
        std::fs::remove_file(p).ok();
    }
    (r, derived)
}

/// Machine-relative gates for the 1m tier — no committed-baseline
/// comparison: RSS and open-time ceilings plus the flatness ratio hold on
/// any runner or fail for a real reason.
fn check_scale(results: &BTreeMap<String, f64>, derived: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    match derived.get("peak_rss_mb") {
        Some(&rss) if rss > MAX_1M_PEAK_RSS_MB => failures.push(format!(
            "segmented 1M build peaked at {rss:.0} MB RSS (ceiling: {MAX_1M_PEAK_RSS_MB} MB — \
             build memory must stay bounded by the largest segment)"
        )),
        Some(&rss) => eprintln!("gate ok: peak RSS {rss:.0} MB (ceiling {MAX_1M_PEAK_RSS_MB} MB)"),
        None => eprintln!("note: /proc/self/status unavailable; skipping RSS gate"),
    }
    let open_1m = results["serve_1m/mapped_open_1m_ms"];
    if open_1m > MAX_MAPPED_OPEN_MS_1M {
        failures.push(format!(
            "mmap open of the 1M snapshot took {open_1m:.2} ms \
             (ceiling: {MAX_MAPPED_OPEN_MS_1M} ms)"
        ));
    } else {
        eprintln!("gate ok: 1M mapped open {open_1m:.2} ms (ceiling {MAX_MAPPED_OPEN_MS_1M} ms)");
    }
    let flatness = derived["open_flatness_1m_vs_10k"];
    if flatness > MAX_OPEN_FLATNESS {
        failures.push(format!(
            "open time grew {flatness:.1}x from 10k to 1M queries \
             (ceiling: {MAX_OPEN_FLATNESS}x — open must be O(#sections), not O(n))"
        ));
    } else {
        eprintln!("gate ok: open flatness {flatness:.2}x (ceiling {MAX_OPEN_FLATNESS}x)");
    }
    failures
}

/// Nearest-rank percentile of an ascending-sorted series.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The `--tier stream` series: steady-state epoch replay through an
/// `EpochIngestor` publishing into a live `ServeState`, plus the §11
/// spam-campaign contamination contrast. Returns `(results_ms, derived)`.
fn stream_series(opts: &Options, reps: usize) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut r = BTreeMap::new();
    let mut derived = BTreeMap::new();
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4);
    let world = generate(&GeneratorConfig::small()).graph;
    let labels = connected_components(&world);

    // Slice the graph by component (label mod STREAM_SLICES): components
    // are closed under refresh, so an epoch touching one slice leaves the
    // other slices' rows copy-clean — the locality real click traffic has.
    let mut slices: Vec<Vec<(&str, &str, EdgeData)>> = vec![Vec::new(); STREAM_SLICES as usize];
    for (q, a, e) in world.edges() {
        let s = (labels.query_label[q.index()] % STREAM_SLICES) as usize;
        slices[s].push((
            world.query_name(q).expect("named graph"),
            world.ad_name(a).expect("named graph"),
            *e,
        ));
    }

    let mut ingestor = EpochIngestor::new(IngestConfig {
        window: STREAM_SLICES as usize,
        decay: 1.0,
        method: MethodKind::WeightedSimrank,
        config: cfg,
        rewriter: RewriterConfig::default(),
        threads: 0,
    });
    // Warm-up: stream one slice per epoch until every slice is in-window,
    // then the first (full) build. From here on each epoch renews exactly
    // the slice the window retires — a stationary stream.
    for e in 0..STREAM_SLICES as u64 {
        ingestor.advance_to(e);
        for &(q, a, d) in &slices[(e % STREAM_SLICES as u64) as usize] {
            ingestor.observe(q, a, d);
        }
    }
    let t0 = Instant::now();
    let (index, _, _) = ingestor.refresh().expect("first full build");
    r.insert(
        "stream_2k/first_full_build_ms".to_owned(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    eprintln!(
        "stream: first full build of {} queries / {} rewrites in {:.0} ms",
        index.n_queries(),
        index.n_entries(),
        r["stream_2k/first_full_build_ms"]
    );

    let metrics = std::sync::Arc::new(IngestMetrics::default());
    let state = ServeState::ingesting(index, std::sync::Arc::clone(&metrics));
    let epochs = if opts.quick { 8 } else { 16 };
    let mut freshness_ms: Vec<f64> = Vec::with_capacity(epochs);
    let mut refresh_ms: Vec<f64> = Vec::with_capacity(epochs);
    let (mut refreshed_rows, mut copied_rows) = (0usize, 0usize);
    let mut events = 0usize;
    for e in STREAM_SLICES as u64..STREAM_SLICES as u64 + epochs as u64 {
        ingestor.advance_to(e);
        events += slices[(e % STREAM_SLICES as u64) as usize].len();
        for &(q, a, d) in &slices[(e % STREAM_SLICES as u64) as usize] {
            ingestor.observe(q, a, d);
        }
        let stats = ingestor.refresh_and_publish(&state).expect("epoch refresh");
        let ord = std::sync::atomic::Ordering::Relaxed;
        freshness_ms.push(metrics.last_freshness_us.load(ord) as f64 / 1e3);
        refresh_ms.push(metrics.last_refresh_us.load(ord) as f64 / 1e3);
        refreshed_rows += stats.refreshed_queries;
        copied_rows += stats.copied_queries;
        black_box(state.handle().load());
    }
    freshness_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    refresh_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    r.insert(
        "stream_2k/freshness_p50_ms".to_owned(),
        percentile(&freshness_ms, 0.5),
    );
    r.insert(
        "stream_2k/freshness_p95_ms".to_owned(),
        percentile(&freshness_ms, 0.95),
    );
    r.insert(
        "stream_2k/epoch_refresh_p50_ms".to_owned(),
        percentile(&refresh_ms, 0.5),
    );
    r.insert(
        "stream_2k/epoch_refresh_p95_ms".to_owned(),
        percentile(&refresh_ms, 0.95),
    );

    // The from-scratch contrast: what every epoch boundary would cost
    // without the dirty-component path (full method + pipeline + index
    // over the same graph shape the window holds at steady state).
    let scratch_ms = median_ms(reps.min(3), || {
        let method = Method::compute(MethodKind::WeightedSimrank, &world, &cfg);
        let rewriter = Rewriter::new(&world, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 0)
    });
    r.insert("stream_2k/scratch_rebuild_ms".to_owned(), scratch_ms);
    derived.insert(
        "epoch_speedup_incremental_vs_scratch".to_owned(),
        scratch_ms / percentile(&refresh_ms, 0.5),
    );
    derived.insert(
        "rows_copied_fraction".to_owned(),
        copied_rows as f64 / (copied_rows + refreshed_rows).max(1) as f64,
    );
    derived.insert("epochs_measured".to_owned(), epochs as f64);
    derived.insert("events_ingested".to_owned(), events as f64);
    eprintln!(
        "stream: {} epochs, freshness p50 {:.1} ms / p95 {:.1} ms, refresh p50 {:.1} ms, \
         {:.0}% of rows copied, scratch contrast {:.0} ms",
        epochs,
        r["stream_2k/freshness_p50_ms"],
        r["stream_2k/freshness_p95_ms"],
        r["stream_2k/epoch_refresh_p50_ms"],
        derived["rows_copied_fraction"] * 100.0,
        scratch_ms
    );

    // Crash recovery: restart-to-serving from a durable checkpoint vs
    // scratch re-ingestion of the full click log. The log is long (many
    // retired epochs) but the window short, so the contrast isolates what
    // the checkpoint buys: replaying only the surviving span + tail
    // instead of every byte ever appended.
    {
        use simrankpp_graph::delta::{write_click_log, ClickLogRecord};
        use simrankpp_serve::checkpoint::{
            capture, read_checkpoint, resume_ingestor, write_checkpoint,
        };

        let tiny = generate(&GeneratorConfig::tiny()).graph;
        let tiny_labels = connected_components(&tiny);
        const RECOVERY_SLICES: u32 = 4;
        let mut tiny_slices: Vec<Vec<(&str, &str, EdgeData)>> =
            vec![Vec::new(); RECOVERY_SLICES as usize];
        for (q, a, e) in tiny.edges() {
            let s = (tiny_labels.query_label[q.index()] % RECOVERY_SLICES) as usize;
            tiny_slices[s].push((
                tiny.query_name(q).expect("named graph"),
                tiny.ad_name(a).expect("named graph"),
                *e,
            ));
        }
        let log_epochs: u64 = if opts.quick { 200 } else { 600 };
        let mut recs = Vec::new();
        for e in 0..log_epochs {
            for &(q, a, d) in &tiny_slices[(e % RECOVERY_SLICES as u64) as usize] {
                recs.push(ClickLogRecord::Event {
                    epoch: e,
                    query: q.to_owned(),
                    ad: a.to_owned(),
                    data: d,
                });
            }
            recs.push(ClickLogRecord::EpochMark { epoch: e + 1 });
        }
        let dir =
            std::env::temp_dir().join(format!("simrankpp_bench_recovery_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("recovery scratch dir");
        let log_path = dir.join("click.log");
        let ck_path = dir.join("ck.bin");
        simrankpp_util::atomic_write(&log_path, |w| write_click_log(&recs, w))
            .expect("write recovery click log");

        let recovery_cfg = IngestConfig {
            window: RECOVERY_SLICES as usize,
            decay: 1.0,
            method: MethodKind::WeightedSimrank,
            config: cfg,
            rewriter: RewriterConfig::default(),
            threads: 0,
        };
        // The pre-crash process: ingest everything, refresh, commit the
        // checkpoint at the final epoch boundary — then "crash".
        let mut pre = EpochIngestor::new(recovery_cfg.clone());
        let mut pre_tailer = LogTailer::open(&log_path).expect("open recovery log");
        for sr in pre_tailer.drain_spanned().expect("drain recovery log") {
            pre.apply_record_at(&sr.rec, (sr.start, sr.end));
        }
        pre.refresh().expect("pre-crash refresh");
        write_checkpoint(&ck_path, &capture(&pre)).expect("commit recovery checkpoint");

        let resume_ms = median_ms(reps.min(3), || {
            let ck = read_checkpoint(&ck_path).expect("read checkpoint");
            let resumed =
                resume_ingestor(&log_path, &recovery_cfg, &ck).expect("resume from checkpoint");
            let mut ing = resumed.ingestor;
            ing.refresh().expect("recovery refresh")
        });
        let scratch_ms = median_ms(reps.min(3), || {
            let mut ing = EpochIngestor::new(recovery_cfg.clone());
            let mut tailer = LogTailer::open(&log_path).expect("open recovery log");
            for sr in tailer.drain_spanned().expect("drain recovery log") {
                ing.apply_record_at(&sr.rec, (sr.start, sr.end));
            }
            ing.refresh().expect("scratch refresh")
        });
        let _ = std::fs::remove_dir_all(&dir);
        r.insert("stream_recovery/resume_to_serving_ms".to_owned(), resume_ms);
        r.insert("stream_recovery/scratch_reingest_ms".to_owned(), scratch_ms);
        derived.insert(
            "recovery_speedup_resume_vs_scratch".to_owned(),
            scratch_ms / resume_ms,
        );
        derived.insert("recovery_log_epochs".to_owned(), log_epochs as f64);
        eprintln!(
            "stream: recovery resume-to-serving {resume_ms:.1} ms vs scratch re-ingest \
             {scratch_ms:.1} ms over a {log_epochs}-epoch log ({:.1}x)",
            scratch_ms / resume_ms
        );
    }

    // The adversarial scenario: a click-spam campaign replayed with and
    // without window expiry (tiny graph — the contamination values, not
    // their wall-clock, are the series).
    let clean = generate(&GeneratorConfig::tiny()).graph;
    let outcome = run_windowed_spam_experiment(
        &clean,
        &SpamTimeline::default(),
        MethodKind::WeightedSimrank,
        &SimrankConfig::default(),
        RewriterConfig::default(),
    );
    derived.insert(
        "spam_contamination_unwindowed".to_owned(),
        outcome.unwindowed.contamination(),
    );
    derived.insert(
        "spam_contamination_windowed".to_owned(),
        outcome.windowed.contamination(),
    );
    eprintln!(
        "stream: spam contamination {:.3} unwindowed vs {:.3} windowed",
        outcome.unwindowed.contamination(),
        outcome.windowed.contamination()
    );
    (r, derived)
}

/// Stream-tier gates: the machine-relative incremental floor, the spam
/// contrast, and baseline diffs for the freshness/refresh series.
fn check_stream(
    opts: &Options,
    results: &BTreeMap<String, f64>,
    derived: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let speedup = derived["epoch_speedup_incremental_vs_scratch"];
    if speedup < MIN_STREAM_INCREMENTAL_SPEEDUP {
        failures.push(format!(
            "median epoch refresh is only {speedup:.2}x faster than a from-scratch rebuild \
             (floor: {MIN_STREAM_INCREMENTAL_SPEEDUP}x, machine-relative)"
        ));
    } else {
        eprintln!(
            "gate ok: epoch refresh {speedup:.1}x vs scratch \
             (floor {MIN_STREAM_INCREMENTAL_SPEEDUP}x)"
        );
    }
    let recovery = derived["recovery_speedup_resume_vs_scratch"];
    if recovery < MIN_RECOVERY_SPEEDUP {
        failures.push(format!(
            "checkpoint resume is only {recovery:.2}x faster than scratch re-ingestion of the \
             full log (floor: {MIN_RECOVERY_SPEEDUP}x, machine-relative)"
        ));
    } else {
        eprintln!(
            "gate ok: checkpoint resume {recovery:.1}x vs scratch re-ingestion \
             (floor {MIN_RECOVERY_SPEEDUP}x)"
        );
    }
    let unwindowed = derived["spam_contamination_unwindowed"];
    let windowed = derived["spam_contamination_windowed"];
    if windowed != 0.0 {
        failures.push(format!(
            "windowed spam contamination is {windowed:.4}, expected exactly 0 — \
             expiry must remove the campaign's edges outright"
        ));
    }
    if unwindowed <= 0.0 {
        failures.push(
            "the spam campaign registered no contamination without windowing — \
             the adversarial scenario is vacuous"
                .to_owned(),
        );
    }
    if windowed == 0.0 && unwindowed > 0.0 {
        eprintln!("gate ok: spam contamination {unwindowed:.3} unwindowed -> 0 windowed");
    }

    let baseline_path = format!("{}/BENCH_stream.json", opts.baseline_dir);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("cannot read baseline {baseline_path}: {e}"));
            return failures;
        }
    };
    let baseline: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("cannot parse baseline {baseline_path}: {e:?}"));
            return failures;
        }
    };
    let factor = 1.0 + opts.tolerance_pct / 100.0;
    for key in GATED_STREAM_KEYS {
        let fresh = results[key];
        let Some(base) = baseline
            .get("results_ms")
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_f64())
        else {
            eprintln!("note: baseline has no {key:?}; skipping (refresh the baseline)");
            continue;
        };
        if fresh > base * factor {
            failures.push(format!(
                "{key}: {fresh:.1} ms vs baseline {base:.1} ms — regressed beyond \
                 {:.0}% tolerance",
                opts.tolerance_pct
            ));
        } else {
            eprintln!(
                "gate ok: {key}: {fresh:.1} ms (baseline {base:.1} ms, limit {:.1} ms)",
                base * factor
            );
        }
    }
    failures
}

fn check(
    opts: &Options,
    engine_results: &BTreeMap<String, f64>,
    engine_speedups: &BTreeMap<String, f64>,
    serve_derived: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut failures = Vec::new();

    let tcp = serve_derived["tcp_qps_scaling_8_vs_1"];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (tcp_floor, tcp_rule) = if cores >= 4 {
        (MIN_TCP_CONCURRENCY_SPEEDUP, "scaling")
    } else {
        (MIN_TCP_NO_COLLAPSE, "no-collapse; runner has < 4 cores")
    };
    if tcp < tcp_floor {
        failures.push(format!(
            "8 TCP clients deliver only {tcp:.2}x the QPS of 1 client \
             (floor: {tcp_floor}x [{tcp_rule}], machine-relative) — \
             connections are serializing"
        ));
    } else {
        eprintln!("gate ok: tcp 8-client {tcp:.2}x vs 1 (floor {tcp_floor}x [{tcp_rule}])");
    }

    let inc = serve_derived["speedup_incremental_vs_full_rebuild"];
    if inc < MIN_INCREMENTAL_SPEEDUP {
        failures.push(format!(
            "incremental index rebuild after a single-world delta is only {inc:.2}x faster \
             than a full rebuild (floor: {MIN_INCREMENTAL_SPEEDUP}x, machine-relative)"
        ));
    }
    let funnel = serve_derived["serve_10k_offline/index_build_vs_method_compute"];
    if funnel > MAX_INDEX_BUILD_VS_METHOD_COMPUTE {
        failures.push(format!(
            "the index build costs {funnel:.2} Method::compute runs \
             (ceiling: {MAX_INDEX_BUILD_VS_METHOD_COMPUTE}x, machine-relative) — \
             the funnel is ranking or stemming more than it serves"
        ));
    } else {
        eprintln!(
            "gate ok: index build {funnel:.2}x one Method::compute \
             (ceiling {MAX_INDEX_BUILD_VS_METHOD_COMPUTE}x)"
        );
    }
    let ss = engine_speedups["single_source_linearized_query_vs_full_run"];
    if ss < MIN_SINGLE_SOURCE_SPEEDUP {
        failures.push(format!(
            "one single-source query is only {ss:.1}x faster than a full \
             all-pairs run (floor: {MIN_SINGLE_SOURCE_SPEEDUP}x, machine-relative)"
        ));
    }
    let pre = engine_speedups["single_source_precompute_vs_full_run"];
    if pre > MAX_PRECOMPUTE_VS_FULL_RUN {
        failures.push(format!(
            "the single-source precompute costs {pre:.2} all-pairs runs \
             (ceiling: {MAX_PRECOMPUTE_VS_FULL_RUN}x, machine-relative)"
        ));
    } else {
        eprintln!(
            "gate ok: single-source precompute {pre:.2}x one all-pairs run \
             (ceiling {MAX_PRECOMPUTE_VS_FULL_RUN}x)"
        );
    }

    let baseline_path = format!("{}/BENCH_engine.json", opts.baseline_dir);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("cannot read baseline {baseline_path}: {e}"));
            return failures;
        }
    };
    let baseline: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("cannot parse baseline {baseline_path}: {e:?}"));
            return failures;
        }
    };
    let factor = 1.0 + opts.tolerance_pct / 100.0;
    for key in GATED_ENGINE_KEYS {
        let fresh = engine_results[key];
        let Some(base) = baseline
            .get("results_ms")
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_f64())
        else {
            eprintln!("note: baseline has no {key:?}; skipping (refresh the baseline)");
            continue;
        };
        if fresh > base * factor {
            failures.push(format!(
                "{key}: {fresh:.1} ms vs baseline {base:.1} ms — regressed beyond \
                 {:.0}% tolerance",
                opts.tolerance_pct
            ));
        } else {
            eprintln!(
                "gate ok: {key}: {fresh:.1} ms (baseline {base:.1} ms, limit {:.1} ms)",
                base * factor
            );
        }
    }
    failures
}

/// `(year, month, day)` of a unix timestamp (Howard Hinnant's civil_from_days).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn json_map(map: &BTreeMap<String, f64>, indent: &str) -> String {
    map.iter()
        .map(|(k, v)| format!("{indent}\"{k}\": {v:.4}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

fn environment_json(opts: &Options) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "  \"environment\": {{\n    \"date\": \"{}\",\n    \"cpu_cores\": {cores},\n    \
         \"profile\": \"release\",\n    \"harness\": \"bench_ci ({} mode, median wall-clock)\"\n  }}",
        utc_date(),
        if opts.quick { "quick" } else { "full" }
    )
}

fn render_engine_json(
    opts: &Options,
    results: &BTreeMap<String, f64>,
    speedups: &BTreeMap<String, f64>,
) -> String {
    let gate_keys = GATED_ENGINE_KEYS
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"bench\": \"bench_ci (engine)\",\n  \"description\": \"Wall-clock medians for \
         the engine's headline series on a 10k-query synth graph: the pull kernel under both \
         transitions. 5 iterations, prune_threshold 1e-4. The \
         single_source series times the on-demand engine on the standard graph: one-off \
         precompute (factors + the per-iteration diagonals one engine run per component block \
         records), then 100 single-source (unrolled series, floor(k/2)+1 levels) and 100 \
         Monte-Carlo (512 walks) top-10 queries per rep; \
         single_source_precompute_vs_full_run is a cost ratio (precompute / pull_uniform, lower \
         is better).\",\n\
         {},\n  \"results_ms\": {{\n{}\n  }},\n  \"speedup\": {{\n{}\n  }},\n  \"gate\": {{\n    \
         \"keys\": [{gate_keys}],\n    \"tolerance_pct\": {},\n    \
         \"min_single_source_speedup\": {MIN_SINGLE_SOURCE_SPEEDUP},\n    \
         \"max_single_source_precompute_vs_full_run\": {MAX_PRECOMPUTE_VS_FULL_RUN}\n  }}\n}}\n",
        environment_json(opts),
        json_map(results, "    "),
        json_map(speedups, "    "),
        opts.tolerance_pct,
    )
}

fn render_serve_json(
    opts: &Options,
    results: &BTreeMap<String, f64>,
    derived: &BTreeMap<String, f64>,
) -> String {
    format!(
        "{{\n  \"bench\": \"bench_ci (serve)\",\n  \"description\": \"Wall-clock medians for \
         the serving layer on 10k-query synth graphs: precomputed-index lookups, offline \
         t1 index build and snapshot round-trip (standard graph), incremental index \
         rebuild vs full rebuild after a world-0 delta (federated8), live single-source \
         serving over an empty index: 100 cold (never-asked, computed on demand) vs 100 warm \
         (row-cache hit) queries per rep, and the serve_tcp series: closed-loop load against \
         an in-process threaded NetServer on loopback ({} requests per client per run, \
         median-QPS run of the reps), p50/p99 per-request latency in results_ms and QPS in \
         derived for 1 and 8 concurrent clients. tcp_qps_scaling_8_vs_1 is gated \
         machine-relative (floor {}x), as is speedup_incremental_vs_full_rebuild (floor \
         {MIN_INCREMENTAL_SPEEDUP}x) and serve_10k_offline/index_build_vs_method_compute, a \
         same-run cost ratio (index build / Method::compute on the standard graph, lower is \
         better, ceiling {MAX_INDEX_BUILD_VS_METHOD_COMPUTE}x). Weighted SimRank, 5 \
         iterations, prune_threshold 1e-4.\",\n{},\n  \"results_ms\": {{\n{}\n  }},\n  \"derived\": {{\n{}\n  }}\n}}\n",
        TCP_REQS_PER_CLIENT,
        MIN_TCP_CONCURRENCY_SPEEDUP,
        environment_json(opts),
        json_map(results, "    "),
        json_map(derived, "    "),
    )
}

fn render_stream_json(
    opts: &Options,
    results: &BTreeMap<String, f64>,
    derived: &BTreeMap<String, f64>,
) -> String {
    let gate_keys = GATED_STREAM_KEYS
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"bench\": \"bench_ci (stream tier)\",\n  \"description\": \"Streaming-ingestion \
         freshness on a 2k-query synth graph: an EpochIngestor replays the graph one \
         component-slice per epoch ({STREAM_SLICES} slices = the window length, so each epoch \
         renews exactly the slice the window retires), refreshing dirty components and \
         hot-swapping the generation into a live ServeState at every boundary. freshness = \
         first event of the batch read -> new generation swapped in; epoch_refresh = freeze + \
         dirty-component rebuild + swap; scratch_rebuild is the same-shape full build every \
         boundary would cost without the incremental path. Derived: the machine-relative \
         incremental-vs-scratch speedup (gated), the copied-row fraction, and the spam-campaign \
         contamination contrast (campaign in the first epochs of the timeline; the window must \
         expire it to exactly zero while the unwindowed observer stays contaminated). The \
         stream_recovery series is the crash-safety contrast: resume_to_serving replays a \
         durable checkpoint (surviving window span + log tail, fingerprint-verified) into a \
         serving-ready index, vs scratch_reingest re-reading a deliberately long log from byte \
         zero; the machine-relative speedup is gated so restart time stays bounded by the \
         window, not process uptime. Weighted \
         SimRank, 5 iterations, prune_threshold 1e-4.\",\n{},\n  \
         \"results_ms\": {{\n{}\n  }},\n  \"derived\": {{\n{}\n  }},\n  \"gate\": {{\n    \
         \"keys\": [{gate_keys}],\n    \"tolerance_pct\": {},\n    \
         \"min_stream_incremental_speedup\": {MIN_STREAM_INCREMENTAL_SPEEDUP},\n    \
         \"min_recovery_speedup\": {MIN_RECOVERY_SPEEDUP},\n    \
         \"spam_contamination_windowed_must_be_zero\": true\n  }}\n}}\n",
        environment_json(opts),
        json_map(results, "    "),
        json_map(derived, "    "),
        opts.tolerance_pct,
    )
}

fn render_scale_json(
    opts: &Options,
    results: &BTreeMap<String, f64>,
    derived: &BTreeMap<String, f64>,
) -> String {
    format!(
        "{{\n  \"bench\": \"bench_ci (scale, 1m tier)\",\n  \"description\": \"Beyond-RAM scale \
         proof on a federated synthetic store (independent ~2k-query worlds, one segment each, \
         names stripped): streaming store write, segmented weighted-SimRank index build whose \
         peak RSS is gated against a ceiling (build memory is bounded by the largest segment \
         plus the output index, never the store), whole-section snapshot write, and mmap-backed \
         MappedIndex open times at 1x/10x/100x of target/100 queries (10k/100k/1M at the \
         default target). Open must stay flat: it is O(#sections) table validation plus one \
         mmap, so the 100x index opens in the same milliseconds as the 1x one; heap_decode is \
         the old full-deserialize cost for contrast. Gates are machine-relative ceilings, not \
         baseline diffs.\",\n{},\n  \"results_ms\": {{\n{}\n  }},\n  \"derived\": {{\n{}\n  }},\n  \
         \"gate\": {{\n    \"max_peak_rss_mb\": {MAX_1M_PEAK_RSS_MB},\n    \
         \"max_mapped_open_ms_1m\": {MAX_MAPPED_OPEN_MS_1M},\n    \
         \"max_open_flatness\": {MAX_OPEN_FLATNESS}\n  }}\n}}\n",
        environment_json(opts),
        json_map(results, "    "),
        json_map(derived, "    "),
    )
}
