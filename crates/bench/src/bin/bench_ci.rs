//! The gates `benchmark/` cannot carry.
//!
//! This repository's time series live in `benchmark/` (`BENCHMARK.json`):
//! parent against change, alternated runs, per-layer spans. That ledger holds
//! no threshold and does not run at 1M queries. `bench_ci` is the remainder,
//! declared in one table, [`GATES`]: **same-run ratios** (both sides measured
//! in this process, so runner speed cancels), **exact values** (window expiry
//! drives spam contamination to zero) and the **scale ceilings** of the `1m`
//! tier. No gate compares against a number recorded on another machine or in
//! an earlier run; a gate whose input was not measured fails, naming the key.
//!
//! ```text
//! bench_ci [--quick] [--check] [--out-dir DIR] [--tier default|1m|stream]
//!          [--target-queries N]
//! ```
//!
//! `--tier default` writes `BENCH_engine.json` and `BENCH_serve.json`,
//! `stream` `BENCH_stream.json`, `1m` `BENCH_scale.json`: the gated values,
//! their raw inputs and the table rows that judge them. Files are written
//! first, then (with `--check`) judged. `--quick` lowers repetitions only;
//! `--target-queries` shrinks the `1m` tier for smoke runs (keys keep their
//! nominal 10k/100k/1m names).

use simrankpp_core::engine::{self, UniformTransition};
use simrankpp_core::{
    Method, MethodKind, Rewriter, RewriterConfig, RowWorkspace, SimrankConfig, SingleSourceEngine,
};
use simrankpp_eval::{run_windowed_spam_experiment, SpamTimeline};
use simrankpp_graph::components::connected_components;
use simrankpp_graph::delta::{write_click_log, ClickLogRecord};
use simrankpp_graph::{
    AdId, ClickGraph, ClickGraphBuilder, EdgeData, GraphDelta, QueryId, SegmentedStore,
};
use simrankpp_serve::checkpoint::{capture, read_checkpoint, resume_ingestor, write_checkpoint};
use simrankpp_serve::{
    EpochIngestor, IngestConfig, IngestMetrics, LogTailer, NetConfig, NetServer, RewriteIndex,
    ServeState,
};
use simrankpp_synth::federation::write_store;
use simrankpp_synth::generator::{generate, GeneratorConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What one tier measured: key → milliseconds, ratio, rate or count.
type Values = BTreeMap<&'static str, f64>;

enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Above(f64),
    Exactly(f64),
}

impl Bound {
    fn holds(&self, v: f64) -> bool {
        match *self {
            Bound::AtLeast(t) => v >= t,
            Bound::AtMost(t) => v <= t,
            Bound::Above(t) => v > t,
            Bound::Exactly(t) => v == t,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(t) => write!(f, ">= {t}"),
            Bound::AtMost(t) => write!(f, "<= {t}"),
            Bound::Above(t) => write!(f, "> {t}"),
            Bound::Exactly(t) => write!(f, "= {t}"),
        }
    }
}

struct Gate {
    /// The [`Tier::name`] whose values this row judges.
    tier: &'static str,
    key: &'static str,
    bound: Bound,
    why: &'static str,
}

/// Every threshold `--check` enforces. Ratios divide two timings of the same
/// process, so they hold on any runner or fail for a real reason.
const GATES: &[Gate] = &[
    Gate {
        tier: "engine",
        key: "single_source_linearized_query_vs_full_run",
        bound: Bound::AtLeast(3000.0),
        why: "a live top-k query is one row of S^(k), not the matrix (15 600x when recorded)",
    },
    Gate {
        tier: "engine",
        key: "single_source_precompute_vs_full_run",
        bound: Bound::AtMost(2.0),
        why: "building the live engine may not cost twice the all-pairs run it avoids",
    },
    Gate {
        tier: "serve",
        key: "serve_10k_offline/index_build_vs_method_compute",
        bound: Bound::AtMost(0.3),
        why: "the 9.3 funnel costs what it returns, not what it could have ranked (0.20 recorded \
              against a Method::compute that runs only the query chain of half-steps)",
    },
    Gate {
        tier: "serve",
        key: "speedup_incremental_vs_full_rebuild",
        bound: Bound::AtLeast(5.0),
        why: "a delta in one of eight federated worlds must not make the clean seven pay",
    },
    Gate {
        tier: "serve",
        key: "tcp_qps_scaling_8_vs_1",
        bound: Bound::AtLeast(0.5),
        why: "no-collapse floor: 8 closed-loop clients sharing this runner's cores may only tie \
              1 client, but below half its QPS connections are blocking each other outright",
    },
    Gate {
        tier: "stream",
        key: "epoch_speedup_incremental_vs_scratch",
        bound: Bound::AtLeast(50.0),
        why: "the median epoch dirties 1 slice of 8; refreshing it must pay for what it touched, \
              not for the whole window, to beat a scratch rebuild this far",
    },
    Gate {
        tier: "stream",
        key: "recovery_speedup_resume_vs_scratch",
        bound: Bound::AtLeast(2.0),
        why: "a checkpoint restart replays the surviving window span plus the log tail, not the \
              long log from byte zero: restart time is bounded by the window, not by uptime",
    },
    Gate {
        tier: "stream",
        key: "spam_contamination_windowed",
        bound: Bound::Exactly(0.0),
        why: "window expiry must remove the spam campaign's edges outright, not dilute them",
    },
    Gate {
        tier: "stream",
        key: "spam_contamination_unwindowed",
        bound: Bound::Above(0.0),
        why: "without windowing the campaign must register, or the scenario is vacuous",
    },
    Gate {
        tier: "scale",
        key: "peak_rss_mb",
        bound: Bound::AtMost(280.0),
        why: "build memory is bounded by the largest segment + the output index, not the store \
              (1.5x the 182 MB recorded, so a regression of that size fails)",
    },
    Gate {
        tier: "scale",
        key: "serve_1m/mapped_open_1m_ms",
        bound: Bound::AtMost(50.0),
        why: "RewriteIndex::open is O(#sections) table validation plus one mmap",
    },
    Gate {
        tier: "scale",
        key: "open_flatness_1m_vs_10k",
        bound: Bound::AtMost(8.0),
        why: "open time stays flat while the index grows 100x, or something O(n) crept in",
    },
];

/// The rows of [`GATES`] judging `tier`. Off Linux there is no `/proc` to read
/// `peak_rss_mb` from and its row is dropped — the one skip [`check`] allows.
fn gates_for(tier: &str) -> Vec<&'static Gate> {
    GATES
        .iter()
        .filter(|g| g.tier == tier && (g.key != "peak_rss_mb" || cfg!(target_os = "linux")))
        .collect()
}

/// One failure line per gate that does not hold over `values`; a gate whose
/// key is absent is a failure naming the key, never a skip.
fn check(values: &Values, gates: &[&Gate]) -> Vec<String> {
    let mut failures = Vec::new();
    for g in gates {
        match values.get(g.key) {
            None => failures.push(format!("{}: not measured (gated {})", g.key, g.bound)),
            Some(&v) if g.bound.holds(v) => eprintln!("gate ok: {} = {v:.4} ({})", g.key, g.bound),
            Some(&v) => failures.push(format!("{} = {v:.4}, gated {} — {}", g.key, g.bound, g.why)),
        }
    }
    failures
}

/// One output file, `BENCH_<name>.json`: a series and (by name) its gates.
struct Tier {
    name: &'static str,
    description: &'static str,
    run: fn(&Options) -> Values,
}

static TIERS: [Tier; 4] = [
    Tier {
        name: "engine",
        description: "The live single-source engine against the all-pairs run it replaces, on \
                      the 10k-query synth graph (uniform transition): one engine::run, the \
                      one-off SingleSourceEngine precompute, then 100 top-10 rows per rep.",
        run: engine_series,
    },
    Tier {
        name: "serve",
        description: "10k-query synth graphs: RewriteIndex::build against the Method::compute it \
                      reads; an incremental rebuild after a world-0 delta against a full one \
                      (8-world federated graph); closed-loop loopback TCP load on an in-process \
                      NetServer at 1 and 8 clients (400 requests each, the median-QPS run).",
        run: serve_series,
    },
    Tier {
        name: "stream",
        description: "2k-query synth graph replayed one component-slice per epoch (8 slices = \
                      the window) into a live ServeState: the median epoch refresh against a \
                      scratch rebuild. stream_recovery: checkpoint resume to a serving-ready \
                      index against re-ingesting a long click log from byte zero. \
                      spam_contamination: a spam campaign with and without window expiry.",
        run: stream_series,
    },
    Tier {
        name: "scale",
        description: "A federated synthetic store (independent ~2k-query worlds, one segment \
                      each, names stripped): streaming store write, segment-at-a-time index \
                      build, snapshot write, RewriteIndex::open at 1x/10x/100x of target/100 \
                      queries, and the deep-verified heap load of the same snapshot for contrast.",
        run: scale_series,
    },
];

struct Options {
    quick: bool,
    /// Timed repetitions per series: 5, or 3 under `--quick`.
    reps: usize,
    check: bool,
    out_dir: String,
    tier: String,
    target_queries: u64,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: bench_ci [--quick] [--check] [--out-dir DIR]");
    eprintln!("                [--tier default|1m|stream] [--target-queries N]");
    std::process::exit(2);
}

fn main() {
    let mut opts = Options {
        quick: false,
        reps: 5,
        check: false,
        out_dir: ".".to_owned(),
        tier: "default".to_owned(),
        target_queries: 1_000_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--quick" => (opts.quick, opts.reps) = (true, 3),
            "--check" => opts.check = true,
            "--out-dir" => opts.out_dir = value(),
            "--tier" => opts.tier = value(),
            "--target-queries" => {
                opts.target_queries = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--target-queries needs a number"));
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let tiers = match opts.tier.as_str() {
        "default" => &TIERS[..2],
        "stream" => &TIERS[2..3],
        "1m" => &TIERS[3..],
        _ => usage("--tier must be 'default', '1m' or 'stream'"),
    };

    std::fs::create_dir_all(&opts.out_dir).expect("cannot create --out-dir");
    let mut failures = Vec::new();
    for tier in tiers {
        eprintln!("bench_ci: {} series", tier.name);
        let values = (tier.run)(&opts);
        let gates = gates_for(tier.name);
        let path = Path::new(&opts.out_dir).join(format!("BENCH_{}.json", tier.name));
        simrankpp_util::atomic_write_bytes(&path, render(tier, &opts, &values, &gates).as_bytes())
            .expect("cannot write the tier's JSON file");
        eprintln!("wrote {}", path.display());
        if opts.check {
            failures.extend(check(&values, &gates));
        }
    }
    if !failures.is_empty() {
        eprintln!("bench-check FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    if opts.check {
        eprintln!("bench-check passed");
    }
}

/// The tier's JSON file: environment, every measured value, its gate rows.
fn render(tier: &Tier, opts: &Options, values: &Values, gates: &[&Gate]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if opts.quick { "quick" } else { "full" };
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let description = format!(
        "{} Keys with a '/' are wall-clock milliseconds (medians of the reps) unless named \
         *_vs_* (a same-run ratio); bare keys are ratios, rates or counts. Every run: 5 iterations, \
         prune_threshold 1e-4; every index: weighted SimRank.",
        tier.description
    );
    let values: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("    {k:?}: {v:.4}"))
        .collect();
    let gate_row = |g: &&Gate| {
        let (key, bound, why) = (g.key, &g.bound, g.why);
        format!("    {{\"key\": {key:?}, \"bound\": \"{bound}\", \"why\": {why:?}}}")
    };
    let gates: Vec<String> = gates.iter().map(gate_row).collect();
    format!(
        "{{\n  \"bench\": \"bench_ci ({})\",\n  \"description\": {description:?},\n  \
         \"environment\": {{\n    \"recorded_unix_s\": {unix_s},\n    \"cpu_cores\": {cores},\n    \
         \"profile\": \"release\",\n    \"harness\": \"bench_ci ({mode} mode, median wall-clock)\"\n  \
         }},\n  \"values\": {{\n{}\n  }},\n  \"gate\": [\n{}\n  ]\n}}\n",
        tier.name,
        values.join(",\n"),
        gates.join(",\n"),
    )
}

/// Nearest-rank percentile of a series (sorted in place).
fn percentile(series: &mut [f64], p: f64) -> f64 {
    series.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    series[((series.len() as f64 - 1.0) * p).round() as usize]
}

/// Wall-clock milliseconds of one call, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Median wall-clock milliseconds of `reps` runs (after one warmup).
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f()); // warmup
    let mut times: Vec<f64> = (0..reps).map(|_| timed(&mut f).0).collect();
    percentile(&mut times, 0.5)
}

/// The engine configuration every tier runs at.
fn bench_config() -> SimrankConfig {
    SimrankConfig::default()
        .with_iterations(5)
        .with_prune_threshold(1e-4)
}

/// One synth world at the `small` shape, resized.
fn synth_graph(n_queries: usize, n_ads: usize, seed: Option<u64>) -> ClickGraph {
    let mut gen = GeneratorConfig::small();
    (gen.n_queries, gen.n_ads) = (n_queries, n_ads);
    gen.seed = seed.unwrap_or(gen.seed);
    generate(&gen).graph
}

/// 10k queries as a disjoint union of `k` independently generated worlds —
/// the multi-market regime where component structure is real.
fn federated_graph(k: usize) -> ClickGraph {
    let (per_q, per_a) = (10_000 / k, 7_000 / k);
    let mut b = ClickGraphBuilder::new();
    b.reserve_queries((per_q * k) as u32);
    b.reserve_ads((per_a * k) as u32);
    for world in 0..k {
        let g = synth_graph(per_q, per_a, Some(0xFEDE_0000 + world as u64));
        let (qo, ao) = ((world * per_q) as u32, (world * per_a) as u32);
        for (q, a, e) in g.edges() {
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
        let (q, a) = (QueryId((i * 157) % per_q), AdId((i * 211) % per_a));
        d.upsert(q, a, EdgeData::from_clicks(3));
    }
    d
}

fn engine_series(opts: &Options) -> Values {
    let cfg = bench_config();
    let g = synth_graph(10_000, 7_000, None);
    let full_run = median_ms(opts.reps, || engine::run(&g, &cfg, &UniformTransition));
    // Transition factors + the block-local per-iteration diagonals: the
    // one-off cost a live server pays before answering its first query.
    let mut ss_engine = None;
    let precompute = median_ms(opts.reps, || {
        ss_engine = Some(SingleSourceEngine::new(&g, &cfg, &UniformTransition))
    });
    let ss_engine = ss_engine.expect("timed run constructs the engine");
    let nq = g.n_queries() as u32;
    let mut ws = RowWorkspace::new(g.n_queries(), g.n_ads());
    let mut top = Vec::new();
    let rows_x100 = median_ms(opts.reps, || {
        for i in 0..100u32 {
            ss_engine.top_k_into(&g, QueryId((i * 7919) % nq), 10, &mut ws, &mut top);
            black_box(top.len());
        }
    });
    let row_vs_run = full_run / (rows_x100 / 100.0);
    let precompute_vs_run = precompute / full_run;
    Values::from([
        ("engine_10k/pull_uniform", full_run),
        ("single_source/precompute_ms", precompute),
        ("single_source/linearized_topk_x100_ms", rows_x100),
        ("single_source_linearized_query_vs_full_run", row_vs_run),
        ("single_source_precompute_vs_full_run", precompute_vs_run),
    ])
}

/// One closed-loop TCP load run: `clients` connections each round-tripping
/// 400 `rewrite` requests against the server at `addr`. Returns
/// `(p50_ms, p99_ms, qps)` over the merged per-request latencies.
fn tcp_load(addr: std::net::SocketAddr, clients: usize, names: &[String]) -> (f64, f64, f64) {
    use std::io::{BufRead, BufReader, Write};
    let reqs = 400;
    let client = |c: usize| {
        let mut writer = std::net::TcpStream::connect(addr).expect("connect load client");
        writer.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
        let mut line = String::new();
        let round_trip = |i: usize| {
            let req = format!("rewrite {}\n", names[(c * reqs + i) % names.len()]);
            let (ms, ()) = timed(|| {
                writer.write_all(req.as_bytes()).expect("send request");
                line.clear();
                reader.read_line(&mut line).expect("read response");
            });
            assert!(line.starts_with("ok\t"), "load answer: {line:?}");
            ms
        };
        (0..reqs).map(round_trip).collect::<Vec<f64>>()
    };
    let (wall_ms, mut lat) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
            let join =
                |h: std::thread::ScopedJoinHandle<'_, Vec<f64>>| h.join().expect("load client");
            handles.into_iter().flat_map(join).collect::<Vec<f64>>()
        })
    });
    let qps = (clients * reqs) as f64 / (wall_ms / 1e3);
    (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99), qps)
}

fn serve_series(opts: &Options) -> Values {
    let reps = opts.reps;
    let cfg = bench_config();
    let weighted = |g: &ClickGraph| Method::compute(MethodKind::WeightedSimrank, g, &cfg);
    let build_full = |g: &ClickGraph| {
        let rewriter = Rewriter::new(g, weighted(g), RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 1)
    };

    // The 10k standard graph: the offline funnel against the method it reads.
    let g = synth_graph(10_000, 7_000, None);
    let method_ms = median_ms(reps, || weighted(&g));
    let rewriter = Rewriter::new(&g, weighted(&g), RewriterConfig::default());
    // The rewriter interns its stem-class table in the warm-up build; the
    // timed builds are the funnel alone.
    let build_ms = median_ms(reps, || RewriteIndex::build(&rewriter, None, 1));

    // The real wire protocol against a real NetServer on loopback; each
    // client waits for its answer before sending the next request.
    let index = RewriteIndex::build(&rewriter, None, 1);
    let load_names: Vec<String> = (0..1000u32)
        .filter_map(|i| index.query_name(QueryId((i * 7919) % index.n_queries() as u32)))
        .map(str::to_owned)
        .collect();
    let server = NetServer::bind(Arc::new(ServeState::fixed(index)), NetConfig::default())
        .expect("bind bench server");
    let addr = server.local_addr().expect("bench server addr");
    let signal = server.shutdown_signal();
    let server_join = std::thread::spawn(move || server.serve());
    tcp_load(addr, 1, &load_names); // connection + cache warmup

    // The percentiles come from the median-QPS run of the reps, so they
    // describe one load.
    let median_qps_run = |clients: usize| {
        let mut runs: Vec<(f64, f64, f64)> = (0..reps)
            .map(|_| tcp_load(addr, clients, &load_names))
            .collect();
        runs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite qps"));
        runs[runs.len() / 2]
    };
    let (p50_1, p99_1, qps_1) = median_qps_run(1);
    let (p50_8, p99_8, qps_8) = median_qps_run(8);
    signal.trigger();
    let served = server_join.join().expect("bench server thread");
    served.expect("bench server serve");

    // The 8-world federated graph: one dirty market against a full rebuild.
    let federated = federated_graph(8);
    let old_index = build_full(&federated);
    let delta = world0_delta(8);
    let g1 = delta.apply(&federated);
    let dirty = delta.dirty_components(&g1);
    let full_ms = median_ms(reps, || build_full(&g1));
    let inc_ms = median_ms(reps, || {
        old_index
            .rebuild_incremental(&g1, &dirty, &cfg, &RewriterConfig::default(), None)
            .expect("incremental rebuild")
    });
    let ratio = build_ms / method_ms; // the funnel, in Method::compute runs
    Values::from([
        ("serve_10k_offline/method_compute_ms", method_ms),
        ("serve_10k_offline/index_build_t1_ms", build_ms),
        ("serve_10k_offline/index_build_vs_method_compute", ratio),
        ("serve_tcp/clients1_p50_ms", p50_1),
        ("serve_tcp/clients1_p99_ms", p99_1),
        ("serve_tcp/clients8_p50_ms", p50_8),
        ("serve_tcp/clients8_p99_ms", p99_8),
        ("tcp_qps_clients1", qps_1),
        ("tcp_qps_clients8", qps_8),
        ("tcp_qps_scaling_8_vs_1", qps_8 / qps_1),
        ("serve_10k_incremental/full_rebuild_ms", full_ms),
        ("serve_10k_incremental/incremental_update_ms", inc_ms),
        ("speedup_incremental_vs_full_rebuild", full_ms / inc_ms),
    ])
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Federated store write, segmented build and mmap open at 1×/10×/100× of
/// `--target-queries / 100`: by default literally 10k, 100k and 1M queries.
fn scale_series(opts: &Options) -> Values {
    let cfg = bench_config();
    let world = GeneratorConfig::small();
    // The pid keeps two concurrent runs off each other's files.
    let scratch =
        std::env::temp_dir().join(format!("simrankpp_bench_scale_{}", std::process::id()));
    let (store_path, snap_path) = (scratch.with_extension("seg"), scratch.with_extension("idx"));
    let mut v = Values::new();
    let mut open_ms = Vec::new();
    // 10k, 100k, 1m: the last scale's build is the one `v` keeps.
    for target in [100, 10, 1].map(|div| (opts.target_queries / div).max(1)) {
        eprintln!("scale: federated store of {target} queries: write, build, snapshot, open");
        let (write_ms, stats) = timed(|| write_store(&world, target, &store_path));
        let stats = stats.expect("write federated store");
        let mut store = SegmentedStore::open(&store_path).expect("open federated store");
        let kind = MethodKind::WeightedSimrank;
        let (build_ms, index) = timed(|| {
            RewriteIndex::build_segmented(&mut store, kind, &cfg, RewriterConfig::default(), None)
        });
        let index = index.expect("segmented build");
        let (snap_write_ms, saved) = timed(|| index.save(&snap_path));
        saved.expect("write snapshot");
        let snap_meta = std::fs::metadata(&snap_path).expect("snapshot metadata");
        v = Values::from([
            ("scale_1m/store_write_ms", write_ms),
            ("engine_1m/segmented_build_ms", build_ms),
            ("serve_1m/snapshot_write_ms", snap_write_ms),
            ("store_queries", stats.total_queries as f64),
            ("store_segments", stats.n_worlds as f64),
            ("store_edges", stats.total_edges as f64),
            ("store_mb", stats.file_bytes as f64 / 1e6),
            ("index_entries", index.n_entries() as f64),
            ("snapshot_mb", snap_meta.len() as f64 / 1e6),
        ]);
        let open = || RewriteIndex::open(&snap_path).expect("mapped open");
        open_ms.push(median_ms(opts.reps, open));
    }
    if let Some(mb) = peak_rss_mb() {
        v.insert("peak_rss_mb", mb);
    }
    let (heap_decode_ms, heap) = timed(|| RewriteIndex::load(&snap_path));
    drop(heap.expect("deep-verified heap load"));
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&snap_path).ok();
    v.extend([
        ("serve_1m/mapped_open_10k_ms", open_ms[0]),
        ("serve_1m/mapped_open_100k_ms", open_ms[1]),
        ("serve_1m/mapped_open_1m_ms", open_ms[2]),
        ("serve_1m/heap_decode_ms", heap_decode_ms),
        ("open_flatness_1m_vs_10k", open_ms[2] / open_ms[0]),
        ("mapped_open_vs_heap_decode_1m", heap_decode_ms / open_ms[2]),
    ]);
    v
}

/// `graph`'s edges by name, split into `n` slices by component label:
/// components are closed under refresh, so an epoch touching one slice
/// leaves the other slices' rows copy-clean.
fn component_slices(graph: &ClickGraph, n: u32) -> Vec<Vec<(&str, &str, EdgeData)>> {
    let labels = connected_components(graph);
    let mut slices = vec![Vec::new(); n as usize];
    for (q, a, e) in graph.edges() {
        let q_name = graph.query_name(q).expect("named graph");
        let a_name = graph.ad_name(a).expect("named graph");
        slices[(labels.query_label[q.index()] % n) as usize].push((q_name, a_name, *e));
    }
    slices
}

fn ingest_config(window: u32, config: SimrankConfig) -> IngestConfig {
    IngestConfig {
        window: window as usize,
        decay: 1.0,
        method: MethodKind::WeightedSimrank,
        config,
        rewriter: RewriterConfig::default(),
        threads: 0,
    }
}

/// Steady-state epoch replay into a live `ServeState`, the checkpoint
/// recovery contrast, and the §11 spam-campaign contamination contrast.
fn stream_series(opts: &Options) -> Values {
    // Slices the replay rotates through — also the window length, so each
    // epoch renews the slice the window retires (1/8 dirty, 7/8 copied).
    const STREAM_SLICES: u32 = 8;
    const RECOVERY_SLICES: u32 = 4;
    let reps = 3; // quick and full alike
    let cfg = bench_config();
    let world = generate(&GeneratorConfig::small()).graph;
    let slices = component_slices(&world, STREAM_SLICES);
    let observe_epoch = |ingestor: &mut EpochIngestor, epoch: u64| {
        ingestor.advance_to(epoch);
        for &(q, a, d) in &slices[(epoch % STREAM_SLICES as u64) as usize] {
            ingestor.observe(q, a, d);
        }
    };
    // Warm-up: one slice per epoch until every slice is in-window, then the
    // first (full) build. From here on the stream is stationary.
    let mut ingestor = EpochIngestor::new(ingest_config(STREAM_SLICES, cfg));
    let warm = STREAM_SLICES as u64;
    (0..warm).for_each(|e| observe_epoch(&mut ingestor, e));
    let (index, _, _) = ingestor.refresh().expect("first full build");
    let metrics = Arc::new(IngestMetrics::default());
    let state = ServeState::ingesting(index, Arc::clone(&metrics));
    let epochs: u64 = if opts.quick { 8 } else { 16 };
    let mut refresh_ms = Vec::new();
    for e in warm..warm + epochs {
        observe_epoch(&mut ingestor, e);
        // Refreeze + dirty-component rebuild + swap, as the ingestor times it.
        ingestor.refresh_and_publish(&state).expect("epoch refresh");
        refresh_ms.push(metrics.last_refresh_us.load(Ordering::Relaxed) as f64 / 1e3);
        black_box(state.handle().load());
    }
    let refresh_p50 = percentile(&mut refresh_ms, 0.5);
    // What every epoch boundary would cost without the dirty-component
    // path: method + funnel + index over the graph the window holds.
    let scratch_ms = median_ms(reps, || {
        let method = Method::compute(MethodKind::WeightedSimrank, &world, &cfg);
        let rewriter = Rewriter::new(&world, method, RewriterConfig::default());
        RewriteIndex::build(&rewriter, None, 0)
    });

    // Crash recovery: the log is long (many retired epochs) but the window
    // short, so the contrast isolates what the checkpoint buys: replaying
    // the surviving span + tail, not every byte ever appended.
    let tiny = generate(&GeneratorConfig::tiny()).graph;
    let tiny_slices = component_slices(&tiny, RECOVERY_SLICES);
    let log_epochs: u64 = if opts.quick { 200 } else { 600 };
    let mut recs = Vec::new();
    for epoch in 0..log_epochs {
        for &(q, a, data) in &tiny_slices[(epoch % RECOVERY_SLICES as u64) as usize] {
            let (query, ad) = (q.to_owned(), a.to_owned());
            recs.push(ClickLogRecord::Event {
                epoch,
                query,
                ad,
                data,
            });
        }
        recs.push(ClickLogRecord::EpochMark { epoch: epoch + 1 });
    }
    let dir = std::env::temp_dir().join(format!("simrankpp_bench_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("recovery scratch dir");
    let (log_path, ck_path) = (dir.join("click.log"), dir.join("ck.bin"));
    simrankpp_util::atomic_write(&log_path, |w| write_click_log(&recs, w))
        .expect("write recovery click log");
    let recovery_cfg = ingest_config(RECOVERY_SLICES, cfg);
    let ingest_whole_log = || {
        let mut ing = EpochIngestor::new(recovery_cfg.clone());
        let mut tailer = LogTailer::open(&log_path).expect("open recovery log");
        for sr in tailer.drain_spanned().expect("drain recovery log") {
            ing.apply_record_at(&sr.rec, (sr.start, sr.end));
        }
        let built = ing.refresh().expect("refresh over the whole log");
        (ing, built)
    };
    // The pre-crash process commits its checkpoint at the final boundary.
    write_checkpoint(&ck_path, &capture(&ingest_whole_log().0)).expect("commit checkpoint");
    let resume_ms = median_ms(reps, || {
        let ck = read_checkpoint(&ck_path).expect("read checkpoint");
        let resumed = resume_ingestor(&log_path, &recovery_cfg, &ck).expect("resume");
        let mut ing = resumed.ingestor;
        ing.refresh().expect("recovery refresh")
    });
    let reingest_ms = median_ms(reps, || ingest_whole_log().1);
    std::fs::remove_dir_all(&dir).ok();

    // A click-spam campaign replayed with and without window expiry: the
    // contamination values, not their wall-clock, are the series.
    let spam = run_windowed_spam_experiment(
        &tiny,
        &SpamTimeline::default(),
        MethodKind::WeightedSimrank,
        &SimrankConfig::default(),
        RewriterConfig::default(),
    );
    let (epoch_speedup, recovery_speedup) = (scratch_ms / refresh_p50, reingest_ms / resume_ms);
    let (unwindowed, windowed) = (
        spam.unwindowed.contamination(),
        spam.windowed.contamination(),
    );
    Values::from([
        ("stream_2k/epoch_refresh_p50_ms", refresh_p50),
        ("stream_2k/scratch_rebuild_ms", scratch_ms),
        ("epoch_speedup_incremental_vs_scratch", epoch_speedup),
        ("stream_recovery/resume_to_serving_ms", resume_ms),
        ("stream_recovery/scratch_reingest_ms", reingest_ms),
        ("recovery_speedup_resume_vs_scratch", recovery_speedup),
        ("spam_contamination_unwindowed", unwindowed),
        ("spam_contamination_windowed", windowed),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_bound_passes_fails_and_refuses_a_missing_key() {
        // (bound, a value it admits, a value it refuses)
        for (bound, pass, fail) in [
            (Bound::AtLeast(5.0), 5.0, 4.999),
            (Bound::AtMost(2.0), 2.0, 2.001),
            (Bound::Above(0.0), 1e-9, 0.0),
            (Bound::Exactly(0.0), 0.0, 1e-9),
        ] {
            let g = Gate {
                tier: "t",
                key: "k",
                bound,
                why: "because",
            };
            let judge = |key, v| check(&Values::from([(key, v)]), &[&g]);
            assert!(judge("k", pass).is_empty(), "{} {pass}", g.bound);
            for refused in [fail, f64::NAN] {
                let failed = judge("k", refused);
                assert_eq!(failed.len(), 1, "{} {refused}", g.bound);
                assert!(failed[0].starts_with("k = ") && failed[0].contains("because"));
            }
            let missing = judge("other", pass);
            assert_eq!(missing.len(), 1);
            assert!(missing[0].starts_with("k: not measured"), "{}", missing[0]);
        }
    }

    #[test]
    fn every_gate_row_belongs_to_a_tier_and_keys_are_unique() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(TIERS.iter().any(|t| t.name == g.tier), "{}", g.key);
            assert!(GATES[..i].iter().all(|h| h.key != g.key), "{}", g.key);
        }
        let selected: usize = TIERS.iter().map(|t| gates_for(t.name).len()).sum();
        let skipped = usize::from(!cfg!(target_os = "linux"));
        assert_eq!(selected + skipped, GATES.len());
    }
}
