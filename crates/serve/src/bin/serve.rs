//! Build, inspect, update, and serve rewrite indexes from the command line.
//!
//! ```text
//! serve build <graph.tsv> <out.idx> [method]   offline: TSV graph → snapshot
//! serve build <store.seg> <out.idx> [method]   segment-at-a-time build: peak memory
//!                                              bounded by the largest segment
//! serve build --fixture fig3 <out.idx> [method]   (the paper's Figure 3 graph)
//! serve segment <graph.tsv> <out.seg> [target-nodes]   TSV graph → segmented store
//! serve run <index.idx>                        online: line protocol on stdin/stdout;
//!                                              the snapshot is mmap-ed and served
//!                                              zero-copy (O(ms) startup at any size)
//! serve run --graph <graph.tsv> [method]      build in memory, then serve
//!                                              (enables the `update` protocol verb)
//! serve run --graph <graph.tsv> --mode single-source   skip the offline build: every
//!                                              query is computed live on demand and
//!                                              cached (bounded LRU, see --cache-capacity)
//! serve listen --addr 0.0.0.0:7878 --admin 127.0.0.1:7879 <index.idx>|--graph ...
//!                                              threaded TCP server: same protocol and
//!                                              sources as `run`; data plane serves
//!                                              rewrite/quit, the admin plane adds
//!                                              batch/update/info/shutdown
//! serve update <index.idx> <delta.tsv> --graph <graph.tsv>|--fixture fig3
//!              [out.idx] [--write-graph <path>]    incremental: refresh dirty rows only
//! serve info <index.idx>                       print snapshot header + stats
//! serve ingest <click.log> [method] [--window N] [--decay F] [--poll-ms N]
//!              [--addr H:P] [--admin H:P] ...   streaming: tail an append-only click
//!                                              log, batch events into epochs, and
//!                                              refresh + hot-swap dirty rows at every
//!                                              epoch boundary while the TCP planes
//!                                              keep serving
//! ```
//!
//! `method` is one of `naive | pearson | simrank | evidence | weighted`
//! (default `weighted`, the paper's best). Every full build is one
//! monolithic engine run; component decomposition (exact) happens where it
//! pays — `update`/`ingest` refresh only dirty components, and a `.seg`
//! build runs one segment at a time. Diagnostics go to stderr; stdout
//! carries only the line protocol, so `serve run` pipes cleanly.
//!
//! With `--graph` and a recursive method the server also holds a live
//! single-source engine: queries the index misses (always, under `--mode
//! single-source`) are computed on demand and cached; the protocol's `info`
//! verb reports the cache's hit/miss counters. Its one-off precompute is one
//! engine run per connected component (about one all-pairs run in time, the
//! largest component's run in memory); the `update` verb re-runs only the
//! dirty components, with requests still being answered meanwhile.
//!
//! `serve update` applies a delta TSV (`+\tquery\tad\timpr\tclicks\tecr`
//! per upsert, `-\tquery\tad` per removal) to the graph the snapshot was
//! built from, recomputes only the dirty components' rows, and writes the
//! next snapshot generation (in place unless `out.idx` is given). The
//! snapshot's own metadata supplies the method — no method argument.
//!
//! `serve ingest` is the streaming counterpart: the click log is the delta
//! upsert shape with a leading epoch column (`+\t<epoch>\t<query>\t<ad>\t
//! <impr>\t<clicks>\t<ecr>`), and `@\t<epoch>` marker lines close epochs.
//! Events accumulate in a sliding window of `--window` epochs (older
//! buckets retire wholesale); `--decay` down-weights an edge's older ECR
//! evidence. Each closed epoch refreshes exactly the dirty components'
//! rows and hot-swaps the generation in — clients never see a partial
//! index. The protocol `info` verb reports the `ingest_*` freshness
//! counters. `--checkpoint <path>` commits a durable checkpoint (log
//! offset + window epoch + graph fingerprint, written atomically) at every
//! epoch boundary; `--resume` restarts from it, replaying only the
//! checkpointed window span plus the log tail and refusing checkpoints
//! whose fingerprint disagrees with the replayed window.
//!
//! `--weight-kind` selects the edge weight behind transition
//! probabilities. Every subcommand defaults to `clicks` except `ingest`,
//! which defaults to `ecr` so the decay knob is visible in scores. The
//! snapshot header does not record the weight kind, so a `serve update` of
//! an index built with a non-default kind must be given the same flag — a
//! mismatch would mix weight regimes between refreshed and copied rows
//! undetected.

use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::delta::{apply_named, read_delta_tsv};
use simrankpp_graph::fixtures::figure3_graph;
use simrankpp_graph::{
    io::{read_tsv, write_tsv},
    write_segmented, ClickGraph, SegmentedStore, WeightKind,
};
use simrankpp_serve::{
    serve_session, LiveContext, NetServer, RewriteIndex, ServeState, UpdateContext,
};
use std::fs::File;
use std::io::{self, BufReader};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  serve build <graph.tsv>|<store.seg>|--fixture fig3 <out.idx> [method]
  serve segment <graph.tsv> <out.seg> [target-nodes-per-segment]
  serve run <index.idx>
  serve run --graph <graph.tsv> [method] [--mode all-pairs|single-source] [--cache-capacity N]
  serve listen [--addr H:P] [--admin H:P] [--max-connections N] [--read-timeout-secs S] <same sources as run>
  serve update <index.idx> <delta.tsv> --graph <graph.tsv>|--fixture fig3 [out.idx] [--write-graph <path>]
  serve info <index.idx>
  serve ingest <click.log> [method] [--window N] [--decay F] [--poll-ms N] [--weight-kind K]
               [--checkpoint <path>] [--resume]
               [--addr H:P] [--admin H:P] [--max-connections N] [--read-timeout-secs S]
method: naive | pearson | simrank | evidence | weighted (default weighted)
mode:   all-pairs (default; precompute every row offline) | single-source
        (no offline build: rows computed per query on demand, LRU-cached)
weight: --weight-kind impressions|clicks|ecr — edge weight behind transition
        probabilities (default clicks; ingest defaults to ecr so --decay shows)
ingest: tail an append-only click log (`+\t<epoch>\t<query>\t<ad>\t<impr>\t<clicks>\t<ecr>`
        events, `@\t<epoch>` epoch marks); --window N epochs of history (default 14),
        --decay F per-epoch ECR down-weight in (0,1] (default 1 = off), --poll-ms log
        poll interval (default 50); each closed epoch refreshes dirty rows + hot-swaps;
        --checkpoint <path> commits a durable checkpoint (atomic temp+fsync+rename)
        at every epoch boundary, --resume restarts from it: the window is rebuilt
        from the checkpointed replay span + log tail (fingerprint-verified) instead
        of re-reading the whole log
a .seg input (see `serve segment`) builds the index one segment at a time:
peak memory is bounded by the largest segment, not the whole graph";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("segment") => segment(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("listen") => listen(&args[1..]),
        Some("update") => update(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operator-facing message for a failed artifact open. A corrupt artifact
/// (`InvalidData`: torn write, checksum mismatch, truncation) is
/// additionally quarantined to `<path>.corrupt` so a supervised restart
/// rebuilds from source instead of crash-looping on the same bytes.
fn open_failure(path: &str, e: io::Error) -> String {
    if e.kind() == io::ErrorKind::InvalidData {
        return match simrankpp_util::quarantine(std::path::Path::new(path)) {
            Ok(q) => format!(
                "{path} is corrupt: {e}; quarantined to {} — rebuild it from source",
                q.display()
            ),
            Err(qe) => format!("{path} is corrupt: {e}; quarantine failed: {qe}"),
        };
    }
    format!("cannot load {path}: {e}")
}

fn method_kind(name: &str) -> Result<MethodKind, String> {
    Ok(match name {
        "naive" => MethodKind::Naive,
        "pearson" => MethodKind::Pearson,
        "simrank" => MethodKind::Simrank,
        "evidence" => MethodKind::EvidenceSimrank,
        "weighted" => MethodKind::WeightedSimrank,
        other => return Err(format!("unknown method {other:?}\n{USAGE}")),
    })
}

fn load_graph(source: &str, fixture: bool) -> Result<ClickGraph, String> {
    if fixture {
        return match source {
            "fig3" => Ok(figure3_graph()),
            other => Err(format!("unknown fixture {other:?} (only: fig3)")),
        };
    }
    let file = File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
    read_tsv(BufReader::new(file)).map_err(|e| format!("cannot parse {source}: {e}"))
}

fn weight_kind_arg(name: &str) -> Result<WeightKind, String> {
    Ok(match name {
        "impressions" => WeightKind::Impressions,
        "clicks" => WeightKind::Clicks,
        "ecr" => WeightKind::ExpectedClickRate,
        other => return Err(format!("unknown weight kind {other:?}\n{USAGE}")),
    })
}

/// Peels every `--weight-kind <v>` pair out of `args`, for the subcommands
/// whose remaining arguments are positional (`build`, `update`).
fn peel_weight_kind(args: &[String]) -> Result<(Option<WeightKind>, Vec<String>), String> {
    let mut kind = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--weight-kind" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--weight-kind needs a value\n{USAGE}"))?;
            kind = Some(weight_kind_arg(v)?);
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok((kind, rest))
}

/// The one serving configuration: every `serve` code path — `build`, `run
/// --graph`, `update`, and the protocol `update` verb — must compute with
/// identical parameters, or an incremental rebuild would mix generations.
/// The weight kind is the operator-chosen part (`--weight-kind`); it must
/// match across a build and its later updates.
fn serve_config(weight: WeightKind) -> SimrankConfig {
    SimrankConfig::default().with_weight_kind(weight)
}

fn build_index(graph: &ClickGraph, kind: MethodKind, weight: WeightKind) -> RewriteIndex {
    let t0 = Instant::now();
    let config = serve_config(weight);
    let method = Method::compute(kind, graph, &config);
    eprintln!(
        "computed {} over {} queries / {} ads in {:.1?}",
        kind.name(),
        graph.n_queries(),
        graph.n_ads(),
        t0.elapsed()
    );
    let t1 = Instant::now();
    let rewriter = Rewriter::new(graph, method, RewriterConfig::default());
    let index = RewriteIndex::build(&rewriter, None, 0);
    eprintln!(
        "indexed {} rewrites for {} queries in {:.1?}",
        index.n_entries(),
        index.n_queries(),
        t1.elapsed()
    );
    index
}

fn build(args: &[String]) -> Result<(), String> {
    let (weight, args) = peel_weight_kind(args)?;
    let weight = weight.unwrap_or(WeightKind::Clicks);
    let args = &args[..];
    // A segmented store builds without ever holding the whole graph.
    if let Some(path) = args.first().filter(|p| p.ends_with(".seg")) {
        let out = args.get(1).ok_or(USAGE.to_owned())?;
        let kind = method_kind(args.get(2).map(String::as_str).unwrap_or("weighted"))?;
        let mut store = SegmentedStore::open(path.as_ref()).map_err(|e| open_failure(path, e))?;
        let t0 = Instant::now();
        let config = serve_config(weight);
        let index = RewriteIndex::build_segmented(
            &mut store,
            kind,
            &config,
            RewriterConfig::default(),
            None,
        )
        .map_err(|e| format!("segmented build failed: {e}"))?;
        eprintln!(
            "built {} over {} segments ({} queries, {} rewrites) in {:.1?} — \
             peak memory bounded by the largest segment",
            kind.name(),
            store.n_segments(),
            index.n_queries(),
            index.n_entries(),
            t0.elapsed()
        );
        index
            .save(out)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("snapshot written to {out}");
        return Ok(());
    }
    let (graph, rest) = match args.first().map(String::as_str) {
        Some("--fixture") => {
            let name = args.get(1).ok_or(USAGE.to_owned())?;
            (load_graph(name, true)?, &args[2..])
        }
        Some(path) => (load_graph(path, false)?, &args[1..]),
        None => return Err(USAGE.to_owned()),
    };
    if rest.len() > 2 {
        return Err(USAGE.to_owned());
    }
    let out = rest.first().ok_or(USAGE.to_owned())?;
    let kind = method_kind(rest.get(1).map(String::as_str).unwrap_or("weighted"))?;

    let index = build_index(&graph, kind, weight);
    index
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("snapshot written to {out}");
    Ok(())
}

/// Converts a TSV click graph into a segmented store: component-group
/// segments of roughly `target` nodes each, every segment a self-contained
/// sub-graph blob.
fn segment(args: &[String]) -> Result<(), String> {
    let src = args.first().ok_or(USAGE.to_owned())?;
    let out = args.get(1).ok_or(USAGE.to_owned())?;
    let target: usize = match args.get(2) {
        Some(t) => t
            .parse()
            .map_err(|e| format!("bad target-nodes-per-segment: {e}\n{USAGE}"))?,
        None => 100_000,
    };
    let graph = load_graph(src, false)?;
    let t0 = Instant::now();
    let bytes = write_segmented(&graph, out.as_ref(), target)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let store =
        SegmentedStore::open(out.as_ref()).map_err(|e| format!("cannot reopen {out}: {e}"))?;
    eprintln!(
        "segmented {} queries / {} ads / {} edges into {} segment(s), {} bytes, in {:.1?}",
        store.total_queries(),
        store.total_ads(),
        store.total_edges(),
        store.n_segments(),
        bytes,
        t0.elapsed()
    );
    Ok(())
}

/// Builds the offline index over `graph` and assembles the updatable serve
/// state. A recursive method also gets the live single-source fallback, so
/// queries the index misses (possible once deltas land) are computed on
/// demand instead of refused.
fn build_state(
    graph: ClickGraph,
    kind: MethodKind,
    weight: WeightKind,
    cache_capacity: usize,
) -> Result<ServeState, String> {
    let index = build_index(&graph, kind, weight);
    let config = serve_config(weight);
    let live = if matches!(
        kind,
        MethodKind::Simrank | MethodKind::EvidenceSimrank | MethodKind::WeightedSimrank
    ) {
        let t0 = Instant::now();
        let live = LiveContext::new(graph.clone(), kind, config, RewriterConfig::default())?;
        eprintln!(
            "live single-source fallback ready in {:.1?} (row cache: {cache_capacity} entries)",
            t0.elapsed()
        );
        Some(live)
    } else {
        None
    };
    let state = ServeState::updatable(
        index,
        UpdateContext {
            graph,
            config,
            rewriter: RewriterConfig::default(),
        },
    );
    Ok(match live {
        Some(l) => state.with_live(l, cache_capacity),
        None => state,
    })
}

/// Options shared by `run` (stdin/stdout) and `listen` (TCP): index source,
/// serving mode, and — for `listen` — the listener shape.
struct ServeOptions {
    mode: String,
    cache_capacity: usize,
    weight_kind: Option<WeightKind>,
    window: usize,
    decay: f64,
    poll_ms: u64,
    /// Durable ingest checkpoint file (`--checkpoint`); None disables
    /// checkpointing.
    checkpoint: Option<String>,
    /// Restart from the checkpoint + log tail instead of replaying the
    /// whole log (`--resume`; requires `--checkpoint`).
    resume: bool,
    net: simrankpp_serve::NetConfig,
    positional: Vec<String>,
}

fn parse_serve_options(
    args: &[String],
    listen: bool,
    ingest: bool,
) -> Result<ServeOptions, String> {
    // Peel the flagged options off; what remains keeps the historical
    // positional shape (`--graph <path> [method]` or `<index.idx>`).
    let mut opts = ServeOptions {
        mode: "all-pairs".to_owned(),
        cache_capacity: 4096,
        weight_kind: None,
        window: 14,
        decay: 1.0,
        poll_ms: 50,
        checkpoint: None,
        resume: false,
        net: simrankpp_serve::NetConfig {
            addr: "127.0.0.1:7878".to_owned(),
            ..simrankpp_serve::NetConfig::default()
        },
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag_value = |name: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match args[i].as_str() {
            "--mode" => {
                opts.mode = flag_value("--mode")?;
                i += 2;
            }
            "--cache-capacity" => {
                opts.cache_capacity = flag_value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --cache-capacity: {e}\n{USAGE}"))?;
                i += 2;
            }
            "--weight-kind" => {
                opts.weight_kind = Some(weight_kind_arg(&flag_value("--weight-kind")?)?);
                i += 2;
            }
            "--window" if ingest => {
                opts.window = flag_value("--window")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}\n{USAGE}"))?;
                if opts.window == 0 {
                    return Err(format!("--window must be at least 1 epoch\n{USAGE}"));
                }
                i += 2;
            }
            "--decay" if ingest => {
                opts.decay = flag_value("--decay")?
                    .parse()
                    .map_err(|e| format!("bad --decay: {e}\n{USAGE}"))?;
                if !(opts.decay > 0.0 && opts.decay <= 1.0) {
                    return Err(format!("--decay must be in (0, 1]\n{USAGE}"));
                }
                i += 2;
            }
            "--poll-ms" if ingest => {
                opts.poll_ms = flag_value("--poll-ms")?
                    .parse()
                    .map_err(|e| format!("bad --poll-ms: {e}\n{USAGE}"))?;
                i += 2;
            }
            "--checkpoint" if ingest => {
                opts.checkpoint = Some(flag_value("--checkpoint")?);
                i += 2;
            }
            "--resume" if ingest => {
                opts.resume = true;
                i += 1;
            }
            "--failpoints" => {
                // CLI twin of the SIMRANKPP_FAILPOINTS environment variable
                // (same grammar). The registry always parses; the sites
                // only exist in binaries built with `--features failpoints`.
                let spec = flag_value("--failpoints")?;
                simrankpp_util::failpoint::configure(&spec)
                    .map_err(|e| format!("bad --failpoints: {e}"))?;
                if cfg!(not(feature = "failpoints")) {
                    eprintln!(
                        "warning: --failpoints given, but this binary was built without \
                         the `failpoints` feature; no site will fire"
                    );
                }
                i += 2;
            }
            "--addr" if listen => {
                opts.net.addr = flag_value("--addr")?;
                i += 2;
            }
            "--admin" if listen => {
                opts.net.admin_addr = Some(flag_value("--admin")?);
                i += 2;
            }
            "--max-connections" if listen => {
                opts.net.max_connections = flag_value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("bad --max-connections: {e}\n{USAGE}"))?;
                i += 2;
            }
            "--read-timeout-secs" if listen => {
                let secs: u64 = flag_value("--read-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("bad --read-timeout-secs: {e}\n{USAGE}"))?;
                // 0 disables the timeout (a stalled peer then pins its
                // handler thread — test/bench use only).
                opts.net.read_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
                i += 2;
            }
            other => {
                opts.positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    if !matches!(opts.mode.as_str(), "all-pairs" | "single-source") {
        return Err(format!("unknown mode {:?}\n{USAGE}", opts.mode));
    }
    Ok(opts)
}

/// Assembles the serve state from the parsed positional source — shared by
/// the stdin and TCP front-ends so both serve identical states.
fn state_from_options(opts: &ServeOptions) -> Result<ServeState, String> {
    let mode = opts.mode.as_str();
    let cache_capacity = opts.cache_capacity;
    let weight = opts.weight_kind.unwrap_or(WeightKind::Clicks);
    let positional: Vec<&str> = opts.positional.iter().map(String::as_str).collect();
    let state = match positional.first().copied() {
        Some("--graph") => {
            if positional.len() > 3 {
                return Err(USAGE.to_owned());
            }
            let path = positional.get(1).ok_or(USAGE.to_owned())?;
            let kind = method_kind(positional.get(2).copied().unwrap_or("weighted"))?;
            let graph = load_graph(path, false)?;
            if mode == "single-source" {
                // No offline build at all: an empty index (every lookup
                // misses) over a live engine, so each query's row is
                // computed on first demand and LRU-cached.
                let config = serve_config(weight);
                let meta = simrankpp_serve::IndexMeta {
                    method: kind,
                    max_rewrites: RewriterConfig::default().max_rewrites as u32,
                    bid_filtered: false,
                    approx_sharding: false,
                    kernel: simrankpp_core::KernelKind::Pull,
                    segments: 0,
                };
                let t0 = Instant::now();
                let live = LiveContext::new(graph, kind, config, RewriterConfig::default())?;
                eprintln!(
                    "single-source mode: skipped the offline build; live engine ready in \
                     {:.1?} (row cache: {cache_capacity} entries)",
                    t0.elapsed()
                );
                ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, cache_capacity)
            } else {
                eprintln!("live graph held: `update <delta.tsv>` hot-swaps the index in place");
                build_state(graph, kind, weight, cache_capacity)?
            }
        }
        Some(path) => {
            // Zero-copy open: O(#sections) regardless of index size — the
            // row arrays are served straight out of the mapped file bytes.
            let t0 = Instant::now();
            let index = RewriteIndex::open(path).map_err(|e| open_failure(path, e))?;
            eprintln!(
                "opened {}: {} queries, {} rewrites ({}) via {} ({} bytes) in {:.2?}; \
                 snapshot mode, `update` disabled (use `serve update` offline or `run --graph`)",
                path,
                index.n_queries(),
                index.n_entries(),
                index.meta().method.name(),
                index.backing(),
                index.as_bytes().len(),
                t0.elapsed()
            );
            ServeState::fixed(index)
        }
        None => return Err(USAGE.to_owned()),
    };
    Ok(state)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_serve_options(args, false, false)?;
    let state = state_from_options(&opts)?;
    let stdin = io::stdin();
    serve_session(&state, stdin.lock(), io::stdout()).map_err(|e| format!("protocol error: {e}"))
}

/// TCP front-end: same state assembly as `run`, served concurrently.
fn listen(args: &[String]) -> Result<(), String> {
    let opts = parse_serve_options(args, true, false)?;
    let state = std::sync::Arc::new(state_from_options(&opts)?);
    let net = opts.net.clone();
    let server = NetServer::bind(state, net).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    eprintln!(
        "data plane listening on {addr} (rewrite/quit; max {} connections, read timeout {:?})",
        opts.net.max_connections, opts.net.read_timeout
    );
    match server.admin_addr() {
        Some(Ok(admin)) => eprintln!(
            "admin plane listening on {admin} (batch/update/info/shutdown) — \
             keep this address off untrusted networks"
        ),
        Some(Err(e)) => return Err(format!("cannot resolve admin address: {e}")),
        None => eprintln!(
            "no --admin listener: update/info/shutdown are unreachable over the \
             network (data plane serves rewrite/quit only)"
        ),
    }
    server.serve().map_err(|e| format!("serve failed: {e}"))
}

fn update(args: &[String]) -> Result<(), String> {
    let (weight, args) = peel_weight_kind(args)?;
    let weight = weight.unwrap_or(WeightKind::Clicks);
    let args = &args[..];
    let idx_path = args.first().ok_or(USAGE.to_owned())?;
    let delta_path = args.get(1).ok_or(USAGE.to_owned())?;
    let mut graph_src: Option<(String, bool)> = None;
    let mut out_path: Option<String> = None;
    let mut write_graph: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        let flag_value = |name: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match args[i].as_str() {
            "--graph" => {
                graph_src = Some((flag_value("--graph")?, false));
                i += 2;
            }
            "--fixture" => {
                graph_src = Some((flag_value("--fixture")?, true));
                i += 2;
            }
            "--write-graph" => {
                write_graph = Some(flag_value("--write-graph")?);
                i += 2;
            }
            other if !other.starts_with("--") && out_path.is_none() => {
                out_path = Some(other.to_owned());
                i += 1;
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    let (src, fixture) =
        graph_src.ok_or_else(|| format!("update needs --graph or --fixture\n{USAGE}"))?;
    let graph = load_graph(&src, fixture)?;
    let index = RewriteIndex::load(idx_path).map_err(|e| open_failure(idx_path, e))?;
    let delta_file =
        File::open(delta_path).map_err(|e| format!("cannot open {delta_path}: {e}"))?;
    let ops = read_delta_tsv(BufReader::new(delta_file))
        .map_err(|e| format!("cannot parse {delta_path}: {e}"))?;

    let t0 = Instant::now();
    let (new_graph, delta) = apply_named(&graph, &ops)?;
    let dirty = delta.dirty_components(&new_graph);
    let config = serve_config(weight);
    let (next, stats) = index.rebuild_incremental(
        &new_graph,
        &dirty,
        &config,
        &RewriterConfig::default(),
        None,
    )?;
    eprintln!(
        "applied {} delta op(s): {} of {} queries refreshed, {} copied \
         ({} dirty / {} clean components) in {:.1?}",
        ops.len(),
        stats.refreshed_queries,
        next.n_queries(),
        stats.copied_queries,
        stats.n_dirty_components,
        stats.n_clean_components,
        t0.elapsed()
    );

    let out = out_path.as_deref().unwrap_or(idx_path);
    next.save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("snapshot written to {out}");
    match write_graph {
        Some(gp) => {
            // A crash mid-write must never leave a torn graph where the
            // next `serve update` would read it: temp + fsync + rename.
            simrankpp_util::atomic_write(std::path::Path::new(&gp), |w| write_tsv(&new_graph, w))
                .map_err(|e| format!("cannot write {gp}: {e}"))?;
            eprintln!("updated graph written to {gp}");
        }
        None => eprintln!(
            "warning: the post-delta graph was NOT persisted (no --write-graph); a further \
             `serve update` against the original graph source would recompute dirty \
             components without this delta's edges and silently drop its effects"
        ),
    }
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE.to_owned())?;
    let index = RewriteIndex::open(path).map_err(|e| open_failure(path, e))?;
    index.verify_deep().map_err(|e| open_failure(path, e))?;
    let covered = (0..index.n_queries())
        .filter(|&q| !index.row(simrankpp_graph::QueryId(q as u32)).0.is_empty())
        .count();
    println!("snapshot        {path}");
    println!("method          {}", index.meta().method.name());
    println!("max rewrites    {}", index.meta().max_rewrites);
    println!("bid filtered    {}", index.meta().bid_filtered);
    println!("engine kernel   {:?}", index.meta().kernel);
    println!("backing         {}", index.backing());
    println!("file bytes      {}", index.as_bytes().len());
    match index.meta().segments {
        0 => println!("segments        0 (monolithic build)"),
        n => println!("segments        {n}"),
    }
    println!("queries         {}", index.n_queries());
    println!("rewrites        {}", index.n_entries());
    println!(
        "coverage        {:.4}",
        covered as f64 / index.n_queries().max(1) as f64
    );
    println!(
        "row cache       n/a offline (the protocol `info` verb reports it on a running server)"
    );
    Ok(())
}

/// Streaming mode: tail a click log, refresh + hot-swap at epoch
/// boundaries, serve over TCP throughout.
///
/// Startup order matters for the freshness contract: the existing log
/// backlog is replayed and the first full index published *before* the
/// listeners bind, so the very first answer any client can get already
/// reflects every complete record — byte-identical to a static build of
/// the same window. After that the main thread runs the accept loops and
/// a background thread tails the log; a tailer failure (unparseable line,
/// I/O error) drains the server and fails the process rather than serving
/// an index that silently stopped following the log.
fn ingest(args: &[String]) -> Result<(), String> {
    use simrankpp_graph::delta::ClickLogRecord;
    use simrankpp_serve::checkpoint::{self, read_checkpoint, resume_ingestor, write_checkpoint};
    use simrankpp_serve::{EpochIngestor, IngestConfig, IngestMetrics, LogTailer};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let opts = parse_serve_options(args, true, true)?;
    let positional: Vec<&str> = opts.positional.iter().map(String::as_str).collect();
    let log_path = positional.first().copied().ok_or(USAGE.to_owned())?;
    let kind = method_kind(positional.get(1).copied().unwrap_or("weighted"))?;
    // Default to ECR weights in ingest mode: the decay knob rescales ECR,
    // so under click weights it would never reach a score.
    let weight = opts.weight_kind.unwrap_or(WeightKind::ExpectedClickRate);
    if opts.decay < 1.0 && weight != WeightKind::ExpectedClickRate {
        eprintln!(
            "warning: --decay rescales expected click rates, but --weight-kind is not ecr; \
             decay will not affect served scores"
        );
    }

    let cfg = IngestConfig {
        window: opts.window,
        decay: opts.decay,
        method: kind,
        config: serve_config(weight),
        rewriter: RewriterConfig::default(),
        threads: 0,
    };
    let metrics = Arc::new(IngestMetrics::default());
    if opts.resume && opts.checkpoint.is_none() {
        return Err(format!("--resume requires --checkpoint <path>\n{USAGE}"));
    }

    // Warm path: rebuild the window from the checkpoint's compact replay
    // span instead of the whole log, verifying the graph fingerprint at
    // the committed offset before anything is served.
    let mut resumed: Option<checkpoint::Resumed> = None;
    if opts.resume {
        let ck_path = opts.checkpoint.as_deref().expect("checked above");
        match read_checkpoint(Path::new(ck_path)) {
            Ok(ck) => {
                let t0 = Instant::now();
                let r = resume_ingestor(Path::new(log_path), &cfg, &ck)
                    .map_err(|e| format!("cannot resume from {ck_path}: {e}"))?;
                eprintln!(
                    "resumed from checkpoint {ck_path}: epoch {} -> {}, generation {}, \
                     replayed {} record(s) from byte {} in {:.1?}",
                    ck.epoch,
                    r.epoch,
                    ck.generation,
                    r.replayed,
                    ck.replay_offset,
                    t0.elapsed()
                );
                metrics.events.fetch_add(r.events as u64, Ordering::Relaxed);
                resumed = Some(r);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                eprintln!(
                    "--resume: no checkpoint at {ck_path}; cold-starting from the full click log"
                );
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // A corrupt checkpoint must not crash-loop a supervised
                // restart: move it aside so the next attempt cold-starts.
                return Err(match simrankpp_util::quarantine(Path::new(ck_path)) {
                    Ok(q) => format!(
                        "checkpoint {ck_path} refused: {e}; quarantined to {}",
                        q.display()
                    ),
                    Err(qe) => {
                        format!("checkpoint {ck_path} refused: {e}; quarantine failed: {qe}")
                    }
                });
            }
            Err(e) => return Err(format!("cannot read checkpoint {ck_path}: {e}")),
        }
    }

    // Catch up on the backlog (cold path: the whole log; warm path: already
    // replayed above), then one full build. Historical epoch marks only
    // advance the window here — there is no audience for intermediate
    // generations yet.
    let t0 = Instant::now();
    let (mut ingestor, mut tailer, caught_up) = match resumed {
        Some(r) => (r.ingestor, r.tailer, r.replayed),
        None => {
            let mut ingestor = EpochIngestor::new(cfg);
            let mut tailer =
                LogTailer::open(log_path).map_err(|e| format!("cannot open {log_path}: {e}"))?;
            let backlog = tailer
                .drain_spanned()
                .map_err(|e| format!("cannot read {log_path}: {e}"))?;
            for sr in &backlog {
                if matches!(sr.rec, ClickLogRecord::Event { .. }) {
                    metrics.events.fetch_add(1, Ordering::Relaxed);
                }
                ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
            }
            let n = backlog.len();
            (ingestor, tailer, n)
        }
    };
    let (index, stats, _) = ingestor.refresh()?;
    metrics.epoch.store(ingestor.epoch(), Ordering::Relaxed);
    metrics.refreshes.fetch_add(1, Ordering::Relaxed);
    metrics
        .refreshed_rows
        .fetch_add(stats.refreshed_queries as u64, Ordering::Relaxed);
    metrics
        .last_refresh_us
        .store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    eprintln!(
        "caught up {} record(s) from {log_path} (epoch {}, window {}, decay {}): \
         {} queries / {} rewrites ({}, {:?} weights) in {:.1?}",
        caught_up,
        ingestor.epoch(),
        opts.window,
        opts.decay,
        index.n_queries(),
        index.n_entries(),
        kind.name(),
        weight,
        t0.elapsed()
    );
    // Publish-then-checkpoint: the index above reflects every applied
    // record, so committing now means a crash at any later point resumes
    // at-or-before this state and replays forward deterministically.
    if let Some(ck_path) = opts.checkpoint.as_deref() {
        write_checkpoint(Path::new(ck_path), &checkpoint::capture(&ingestor))
            .map_err(|e| format!("cannot write checkpoint {ck_path}: {e}"))?;
        metrics.mark_checkpoint();
    }

    let state = Arc::new(ServeState::ingesting(index, Arc::clone(&metrics)));
    let server = NetServer::bind(Arc::clone(&state), opts.net.clone())
        .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    eprintln!(
        "data plane listening on {addr} (rewrite/quit; max {} connections, read timeout {:?})",
        opts.net.max_connections, opts.net.read_timeout
    );
    match server.admin_addr() {
        Some(Ok(admin)) => eprintln!(
            "admin plane listening on {admin} (batch/info/shutdown; `update` refused — \
             the ingest loop owns index generations)"
        ),
        Some(Err(e)) => return Err(format!("cannot resolve admin address: {e}")),
        None => eprintln!(
            "no --admin listener: info/shutdown are unreachable over the network \
             (data plane serves rewrite/quit only)"
        ),
    }

    let shutdown = server.shutdown_signal();
    let failed = Arc::new(AtomicBool::new(false));
    let tail_handle = {
        let state = Arc::clone(&state);
        let metrics = Arc::clone(&metrics);
        let shutdown = Arc::clone(&shutdown);
        let failed = Arc::clone(&failed);
        let poll = std::time::Duration::from_millis(opts.poll_ms);
        let ck_path = opts.checkpoint.clone();
        std::thread::spawn(move || {
            let fail = |msg: String| {
                eprintln!("ingest: {msg}");
                failed.store(true, Ordering::Relaxed);
                shutdown.trigger();
            };
            loop {
                if shutdown.is_draining() {
                    return;
                }
                let records = match tailer.drain_spanned() {
                    Ok(r) => r,
                    Err(e) => return fail(format!("cannot read the click log: {e}")),
                };
                if records.is_empty() {
                    std::thread::sleep(poll);
                    continue;
                }
                let mut refresh_due = false;
                for sr in &records {
                    if matches!(sr.rec, ClickLogRecord::Event { .. }) {
                        metrics.events.fetch_add(1, Ordering::Relaxed);
                    }
                    refresh_due |= ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
                }
                if refresh_due {
                    let t0 = Instant::now();
                    match ingestor.refresh_and_publish(&state) {
                        Ok(s) => eprintln!(
                            "epoch {}: refreshed {} row(s), copied {} \
                             ({} dirty / {} clean components) in {:.1?}",
                            ingestor.epoch(),
                            s.refreshed_queries,
                            s.copied_queries,
                            s.n_dirty_components,
                            s.n_clean_components,
                            t0.elapsed()
                        ),
                        Err(e) => return fail(format!("epoch refresh failed: {e}")),
                    }
                    // Commit only after the new generation is visible to
                    // clients: a crash between publish and commit replays
                    // this epoch on resume, which is idempotent; the
                    // reverse order could lose acknowledged freshness.
                    if let Some(ck) = ck_path.as_deref() {
                        if let Err(e) =
                            write_checkpoint(Path::new(ck), &checkpoint::capture(&ingestor))
                        {
                            return fail(format!("cannot write checkpoint {ck}: {e}"));
                        }
                        metrics.mark_checkpoint();
                    }
                }
            }
        })
    };

    let result = server.serve().map_err(|e| format!("serve failed: {e}"));
    // serve() returning means the drain flag is up; the tailer sees it on
    // its next poll.
    tail_handle
        .join()
        .map_err(|_| "ingest thread panicked".to_owned())?;
    if failed.load(Ordering::Relaxed) {
        return Err("the ingest loop failed; the server drained (see above)".to_owned());
    }
    result
}
