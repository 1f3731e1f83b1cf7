//! Build, inspect, update, and serve rewrite indexes from the command line.
//!
//! ```text
//! serve build <graph.tsv>|<store.seg>|--fixture fig3 <out.idx> [method]   graph → snapshot
//! serve segment <graph.tsv> <out.seg> [target-nodes]       TSV graph → segmented store
//! serve run <index.idx> | --graph <graph.tsv> [method]      line protocol on stdin/stdout
//! serve listen <same sources as run>                        the same over TCP
//! serve update <index.idx> <delta.tsv> [out.idx] --graph <graph.tsv>|--fixture fig3
//!                                                           the `update` verb, offline
//! serve info <index.idx>                                    snapshot header + stats
//! serve ingest <click.log> [method]                         tail a click log, serve over TCP
//! ```
//!
//! A snapshot is served mmap-ed (O(ms) startup at any size); `--graph`
//! builds in memory and enables the `update` verb, or under `--mode
//! single-source` skips the build and computes every row on demand. A
//! `.seg` store builds one segment at a time (peak memory bounded by the
//! largest segment). `USAGE` lists every flag.
//!
//! One parser reads every command line against one table ([`COMMANDS`])
//! in which each subcommand names the flags it accepts. Flags may sit
//! anywhere among the positional arguments; `--resume` is a switch and
//! every other flag takes one value. A flag the subcommand does not take,
//! or a positional argument more than it takes, is refused with the usage
//! text.
//!
//! `method` is one of `naive | pearson | simrank | evidence | weighted`
//! (default `weighted`, the paper's best). Every full build is one
//! monolithic engine run; component decomposition (exact) happens where it
//! pays — `update`/`ingest` refresh only dirty components, and a `.seg`
//! build runs one segment at a time. Diagnostics go to stderr; stdout
//! carries only the line protocol, so `serve run` pipes cleanly.
//!
//! A server has one source of rows: with `--graph`, the index built over
//! the graph, or under `--mode single-source` a live engine that computes
//! every query on demand and LRU-caches it (`info` reports the cache's
//! counters). The engine's one-off precompute is one engine run per
//! connected component; the `update` verb re-runs only the dirty
//! components, with requests still being answered meanwhile.
//!
//! `serve update` is that verb run once, offline: it loads the snapshot
//! into an updatable server over the graph the snapshot was built from,
//! applies the delta TSV (`+\tquery\tad\timpr\tclicks\tecr` per upsert,
//! `-\tquery\tad` per removal) through `ServeState::apply_update`, and
//! writes the next generation (in place unless `out.idx` is given). The
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

use simrankpp_core::{KernelKind, Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::delta::ClickLogRecord;
use simrankpp_graph::fixtures::figure3_graph;
use simrankpp_graph::io::{read_tsv, write_tsv};
use simrankpp_graph::{write_segmented, ClickGraph, SegmentedStore, WeightKind};
use simrankpp_serve::checkpoint::{self, read_checkpoint, resume_ingestor, write_checkpoint};
use simrankpp_serve::{
    serve_session, EpochIngestor, IndexMeta, IngestConfig, IngestMetrics, LiveContext, LogTailer,
    NetConfig, NetServer, RebuildStats, RewriteIndex, ServeState, SpannedRecord, UpdateContext,
};
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  serve build <graph.tsv>|<store.seg>|--fixture fig3 <out.idx> [method]
  serve segment <graph.tsv> <out.seg> [target-nodes-per-segment]
  serve run <index.idx>
  serve run --graph <graph.tsv> [method] [--mode all-pairs]
  serve run --graph <graph.tsv> [method] --mode single-source [--cache-capacity N]
  serve listen [--addr H:P] [--admin H:P] [--max-connections N] [--read-timeout-secs S] <same sources as run>
  serve update <index.idx> <delta.tsv> --graph <graph.tsv>|--fixture fig3 [out.idx] [--write-graph <path>]
  serve info <index.idx>
  serve ingest <click.log> [method] [--window N] [--decay F] [--poll-ms N] [--weight-kind K]
               [--checkpoint <path>] [--resume]
               [--addr H:P] [--admin H:P] [--max-connections N] [--read-timeout-secs S]
flags:  anywhere among the arguments; each subcommand takes the flags shown for it, plus
        --weight-kind K (all but segment and info; run and listen only with --graph);
        any other flag or an extra argument is refused
method: naive | pearson | simrank | evidence | weighted (default weighted)
mode:   all-pairs (default; precompute every row offline) | single-source
        (no offline build: rows computed per query on demand, LRU-cached in
        --cache-capacity rows, default 4096)
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

type Command = fn(&Args) -> Result<(), String>;

/// The one flag table: every subcommand, the flags it accepts (separated
/// by spaces), and its body.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("build", "--fixture --weight-kind", build),
    ("segment", "", segment),
    ("run", "--graph --mode --cache-capacity --weight-kind", run),
    (
        "listen",
        "--graph --mode --cache-capacity --weight-kind \
         --addr --admin --max-connections --read-timeout-secs",
        listen,
    ),
    (
        "update",
        "--graph --fixture --write-graph --weight-kind",
        update,
    ),
    ("info", "", info),
    (
        "ingest",
        "--window --decay --poll-ms --checkpoint --resume --weight-kind \
         --addr --admin --max-connections --read-timeout-secs",
        ingest,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(&(_, accepts, command)) = args
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| c.0 == a.as_str()))
    else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match Args::parse(&args[1..], accepts).and_then(|args| command(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's command line as the one parser split it: the flags
/// given, in order, and the positional arguments.
struct Args {
    flags: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args` for a subcommand that takes the flags `accepts`.
    fn parse(args: &[String], accepts: &'static str) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.positional.push(arg.clone());
                continue;
            }
            let flag = accepts
                .split(' ')
                .find(|&f| f == arg.as_str())
                .ok_or_else(|| format!("unexpected argument {arg:?}\n{USAGE}"))?;
            let value = match flag {
                "--resume" => String::new(),
                _ => args
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?,
            };
            parsed.flags.push((flag, value));
        }
        Ok(parsed)
    }

    /// The value of `flag` (the last one given), if any.
    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| *f == flag)?;
        Some(value)
    }

    /// The value of `flag` parsed as a `T`, if the flag was given.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |v: &str| v.parse().map_err(|e| format!("bad {flag}: {e}\n{USAGE}"));
        self.value(flag).map(parse).transpose()
    }

    /// The positional arguments, refused unless there are `count` of them.
    fn positional(&self, count: std::ops::RangeInclusive<usize>) -> Result<&[String], String> {
        if count.contains(&self.positional.len()) {
            Ok(&self.positional)
        } else {
            Err(USAGE.to_owned())
        }
    }

    /// `--weight-kind`, or `default` without it.
    fn weight_kind(&self, default: WeightKind) -> Result<WeightKind, String> {
        Ok(match self.value("--weight-kind") {
            None => default,
            Some("impressions") => WeightKind::Impressions,
            Some("clicks") => WeightKind::Clicks,
            Some("ecr") => WeightKind::ExpectedClickRate,
            Some(other) => return Err(format!("unknown weight kind {other:?}\n{USAGE}")),
        })
    }
}

/// Operator-facing message for a failed artifact open. A corrupt artifact
/// (`InvalidData`: torn write, checksum mismatch, truncation) is
/// additionally quarantined to `<path>.corrupt` so a supervised restart
/// rebuilds from source instead of crash-looping on the same bytes.
fn open_failure(path: &str, e: io::Error) -> String {
    if e.kind() == io::ErrorKind::InvalidData {
        return match simrankpp_util::quarantine(Path::new(path)) {
            Ok(q) => format!(
                "{path} is corrupt: {e}; quarantined to {} — rebuild it from source",
                q.display()
            ),
            Err(qe) => format!("{path} is corrupt: {e}; quarantine failed: {qe}"),
        };
    }
    format!("cannot load {path}: {e}")
}

/// The optional positional `method` argument (default `weighted`).
fn method_kind(name: Option<&String>) -> Result<MethodKind, String> {
    Ok(match name.map_or("weighted", String::as_str) {
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

/// The one serving configuration: every `serve` code path — `build`, `run
/// --graph`, `update`, and the protocol `update` verb — must compute with
/// identical parameters, or an incremental rebuild would mix generations.
/// The weight kind is the operator-chosen part (`--weight-kind`); it must
/// match across a build and its later updates.
fn serve_config(weight: WeightKind) -> SimrankConfig {
    SimrankConfig::default().with_weight_kind(weight)
}

/// An index covering no query, for a server whose rows come from elsewhere:
/// the live engine (`--mode single-source`) or the ingest loop's publishes.
fn empty_index(method: MethodKind) -> RewriteIndex {
    RewriteIndex::empty(IndexMeta {
        method,
        max_rewrites: RewriterConfig::default().max_rewrites as u32,
        bid_filtered: false,
        approx_sharding: false,
        kernel: KernelKind::Pull,
        segments: 0,
    })
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

fn build(args: &Args) -> Result<(), String> {
    let weight = args.weight_kind(WeightKind::Clicks)?;
    // `--fixture <name>` stands in for the source argument.
    let fixture = args.value("--fixture");
    let (source, rest) = match fixture {
        Some(name) => (name, args.positional(1..=2)?),
        None => {
            let positional = args.positional(2..=3)?;
            (positional[0].as_str(), &positional[1..])
        }
    };
    let out = &rest[0];
    let kind = method_kind(rest.get(1))?;
    let index = if fixture.is_none() && source.ends_with(".seg") {
        // A segmented store builds without ever holding the whole graph.
        let mut store =
            SegmentedStore::open(source.as_ref()).map_err(|e| open_failure(source, e))?;
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
    } else {
        build_index(&load_graph(source, fixture.is_some())?, kind, weight)
    };
    index
        .save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("snapshot written to {out}");
    Ok(())
}

/// Converts a TSV click graph into a segmented store: component-group
/// segments of roughly `target` nodes each, every segment a self-contained
/// sub-graph blob.
fn segment(args: &Args) -> Result<(), String> {
    let positional = args.positional(2..=3)?;
    let (src, out) = (&positional[0], &positional[1]);
    let target: usize = match positional.get(2) {
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

/// The state `run` and `listen` serve, from one row source: an opened
/// snapshot (`update` refused); with `--graph`, an index built over the
/// graph (`update` rebuilds its dirty rows) or, under `--mode
/// single-source`, a live engine that computes every row on demand. A flag
/// the chosen source would ignore is refused.
fn serve_state(args: &Args) -> Result<ServeState, String> {
    let cache_capacity = args.num("--cache-capacity")?;
    let Some(path) = args.value("--graph") else {
        let ignored = ["--mode", "--cache-capacity", "--weight-kind"];
        if let Some((flag, _)) = args.flags.iter().find(|(f, _)| ignored.contains(f)) {
            return Err(format!("{flag:?} needs --graph\n{USAGE}"));
        }
        // Zero-copy open: O(#sections) regardless of index size — the row
        // arrays are served straight out of the mapped file bytes.
        let path = &args.positional(1..=1)?[0];
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
        return Ok(ServeState::fixed(index));
    };
    let single_source = match args.value("--mode") {
        None | Some("all-pairs") => false,
        Some("single-source") => true,
        Some(other) => return Err(format!("unknown mode {other:?}\n{USAGE}")),
    };
    if cache_capacity.is_some() && !single_source {
        return Err(format!(
            "\"--cache-capacity\" needs --mode single-source\n{USAGE}"
        ));
    }
    let weight = args.weight_kind(WeightKind::Clicks)?;
    let kind = method_kind(args.positional(0..=1)?.first())?;
    let graph = load_graph(path, false)?;
    let config = serve_config(weight);
    if !single_source {
        eprintln!("live graph held: `update <delta.tsv>` hot-swaps the index in place");
        let index = build_index(&graph, kind, weight);
        let ctx = UpdateContext {
            graph: Arc::new(graph),
            config,
            rewriter: RewriterConfig::default(),
        };
        return Ok(ServeState::updatable(index, ctx));
    }
    // No offline build at all: each query's row is computed on first
    // demand and LRU-cached.
    let cache_capacity = cache_capacity.unwrap_or(4096);
    let t0 = Instant::now();
    let live = LiveContext::new(graph, kind, config, RewriterConfig::default())?;
    eprintln!(
        "single-source mode: skipped the offline build; live engine ready in {:.1?} \
         (row cache: {cache_capacity} entries)",
        t0.elapsed()
    );
    Ok(ServeState::fixed(empty_index(kind)).with_live(live, cache_capacity))
}

fn run(args: &Args) -> Result<(), String> {
    serve_session(&serve_state(args)?, io::stdin().lock(), io::stdout())
        .map_err(|e| format!("protocol error: {e}"))
}

/// TCP front-end: the state `run` would serve, served concurrently.
fn listen(args: &Args) -> Result<(), String> {
    let net = net_config(args)?;
    let server = bind(Arc::new(serve_state(args)?), net)?;
    server.serve().map_err(|e| format!("serve failed: {e}"))
}

/// The listener shape `listen` and `ingest` share.
fn net_config(args: &Args) -> Result<NetConfig, String> {
    let mut net = NetConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7878").to_owned(),
        admin_addr: args.value("--admin").map(str::to_owned),
        ..NetConfig::default()
    };
    if let Some(n) = args.num("--max-connections")? {
        net.max_connections = n;
    }
    if let Some(secs) = args.num("--read-timeout-secs")? {
        // 0 disables the timeout (a stalled peer then pins its handler
        // thread — test/bench use only).
        net.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    Ok(net)
}

/// Binds the data plane (and, with `--admin`, the admin plane) over `state`
/// and prints their banners. `data plane listening on <addr>` and `admin
/// plane listening on <addr>` are what a supervisor parses for the bound
/// addresses.
fn bind(state: Arc<ServeState>, net: NetConfig) -> Result<NetServer, String> {
    let (max_connections, read_timeout) = (net.max_connections, net.read_timeout);
    let admin_verbs = match state.ingest_metrics() {
        Some(_) => "batch/info/shutdown; `update` refused — the ingest loop owns index generations",
        None => "batch/update/info/shutdown",
    };
    let server = NetServer::bind(state, net).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    eprintln!(
        "data plane listening on {addr} (rewrite/quit; max {max_connections} connections, \
         read timeout {read_timeout:?})"
    );
    match server.admin_addr() {
        Some(Ok(admin)) => eprintln!(
            "admin plane listening on {admin} ({admin_verbs}) — keep this address off \
             untrusted networks"
        ),
        Some(Err(e)) => return Err(format!("cannot resolve admin address: {e}")),
        None => eprintln!(
            "no --admin listener: the admin verbs are unreachable over the network (data \
             plane serves rewrite/quit only)"
        ),
    }
    Ok(server)
}

/// The protocol `update` verb, offline: the snapshot becomes the index of
/// an updatable server over the graph it was built from, the delta goes
/// through [`ServeState::apply_update`], and the new generation is saved.
fn update(args: &Args) -> Result<(), String> {
    let positional = args.positional(2..=3)?;
    let (idx, delta) = (&positional[0], &positional[1]);
    let out = positional.get(2).unwrap_or(idx);
    let weight = args.weight_kind(WeightKind::Clicks)?;
    let graph = match (args.value("--fixture"), args.value("--graph")) {
        (Some(name), _) => load_graph(name, true)?,
        (None, Some(path)) => load_graph(path, false)?,
        (None, None) => return Err(format!("update needs --graph or --fixture\n{USAGE}")),
    };
    let index = RewriteIndex::load(idx).map_err(|e| open_failure(idx, e))?;
    let ctx = UpdateContext {
        graph: Arc::new(graph),
        config: serve_config(weight),
        rewriter: RewriterConfig::default(),
    };
    let state = ServeState::updatable(index, ctx);

    let t0 = Instant::now();
    let stats = state.apply_update(delta)?;
    let next = state.handle().load();
    eprintln!(
        "applied {delta}: {} of {} queries refreshed, {} copied \
         ({} dirty / {} clean components) in {:.1?}",
        stats.refreshed_queries,
        next.n_queries(),
        stats.copied_queries,
        stats.n_dirty_components,
        stats.n_clean_components,
        t0.elapsed()
    );
    next.save(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("snapshot written to {out}");

    let Some(path) = args.value("--write-graph") else {
        eprintln!(
            "warning: the post-delta graph was NOT persisted (no --write-graph); a further \
             `serve update` against the original graph source would recompute dirty \
             components without this delta's edges and silently drop its effects"
        );
        return Ok(());
    };
    let graph = state.graph().expect("an updatable server holds its graph");
    // A crash mid-write must never leave a torn graph where the next
    // `serve update` would read it: temp + fsync + rename.
    simrankpp_util::atomic_write(Path::new(path), |w| write_tsv(&graph, w))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("updated graph written to {path}");
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let path = &args.positional(1..=1)?[0];
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

/// Applies drained click-log records to `ingestor`, counting the events;
/// `true` when one of them closed an epoch (a refresh is due).
fn apply_records(
    ingestor: &mut EpochIngestor,
    records: &[SpannedRecord],
    metrics: &IngestMetrics,
) -> bool {
    let mut refresh_due = false;
    for sr in records {
        if matches!(sr.rec, ClickLogRecord::Event { .. }) {
            metrics.events.fetch_add(1, Ordering::Relaxed);
        }
        refresh_due |= ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
    }
    refresh_due
}

/// Publishes the ingestor's next generation into `state`, then commits a
/// checkpoint of it (with `--checkpoint`). Publish-then-checkpoint: a crash
/// between the two replays this epoch on resume, which is idempotent; the
/// reverse order could lose acknowledged freshness.
fn publish(
    ingestor: &mut EpochIngestor,
    state: &ServeState,
    checkpoint_path: Option<&str>,
) -> Result<RebuildStats, String> {
    let stats = ingestor
        .refresh_and_publish(state)
        .map_err(|e| format!("epoch refresh failed: {e}"))?;
    if let Some(ck) = checkpoint_path {
        write_checkpoint(Path::new(ck), &checkpoint::capture(ingestor))
            .map_err(|e| format!("cannot write checkpoint {ck}: {e}"))?;
        if let Some(metrics) = state.ingest_metrics() {
            metrics.mark_checkpoint();
        }
    }
    Ok(stats)
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
fn ingest(args: &Args) -> Result<(), String> {
    let positional = args.positional(1..=2)?;
    let log_path = positional[0].as_str();
    let kind = method_kind(positional.get(1))?;
    // Default to ECR weights in ingest mode: the decay knob rescales ECR,
    // so under click weights it would never reach a score.
    let weight = args.weight_kind(WeightKind::ExpectedClickRate)?;
    let window = args.num("--window")?.unwrap_or(14);
    if window == 0 {
        return Err(format!("--window must be at least 1 epoch\n{USAGE}"));
    }
    let decay = args.num("--decay")?.unwrap_or(1.0);
    if !(decay > 0.0 && decay <= 1.0) {
        return Err(format!("--decay must be in (0, 1]\n{USAGE}"));
    }
    let poll = Duration::from_millis(args.num("--poll-ms")?.unwrap_or(50));
    let checkpoint_path = args.value("--checkpoint");
    let resume_from = match (args.value("--resume"), checkpoint_path) {
        (Some(_), None) => return Err(format!("--resume requires --checkpoint <path>\n{USAGE}")),
        (resume, ck) => resume.and(ck),
    };
    let net = net_config(args)?;
    if decay < 1.0 && weight != WeightKind::ExpectedClickRate {
        eprintln!(
            "warning: --decay rescales expected click rates, but --weight-kind is not ecr; \
             decay will not affect served scores"
        );
    }

    let cfg = IngestConfig {
        window,
        decay,
        method: kind,
        config: serve_config(weight),
        rewriter: RewriterConfig::default(),
        threads: 0,
    };
    let metrics = Arc::new(IngestMetrics::default());
    let state = Arc::new(ServeState::ingesting(
        empty_index(kind),
        Arc::clone(&metrics),
    ));

    // Warm path: rebuild the window from the checkpoint's compact replay
    // span instead of the whole log, verifying the graph fingerprint at
    // the committed offset before anything is served.
    let mut resumed: Option<checkpoint::Resumed> = None;
    if let Some(ck_path) = resume_from {
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
    // replayed above), then one full build, published like every later
    // generation. Historical epoch marks only advance the window here —
    // there is no audience for intermediate generations yet.
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
            apply_records(&mut ingestor, &backlog, &metrics);
            (ingestor, tailer, backlog.len())
        }
    };
    publish(&mut ingestor, &state, checkpoint_path)?;
    let index = state.handle().load();
    eprintln!(
        "caught up {} record(s) from {log_path} (epoch {}, window {window}, decay {decay}): \
         {} queries / {} rewrites ({}, {:?} weights) in {:.1?}",
        caught_up,
        ingestor.epoch(),
        index.n_queries(),
        index.n_entries(),
        kind.name(),
        weight,
        t0.elapsed()
    );

    let server = bind(Arc::clone(&state), net)?;
    let shutdown = server.shutdown_signal();
    let failed = Arc::new(AtomicBool::new(false));
    let tail_handle = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let failed = Arc::clone(&failed);
        let checkpoint_path = checkpoint_path.map(str::to_owned);
        std::thread::spawn(move || {
            let fail = |msg: String| {
                eprintln!("ingest: {msg}");
                failed.store(true, Ordering::Relaxed);
                shutdown.trigger();
            };
            while !shutdown.is_draining() {
                let records = match tailer.drain_spanned() {
                    Ok(r) => r,
                    Err(e) => return fail(format!("cannot read the click log: {e}")),
                };
                if records.is_empty() {
                    std::thread::sleep(poll);
                    continue;
                }
                if !apply_records(&mut ingestor, &records, &metrics) {
                    continue;
                }
                let t0 = Instant::now();
                match publish(&mut ingestor, &state, checkpoint_path.as_deref()) {
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
                    Err(e) => return fail(e),
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
