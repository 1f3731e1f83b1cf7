//! The four workloads and what they share: the run's settings, the request
//! block driver, and the build pipeline two of them run.

pub mod offline_build;
pub mod serve_hot;
pub mod serve_live;
pub mod stream_mixed;

use crate::check::{digest, Rows};
use crate::inputs::{engine_config, Requests, THREADS};
use crate::measure::{peak_rss_mb, quantile_ns, Sink, Summary};
use crate::report::Report;
use crate::trace::Tracer;
use simrankpp_core::engine::run_with_strategy;
use simrankpp_core::evidence::{evidence_multiply, EvidenceKind};
use simrankpp_core::weighted::SpreadMode;
use simrankpp_core::{Method, MethodKind, Rewriter, WeightedTransition};
use simrankpp_graph::io::{read_tsv, write_tsv};
use simrankpp_graph::{ClickGraph, QueryId};
use simrankpp_serve::{serve_session_with, RewriteIndex, ServeState, SessionOptions};
use simrankpp_synth::generator::{generate, GeneratorConfig, SynthDataset};
use simrankpp_util::FxHashSet;
use std::fs::File;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(name, why)` of each workload, as `BENCHMARK.json` records them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "offline_build",
        "the batch job of Fig. 2: click-graph TSV to durable snapshot to first answers; \
         core.engine and the 9.3 funnel do the work, serving layers almost none",
    ),
    (
        "serve_hot",
        "precomputed lookups from an mmapped snapshot: serve.server, serve.mapped and serve.swap \
         do all the work and the engine none, so an engine change must not move it",
    ),
    (
        "serve_live",
        "compute-on-miss serving with a working set 3x the row cache: core.engine.single_source, \
         serve.rowcache and the live-context lock carry the time while serve.mapped is idle",
    ),
    (
        "stream_mixed",
        "click-log epochs ingested beside reads: graph.delta, graph.window, incremental engine \
         and index rebuild, swap and checkpoint; small-component and giant-component epochs mix",
    ),
];

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    match name {
        "offline_build" => offline_build::run(ctx, r),
        "serve_hot" => serve_hot::run(ctx, r),
        "serve_live" => serve_live::run(ctx, r),
        "stream_mixed" => stream_mixed::run(ctx, r),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `--seed`: draws the traffic.
    pub seed: u64,
    /// `--graph-seed`: draws the click graph; fixed by default.
    pub graph_seed: u64,
    /// `--seconds`: how long the measured part is sized for.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// Segment count for a workload whose `per_10s` segments fill ten
    /// seconds: a function of `--seconds` alone, never of the clock, so one
    /// seed and one command line always do the same work and every count
    /// repeats exactly. A traced run measures twice (a reference pass, then
    /// the traced pass), each half as long.
    pub fn segments(&self, per_10s: usize, at_least: usize) -> usize {
        let mut n = per_10s as f64 * self.seconds / 10.0;
        if self.quick {
            n /= 4.0;
        }
        if self.traced {
            n /= 2.0;
        }
        (n.round() as usize).max(at_least)
    }

    /// A graph or block size, a tenth as large under `--quick`.
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Set-up runs this many times in one run; `setup_s` is the median, so one
/// disturbed set-up does not stand for the run.
const SETUP_REPEATS: usize = 3;

/// One run of one workload: set-up (generation, input files and any program
/// state built once), the measured part, then peak memory and set-up time.
///
/// Peak memory is the workload's own: `VmHWM` is read when the measured part
/// ends, and only then is set-up repeated for its timing, so the repeats
/// cannot raise it.
pub fn run_workload<S>(
    ctx: &Ctx,
    r: &mut Report,
    setup: impl Fn(&Ctx, &mut Report) -> Result<S, String>,
    measure: impl FnOnce(&Ctx, S, &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let t = Instant::now();
    let state = setup(ctx, r)?;
    let mut times = vec![t.elapsed().as_secs_f64()];
    let measured = measure(ctx, state, r);
    match peak_rss_mb() {
        Ok(mb) => r.set("peak_rss_mb", mb),
        Err(e) => r.check("peak_rss_mb", Err(e)),
    }
    for _ in 1..SETUP_REPEATS {
        let mut repeat = Report::default();
        let t = Instant::now();
        drop(setup(ctx, &mut repeat)?);
        times.push(t.elapsed().as_secs_f64());
        r.ops += repeat.ops;
        r.failed += repeat.failed;
        r.failures.extend(repeat.failures);
    }
    let times = Summary::new(times);
    r.set("setup_s", times.median());
    r.note(format!("setup_s: {}", times.describe("s")));
    measured
}

/// The refresh end-to-end metrics from one sample per refresh, in ms. The
/// tail is p95 when ten samples lie beyond it; with fewer samples it is the
/// highest percentile that still has ten beyond it, and under twenty samples
/// the tail is not resolved and repeats the median.
pub fn report_refresh(what: &str, samples_ms: &[f64], r: &mut Report) {
    let s = Summary::new(samples_ms.to_vec());
    let (tail, label) = if s.n() < 20 {
        (s.median(), "the median".to_owned())
    } else {
        let q = (1.0 - 10.0 / s.n() as f64).min(0.95);
        (s.q(q), format!("p{:.1}", q * 100.0))
    };
    r.set("refresh_p50_ms", s.median());
    r.set("refresh_tail_ms", tail);
    r.note(format!(
        "refresh ({what}): {}; tail is {label}",
        s.describe("ms")
    ));
}

/// Request figures of one block, one entry per block served.
#[derive(Debug, Default)]
pub struct RequestStats {
    per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    pub requests: u64,
    pub response_bytes: u64,
    pub errs: u64,
    pub session_s: f64,
}

impl RequestStats {
    pub fn s_per_request(&self) -> f64 {
        self.session_s / self.requests.max(1) as f64
    }

    /// Reports the session-level layer metrics; returns ns per request of
    /// the whole `serve_session_with` loop.
    pub fn report_layers(&self, r: &mut Report) -> f64 {
        let session_ns = self.s_per_request() * 1e9;
        r.set("serve.server.session_ns", session_ns);
        r.set("serve.server.response_bytes", self.response_bytes as f64);
        r.set(
            "serve.server.err_share",
            self.errs as f64 / self.requests.max(1) as f64,
        );
        r.set(
            "serve.server.request_p50_us",
            Summary::new(self.p50_us.clone()).median(),
        );
        session_ns
    }

    /// Reports the medians over blocks as the request end-to-end metrics.
    pub fn report(self, r: &mut Report) {
        let per_s = Summary::new(self.per_s);
        let p50 = Summary::new(self.p50_us);
        let p99 = Summary::new(self.p99_us);
        r.set("requests_per_s", per_s.median());
        r.set("request_p99_us", p99.median());
        r.note(format!("requests_per_s: {}", per_s.describe("1/s")));
        r.note(format!("request_p50_us: {}", p50.describe("us")));
        r.note(format!("request_p99_us: {}", p99.describe("us")));
        r.note(format!(
            "requests: {} answered, {} err lines, {} response bytes",
            self.requests, self.errs, self.response_bytes
        ));
    }
}

/// Serves `reqs` through one `serve_session_with` session into `sink` —
/// closed loop, one session, the function every TCP connection thread runs.
/// Checks that every request was answered and that exactly the planted
/// number of `err` lines came back.
pub fn serve_block(
    state: &ServeState,
    reqs: &Requests,
    sink: &mut Sink<'_>,
    stats: Option<&mut RequestStats>,
    tr: &mut Tracer,
    r: &mut Report,
) {
    let opts = SessionOptions::stdin();
    let span = tr.enter("serve.server.session");
    sink.start();
    let t = Instant::now();
    let served = serve_session_with(state, black_box(reqs.bytes.as_slice()), &mut *sink, &opts);
    let wall = t.elapsed().as_secs_f64();
    tr.exit(span);

    r.ops += reqs.len() as u64;
    r.check("serve block", served.map_err(|e| e.to_string()));
    // Each unanswered request is a failed op of its own.
    let unanswered = (reqs.len() as u64).saturating_sub(sink.responses);
    r.fail(
        unanswered,
        format!("serve block: {unanswered} requests got no response"),
    );
    if sink.errs != reqs.unknown() as u64 {
        let planted = reqs.unknown();
        r.fail(
            1,
            format!(
                "serve block: {} err lines for {planted} planted unknown names",
                sink.errs
            ),
        );
    }
    if let Some(s) = stats {
        // Selection reorders; the sink keeps its stamps in request order.
        let mut stamps = sink.service_ns.clone();
        s.per_s.push(reqs.len() as f64 / wall);
        s.p50_us.push(quantile_ns(&mut stamps, 0.50) / 1e3);
        s.p99_us.push(quantile_ns(&mut stamps, 0.99) / 1e3);
        s.requests += sink.responses;
        s.response_bytes += sink.bytes;
        s.errs += sink.errs;
        s.session_s += wall;
    }
}

/// Answers one `rewrite` request through the session loop; the response
/// line, newline included.
pub fn first_answer(state: &ServeState, name: &str) -> Result<Vec<u8>, String> {
    let request = format!("rewrite {name}\n");
    let mut out = Vec::with_capacity(256);
    serve_session_with(
        state,
        request.as_bytes(),
        &mut out,
        &SessionOptions::stdin(),
    )
    .map_err(|e| format!("first answer: {e}"))?;
    if out.is_empty() {
        return Err("first answer: no response".into());
    }
    Ok(out)
}

/// The bid-term file resolved against the graph as the program read it:
/// ids differ from the generator's after the TSV round trip, so the list
/// travels by name.
pub fn read_bid_terms(path: &Path, g: &ClickGraph) -> Result<FxHashSet<QueryId>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("bid terms: {e}"))?;
    Ok(text.lines().filter_map(|n| g.query_by_name(n)).collect())
}

/// Counts the engine reports about one run (traced builds only).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub iterations: usize,
    pub query_pairs: usize,
    pub ad_pairs: usize,
}

/// The first half of a batch build: TSV on disk → graph → weighted SimRank
/// with evidence. The caller wraps `method` in a `Rewriter` over `g` and
/// runs `RewriteIndex::build` (it keeps the rewriter for its checks).
#[derive(Debug)]
pub struct Scored {
    pub g: ClickGraph,
    pub method: Method,
    pub bid_terms: Option<FxHashSet<QueryId>>,
    pub counts: EngineCounts,
}

/// Untraced this is `Method::compute`; traced, the same computation is
/// spelled out as `run_with_strategy` → `evidence_multiply` →
/// `Method::from_scores` so each layer gets a span (`offline_build` asserts
/// the two give bit-identical rows).
pub fn score_graph(tsv: &Path, bids: Option<&Path>, tr: &mut Tracer) -> Result<Scored, String> {
    let config = engine_config();
    let g = tr.span("graph.io.read_tsv", || {
        File::open(tsv)
            .and_then(read_tsv)
            .map_err(|e| format!("read_tsv: {e}"))
    })?;
    let bid_terms = match bids {
        Some(p) => Some(tr.span("bench.bid_terms", || read_bid_terms(p, &g))?),
        None => None,
    };
    let mut counts = EngineCounts::default();
    let method = if tr.on() {
        let transition = WeightedTransition {
            kind: config.weight_kind,
            spread: SpreadMode::Exponential,
        };
        let run = tr.span("core.engine.run", || {
            run_with_strategy(&g, &config, &transition)
        });
        let (query_pairs, ad_pairs) = run.pair_counts.last().copied().unwrap_or_default();
        counts = EngineCounts {
            iterations: run.iterations_run,
            query_pairs,
            ad_pairs,
        };
        let (queries, _ads) = tr.span("core.evidence.multiply", || {
            evidence_multiply(&g, &run.queries, &run.ads, EvidenceKind::Geometric)
        });
        Method::from_scores(MethodKind::WeightedSimrank, queries, Some(run.queries))
    } else {
        Method::compute(MethodKind::WeightedSimrank, &g, &config)
    };
    Ok(Scored {
        g,
        method,
        bid_terms,
        counts,
    })
}

/// The second half: the §9.3 funnel over every query, frozen into an index.
pub fn build_index(
    rewriter: &Rewriter<'_>,
    bid_terms: Option<&FxHashSet<QueryId>>,
    tr: &mut Tracer,
) -> RewriteIndex {
    tr.span("serve.index.build", || {
        RewriteIndex::build(rewriter, bid_terms, THREADS)
    })
}

/// Set-up shared by every workload: generates the dataset for `config` and
/// writes its click graph as the TSV the program will read.
pub fn generate_to_tsv(
    config: &GeneratorConfig,
    tsv: &Path,
    r: &mut Report,
) -> Result<SynthDataset, String> {
    let t = Instant::now();
    let ds = generate(black_box(config));
    r.set("synth.generator.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    File::create(tsv)
        .and_then(|f| write_tsv(&ds.graph, f))
        .map_err(|e| format!("write_tsv: {e}"))?;
    r.set("graph.io.write_tsv_s", t.elapsed().as_secs_f64());
    let bytes = std::fs::metadata(tsv).map_err(|e| e.to_string())?.len();
    r.set("graph.io.tsv_bytes", bytes as f64);
    r.note(format!(
        "graph: {} queries, {} ads, {} edges, {} TSV bytes",
        ds.graph.n_queries(),
        ds.graph.n_ads(),
        ds.graph.n_edges(),
        bytes
    ));
    Ok(ds)
}

/// Coverage and mean depth of an index (§9.4), and its size and digest.
pub fn report_index_shape(index: &dyn Rows, r: &mut Report) {
    let n = index.n_queries();
    let depths: Vec<usize> = (0..n as u32)
        .map(|q| index.row(QueryId(q)).0.len())
        .collect();
    let entries: usize = depths.iter().sum();
    let covered = depths.iter().filter(|&&d| d > 0).count();
    r.set("serve.index.entries", entries as f64);
    r.set("serve.index.coverage", covered as f64 / n.max(1) as f64);
    r.set("serve.index.mean_depth", entries as f64 / n.max(1) as f64);
    // The low 48 bits: a JSON number holds them exactly.
    r.set(
        "serve.index.digest48",
        (digest(index) & 0xFFFF_FFFF_FFFF) as f64,
    );
}
