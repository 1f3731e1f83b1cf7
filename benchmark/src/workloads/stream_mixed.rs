//! `stream_mixed`: writes beside reads. Each epoch appends one slice of the
//! graph's edges and an epoch mark to the click log, tails it, applies it to
//! the sliding window, refreshes and publishes a generation and answers a
//! touched query from it (`refresh_*`: click-to-serve freshness), commits a
//! checkpoint, then serves a block of reads from the heap generation just
//! published. Slices are connected components by label mod 8, so one epoch
//! in eight dirties the giant component and seven dirty small ones. The run
//! ends with restarts from the last checkpoint.

use super::{first_answer, report_refresh, run_workload, serve_block, Ctx, RequestStats};
use crate::check::{answered_from, rows_equal};
use crate::inputs::{
    requests, small_family, stream_engine_config, Popularity, Requests, Rng, THREADS,
};
use crate::measure::{guarded_ns_per_iter, quantile, Sink, Summary};
use crate::report::Report;
use crate::trace::Tracer;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig};
use simrankpp_graph::components::connected_components;
use simrankpp_graph::delta::{write_click_log, ClickLogRecord};
use simrankpp_graph::{ClickGraph, EdgeData};
use simrankpp_serve::checkpoint::{capture, read_checkpoint, resume_ingestor, write_checkpoint};
use simrankpp_serve::{
    EpochIngestor, IngestConfig, IngestMetrics, LogTailer, RewriteIndex, ServeState,
};
use simrankpp_synth::generator::generate;
use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const SLICES: usize = 8;
const WINDOW: usize = 9;

/// One epoch's append: its events and the mark that closes it.
pub(crate) struct Batch {
    pub bytes: Vec<u8>,
    events: usize,
    /// A query the batch touches; the freshness answer is asked for it.
    touched: String,
}

struct Inputs {
    log: PathBuf,
    checkpoint: PathBuf,
    /// The epochs after the backlog, in order.
    batches: Vec<Batch>,
    block: Requests,
    probe: String,
    config: IngestConfig,
}

/// The running pipeline: window, log position, and the served generation.
struct Live {
    ingestor: EpochIngestor,
    tailer: LogTailer,
    state: ServeState,
}

#[derive(Default)]
struct Pass {
    freshness_ms: Vec<f64>,
    ingest_s: f64,
    events: usize,
    log_bytes: usize,
    requests: RequestStats,
    rows_refreshed: usize,
    rows_copied: usize,
    dirty_components: Vec<f64>,
    freeze_ms: Vec<f64>,
    restart_s: Vec<f64>,
}

/// The click log as appended batches: epoch `e` re-observes one slice of
/// `graph`'s edges (components by label mod [`SLICES`]) and closes with the
/// mark for `e + 1`. `seed` draws the order in which the epochs cycle through
/// the slices; the cycle repeats, so each slice is renewed every [`SLICES`]
/// epochs and never leaves the window.
pub(crate) fn click_log_batches(
    graph: &ClickGraph,
    epochs: usize,
    seed: u64,
) -> Result<Vec<Batch>, String> {
    let labels = connected_components(graph);
    let mut slices: Vec<Vec<(&str, &str, EdgeData)>> = vec![Vec::new(); SLICES];
    for (q, a, e) in graph.edges() {
        slices[labels.query_label[q.index()] as usize % SLICES].push((
            graph.query_name(q).ok_or("unnamed query")?,
            graph.ad_name(a).ok_or("unnamed ad")?,
            *e,
        ));
    }
    if slices.iter().any(Vec::is_empty) {
        return Err("a component slice is empty; the graph is too small to stream".into());
    }
    let mut rng = Rng::new(seed, 4);
    let mut order: Vec<usize> = (0..SLICES).collect();
    for i in (1..SLICES).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut batches = Vec::with_capacity(epochs);
    for epoch in 0..epochs as u64 {
        let slice = &slices[order[epoch as usize % SLICES]];
        let touched = slice[0].0.to_owned();
        let mut records: Vec<ClickLogRecord> = slice
            .iter()
            .map(|&(query, ad, data)| ClickLogRecord::Event {
                epoch,
                query: query.to_owned(),
                ad: ad.to_owned(),
                data,
            })
            .collect();
        let events = records.len();
        records.push(ClickLogRecord::EpochMark { epoch: epoch + 1 });
        let mut bytes = Vec::new();
        write_click_log(&records, &mut bytes).map_err(|e| format!("click log: {e}"))?;
        batches.push(Batch {
            bytes,
            events,
            touched,
        });
    }
    Ok(batches)
}

/// Generation, the backlog on disk, the batches to append and the read block
/// — and the program state built once: catch up on the backlog, full build,
/// checkpoint, serve.
fn setup(ctx: &Ctx, r: &mut Report) -> Result<(Inputs, Live), String> {
    let (epochs, _) = sizes(ctx);
    let t = Instant::now();
    let ds = generate(black_box(&small_family(ctx.size(4_000), ctx.graph_seed)));
    r.set("synth.generator.generate_s", t.elapsed().as_secs_f64());
    // A traced run measures twice: a reference pass, then the traced one.
    let passes = if ctx.traced { 2 } else { 1 };
    let mut batches = click_log_batches(&ds.graph, WINDOW + epochs * passes, ctx.seed)?;
    let log = ctx.path("click.log");
    {
        // The benchmark plays the external appender: a plain file, no rename.
        let mut f = File::create(&log).map_err(|e| format!("click log: {e}"))?;
        for batch in batches.drain(..WINDOW) {
            f.write_all(&batch.bytes)
                .map_err(|e| format!("click log: {e}"))?;
        }
    }
    let pop = Popularity::new(&ds.world, &ds.graph);
    let inputs = Inputs {
        log,
        checkpoint: ctx.path("ingest.ckpt"),
        batches,
        block: requests(&pop, ctx.size(20_000), &mut Rng::new(ctx.seed, 1)),
        probe: pop.names[0].clone(),
        config: IngestConfig {
            window: WINDOW,
            decay: 1.0,
            method: MethodKind::WeightedSimrank,
            config: stream_engine_config(),
            rewriter: RewriterConfig::default(),
            threads: THREADS,
        },
    };
    r.note(format!(
        "graph: {} queries, {} edges; events per epoch in slice order {:?}",
        ds.graph.n_queries(),
        ds.graph.n_edges(),
        inputs
            .batches
            .iter()
            .take(SLICES)
            .map(|b| b.events)
            .collect::<Vec<_>>()
    ));
    drop(ds);

    let mut ingestor = EpochIngestor::new(inputs.config.clone());
    let mut tailer = LogTailer::open(&inputs.log).map_err(|e| format!("open log: {e}"))?;
    for sr in tailer
        .drain_spanned()
        .map_err(|e| format!("read log: {e}"))?
    {
        ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
    }
    let (index, _, _) = ingestor.refresh()?;
    write_checkpoint(&inputs.checkpoint, &capture(&ingestor))
        .map_err(|e| format!("checkpoint: {e}"))?;
    let state = ServeState::ingesting(index, Arc::new(IngestMetrics::default()));
    Ok((
        inputs,
        Live {
            ingestor,
            tailer,
            state,
        },
    ))
}

/// `(epochs per pass, restarts per pass)`; epochs are whole cycles through
/// the slices.
fn sizes(ctx: &Ctx) -> (usize, usize) {
    (
        (ctx.segments(128, 16) / SLICES).max(2) * SLICES,
        ctx.segments(5, 3),
    )
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    run_workload(ctx, r, setup, measure)
}

fn measure(ctx: &Ctx, (inputs, mut live): (Inputs, Live), r: &mut Report) -> Result<(), String> {
    let (epochs, restarts) = sizes(ctx);

    let mut off = Tracer::new(false);
    let reference = pass(&inputs, &mut live, 0..epochs, restarts, &mut off, r)?;
    report_refresh(
        "batch appended -> touched query answered",
        &reference.freshness_ms,
        r,
    );
    r.note(format!(
        "ingest: {} events in {:.3} s of append-through-checkpoint; restart: {}",
        reference.events,
        reference.ingest_s,
        Summary::new(reference.restart_s.clone()).describe("s")
    ));
    if !ctx.traced {
        reference.requests.report(r);
        return Ok(());
    }

    let mut tr = Tracer::new(true);
    let traced = pass(&inputs, &mut live, epochs..2 * epochs, restarts, &mut tr, r)?;
    let busy = tr.busy_s();
    let total = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    r.set("graph.delta.parse_s", total("graph.delta.parse"));
    r.set("graph.delta.log_bytes", traced.log_bytes as f64);
    r.set("serve.ingest.apply_s", total("serve.ingest.apply"));
    r.set(
        "serve.ingest.events_per_s",
        traced.events as f64 / traced.ingest_s,
    );
    let span_ms = |name: &str, q: f64| {
        let mut d: Vec<f64> = tr.durations_s(name).iter().map(|s| s * 1e3).collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        quantile(&d, q)
    };
    r.set(
        "serve.ingest.refresh_ms_p50",
        span_ms("serve.ingest.refresh", 0.50),
    );
    r.set(
        "serve.ingest.refresh_ms_p95",
        span_ms("serve.ingest.refresh", 0.95),
    );
    r.set(
        "serve.checkpoint.write_ms_p50",
        span_ms("serve.checkpoint.write", 0.50),
    );
    r.set(
        "graph.window.freeze_ms_p50",
        Summary::new(traced.freeze_ms).median(),
    );
    r.set("serve.ingest.rows_refreshed", traced.rows_refreshed as f64);
    r.set("serve.ingest.rows_copied", traced.rows_copied as f64);
    r.set(
        "serve.ingest.copied_row_share",
        traced.rows_copied as f64 / (traced.rows_copied + traced.rows_refreshed).max(1) as f64,
    );
    r.set(
        "serve.ingest.dirty_components_p50",
        Summary::new(traced.dirty_components).median(),
    );
    r.set(
        "serve.checkpoint.bytes",
        std::fs::metadata(&inputs.checkpoint).map_or(0, |m| m.len()) as f64,
    );
    let per_restart = |name: &str| total(name) / restarts as f64;
    r.set(
        "serve.checkpoint.resume_s",
        per_restart("serve.checkpoint.resume"),
    );
    r.set(
        "serve.ingest.first_build_s",
        per_restart("serve.ingest.first_build"),
    );
    r.set(
        "serve.ingest.restart_s",
        Summary::new(traced.restart_s).median(),
    );
    traced.requests.report_layers(r);

    // The heap index under the read blocks, by direct calls, and the handle.
    // The block is short, so each timed loop walks it sixteen times.
    let names: Vec<&str> = inputs.block.names().collect();
    let served = live.state.handle().load();
    let lookup = guarded_ns_per_iter("serve.index.lookup_ns", names.len() / 2, |n| {
        let mut sum = 0u64;
        for _ in 0..16 {
            for name in &names[..n] {
                if let Some(q) = served.lookup(black_box(name)) {
                    let (targets, scores) = served.row(q);
                    sum += targets.len() as u64 + scores.len() as u64;
                }
            }
        }
        sum
    });
    let load = guarded_ns_per_iter("serve.swap.load_ns", 200_000, |n| {
        (0..n)
            .map(|_| black_box(live.state.handle().load()).n_queries() as u64)
            .sum()
    });
    match (lookup, load) {
        (Ok(lookup), Ok(load)) => {
            r.set("serve.index.lookup_ns", lookup / 16.0);
            r.set("serve.swap.load_ns", load);
        }
        (a, b) => {
            r.check("direct-call guard", a.map(drop));
            r.check("direct-call guard", b.map(drop));
        }
    }

    r.set("trace.unattributed_share", tr.unattributed_share());
    r.set(
        "trace.overhead_share",
        Summary::new(traced.freshness_ms).median() / Summary::new(reference.freshness_ms).median()
            - 1.0,
    );
    r.tracer = Some(tr);
    Ok(())
}

fn pass(
    inputs: &Inputs,
    live: &mut Live,
    epochs: std::ops::Range<usize>,
    restarts: usize,
    tr: &mut Tracer,
    r: &mut Report,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let check_every = (epochs.len() / 4).max(1);
    let mut log = OpenOptions::new()
        .append(true)
        .open(&inputs.log)
        .map_err(|e| format!("click log: {e}"))?;
    for (i, batch) in inputs.batches[epochs].iter().enumerate() {
        r.ops += 1;
        let root = tr.enter("op.epoch");
        let t = Instant::now();
        tr.span("bench.log.append", || {
            log.write_all(black_box(&batch.bytes))
        })
        .map_err(|e| format!("append: {e}"))?;
        let records = tr
            .span("graph.delta.parse", || live.tailer.drain_spanned())
            .map_err(|e| format!("tail: {e}"))?;
        let refresh_due = tr.span("serve.ingest.apply", || {
            let mut due = false;
            for sr in &records {
                due |= live.ingestor.apply_record_at(&sr.rec, (sr.start, sr.end));
            }
            due
        });
        if !refresh_due {
            return Err("an epoch mark did not ask for a refresh".into());
        }
        let stats = tr.span("serve.ingest.refresh", || {
            live.ingestor.refresh_and_publish(&live.state)
        })?;
        let answer = tr.span("serve.server.first_answer", || {
            first_answer(&live.state, &batch.touched)
        })?;
        p.freshness_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Publish, then checkpoint: outside freshness, inside ingest time.
        tr.span("serve.checkpoint.write", || {
            write_checkpoint(&inputs.checkpoint, &capture(&live.ingestor))
        })
        .map_err(|e| format!("checkpoint: {e}"))?;
        p.ingest_s += t.elapsed().as_secs_f64();
        tr.exit(root);

        p.events += batch.events;
        p.log_bytes += batch.bytes.len();
        p.rows_refreshed += stats.refreshed_queries;
        p.rows_copied += stats.copied_queries;
        p.dirty_components.push(stats.n_dirty_components as f64);
        let published = live.state.handle().load();
        r.check(
            "freshness answer",
            answered_from(&*published, &batch.touched, &answer),
        );
        if (i + 1) % check_every == 0 {
            let scratch = scratch_build(&live.ingestor, &inputs.config);
            r.check(
                "published generation vs scratch build",
                rows_equal(&*published, &scratch),
            );
        }
        drop(published);
        if tr.on() {
            // One extra freeze per epoch, outside the epoch's own span.
            let t = Instant::now();
            black_box(tr.span("graph.window.freeze", || live.ingestor.window().freeze()));
            p.freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }

        let mut sink = Sink::new(inputs.block.len());
        serve_block(
            &live.state,
            &inputs.block,
            &mut sink,
            Some(&mut p.requests),
            tr,
            r,
        );
    }

    let published = live.state.handle().load();
    for _ in 0..restarts {
        r.ops += 1;
        let root = tr.enter("op.restart");
        let t = Instant::now();
        let resumed = tr
            .span("serve.checkpoint.resume", || {
                let ck = read_checkpoint(black_box(&inputs.checkpoint))?;
                resume_ingestor(&inputs.log, &inputs.config, &ck)
            })
            .map_err(|e| format!("resume: {e}"))?;
        let mut ingestor = resumed.ingestor;
        let (index, _, _) = tr.span("serve.ingest.first_build", || ingestor.refresh())?;
        let state = ServeState::ingesting(index, Arc::new(IngestMetrics::default()));
        let answer = tr.span("serve.server.first_answer", || {
            first_answer(&state, &inputs.probe)
        })?;
        p.restart_s.push(t.elapsed().as_secs_f64());
        tr.exit(root);
        let resumed_generation = state.handle().load();
        r.check(
            "resumed generation",
            rows_equal(&*resumed_generation, &*published),
        );
        r.check(
            "first answer after restart",
            answered_from(&*published, &inputs.probe, &answer),
        );
    }
    Ok(p)
}

/// A from-scratch index over the window as it stands: what every published
/// generation must equal, ids and score bits.
fn scratch_build(ingestor: &EpochIngestor, config: &IngestConfig) -> RewriteIndex {
    let g = ingestor.window().freeze();
    let method = Method::compute(config.method, &g, &config.config);
    let rewriter = Rewriter::new(&g, method, config.rewriter);
    RewriteIndex::build(&rewriter, None, config.threads)
}
