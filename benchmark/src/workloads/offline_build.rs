//! `offline_build`: the batch job of Fig. 2. Each segment takes the click
//! graph's TSV on disk to a durable snapshot, opens it mmapped and answers a
//! first request (`refresh_*`), then serves a block of requests from it.

use super::{
    build_index, first_answer, generate_to_tsv, report_index_shape, report_refresh, run_workload,
    score_graph, serve_block, Ctx, EngineCounts, RequestStats, Scored,
};
use crate::check::{answered_from, digest, rows_equal};
use crate::inputs::{bid_terms_text, paper_family, requests, Popularity, Requests, Rng};
use crate::measure::{Sink, Summary};
use crate::report::Report;
use crate::trace::Tracer;
use simrankpp_core::{Rewriter, RewriterConfig};
use simrankpp_graph::QueryId;
use simrankpp_serve::{MappedIndex, RewriteIndex, ServeState};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

pub(crate) struct Inputs {
    pub tsv: PathBuf,
    bids: PathBuf,
    snapshot: PathBuf,
    pub block: Requests,
    /// The query the first answer is asked for.
    probe: String,
    /// `--seed`, for the rows sampled in checks.
    seed: u64,
}

#[derive(Default)]
struct Pass {
    build_ms: Vec<f64>,
    requests: RequestStats,
    digests: Vec<u64>,
    last_index: Option<RewriteIndex>,
    counts: EngineCounts,
    snapshot_bytes: u64,
    rewrite_ids_us: Vec<f64>,
}

/// Generation and the input files: the TSV, the bid-term list, the requests.
pub(crate) fn setup(ctx: &Ctx, r: &mut Report) -> Result<Inputs, String> {
    let tsv = ctx.path("graph.tsv");
    let ds = generate_to_tsv(&paper_family(ctx.size(50_000), ctx.graph_seed), &tsv, r)?;
    let bids = ctx.path("bid_terms.txt");
    std::fs::write(&bids, bid_terms_text(&ds.world)).map_err(|e| format!("bid terms: {e}"))?;
    let pop = Popularity::new(&ds.world, &ds.graph);
    let block = requests(&pop, ctx.size(200_000), &mut Rng::new(ctx.seed, 1));
    let probe = block
        .picks
        .iter()
        .find_map(|p| p.map(|i| pop.names[i as usize].clone()))
        .ok_or("request block names no known query")?;
    Ok(Inputs {
        tsv,
        bids,
        snapshot: ctx.path("index.snap"),
        block,
        probe,
        seed: ctx.seed,
    })
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    run_workload(ctx, r, setup, measure)
}

fn measure(ctx: &Ctx, inputs: Inputs, r: &mut Report) -> Result<(), String> {
    let segments = ctx.segments(5, 3);
    let reference = pass(&inputs, segments, &mut Tracer::new(false), r)?;
    report_refresh("TSV on disk -> first answer", &reference.build_ms, r);
    if !ctx.traced {
        reference.requests.report(r);
        return Ok(());
    }

    let mut tr = Tracer::new(true);
    let traced = pass(&inputs, segments, &mut tr, r)?;
    // The decomposed build must be the same program as `Method::compute`.
    r.check(
        "traced build vs untraced build",
        match (&reference.last_index, &traced.last_index) {
            (Some(a), Some(b)) => rows_equal(a, b),
            _ => Err("a pass built no index".into()),
        },
    );
    let busy = tr.busy_s();
    let per_build = |name: &str| busy.get(name).copied().unwrap_or(0.0) / segments as f64;
    r.set("graph.io.read_tsv_s", per_build("graph.io.read_tsv"));
    r.set("core.engine.run_s", per_build("core.engine.run"));
    r.set(
        "core.evidence.multiply_s",
        per_build("core.evidence.multiply"),
    );
    r.set("serve.index.build_s", per_build("serve.index.build"));
    r.set("serve.snapshot.save_s", per_build("serve.snapshot.save"));
    r.set("serve.mapped.open_us", per_build("serve.mapped.open") * 1e6);
    r.set("core.engine.iterations", traced.counts.iterations as f64);
    r.set("core.engine.query_pairs", traced.counts.query_pairs as f64);
    r.set("core.engine.ad_pairs", traced.counts.ad_pairs as f64);
    r.set("serve.snapshot.bytes", traced.snapshot_bytes as f64);
    r.set(
        "core.rewriter.rewrite_ids_us_p50",
        Summary::new(traced.rewrite_ids_us).median(),
    );
    if let Some(index) = &traced.last_index {
        report_index_shape(index, r);
    }
    traced.requests.report_layers(r);
    r.set("trace.unattributed_share", tr.unattributed_share());
    r.set(
        "trace.overhead_share",
        Summary::new(traced.build_ms).median() / Summary::new(reference.build_ms).median() - 1.0,
    );
    r.tracer = Some(tr);
    Ok(())
}

fn pass(inputs: &Inputs, segments: usize, tr: &mut Tracer, r: &mut Report) -> Result<Pass, String> {
    let mut p = Pass::default();
    for segment in 0..segments {
        r.ops += 1;
        let root = tr.enter("op.build");
        let t = Instant::now();
        let Scored {
            g,
            method,
            bid_terms,
            counts,
        } = score_graph(black_box(&inputs.tsv), Some(&inputs.bids), tr)?;
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = build_index(&rewriter, bid_terms.as_ref(), tr);
        tr.span("serve.snapshot.save", || index.save(&inputs.snapshot))
            .map_err(|e| format!("snapshot save: {e}"))?;
        let mapped = tr
            .span("serve.mapped.open", || MappedIndex::open(&inputs.snapshot))
            .map_err(|e| format!("snapshot open: {e}"))?;
        let state = ServeState::mapped(mapped);
        let answer = tr.span("serve.server.first_answer", || {
            first_answer(&state, &inputs.probe)
        })?;
        p.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(root);

        // Untimed: the mmapped index is the in-memory one, row for row; the
        // first answer came from it; sampled rows equal the live funnel.
        let served = state.handle().load();
        r.check("mapped vs built index", rows_equal(&*served, &index));
        r.check(
            "first answer",
            answered_from(&index, &inputs.probe, &answer),
        );
        let mut rng = Rng::new(inputs.seed, 2 + segment as u64);
        let mut row = Vec::new();
        for _ in 0..200 {
            let q = QueryId(rng.below(g.n_queries()) as u32);
            rewriter.rewrite_ids_into(q, bid_terms.as_ref(), &mut row);
            let set = index.rewrites_of(q);
            let same = row.len() == set.len()
                && row
                    .iter()
                    .zip(set.ids().iter().zip(set.scores()))
                    .all(|(&(t, s), (&it, is))| t.0 == it && s.to_bits() == is.to_bits());
            if !same {
                r.check(
                    "sampled row vs live funnel",
                    Err(format!("query {} differs", q.0)),
                );
            }
        }
        if tr.on() && segment + 1 == segments {
            for _ in 0..1000 {
                let q = QueryId(rng.below(g.n_queries()) as u32);
                let t = Instant::now();
                rewriter.rewrite_ids_into(black_box(q), bid_terms.as_ref(), &mut row);
                black_box(&row);
                p.rewrite_ids_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        p.digests.push(digest(&index));
        p.counts = counts;
        p.snapshot_bytes = std::fs::metadata(&inputs.snapshot).map_or(0, |m| m.len());
        drop(rewriter);

        let mut sink = Sink::new(inputs.block.len());
        serve_block(
            &state,
            &inputs.block,
            &mut sink,
            Some(&mut p.requests),
            tr,
            r,
        );
        p.last_index = Some(index);
    }
    if p.digests.windows(2).any(|w| w[0] != w[1]) {
        r.check(
            "index digest across segments",
            Err(format!("digests differ: {:x?}", p.digests)),
        );
    }
    Ok(p)
}
