//! `serve_live`: the serving layer used the other way — compute on miss.
//! An empty index, a `LiveContext` over the graph and a 1 024-row cache; the
//! named working set is about four times the cache, so misses (a
//! single-source row each) carry the time. `refresh_*` is the `update` path:
//! a delta file on disk → the live engine rebuilt → first answer.

use super::{
    first_answer, generate_to_tsv, report_refresh, run_workload, serve_block, Ctx, RequestStats,
};
use crate::inputs::{engine_config, requests, small_family, Popularity, Requests, Rng};
use crate::measure::{quantile, Sink};
use crate::report::Report;
use crate::trace::Tracer;
use simrankpp_core::{KernelKind, MethodKind, RewriterConfig};
use simrankpp_graph::io::read_tsv;
use simrankpp_serve::{IndexMeta, LiveContext, RewriteIndex, ServeState};
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const CACHE_ROWS: usize = 1024;

/// What one measuring pass consumes. A traced run's two passes consume the
/// same traffic: every pass starts by rebuilding the engine, which empties
/// the cache, so both see the same hits and misses.
pub(crate) struct Traffic {
    /// One delta file per timed `update`.
    deltas: Vec<PathBuf>,
    warm_up: Requests,
    pub blocks: Vec<Requests>,
    probe: String,
}

#[derive(Default)]
struct Pass {
    update_ms: Vec<f64>,
    requests: RequestStats,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
}

/// Generation, the TSV, the delta files and request streams — and the
/// program state built once: the live engine over the graph as read
/// back (the estimated-diagonal precompute lands here).
pub(crate) fn setup(ctx: &Ctx, r: &mut Report) -> Result<(Traffic, ServeState), String> {
    let updates = ctx.segments(3, 2);
    // Many short blocks: a hit costs half a microsecond right after a warm
    // hit and twice that right after a miss has emptied the caches, so one
    // block's median wanders (0.47–0.84 us inside one run) and the metric is
    // the median over many of them.
    let segments = ctx.segments(24, 8);

    let tsv = ctx.path("graph.tsv");
    let ds = generate_to_tsv(&small_family(ctx.size(3_000), ctx.graph_seed), &tsv, r)?;
    let pop = Popularity::new(&ds.world, &ds.graph);
    let mut rng = Rng::new(ctx.seed, 1);
    let block_len = ctx.size(1_250);
    let mut deltas = Vec::new();
    for u in 0..updates {
        // A re-observed edge of a known query: a small delta, a full
        // rebuild of the live engine.
        let q = ds
            .graph
            .query_by_name(&pop.names[pop.draw(&mut rng)])
            .expect("popularity names are graph names");
        let (ads, edges) = ds.graph.ads_of(q);
        let path = ctx.path(&format!("delta-{u}.tsv"));
        let line = format!(
            "+\t{}\t{}\t{}\t{}\t{}\n",
            ds.graph.query_name(q).expect("named graph"),
            ds.graph.ad_name(ads[0]).expect("named graph"),
            edges[0].impressions,
            edges[0].clicks,
            edges[0].expected_click_rate
        );
        std::fs::write(&path, line).map_err(|e| format!("delta file: {e}"))?;
        deltas.push(path);
    }
    let traffic = Traffic {
        deltas,
        warm_up: requests(&pop, block_len, &mut rng),
        blocks: (0..segments)
            .map(|_| requests(&pop, block_len, &mut rng))
            .collect(),
        probe: pop.names[0].clone(),
    };
    drop(ds);

    let g = File::open(&tsv)
        .and_then(read_tsv)
        .map_err(|e| format!("read_tsv: {e}"))?;
    let t = Instant::now();
    let live = LiveContext::new(
        g,
        MethodKind::WeightedSimrank,
        engine_config(),
        RewriterConfig::default(),
    )?;
    r.set("core.single_source.precompute_s", t.elapsed().as_secs_f64());
    let empty = RewriteIndex::empty(IndexMeta {
        method: MethodKind::WeightedSimrank,
        max_rewrites: RewriterConfig::default().max_rewrites as u32,
        bid_filtered: false,
        approx_sharding: false,
        kernel: KernelKind::Pull,
        segments: 0,
    });
    Ok((
        traffic,
        ServeState::fixed(empty).with_live(live, CACHE_ROWS),
    ))
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    run_workload(ctx, r, setup, measure)
}

fn measure(
    ctx: &Ctx,
    (traffic, state): (Traffic, ServeState),
    r: &mut Report,
) -> Result<(), String> {
    let reference = pass(&state, &traffic, &mut Tracer::new(false), r)?;
    report_refresh("delta on disk -> first answer", &reference.update_ms, r);
    if !ctx.traced {
        reference.requests.report(r);
        return Ok(());
    }

    let before = state.cache_stats().ok_or("live state has no row cache")?;
    let mut tr = Tracer::new(true);
    let mut traced = pass(&state, &traffic, &mut tr, r)?;
    let after = state.cache_stats().ok_or("live state has no row cache")?;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    r.set("serve.rowcache.hits", hits as f64);
    r.set("serve.rowcache.misses", misses as f64);
    r.set(
        "serve.rowcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let by = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite service times");
    traced.hit_us.sort_by(by);
    traced.miss_us.sort_by(by);
    if traced.hit_us.is_empty() || traced.miss_us.is_empty() {
        r.check("hit/miss classification", Err("one class is empty".into()));
    } else {
        r.set("serve.server.hit_us_p50", quantile(&traced.hit_us, 0.50));
        r.set("serve.server.miss_us_p50", quantile(&traced.miss_us, 0.50));
        r.set("serve.server.miss_us_p99", quantile(&traced.miss_us, 0.99));
    }
    traced.requests.report_layers(r);
    r.set("trace.unattributed_share", tr.unattributed_share());
    r.set(
        "trace.overhead_share",
        traced.requests.s_per_request() / reference.requests.s_per_request() - 1.0,
    );
    r.tracer = Some(tr);
    Ok(())
}

fn pass(
    state: &ServeState,
    traffic: &Traffic,
    tr: &mut Tracer,
    r: &mut Report,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for delta in &traffic.deltas {
        r.ops += 1;
        let path = delta.to_str().ok_or("delta path is not UTF-8")?;
        let root = tr.enter("op.update");
        let t = Instant::now();
        tr.span("serve.server.apply_update", || {
            state.apply_update(black_box(path))
        })?;
        let answer = tr.span("serve.server.first_answer", || {
            first_answer(state, &traffic.probe)
        })?;
        p.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(root);
        if !answer.starts_with(b"ok\t") {
            r.check(
                "first answer after update",
                Err(String::from_utf8_lossy(&answer).into_owned()),
            );
        }
    }

    // Every block's transcript is kept: within one graph generation a
    // query's cold answer and each later cached answer must be the same
    // bytes.
    let mut first_seen: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut cold_vs_cached = |reqs: &Requests, sink: &Sink<'_>, r: &mut Report| {
        let transcript = sink.transcript.as_deref().unwrap_or_default();
        let lines = transcript.split_inclusive(|&b| b == b'\n');
        for (name, line) in reqs.names().zip(lines) {
            let first = first_seen
                .entry(name.as_bytes().to_vec())
                .or_insert_with(|| line.to_vec());
            if first != line {
                r.check(
                    "cold answer vs cached answer",
                    Err(format!("answers for {name:?} differ within one generation")),
                );
            }
        }
    };
    let mut warm = Sink::new(traffic.warm_up.len()).keeping_transcript();
    serve_block(
        state,
        &traffic.warm_up,
        &mut warm,
        None,
        &mut Tracer::new(false),
        r,
    );
    cold_vs_cached(&traffic.warm_up, &warm, r);
    for block in &traffic.blocks {
        let mut sink = Sink::new(block.len()).keeping_transcript();
        if tr.on() {
            sink = sink.classifying_misses(state);
        }
        serve_block(state, block, &mut sink, Some(&mut p.requests), tr, r);
        cold_vs_cached(block, &sink, r);
        for (&ns, &missed) in sink.service_ns.iter().zip(&sink.missed) {
            let us = f64::from(ns) / 1e3;
            if missed {
                p.miss_us.push(us);
            } else {
                p.hit_us.push(us);
            }
        }
    }
    Ok(p)
}
