//! `serve_hot`: precomputed lookups. The snapshot is built once in set-up;
//! each segment reloads it several times (`MappedIndex::open` →
//! `ServeState::mapped` → the first 1 000 requests answered: `refresh_*`, the
//! deploy step of Fig. 2 up to a warm mapping) and then serves a block of
//! requests from the mapping through one session.

use super::{
    build_index, generate_to_tsv, report_refresh, run_workload, score_graph, serve_block, Ctx,
    RequestStats, Scored,
};
use crate::check::{render_response, transcripts_equal};
use crate::inputs::{paper_family, requests, Popularity, Requests, Rng};
use crate::measure::{guarded_ns_per_iter, quantile, Sink, Summary};
use crate::report::Report;
use crate::trace::Tracer;
use simrankpp_core::{Rewriter, RewriterConfig};
use simrankpp_serve::{serve_session, MappedIndex, NetConfig, NetServer, ServeState};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Reloads timed per segment; their median is the segment's refresh sample
/// (a single reload is under a millisecond, so its own tail is scheduler
/// noise). The last reload's state serves the block.
const RELOADS_PER_SEGMENT: usize = 32;

pub(crate) struct Inputs {
    snapshot: PathBuf,
    pub block: Requests,
    /// The requests a reload answers before it counts as serving.
    first: Requests,
}

#[derive(Default)]
struct Pass {
    reload_ms: Vec<f64>,
    requests: RequestStats,
}

/// Generation, the TSV, the request streams — and the program state built
/// once: the batch build, snapshotted.
pub(crate) fn setup(ctx: &Ctx, r: &mut Report) -> Result<Inputs, String> {
    let tsv = ctx.path("graph.tsv");
    let ds = generate_to_tsv(&paper_family(ctx.size(50_000), ctx.graph_seed), &tsv, r)?;
    let pop = Popularity::new(&ds.world, &ds.graph);
    let block = requests(&pop, ctx.size(1_000_000), &mut Rng::new(ctx.seed, 1));
    let first = requests(&pop, 1_000, &mut Rng::new(ctx.seed, 2));
    drop(ds);

    let snapshot = ctx.path("index.snap");
    let mut off = Tracer::new(false);
    let Scored { g, method, .. } = score_graph(&tsv, None, &mut off)?;
    let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
    let index = build_index(&rewriter, None, &mut off);
    index
        .save(&snapshot)
        .map_err(|e| format!("snapshot save: {e}"))?;
    Ok(Inputs {
        snapshot,
        block,
        first,
    })
}

/// Untimed: a session's bytes equal responses rendered from direct
/// `MappedIndex` calls, over a stream of its own.
fn check_transcript(ctx: &Ctx, inputs: &Inputs, r: &mut Report) -> Result<(), String> {
    let mapped = MappedIndex::open(&inputs.snapshot).map_err(|e| format!("snapshot open: {e}"))?;
    let names: Vec<&str> = inputs.block.names().collect();
    let mut rng = Rng::new(ctx.seed, 3);
    let mut bytes = Vec::new();
    let mut want = String::new();
    let n = ctx.size(100_000);
    for _ in 0..n {
        let name = names[rng.below(names.len())];
        bytes.extend_from_slice(format!("rewrite {name}\n").as_bytes());
        render_response(&mapped, name, &mut want);
    }
    let state = ServeState::mapped(mapped);
    let mut got = Vec::new();
    serve_session(&state, bytes.as_slice(), &mut got).map_err(|e| format!("check session: {e}"))?;
    r.ops += n as u64;
    r.check(
        "session transcript",
        transcripts_equal(&got, want.as_bytes()),
    );
    Ok(())
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    run_workload(ctx, r, setup, measure)
}

fn measure(ctx: &Ctx, inputs: Inputs, r: &mut Report) -> Result<(), String> {
    check_transcript(ctx, &inputs, r)?;

    let segments = ctx.segments(8, 4);
    let mut off = Tracer::new(false);
    pass(&inputs, 1, &mut off, &mut Report::default())?; // warm-up
    let reference = pass(&inputs, segments, &mut off, r)?;
    report_refresh(
        "snapshot on disk -> first 1000 answers",
        &reference.reload_ms,
        r,
    );
    if !ctx.traced {
        reference.requests.report(r);
        return Ok(());
    }

    let mut tr = Tracer::new(true);
    let traced = pass(&inputs, segments, &mut tr, r)?;
    let reloads = (segments * RELOADS_PER_SEGMENT) as f64;
    let open_s = tr.busy_s().get("serve.mapped.open").copied().unwrap_or(0.0);
    r.set("serve.mapped.open_us", open_s * 1e6 / reloads);
    let session_ns = traced.requests.report_layers(r);

    // The layers under the session, by direct calls over the same request
    // stream: name-hash lookup + row slices, and one handle load per request.
    let mapped = MappedIndex::open(&inputs.snapshot).map_err(|e| format!("snapshot open: {e}"))?;
    let names: Vec<&str> = inputs.block.names().collect();
    let iters = names.len() / 2;
    let lookup = guarded_ns_per_iter("serve.mapped.lookup_ns", iters, |n| {
        let mut sum = 0u64;
        for name in &names[..n] {
            if let Some(q) = mapped.lookup(black_box(name)) {
                let (targets, scores) = mapped.row(q);
                sum += targets.len() as u64 + scores.len() as u64;
            }
        }
        sum
    });
    let state = ServeState::mapped(mapped);
    let load = guarded_ns_per_iter("serve.swap.load_ns", iters, |n| {
        (0..n)
            .map(|_| black_box(state.handle().load()).n_queries() as u64)
            .sum()
    });
    match (lookup, load) {
        (Ok(lookup), Ok(load)) => {
            r.set("serve.mapped.lookup_ns", lookup);
            r.set("serve.swap.load_ns", load);
            r.set("serve.server.self_ns", session_ns - lookup - load);
        }
        (a, b) => {
            r.check("direct-call guard", a.map(drop));
            r.check("direct-call guard", b.map(drop));
        }
    }
    let net = net_round_trips(state, &names, ctx.size(5_000), r);
    r.check("serve.net", net);

    r.set("trace.unattributed_share", tr.unattributed_share());
    r.set(
        "trace.overhead_share",
        traced.requests.s_per_request() / reference.requests.s_per_request() - 1.0,
    );
    r.tracer = Some(tr);
    Ok(())
}

fn pass(inputs: &Inputs, segments: usize, tr: &mut Tracer, r: &mut Report) -> Result<Pass, String> {
    let mut p = Pass::default();
    for _ in 0..segments {
        let mut state = None;
        let mut reloads_ms = Vec::with_capacity(RELOADS_PER_SEGMENT);
        for _ in 0..RELOADS_PER_SEGMENT {
            let root = tr.enter("op.reload");
            let t = Instant::now();
            let mapped = tr
                .span("serve.mapped.open", || {
                    MappedIndex::open(black_box(&inputs.snapshot))
                })
                .map_err(|e| format!("snapshot open: {e}"))?;
            let fresh = ServeState::mapped(mapped);
            let mut sink = Sink::new(inputs.first.len());
            serve_block(&fresh, &inputs.first, &mut sink, None, tr, r);
            reloads_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.exit(root);
            state = Some(fresh);
        }
        p.reload_ms.push(Summary::new(reloads_ms).median());
        let state = state.expect("at least one reload per segment");
        let mut sink = Sink::new(inputs.block.len());
        serve_block(
            &state,
            &inputs.block,
            &mut sink,
            Some(&mut p.requests),
            tr,
            r,
        );
    }
    Ok(p)
}

/// The socket around the same session loop: one connection, closed loop,
/// against an in-process `NetServer`. Informational — on a small shared box
/// this is wake-up latency around a microsecond of program work.
fn net_round_trips(
    state: ServeState,
    names: &[&str],
    n: usize,
    r: &mut Report,
) -> Result<(), String> {
    let server =
        NetServer::bind(Arc::new(state), NetConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shutdown = server.shutdown_signal();
    let serving = std::thread::spawn(move || server.serve());

    let client = || -> Result<(Vec<f64>, f64), String> {
        let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let mut rtt_us = Vec::with_capacity(n);
        let mut line = String::new();
        let start = Instant::now();
        for name in names.iter().cycle().take(n) {
            let request = format!("rewrite {name}\n");
            let t = Instant::now();
            writer
                .write_all(request.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !(line.starts_with("ok\t") || line.starts_with("err\tunknown query")) {
                return Err(format!("unexpected answer {line:?}"));
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let _ = writer.write_all(b"quit\n");
        Ok((rtt_us, wall))
    };
    let outcome = client();
    shutdown.trigger();
    serving
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("serve: {e}"))?;

    let (mut rtt_us, wall) = outcome?;
    r.ops += n as u64;
    rtt_us.sort_by(|a, b| a.partial_cmp(b).expect("finite round trips"));
    r.set("serve.net.rtt_p50_us", quantile(&rtt_us, 0.50));
    r.set("serve.net.rtt_p99_us", quantile(&rtt_us, 0.99));
    r.set("serve.net.requests_per_s", n as f64 / wall);
    Ok(())
}
