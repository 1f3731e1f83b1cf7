//! One seed, one set of inputs, one set of counts: the same command line must
//! write byte-identical TSV, click log and request streams and report
//! identical count metrics; another `--seed` must change the traffic, and
//! another `--graph-seed` the graph.

use crate::report::Report;
use crate::workloads::{self, offline_build, serve_hot, serve_live, stream_mixed, Ctx, WORKLOADS};
use simrankpp_synth::generator::generate;

/// A `--quick` run sized by the smallest `--seconds`, in a directory of its
/// own beneath the test executable.
fn ctx(test: &str, seed: u64, graph_seed: u64, traced: bool) -> Ctx {
    let exe = std::env::current_exe().expect("test executable path");
    let work = exe
        .parent()
        .expect("executable has a directory")
        .join(format!(
            "benchmark-test-{test}-{seed}-{graph_seed}-{}",
            std::process::id()
        ));
    std::fs::create_dir_all(&work).expect("scratch directory");
    Ctx {
        seed,
        graph_seed,
        seconds: 1.0,
        traced,
        quick: true,
        work,
    }
}

fn cleanup(ctx: &Ctx) {
    let _ = std::fs::remove_dir_all(&ctx.work);
}

#[test]
fn the_same_seeds_give_byte_identical_inputs() {
    let tsv_and_requests = |c: &Ctx| {
        let inputs = offline_build::setup(c, &mut Report::default()).expect("set-up");
        (std::fs::read(&inputs.tsv).expect("TSV"), inputs.block.bytes)
    };
    let (a, b) = (ctx("inputs-a", 7, 1, false), ctx("inputs-b", 7, 1, false));
    let (other_seed, other_graph) = (ctx("inputs-c", 8, 1, false), ctx("inputs-d", 7, 2, false));
    let (tsv, reqs) = tsv_and_requests(&a);
    assert_eq!((tsv.clone(), reqs.clone()), tsv_and_requests(&b));
    let (tsv_s, reqs_s) = tsv_and_requests(&other_seed);
    assert_eq!(tsv, tsv_s, "--seed draws traffic, not the graph");
    assert_ne!(
        reqs, reqs_s,
        "another --seed must change the request stream"
    );
    let (tsv_g, _) = tsv_and_requests(&other_graph);
    assert_ne!(tsv, tsv_g, "another --graph-seed must change the graph");

    let hot = |c: &Ctx| {
        serve_hot::setup(c, &mut Report::default())
            .expect("set-up")
            .block
            .bytes
    };
    assert_eq!(hot(&a), hot(&b));
    assert_ne!(hot(&a), hot(&other_seed));

    let live = |c: &Ctx| {
        let (traffic, _state) = serve_live::setup(c, &mut Report::default()).expect("set-up");
        traffic
            .blocks
            .iter()
            .flat_map(|b| b.bytes.clone())
            .collect::<Vec<u8>>()
    };
    assert_eq!(live(&a), live(&b));
    assert_ne!(live(&a), live(&other_seed));

    let graph = generate(&crate::inputs::small_family(400, 1)).graph;
    let log = |seed: u64| -> Vec<u8> {
        stream_mixed::click_log_batches(&graph, 24, seed)
            .expect("batches")
            .into_iter()
            .flat_map(|b| b.bytes)
            .collect()
    };
    assert_eq!(log(7), log(7));
    // Eight slices have 8! orders; these two seeds draw different ones.
    assert_ne!(log(7), log(8), "another --seed must change the click log");
    [a, b, other_seed, other_graph].iter().for_each(cleanup);
}

/// Every count the traced runs report, per workload.
fn counts(seed: u64, graph_seed: u64, tag: &str) -> Vec<(&'static str, f64)> {
    const COUNTS: &[&str] = &[
        "core.engine.iterations",
        "core.engine.query_pairs",
        "core.engine.ad_pairs",
        "graph.io.tsv_bytes",
        "serve.index.entries",
        "serve.index.digest48",
        "serve.snapshot.bytes",
        "serve.server.response_bytes",
        "serve.rowcache.hits",
        "serve.rowcache.misses",
        "graph.delta.log_bytes",
        "serve.ingest.rows_refreshed",
        "serve.ingest.rows_copied",
        "serve.checkpoint.bytes",
    ];
    let mut out = Vec::new();
    for (name, _) in WORKLOADS {
        let c = ctx(&format!("{tag}-{name}"), seed, graph_seed, true);
        let mut r = Report::default();
        workloads::run(name, &c, &mut r).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r.failed, 0, "{name}: {:?}", r.failures);
        cleanup(&c);
        out.extend(COUNTS.iter().filter_map(|&m| r.get(m).map(|v| (m, v))));
    }
    out
}

#[test]
fn the_same_seeds_give_identical_counts() {
    let first = counts(7, 1, "counts-a");
    assert_eq!(first, counts(7, 1, "counts-b"));
    assert!(
        first.len() >= 15,
        "the traced runs report their counts: {first:?}"
    );

    let other = counts(8, 1, "counts-c");
    let differs = |name: &str| {
        first
            .iter()
            .zip(&other)
            .any(|(a, b)| a.0 == name && a.1 != b.1)
    };
    assert!(differs("serve.server.response_bytes"));
    assert!(differs("serve.rowcache.misses"));
    let same = |name: &str| {
        first
            .iter()
            .zip(&other)
            .filter(|(a, _)| a.0 == name)
            .all(|(a, b)| a.1 == b.1)
    };
    assert!(same("core.engine.query_pairs") && same("serve.index.digest48"));
}
