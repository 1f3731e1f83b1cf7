//! Integration properties for the serving layer: a snapshotted index must be
//! indistinguishable from the live pipeline — build → save → load → identical
//! rewrites for every query, on randomized graphs — and the compute-on-miss
//! path must answer with the lines of an index built offline over the same
//! graph and config.

// The vendored proptest! macro expands recursively per doc-commented test.
#![recursion_limit = "256"]

use proptest::prelude::*;
use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::fixtures::figure3_graph;
use simrankpp_graph::{ClickGraph, ClickGraphBuilder, EdgeData, QueryId, WeightKind};
use simrankpp_serve::{
    serve_session, IndexMeta, LiveContext, MappedIndex, RewriteIndex, ServeState, UpdateContext,
};
use simrankpp_util::FxHashSet;

/// A random small *named* click graph; names include stem-duplicates
/// ("shoe N"/"shoes N") so the dedup stage is exercised, plus a tail of
/// unnamed queries added by raw id so partial name coverage is exercised too.
fn arb_named_graph() -> impl Strategy<Value = ClickGraph> {
    (
        proptest::collection::vec(((0u32..24), (0u32..12), (1u64..40)), 1..80),
        0u32..3,
    )
        .prop_map(|(edges, unnamed)| {
            // Every "shoe N"/"shoes N" pair is a stem-duplicate, so the
            // dedup stage of the pipeline actually fires on these graphs.
            let query_name = |q: u32| match q % 4 {
                0 => format!("shoe {}", q / 4),
                1 => format!("shoes {}", q / 4),
                _ => format!("query {q}"),
            };
            let mut b = ClickGraphBuilder::new();
            for (q, a, w) in &edges {
                b.add_named(
                    &query_name(*q),
                    &format!("ad{a}"),
                    EdgeData::from_clicks(*w),
                );
            }
            // Unnamed tail queries (raw ids past the interner) reusing the
            // ad/weight of an existing edge.
            for u in 0..unnamed {
                let (_, a, w) = edges[u as usize % edges.len()];
                b.add_edge(
                    QueryId(60 + u),
                    simrankpp_graph::AdId(a),
                    EdgeData::from_clicks(w),
                );
            }
            b.build()
        })
}

fn rewriter_for(g: &ClickGraph, kind: MethodKind) -> Rewriter<'_> {
    let cfg = SimrankConfig::default()
        .with_iterations(5)
        .with_weight_kind(WeightKind::Clicks);
    Rewriter::new(g, Method::compute(kind, g, &cfg), RewriterConfig::default())
}

fn assert_index_matches_live(
    index: &RewriteIndex,
    rewriter: &Rewriter<'_>,
    bid_terms: Option<&FxHashSet<QueryId>>,
) {
    assert_eq!(index.n_queries(), rewriter.graph().n_queries());
    for q in rewriter.graph().queries() {
        let live = rewriter.rewrites(q, bid_terms);
        let served = index.rewrites_of(q);
        assert_eq!(served.len(), live.len(), "depth mismatch for {q:?}");
        for (got, want) in served.iter().zip(&live) {
            assert_eq!(got.0, want.query, "target mismatch for {q:?}");
            assert_eq!(got.1.to_bits(), want.score.to_bits(), "score for {q:?}");
            assert_eq!(got.2, want.name.as_deref(), "name for {q:?}");
        }
    }
}

fn session(state: &ServeState, input: &str) -> String {
    let mut out = Vec::new();
    serve_session(state, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// The `(target, rendered score)` pairs of a one-request session, in served
/// order; unnamed targets render as `#<id>`.
fn served_rewrites(state: &ServeState, g: &ClickGraph, name: &str) -> Vec<(QueryId, String)> {
    let line = session(state, &format!("rewrite {name}\n"));
    let fields: Vec<&str> = line.trim_end().split('\t').collect();
    assert_eq!(fields[..2], ["ok", name], "{line}");
    fields[3..]
        .chunks(2)
        .map(|pair| {
            let target = match pair[0].strip_prefix('#') {
                Some(id) => QueryId(id.parse().unwrap()),
                None => g.query_by_name(pair[0]).unwrap(),
            };
            (target, pair[1].to_owned())
        })
        .collect()
}

/// The `ok` line of every named query of `index`, rendered from its rows
/// with `{:.6}`: the protocol's bytes, independent of the server's writer.
fn format_rendered_transcript(index: &RewriteIndex) -> (String, String) {
    let (mut requests, mut want) = (String::new(), String::new());
    for q in (0..index.n_queries() as u32).map(QueryId) {
        let Some(name) = index.query_name(q) else {
            continue;
        };
        let row = index.rewrites_of(q);
        requests += &format!("rewrite {name}\n");
        want += &format!("ok\t{name}\t{}", row.len());
        for (target, score, target_name) in row.iter() {
            match target_name {
                Some(n) => want += &format!("\t{n}\t{score:.6}"),
                None => want += &format!("\t#{}\t{score:.6}", target.0),
            }
        }
        want.push('\n');
    }
    (requests, want)
}

/// A session over every named query of `index` — served from the heap and
/// from the mmapped snapshot — writes exactly the `{:.6}`-rendered lines.
fn assert_transcript_is_format_rendered(index: RewriteIndex, test: &str) {
    let (requests, want) = format_rendered_transcript(&index);
    assert!(!requests.is_empty());
    let file = format!("simrankpp_serving_eq_{test}_{}.snap", std::process::id());
    let path = std::env::temp_dir().join(file);
    index.save(&path).unwrap();
    let mapped = ServeState::mapped(MappedIndex::open(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(session(&ServeState::fixed(index), &requests), want);
    assert_eq!(session(&mapped, &requests), want);
}

#[test]
fn fig3_transcript_equals_format_rendered_lines() {
    let g = figure3_graph();
    let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
    assert_transcript_is_format_rendered(RewriteIndex::build(&rewriter, None, 1), "fig3");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The golden transcript beyond fig3: every served score is `{:.6}` of
    // the stored `f64`, unnamed targets as `#<id>`.
    #[test]
    fn transcript_equals_format_rendered_lines(g in arb_named_graph()) {
        let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
        assert_transcript_is_format_rendered(RewriteIndex::build(&rewriter, None, 1), "arb");
    }

    // Precomputed row == live row, on the wire: a single-source server and
    // a server over `RewriteIndex::build` of the same graph and config answer
    // every named query with the same line — the live row is the engine's
    // `S^(k)` row and both run the one §9.3 funnel, through evidence-zeroed
    // candidates (final 0, ranked by raw), stem-duplicates and unnamed `#id`
    // targets. Every rendered score is equal; two targets may trade places
    // only when their scores tie to rounding (structurally symmetric nodes,
    // which the index orders by id and the live row by its last bit).
    #[test]
    fn live_lines_equal_precomputed_lines(g in arb_named_graph()) {
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        for kind in [
            MethodKind::Simrank,
            MethodKind::EvidenceSimrank,
            MethodKind::WeightedSimrank,
        ] {
            let rewriter =
                Rewriter::new(&g, Method::compute(kind, &g, &cfg), RewriterConfig::default());
            let index = RewriteIndex::build(&rewriter, None, 2);
            let meta = *index.meta();
            let indexed = ServeState::fixed(index);
            let live = LiveContext::new(g.clone(), kind, cfg, RewriterConfig::default()).unwrap();
            let live = ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, 4);
            for q in g.queries() {
                let Some(name) = g.query_name(q) else { continue };
                let want = served_rewrites(&indexed, &g, name);
                let got = served_rewrites(&live, &g, name);
                prop_assert_eq!(got.len(), want.len(), "{:?} depth for {:?}", kind, name);
                for ((l, l_score), (i, i_score)) in got.iter().zip(&want) {
                    prop_assert_eq!(l_score, i_score, "{:?} {:?}", kind, name);
                    let (lf, lr) = rewriter.method().score_with_tiebreak(&g, q, *l);
                    let (wf, wr) = rewriter.method().score_with_tiebreak(&g, q, *i);
                    prop_assert!(
                        l == i || ((lf - wf).abs() < 1e-9 && (lr - wr).abs() < 1e-9),
                        "{:?} {:?}: live serves {:?}, index {:?}", kind, name, got, want
                    );
                }
            }
        }
    }

    // Served lookups equal fresh `Rewriter::rewrites` calls for every query
    // and every evaluated method.
    #[test]
    fn index_equals_live_pipeline(g in arb_named_graph()) {
        for kind in MethodKind::EVALUATED {
            let rewriter = rewriter_for(&g, kind);
            let index = RewriteIndex::build(&rewriter, None, 2);
            index.validate().unwrap();
            assert_index_matches_live(&index, &rewriter, None);
        }
    }

    // build → save → load → identical rewrites (binary format).
    #[test]
    fn binary_snapshot_roundtrips(g in arb_named_graph()) {
        let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
        let index = RewriteIndex::build(&rewriter, None, 1);
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        let loaded = RewriteIndex::read_snapshot(buf.as_slice()).unwrap();
        loaded.validate().unwrap();
        assert_index_matches_live(&loaded, &rewriter, None);
    }

    // The bid filter survives the precompute + snapshot round-trip.
    #[test]
    fn bid_filtered_index_roundtrips(g in arb_named_graph(), picks in proptest::collection::vec(0u32..24, 1..8)) {
        let mut bids = FxHashSet::default();
        for p in picks {
            if (p as usize) < g.n_queries() {
                bids.insert(QueryId(p));
            }
        }
        let rewriter = rewriter_for(&g, MethodKind::WeightedSimrank);
        let index = RewriteIndex::build(&rewriter, Some(&bids), 2);
        let mut buf = Vec::new();
        index.write_snapshot(&mut buf).unwrap();
        let loaded = RewriteIndex::read_snapshot(buf.as_slice()).unwrap();
        assert!(loaded.meta().bid_filtered);
        assert_index_matches_live(&loaded, &rewriter, Some(&bids));
    }
}

/// One component of four named queries over two ads, weights all distinct
/// (no score ties), and a delta that adds a *new* named query to it —
/// "shoes", a stem-duplicate of the existing "shoe".
fn shoe_graph_and_delta(test: &str) -> (ClickGraph, std::path::PathBuf) {
    let mut b = ClickGraphBuilder::new();
    for (q, ad, clicks) in [
        ("boots", "store", 9),
        ("boots", "mall", 3),
        ("shoe", "store", 7),
        ("shoe", "mall", 2),
        ("hat", "store", 4),
        ("sandals", "mall", 5),
        ("sandals", "store", 1),
    ] {
        b.add_named(q, ad, EdgeData::from_clicks(clicks));
    }
    let delta = std::env::temp_dir().join(format!("simrankpp_serving_eq_{test}.tsv"));
    std::fs::write(
        &delta,
        "+\tshoes\tstore\t100\t5\t0.05\n+\tshoes\tmall\t100\t6\t0.06\n",
    )
    .unwrap();
    (b.build(), delta)
}

fn live_only(g: &ClickGraph, kind: MethodKind, cfg: SimrankConfig, cache: usize) -> ServeState {
    let meta = IndexMeta {
        method: kind,
        max_rewrites: RewriterConfig::default().max_rewrites as u32,
        bid_filtered: false,
        approx_sharding: false,
        kernel: cfg.kernel,
        segments: 0,
    };
    let live = LiveContext::new(g.clone(), kind, cfg, RewriterConfig::default()).unwrap();
    ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, cache)
}

// `live_lines_equal_precomputed_lines`, after an `update`: the stem-class
// table belongs to one graph generation, so it has to be swapped with the
// graph. A live server that kept the old table has no class for the new id,
// serves "shoe" and "shoes" side by side, and differs from the precomputed
// server — whose rebuilt rows come from a fresh `Rewriter` over the new graph.
#[test]
fn live_update_adding_a_stem_duplicate_still_equals_the_precomputed_lines() {
    let kind = MethodKind::WeightedSimrank;
    let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
    let (g, delta) = shoe_graph_and_delta("update");
    let rewriter = Rewriter::new(
        &g,
        Method::compute(kind, &g, &cfg),
        RewriterConfig::default(),
    );
    let indexed = ServeState::updatable(
        RewriteIndex::build(&rewriter, None, 1),
        UpdateContext {
            graph: std::sync::Arc::new(g.clone()),
            config: cfg,
            rewriter: RewriterConfig::default(),
        },
    );
    let live = live_only(&g, kind, cfg, 4);

    let queries = "rewrite boots\nrewrite shoe\nrewrite hat\nrewrite sandals\nrewrite shoes\n";
    let script = format!("{queries}update {}\n{queries}", delta.display());
    let want = session(&indexed, &script);
    let got = session(&live, &script);
    std::fs::remove_file(&delta).ok();

    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    assert_eq!(want.len(), 11, "{want:?}");
    assert!(want[4].starts_with("err\tunknown query\tshoes"), "{want:?}");
    assert!(want[5].starts_with("updated\t"), "{want:?}");
    // Every answer before and after, and the `updated` line between them:
    // both servers count the dirty components' queries as refreshed.
    assert_eq!(got, want);
    // And the rows say what the table is for: "boots" is offered one
    // spelling of the shoe intent, and each spelling never the other.
    let names = |line: &str| -> Vec<String> {
        let fields: Vec<&str> = line.split('\t').collect();
        fields[3..].chunks(2).map(|p| p[0].to_owned()).collect()
    };
    let boots = names(got[6]);
    assert_eq!(
        boots.iter().filter(|n| n.starts_with("shoe")).count(),
        1,
        "{boots:?}"
    );
    assert!(!names(got[7]).contains(&"shoes".to_owned()), "{got:?}");
    assert!(!names(got[10]).contains(&"shoe".to_owned()), "{got:?}");
    assert!(!names(got[10]).is_empty(), "{got:?}");
}

// An `update` stopped at `live-rebuild-built` has built the next engine and
// the next table and committed neither: a cold query answered there — a
// cache miss, computed on another thread while the updater waits — is the
// old graph's row under the old graph's table.
#[cfg(feature = "failpoints")]
#[test]
fn reader_during_a_live_rebuild_sees_the_old_graph_and_table_together() {
    use simrankpp_util::failpoint::{self, Action};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;
    const SITE: &str = "live-rebuild-built";

    let kind = MethodKind::WeightedSimrank;
    let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
    let (g, delta) = shoe_graph_and_delta("failpoint");
    // A one-row cache: asking for "hat" evicts "boots", so the mid-flight
    // "boots" below has to be computed.
    let state = Arc::new(live_only(&g, kind, cfg, 1));
    let before = session(&state, "rewrite boots\nrewrite hat\n");
    let boots_before = before.lines().next().unwrap().to_owned();

    let mid_flight = Arc::new(Mutex::new(None));
    failpoint::set_hook(SITE, {
        let (state, mid_flight) = (Arc::clone(&state), Arc::clone(&mid_flight));
        move || {
            let (tx, rx) = mpsc::channel();
            let reader = std::thread::spawn({
                let state = Arc::clone(&state);
                move || {
                    let misses = state.cache_stats().unwrap().misses;
                    let lines = session(&state, "rewrite boots\nrewrite shoes\n");
                    tx.send((lines, state.cache_stats().unwrap().misses - misses))
                }
            });
            let answer = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a cold query blocked behind an in-flight update");
            reader.join().unwrap().unwrap();
            *mid_flight.lock().unwrap() = Some(answer);
        }
    });
    failpoint::set(SITE, Action::ReturnError, 1);
    let refused = session(&state, &format!("update {}\n", delta.display()));
    failpoint::clear(SITE);
    failpoint::clear_hook(SITE);
    std::fs::remove_file(&delta).ok();

    assert!(
        refused.starts_with("err\t") && refused.contains(SITE),
        "{refused}"
    );
    let (lines, misses) = mid_flight
        .lock()
        .unwrap()
        .take()
        .expect("site never reached");
    let lines: Vec<&str> = lines.lines().collect();
    assert_eq!(lines[0], boots_before);
    assert_eq!(misses, 1, "the mid-flight row must be computed, not cached");
    // The new name is not served by anything until the commit.
    assert!(
        lines[1].starts_with("err\tunknown query\tshoes"),
        "{lines:?}"
    );
}
