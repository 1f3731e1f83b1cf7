//! Differential harness for the streaming ingestion path.
//!
//! `serve ingest` maintains its index through a chain of incremental
//! refreshes driven by click-log records — never a from-scratch build
//! after the first generation. This suite pins the invariant that makes
//! that trustworthy: **replaying a click log through an
//! [`EpochIngestor`] ends in exactly the state a scratch rebuild of the
//! surviving window would produce**, at test scale bit for bit:
//!
//! * the windowed graph's [`fingerprint`](ClickGraph::fingerprint)
//!   equals a scratch build replaying only the surviving events;
//! * every query's served rewrite list — ids *and* f64 score bits —
//!   matches an index built fresh from the frozen window, even though
//!   the ingestor's copy was stitched from dirty-component rebuilds
//!   across many epochs;
//! * recency decay is an ECR-only, newest-anchored fold: `decay = 1`
//!   keeps freezes bit-identical to scratch, and lowering `decay` pulls
//!   a twice-observed edge's ECR monotonically toward its newest
//!   observation while never leaving the observed range;
//! * the windowed spam experiment's headline gate: expiry drives
//!   campaign contamination to exactly zero while the no-windowing
//!   baseline stays contaminated (the `bench_ci --tier stream` gate,
//!   reproduced here so plain `cargo test` catches a regression first).
//!
//! Runs in CI under `--release` too: bit-identical stitching must
//! survive optimized codegen.

use proptest::prelude::*;
use simrankpp::core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp::graph::delta::{read_click_log, write_click_log};
use simrankpp::graph::{ClickGraph, ClickLogRecord, EdgeData, SlidingWindowGraph, WeightKind};
use simrankpp::serve::{EpochIngestor, IngestConfig, RewriteIndex};
use simrankpp::synth::generator::{generate, GeneratorConfig};

fn cfg() -> SimrankConfig {
    SimrankConfig::paper()
        .with_iterations(4)
        .with_weight_kind(WeightKind::ExpectedClickRate)
}

fn ingest_config(window: usize, decay: f64) -> IngestConfig {
    IngestConfig {
        window,
        decay,
        method: MethodKind::WeightedSimrank,
        config: cfg(),
        rewriter: RewriterConfig::default(),
        threads: 1,
    }
}

/// A deterministic multi-epoch click log: `n_epochs` epochs over a small
/// name universe, each with a handful of events, closed by explicit `@`
/// marks. Some events carry an epoch stamp ahead of the last mark so the
/// implicit-advance path gets exercised too.
fn synth_click_log(seed: u64, n_epochs: u64, events_per_epoch: usize) -> Vec<ClickLogRecord> {
    let mut x = seed | 1;
    let mut step = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut log = Vec::new();
    for epoch in 0..n_epochs {
        for _ in 0..events_per_epoch {
            let clicks = 1 + step() % 9;
            log.push(ClickLogRecord::Event {
                epoch,
                query: format!("q{}", step() % 12),
                ad: format!("ad{}", step() % 8),
                data: EdgeData {
                    impressions: clicks + step() % 20,
                    clicks,
                    expected_click_rate: (1 + step() % 1000) as f64 / 1000.0,
                },
            });
        }
        // Some epochs end without an `@` mark: the next epoch's first
        // event carries the higher stamp and must open the bucket
        // implicitly (no refresh signal). The final mark always lands so
        // a refresh chain replaying this log ends on a boundary.
        if epoch % 3 != 1 || epoch + 1 == n_epochs {
            log.push(ClickLogRecord::EpochMark { epoch: epoch + 1 });
        }
    }
    log
}

/// Mirrors [`EpochIngestor::apply_record`] onto a bare window: the
/// reference model the ingestor is checked against.
fn apply_to_window(window: &mut SlidingWindowGraph, rec: &ClickLogRecord) {
    match rec {
        ClickLogRecord::Event {
            epoch,
            query,
            ad,
            data,
        } => {
            if *epoch > window.epoch() {
                window.advance_to(*epoch);
            }
            window.observe(query, ad, *data);
        }
        ClickLogRecord::EpochMark { epoch } => {
            window.advance_to(*epoch);
        }
    }
}

fn replay_into_window(window: &mut SlidingWindowGraph, log: &[ClickLogRecord]) {
    for rec in log {
        apply_to_window(window, rec);
    }
}

/// Builds a fresh index over `graph` with the suite's pipeline config.
fn scratch_index(graph: &ClickGraph) -> RewriteIndex {
    let method = Method::compute(MethodKind::WeightedSimrank, graph, &cfg());
    let rewriter = Rewriter::new(graph, method, RewriterConfig::default());
    RewriteIndex::build(&rewriter, None, 1)
}

fn assert_served_bit_identical(chained: &RewriteIndex, scratch: &RewriteIndex) {
    assert_eq!(
        chained.n_queries(),
        scratch.n_queries(),
        "row count differs"
    );
    assert_eq!(
        chained.n_entries(),
        scratch.n_entries(),
        "entry count differs"
    );
    for q in 0..chained.n_queries() as u32 {
        let q = simrankpp::graph::QueryId(q);
        let (a, b) = (chained.rewrites_of(q), scratch.rewrites_of(q));
        assert_eq!(a.ids(), b.ids(), "rewrite ids differ for {q:?}");
        let (sa, sb) = (a.scores(), b.scores());
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(sb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "score drifted for {q:?}: {x:e} vs {y:e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole equivalence: a log replayed through the ingestor's
    // incremental refresh chain == a scratch rebuild of the surviving
    // window, decayed or not. After every refresh the published
    // generation's bytes — rows, score bits and the name sections a
    // refresh reuses — equal a full build over the mirror window's
    // reference `freeze()`; at the end the frozen graph (fingerprint) and
    // every served row agree too, through the wire format.
    #[test]
    fn log_replay_through_refresh_chain_equals_scratch_rebuild(
        seed in 0u64..1_000_000,
        n_epochs in 3u64..8,
        events_per_epoch in 2usize..12,
        window in 1usize..5,
        decay in (0u8..2).prop_map(|half| if half == 1 { 0.5 } else { 1.0 }),
    ) {
        let log = synth_click_log(seed, n_epochs, events_per_epoch);

        // Round-trip through the on-disk wire format first: what the
        // tailer reads is what this suite replays.
        let mut wire = Vec::new();
        write_click_log(&log, &mut wire).unwrap();
        let log = read_click_log(wire.as_slice()).unwrap();

        // The system under test: refresh at every advancing epoch mark,
        // exactly like the `serve ingest` loop. The reference model: the
        // same records into a bare window, one scratch freeze + full build
        // per refresh.
        let mut ingestor = EpochIngestor::new(ingest_config(window, decay));
        let mut mirror = SlidingWindowGraph::new(window).with_decay(decay);
        let mut last = None;
        for rec in &log {
            apply_to_window(&mut mirror, rec);
            if ingestor.apply_record(rec) {
                let (index, _, _) = ingestor.refresh().unwrap();
                let scratch = scratch_index(&mirror.freeze());
                prop_assert!(index.as_bytes() == scratch.as_bytes(), "decay {}", decay);
                last = Some(index);
            }
        }
        let chained = last.expect("every log ends with an advancing mark");
        let frozen = mirror.freeze();
        prop_assert_eq!(ingestor.last_fingerprint(), frozen.fingerprint());
        assert_served_bit_identical(&chained, &scratch_index(&frozen));

        // Window bit-identity at integration scale: replaying only the
        // surviving events through a fresh builder over the same
        // universe reproduces the undecayed freeze exactly.
        if decay == 1.0 {
            let mut b = mirror.universe_builder();
            for rec in &log {
                if let ClickLogRecord::Event { epoch, query, ad, data } = rec {
                    // Survivors: the half-open window of the final epoch.
                    if epoch + (window as u64) > mirror.epoch() {
                        b.add_edge(
                            mirror.query_id(query).unwrap(),
                            mirror.ad_id(ad).unwrap(),
                            *data,
                        );
                    }
                }
            }
            prop_assert_eq!(b.build().fingerprint(), frozen.fingerprint());
        }
    }

    // Decay is newest-anchored: for an edge observed in an old and a new
    // epoch, shrinking `decay` pulls the frozen ECR monotonically toward
    // the newest observation, and the ECR never leaves the observed
    // range. Impressions and clicks stay undecayed counts.
    #[test]
    fn decay_pulls_ecr_monotonically_toward_the_newest_event(
        ecr_old in 0.0f64..1.0,
        ecr_new in 0.0f64..1.0,
        impressions_old in 1u64..50,
        impressions_new in 1u64..50,
        lambda_lo in 0.05f64..0.95,
        gap in 0.01f64..0.5,
    ) {
        let lambda_hi = (lambda_lo + gap).min(1.0);
        let freeze_at = |decay: f64| {
            let mut w = SlidingWindowGraph::new(4).with_decay(decay);
            w.observe("q", "a", EdgeData {
                impressions: impressions_old,
                clicks: 1,
                expected_click_rate: ecr_old,
            });
            w.advance();
            w.observe("q", "a", EdgeData {
                impressions: impressions_new,
                clicks: 2,
                expected_click_rate: ecr_new,
            });
            let g = w.freeze();
            let e = g.edges().next().unwrap().2;
            prop_assert_eq!(e.impressions, impressions_old + impressions_new);
            prop_assert_eq!(e.clicks, 3);
            Ok(e.expected_click_rate)
        };
        let (lo, hi) = (freeze_at(lambda_lo)?, freeze_at(lambda_hi)?);
        let (min, max) = (ecr_old.min(ecr_new), ecr_old.max(ecr_new));
        prop_assert!(lo >= min - 1e-12 && lo <= max + 1e-12, "ECR left the observed range: {lo}");
        prop_assert!(
            (lo - ecr_new).abs() <= (hi - ecr_new).abs() + 1e-12,
            "smaller decay must sit closer to the newest ECR: \
             λ={lambda_lo} -> {lo} vs λ={lambda_hi} -> {hi} (newest {ecr_new})"
        );
    }

    // `decay = 1` is the exact regime: the decayed fold must not engage,
    // and freezes stay bit-identical to scratch replays even for edges
    // re-observed across epochs.
    #[test]
    fn unit_decay_freezes_bit_identical_to_scratch(
        seed in 0u64..1_000_000,
        n_epochs in 2u64..6,
    ) {
        let log = synth_click_log(seed, n_epochs, 6);
        let mut plain = SlidingWindowGraph::new(3);
        let mut unit = SlidingWindowGraph::new(3).with_decay(1.0);
        replay_into_window(&mut plain, &log);
        replay_into_window(&mut unit, &log);
        prop_assert_eq!(plain.freeze().fingerprint(), unit.freeze().fingerprint());
    }
}

/// The stream tier's adversarial gate, at `cargo test` scale: window
/// expiry drives spam contamination to exactly zero while the
/// no-windowing observer stays contaminated — windowing must *beat* the
/// baseline, not merely match it.
#[test]
fn windowed_spam_defense_beats_the_no_windowing_baseline() {
    use simrankpp::eval::{run_windowed_spam_experiment, SpamTimeline};
    let clean = generate(&GeneratorConfig::tiny()).graph;
    let outcome = run_windowed_spam_experiment(
        &clean,
        &SpamTimeline::default(),
        MethodKind::WeightedSimrank,
        &SimrankConfig::default(),
        RewriterConfig::default(),
    );
    assert!(
        outcome.unwindowed.contamination() > 0.0,
        "the campaign must register on the unwindowed baseline: {outcome:?}"
    );
    assert_eq!(
        outcome.windowed.contamination(),
        0.0,
        "expiry must drive contamination to exactly zero: {outcome:?}"
    );
    assert!(
        outcome.windowed.rewrites > 0,
        "organic service must continue under windowing: {outcome:?}"
    );
    assert!(
        outcome.windowed.contamination() < outcome.unwindowed.contamination(),
        "windowing must beat the baseline outright: {outcome:?}"
    );
}
