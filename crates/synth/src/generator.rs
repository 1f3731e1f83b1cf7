//! Assembles the synthetic click graph (the substitute for the two-week
//! Yahoo! click graph).
//!
//! Pipeline per generated world:
//!
//! 1. topics on a relatedness ring, each with a term lexicon and a set of
//!    *intents* (1–2 core terms);
//! 2. queries: Zipf topic choice → Zipf intent choice → morphological
//!    variant rendering; traffic popularity Zipf over query rank;
//! 3. ads: Zipf topic choice, advertiser-style `term-N.com` names, a
//!    quality score;
//! 4. back-end matching: each query gets a heavy-tailed number of candidate
//!    ads, mostly same-topic, some related-topic, occasionally random —
//!    ranked by a bid proxy into display positions;
//! 5. click simulation per (query, ad, position) with the position-bias
//!    model; edges keep §2's three weights; an edge exists only if it
//!    received ≥ 1 click (the paper's definition);
//! 6. bid assignment: popular queries are more likely to carry bids.
//!
//! Same-intent queries receive correlated (intent, ad) relevance jitter, so
//! "precise rewrite" pairs genuinely co-click the same ads — the structure
//! SimRank is supposed to discover.

use crate::bids::assign_bids;
use crate::clickmodel::ClickModel;
use crate::powerlaw::{bounded_pareto, ZipfSampler};
use crate::topics::{topic_terms, Intent, World};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simrankpp_graph::{ClickGraph, ClickGraphBuilder, QueryId};
use simrankpp_util::FxHashSet;

/// Generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of distinct queries. `n_topics × intents_per_topic` intents
    /// must be able to name that many: each intent renders only a bounded
    /// set of variants, and [`generate`] panics when the names run out.
    pub n_queries: usize,
    /// Number of ads.
    pub n_ads: usize,
    /// Number of topics.
    pub n_topics: usize,
    /// Intents per topic.
    pub intents_per_topic: usize,
    /// Zipf exponent of query traffic popularity.
    pub popularity_alpha: f64,
    /// Pareto exponent of the candidate-ads-per-query distribution.
    pub candidates_alpha: f64,
    /// Cap on candidate ads per query.
    pub max_ads_per_query: u64,
    /// Impressions the most popular query generates over the window.
    pub base_impressions: u64,
    /// Base probability that a query carries a bid.
    pub bid_rate: f64,
    /// Position-bias click model.
    pub click_model: ClickModel,
    /// Master RNG seed (everything is deterministic given this).
    pub seed: u64,
}

impl GeneratorConfig {
    /// ~60 queries; unit-test scale.
    pub fn tiny() -> Self {
        GeneratorConfig {
            n_queries: 60,
            n_ads: 40,
            n_topics: 4,
            intents_per_topic: 4,
            popularity_alpha: 1.0,
            candidates_alpha: 2.2,
            max_ads_per_query: 8,
            base_impressions: 2_000,
            bid_rate: 0.7,
            click_model: ClickModel::default(),
            seed: 0xC11C_C11C,
        }
    }

    /// ~2 000 queries; example/integration scale.
    pub fn small() -> Self {
        GeneratorConfig {
            n_queries: 2_000,
            n_ads: 1_400,
            n_topics: 20,
            intents_per_topic: 12,
            popularity_alpha: 1.05,
            candidates_alpha: 2.2,
            max_ads_per_query: 15,
            base_impressions: 20_000,
            bid_rate: 0.6,
            click_model: ClickModel::default(),
            seed: 0xC11C_C11C,
        }
    }

    /// ~50 000 queries; bench scale (the paper's Table 5 shape, scaled to a
    /// laptop: same power-law family, ~1/10 node count of one subgraph).
    pub fn paper_scale() -> Self {
        GeneratorConfig {
            n_queries: 50_000,
            n_ads: 35_000,
            n_topics: 120,
            intents_per_topic: 40,
            popularity_alpha: 1.05,
            candidates_alpha: 2.3,
            max_ads_per_query: 20,
            base_impressions: 50_000,
            bid_rate: 0.55,
            click_model: ClickModel::default(),
            seed: 0xC11C_C11C,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The generated dataset: the click graph plus its ground truth.
#[derive(Debug)]
pub struct SynthDataset {
    /// The §2 click graph (named nodes, full edge weights).
    pub graph: ClickGraph,
    /// Planted ground truth (topics, intents, popularity, bids).
    pub world: World,
    /// The configuration that produced it.
    pub config: GeneratorConfig,
}

/// Consecutive query-name collisions after which [`generate`] gives up: the
/// configured topics and intents cannot name `n_queries` distinct queries.
/// Graphs that do generate stay far below it (the shipped configurations
/// peak under 100 in a row; one at ~80 % of its name space under 1 000).
const MAX_CONSECUTIVE_NAME_COLLISIONS: usize = 1 << 20;

/// Generates a synthetic dataset.
///
/// # Panics
/// Panics when `n_queries` exceeds what `n_topics × intents_per_topic`
/// intents can name (see [`GeneratorConfig::n_queries`]).
pub fn generate(config: &GeneratorConfig) -> SynthDataset {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    assert!(config.n_topics >= 1 && config.n_topics <= u16::MAX as usize);

    // --- Topics and intents -------------------------------------------------
    let lexicons: Vec<Vec<String>> = (0..config.n_topics as u16)
        .map(|t| topic_terms(t, 8 + config.intents_per_topic))
        .collect();
    let mut intents: Vec<Intent> = Vec::new();
    let mut intents_of_topic: Vec<Vec<u32>> = vec![Vec::new(); config.n_topics];
    for t in 0..config.n_topics {
        for i in 0..config.intents_per_topic {
            let lex = &lexicons[t];
            let n_terms = 1 + (i % 2); // alternate 1- and 2-term intents
            let mut terms = Vec::with_capacity(n_terms);
            for k in 0..n_terms {
                terms.push(lex[(i * 3 + k * 5) % lex.len()].clone());
            }
            terms.dedup();
            intents_of_topic[t].push(intents.len() as u32);
            intents.push(Intent {
                topic: t as u16,
                terms,
            });
        }
    }

    // --- Queries -------------------------------------------------------------
    let topic_sampler = ZipfSampler::new(config.n_topics, 1.0);
    let intent_sampler = ZipfSampler::new(config.intents_per_topic, 1.0);
    let mut builder = ClickGraphBuilder::new();
    let mut query_topic: Vec<u16> = Vec::new();
    let mut query_intent: Vec<u32> = Vec::new();
    let mut query_name: Vec<String> = Vec::new();
    let mut variant_counter: Vec<usize> = vec![0; intents.len()];

    let mut collisions_in_a_row = 0usize;
    while query_name.len() < config.n_queries {
        let t = topic_sampler.sample(&mut rng);
        let intent_id = intents_of_topic[t][intent_sampler.sample(&mut rng)];
        let variant = variant_counter[intent_id as usize];
        variant_counter[intent_id as usize] += 1;
        let name = intents[intent_id as usize].render_variant(variant, &mut rng);
        if builder.intern_query(&name).index() < query_name.len() {
            // Name collision: already a query, skip.
            collisions_in_a_row += 1;
            assert!(
                collisions_in_a_row < MAX_CONSECUTIVE_NAME_COLLISIONS,
                "generate: n_queries = {} exceeds what n_topics = {} × intents_per_topic = {} \
                 can name (stuck at {} distinct names)",
                config.n_queries,
                config.n_topics,
                config.intents_per_topic,
                query_name.len()
            );
            continue;
        }
        collisions_in_a_row = 0;
        query_name.push(name);
        query_topic.push(t as u16);
        query_intent.push(intent_id);
        if variant_counter[intent_id as usize] > 64 {
            // An intent exhausted its natural variants; further renders
            // would mostly collide. Spread to other intents.
            variant_counter[intent_id as usize] = 2;
        }
    }

    // Popularity: Zipf over a random permutation of queries, so popular
    // queries land in arbitrary topics.
    let n_q = query_name.len();
    let mut perm: Vec<usize> = (0..n_q).collect();
    for i in (1..n_q).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut query_popularity = vec![0.0f64; n_q];
    for (rank, &q) in perm.iter().enumerate() {
        query_popularity[q] = (rank as f64 + 1.0).powf(-config.popularity_alpha);
    }

    // --- Ads -----------------------------------------------------------------
    let mut ad_topic: Vec<u16> = Vec::with_capacity(config.n_ads);
    let mut ad_quality: Vec<f64> = Vec::with_capacity(config.n_ads);
    let mut ads_of_topic: Vec<Vec<u32>> = vec![Vec::new(); config.n_topics];
    for i in 0..config.n_ads {
        let t = topic_sampler.sample(&mut rng);
        let lex = &lexicons[t];
        let name = format!("{}-{}.com", lex[i % lex.len()], i);
        let ad = builder.intern_ad(&name);
        debug_assert_eq!(ad.index(), i);
        ads_of_topic[t].push(i as u32);
        ad_topic.push(t as u16);
        ad_quality.push(0.7 + 0.3 * rng.gen::<f64>());
    }

    // --- Matching + click simulation -----------------------------------------
    for q in 0..n_q {
        let t = query_topic[q] as usize;
        let n_cand = bounded_pareto(
            &mut rng,
            config.candidates_alpha,
            1,
            config.max_ads_per_query,
        ) as usize;
        let mut candidates: FxHashSet<u32> = FxHashSet::default();
        let mut guard = 0;
        while candidates.len() < n_cand && guard < n_cand * 8 {
            guard += 1;
            let roll: f64 = rng.gen();
            let pool = if roll < 0.80 {
                &ads_of_topic[t]
            } else if roll < 0.95 && config.n_topics > 1 {
                let related = if rng.gen_bool(0.5) {
                    (t + 1) % config.n_topics
                } else {
                    (t + config.n_topics - 1) % config.n_topics
                };
                &ads_of_topic[related]
            } else {
                // any topic
                &ads_of_topic[rng.gen_range(0..config.n_topics)]
            };
            if pool.is_empty() {
                continue;
            }
            candidates.insert(pool[rng.gen_range(0..pool.len())]);
        }

        // Rank candidates by a bid proxy (quality × noise) into positions.
        let mut ranked: Vec<u32> = candidates.into_iter().collect();
        ranked.sort_unstable();
        let mut keyed: Vec<(f64, u32)> = ranked
            .into_iter()
            .map(|a| (ad_quality[a as usize] * (0.8 + 0.4 * rng.gen::<f64>()), a))
            .collect();
        keyed.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));

        let impressions = ((config.base_impressions as f64) * query_popularity[q]).round() as u64;
        if impressions == 0 {
            continue;
        }
        for (position, &(_, ad)) in keyed.iter().enumerate() {
            // Intent-correlated relevance jitter: stable per (intent, ad) so
            // same-intent query variants co-click the same ads. The range is
            // kept tight (0.7–1.0, like the quality range) so per-query
            // MEAN click rates stay roughly homogeneous — the property real
            // position-normalized ECRs have, and the one §9.3's desirability
            // experiment (Figure 12) depends on.
            let jitter = stable_jitter(query_intent[q], ad);
            let relevance = (World::topic_affinity_static(
                config.n_topics,
                query_topic[q],
                ad_topic[ad as usize],
            ) * ad_quality[ad as usize]
                * (0.7 + 0.3 * jitter))
                .clamp(0.0, 1.0);
            let edge = config
                .click_model
                .simulate_edge(impressions, relevance, position, &mut rng);
            if edge.clicks >= 1 {
                builder.add_edge(QueryId(q as u32), simrankpp_graph::AdId(ad), edge);
            }
        }
    }

    // --- Bids ------------------------------------------------------------
    let bids = assign_bids(&query_popularity, config.bid_rate, &mut rng);

    let world = World {
        n_topics: config.n_topics,
        query_topic,
        query_intent,
        query_popularity,
        query_name,
        ad_topic,
        ad_quality,
        bids,
    };

    let graph = builder.build();
    debug_assert!(graph.validate().is_ok());
    SynthDataset {
        graph,
        world,
        config: config.clone(),
    }
}

/// Deterministic jitter in [0, 1) from an (intent, ad) pair.
fn stable_jitter(intent: u32, ad: u32) -> f64 {
    let mut h = ((intent as u64) << 32 | ad as u64).wrapping_mul(0x9E3779B97F4A7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 32;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl World {
    /// Static version of [`World::topic_affinity`] usable before the world
    /// struct exists.
    pub fn topic_affinity_static(n_topics: usize, query_topic: u16, ad_topic: u16) -> f64 {
        if query_topic == ad_topic {
            return 1.0;
        }
        let t = n_topics as u16;
        if t >= 2 && ((query_topic + 1) % t == ad_topic || (ad_topic + 1) % t == query_topic) {
            0.35
        } else {
            0.02
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::GraphStats;

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&GeneratorConfig::tiny());
        let b = generate(&GeneratorConfig::tiny());
        assert_eq!(a.graph.n_edges(), b.graph.n_edges());
        assert_eq!(a.world.query_name, b.world.query_name);
        for ((q1, a1, e1), (q2, a2, e2)) in a.graph.edges().zip(b.graph.edges()) {
            assert_eq!((q1, a1, e1), (q2, a2, e2));
        }
    }

    #[test]
    #[should_panic(expected = "n_queries = 2000 exceeds what n_topics = 2 × intents_per_topic = 2")]
    fn too_few_topics_for_the_queries_fails_fast() {
        // Four intents render a few hundred distinct names at most; asking
        // for 2 000 used to spin forever.
        let mut c = GeneratorConfig::tiny();
        c.n_queries = 2_000;
        c.n_topics = 2;
        c.intents_per_topic = 2;
        generate(&c);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::tiny());
        let b = generate(&GeneratorConfig::tiny().with_seed(999));
        assert_ne!(
            a.world.query_name, b.world.query_name,
            "different seeds should give different worlds"
        );
    }

    #[test]
    fn world_arrays_align_with_graph() {
        let d = generate(&GeneratorConfig::tiny());
        assert_eq!(d.world.n_queries(), d.graph.n_queries());
        assert_eq!(d.world.n_ads(), d.graph.n_ads());
        // Names align with graph ids.
        for q in d.graph.queries() {
            assert_eq!(
                d.graph.query_name(q).unwrap(),
                d.world.query_name[q.index()]
            );
        }
    }

    #[test]
    fn graph_is_valid_and_nonempty() {
        let d = generate(&GeneratorConfig::tiny());
        d.graph.validate().unwrap();
        assert!(d.graph.n_edges() > 20, "only {} edges", d.graph.n_edges());
    }

    #[test]
    fn every_edge_has_a_click() {
        // §2: an edge exists iff the ad was clicked at least once.
        let d = generate(&GeneratorConfig::tiny());
        for (_, _, e) in d.graph.edges() {
            assert!(e.clicks >= 1);
            assert!(e.clicks <= e.impressions);
            assert!((0.0..=1.0).contains(&e.expected_click_rate));
        }
    }

    #[test]
    fn popular_queries_attract_more_clicks() {
        let d = generate(&GeneratorConfig::small());
        // Popularity drives impressions, so the top popularity decile must
        // accumulate far more clicks than the bottom. (Edge *count* is
        // dominated by the popularity-independent candidate draw, so mean
        // degree is not a robust discriminator — total clicks are.)
        let n = d.world.n_queries();
        let mut by_pop: Vec<usize> = (0..n).collect();
        by_pop.sort_by(|&a, &b| {
            d.world.query_popularity[b]
                .partial_cmp(&d.world.query_popularity[a])
                .unwrap()
        });
        let decile = n / 10;
        let mean_clicks = |idx: &[usize]| {
            idx.iter()
                .map(|&q| {
                    d.graph
                        .ads_of(QueryId(q as u32))
                        .1
                        .iter()
                        .map(|e| e.clicks)
                        .sum::<u64>()
                })
                .sum::<u64>() as f64
                / idx.len() as f64
        };
        let top = mean_clicks(&by_pop[..decile]);
        let bottom = mean_clicks(&by_pop[n - decile..]);
        assert!(
            top > 5.0 * bottom,
            "popular queries should attract far more clicks: {top} vs {bottom}"
        );
    }

    #[test]
    fn same_intent_variants_exist() {
        let d = generate(&GeneratorConfig::tiny());
        let mut intent_counts = std::collections::HashMap::new();
        for &i in &d.world.query_intent {
            *intent_counts.entry(i).or_insert(0usize) += 1;
        }
        assert!(
            intent_counts.values().any(|&c| c >= 2),
            "some intents must have multiple query variants"
        );
    }

    #[test]
    fn ads_per_query_is_heavy_tailed() {
        let d = generate(&GeneratorConfig::small());
        let stats = GraphStats::compute(&d.graph);
        let h = &stats.ads_per_query;
        // More degree-1 queries than degree-3 queries, and some long tail.
        assert!(h.counts.get(1).copied().unwrap_or(0) > h.counts.get(3).copied().unwrap_or(0));
        assert!(h.max_degree() >= 5);
    }

    #[test]
    fn bids_cover_a_reasonable_fraction() {
        let d = generate(&GeneratorConfig::tiny());
        let frac = d.world.bids.len() as f64 / d.world.n_queries() as f64;
        assert!(
            (0.2..=0.95).contains(&frac),
            "bid fraction {frac} out of range"
        );
    }
}
