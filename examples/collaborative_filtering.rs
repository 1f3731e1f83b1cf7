//! Collaborative filtering with the Simrank++ machinery.
//!
//! §2 notes the rewriting problem "is a type of collaborative filtering
//! problem: we can view the queries as users who are recommending ads by
//! clicking on them", and the conclusions plan to apply the weighted and
//! evidence-based schemes "in other domains, including collaborative
//! filtering". This example does exactly that: a user × movie rating graph,
//! weighted SimRank over users, and top-N movie recommendations from the
//! most similar users.
//!
//! Run with: `cargo run --release --example collaborative_filtering`

use simrankpp::prelude::*;

/// (user, movie, rating 1–5) triples — a tiny MovieLens-shaped dataset with
/// two taste clusters (sci-fi vs romance) and one crossover user.
const RATINGS: &[(&str, &str, u64)] = &[
    ("alice", "star wars", 5),
    ("alice", "blade runner", 5),
    ("alice", "alien", 4),
    ("bob", "star wars", 5),
    ("bob", "alien", 5),
    ("bob", "dune", 4),
    ("carol", "blade runner", 4),
    ("carol", "dune", 5),
    ("carol", "alien", 4),
    ("dave", "notting hill", 5),
    ("dave", "amelie", 4),
    ("dave", "casablanca", 5),
    ("erin", "amelie", 5),
    ("erin", "casablanca", 4),
    ("erin", "notting hill", 4),
    // frank bridges the clusters.
    ("frank", "star wars", 3),
    ("frank", "casablanca", 4),
];

fn main() {
    // Users play the role of queries; movies play the role of ads; ratings
    // are the click weights.
    let mut builder = ClickGraphBuilder::new();
    for &(user, movie, rating) in RATINGS {
        builder.add_named(
            user,
            movie,
            EdgeData::new(rating * 2, rating, rating as f64 / 5.0),
        );
    }
    let graph = builder.build();
    println!(
        "Rating graph: {} users, {} movies, {} ratings\n",
        graph.n_queries(),
        graph.n_ads(),
        graph.n_edges()
    );

    let config = SimrankConfig::paper()
        .with_iterations(10)
        .with_weight_kind(WeightKind::Clicks);
    let method = Method::compute(MethodKind::WeightedSimrank, &graph, &config);
    // The §9.3 ranking without its query-text filter: a user's five most
    // similar users, best first.
    let rewriter = RewriterConfig {
        stem_dedup: false,
        ..RewriterConfig::default()
    };
    let rewriter = Rewriter::new(&graph, method, rewriter);
    let similar = |user| {
        let mut out = Vec::new();
        rewriter.rewrite_ids_into(user, None, &mut out);
        out
    };

    // User-user similarities.
    println!("Most similar users (weighted SimRank):");
    for user in graph.queries() {
        let list: Vec<String> = similar(user)
            .iter()
            .take(3)
            .map(|&(u, s)| format!("{} ({s:.3})", graph.query_name(u).unwrap_or("?")))
            .collect();
        println!(
            "  {:<8} -> {}",
            graph.query_name(user).unwrap_or("?"),
            list.join(", ")
        );
    }

    // Recommendations: movies rated by similar users that the target user
    // has not seen, scored by Σ user-similarity × rating.
    println!("\nRecommendations:");
    for user in graph.queries() {
        let (seen, _) = graph.ads_of(user);
        let mut scores: Vec<(AdId, f64)> = Vec::new();
        for (other, sim) in similar(user) {
            let (movies, edges) = graph.ads_of(other);
            for (&movie, edge) in movies.iter().zip(edges) {
                if seen.contains(&movie) {
                    continue;
                }
                match scores.iter_mut().find(|(m, _)| *m == movie) {
                    Some((_, s)) => *s += sim * edge.clicks as f64,
                    None => scores.push((movie, sim * edge.clicks as f64)),
                }
            }
        }
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let list: Vec<String> = scores
            .iter()
            .take(2)
            .map(|&(m, s)| format!("{} ({s:.2})", graph.ad_name(m).unwrap_or("?")))
            .collect();
        println!(
            "  {:<8} -> {}",
            graph.query_name(user).unwrap_or("?"),
            if list.is_empty() {
                "(nothing new)".to_owned()
            } else {
                list.join(", ")
            }
        );
    }

    // Sanity the clusters separated: alice's nearest neighbor is a sci-fi
    // fan, dave's is a romance fan.
    let alice = graph.query_by_name("alice").unwrap();
    let dave = graph.query_by_name("dave").unwrap();
    let top = |q| {
        similar(q)
            .first()
            .map(|&(u, _)| graph.query_name(u).unwrap().to_owned())
    };
    println!(
        "\nNearest neighbors: alice -> {:?}, dave -> {:?}",
        top(alice),
        top(dave)
    );
}
