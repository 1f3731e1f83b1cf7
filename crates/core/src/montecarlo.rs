//! Monte-Carlo estimation of the SimRank random-surfer model (§5).
//!
//! §5 gives SimRank its meaning: `sim(a,b)` measures how soon two random
//! surfers starting at `a` and `b` are expected to meet, with per-step decay
//! `C1`/`C2` (equivalently self-transition mass). That definition is directly
//! simulable, which gives a *single-pair* estimator that needs no all-pairs
//! iteration — the natural tool when only a handful of pair scores are
//! needed (e.g. the desirability experiment, or online scoring of one
//! incoming query against bid queries).
//!
//! * [`mc_simrank_pair`] — uniform walk; unbiased for plain SimRank.
//! * [`mc_weighted_pair`] — walk with the §8.2 transition probabilities
//!   `p(α,i) = spread(i)·normalized_weight(α,i)` (walkers "die" with the
//!   self-transition mass, matching the weighted equations where unmoved
//!   walkers contribute nothing); unbiased for the raw weighted-walk score.
//! * [`mc_topk_into`] — the single-source extension: top-k neighbors of one
//!   query by simulating the source's walk trajectories *once* and coupling
//!   every frontier candidate's walks against that shared batch, instead of
//!   restarting the source per pair.
//!
//! The `ablation_montecarlo` bench sweeps walk counts against the exact
//! engines.

use crate::config::SimrankConfig;
use crate::weighted::TransitionWeights;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simrankpp_graph::{ClickGraph, QueryId};
use simrankpp_util::TopK;

/// Monte-Carlo estimator parameters. Serializable like [`SimrankConfig`] so
/// estimator settings can be persisted alongside engine configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McConfig {
    /// Number of simulated walk pairs.
    pub walks: usize,
    /// Maximum coupled steps before a walk pair is abandoned (contributes 0).
    pub max_steps: usize,
    /// RNG seed (estimates are deterministic given the seed).
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            walks: 10_000,
            max_steps: 24,
            seed: 0x51_4D_52_4B, // "QMRK"
        }
    }
}

/// Estimates plain SimRank `s(q1, q2)` by simulating coupled uniform walks.
pub fn mc_simrank_pair(
    g: &ClickGraph,
    q1: QueryId,
    q2: QueryId,
    config: &SimrankConfig,
    mc: &McConfig,
) -> f64 {
    if q1 == q2 {
        return 1.0;
    }
    let mut rng = SmallRng::seed_from_u64(mc.seed);
    let mut total = 0.0f64;
    for _ in 0..mc.walks {
        total += one_uniform_walk(g, q1, q2, config, mc.max_steps, &mut rng);
    }
    total / mc.walks as f64
}

/// One coupled uniform walk pair; returns the decayed meeting contribution.
fn one_uniform_walk(
    g: &ClickGraph,
    q1: QueryId,
    q2: QueryId,
    config: &SimrankConfig,
    max_steps: usize,
    rng: &mut SmallRng,
) -> f64 {
    // Positions alternate sides; `on_query_side` refers to current side.
    let mut a = q1.0;
    let mut b = q2.0;
    let mut on_query_side = true;
    let mut factor = 1.0f64;
    for _ in 0..max_steps {
        if on_query_side {
            let (na, _) = g.ads_of(QueryId(a));
            let (nb, _) = g.ads_of(QueryId(b));
            if na.is_empty() || nb.is_empty() {
                return 0.0;
            }
            factor *= config.c1;
            a = na[rng.gen_range(0..na.len())].0;
            b = nb[rng.gen_range(0..nb.len())].0;
        } else {
            let (na, _) = g.queries_of(simrankpp_graph::AdId(a));
            let (nb, _) = g.queries_of(simrankpp_graph::AdId(b));
            if na.is_empty() || nb.is_empty() {
                return 0.0;
            }
            factor *= config.c2;
            a = na[rng.gen_range(0..na.len())].0;
            b = nb[rng.gen_range(0..nb.len())].0;
        }
        on_query_side = !on_query_side;
        if a == b {
            return factor;
        }
    }
    0.0
}

/// Sentinel for a dead walker inside a recorded trajectory.
const DEAD: u32 = u32::MAX;

/// Batched-walk top-k: estimates `s(q, ·)` against every *frontier*
/// candidate (queries sharing at least one ad with `q` — the 2-hop
/// neighborhood where rewrite-worthy SimRank mass concentrates) and returns
/// the `k` best into `out` (descending score, ties by ascending id).
///
/// Instead of rerunning [`mc_simrank_pair`] per candidate — which would
/// resimulate the source's walks `|frontier|` times — the source's
/// `mc.walks` trajectories are simulated once and recorded; each candidate
/// then couples its own `r`-th walk against the source's `r`-th recorded
/// trajectory. Per-pair estimates are unbiased (candidate walks are
/// independent, seeded per candidate); only the *correlation between
/// candidates* is shared, which top-k selection tolerates.
pub fn mc_topk_into(
    g: &ClickGraph,
    q: QueryId,
    k: usize,
    config: &SimrankConfig,
    mc: &McConfig,
    out: &mut Vec<(QueryId, f64)>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    // Frontier: 2-hop neighbors, ascending, deduplicated, source excluded.
    let mut frontier: Vec<QueryId> = Vec::new();
    let (ads, _) = g.ads_of(q);
    for &a in ads {
        let (qs, _) = g.queries_of(a);
        frontier.extend(qs.iter().copied().filter(|&w| w != q));
    }
    frontier.sort_unstable();
    frontier.dedup();
    if frontier.is_empty() {
        return;
    }

    // Record the source's trajectories: position after step t (alternating
    // sides, so both coupled walkers are always on the same side) at
    // `traj[r * max_steps + t]`, DEAD once the walker hits a dead end.
    let mut rng = SmallRng::seed_from_u64(mc.seed);
    let mut traj = vec![DEAD; mc.walks * mc.max_steps];
    for r in 0..mc.walks {
        let mut pos = q.0;
        let mut on_query_side = true;
        for t in 0..mc.max_steps {
            let next = if on_query_side {
                let (na, _) = g.ads_of(QueryId(pos));
                if na.is_empty() {
                    break;
                }
                na[rng.gen_range(0..na.len())].0
            } else {
                let (nq, _) = g.queries_of(simrankpp_graph::AdId(pos));
                if nq.is_empty() {
                    break;
                }
                nq[rng.gen_range(0..nq.len())].0
            };
            pos = next;
            traj[r * mc.max_steps + t] = pos;
            on_query_side = !on_query_side;
        }
    }
    // Decay accumulated up to and including step t: C1·C2·C1·…
    let mut decay = Vec::with_capacity(mc.max_steps);
    let mut f = 1.0f64;
    for t in 0..mc.max_steps {
        f *= if t % 2 == 0 { config.c1 } else { config.c2 };
        decay.push(f);
    }

    let mut top = TopK::new(k);
    for &cand in &frontier {
        // Independent per-candidate stream; deterministic given `mc.seed`.
        let mut crng =
            SmallRng::seed_from_u64(mc.seed ^ (cand.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut total = 0.0f64;
        for r in 0..mc.walks {
            let steps = &traj[r * mc.max_steps..(r + 1) * mc.max_steps];
            let mut pos = cand.0;
            let mut on_query_side = true;
            for (t, &src) in steps.iter().enumerate() {
                if src == DEAD {
                    break;
                }
                let next = if on_query_side {
                    let (na, _) = g.ads_of(QueryId(pos));
                    if na.is_empty() {
                        break;
                    }
                    na[crng.gen_range(0..na.len())].0
                } else {
                    let (nq, _) = g.queries_of(simrankpp_graph::AdId(pos));
                    if nq.is_empty() {
                        break;
                    }
                    nq[crng.gen_range(0..nq.len())].0
                };
                pos = next;
                on_query_side = !on_query_side;
                if pos == src {
                    total += decay[t];
                    break;
                }
            }
        }
        let est = total / mc.walks as f64;
        if est > 0.0 {
            top.push(cand.0, est);
        }
    }
    out.extend(
        top.into_sorted_vec()
            .into_iter()
            .map(|(i, s)| (QueryId(i), s)),
    );
}

/// Estimates the raw weighted-walk score of `(q1, q2)` (no evidence factor)
/// by simulating the §8.2 transition probabilities.
pub fn mc_weighted_pair(
    g: &ClickGraph,
    q1: QueryId,
    q2: QueryId,
    config: &SimrankConfig,
    mc: &McConfig,
) -> f64 {
    if q1 == q2 {
        return 1.0;
    }
    let tw = TransitionWeights::compute(g, config.weight_kind);
    let mut rng = SmallRng::seed_from_u64(mc.seed);
    let mut total = 0.0f64;
    for _ in 0..mc.walks {
        total += one_weighted_walk(g, &tw, q1, q2, config, mc.max_steps, &mut rng);
    }
    total / mc.walks as f64
}

fn one_weighted_walk(
    g: &ClickGraph,
    tw: &TransitionWeights,
    q1: QueryId,
    q2: QueryId,
    config: &SimrankConfig,
    max_steps: usize,
    rng: &mut SmallRng,
) -> f64 {
    let mut a = q1.0;
    let mut b = q2.0;
    let mut on_query_side = true;
    let mut factor = 1.0f64;
    for _ in 0..max_steps {
        if on_query_side {
            factor *= config.c1;
            let Some(next_a) = weighted_step_from_query(g, tw, QueryId(a), rng) else {
                return 0.0;
            };
            let Some(next_b) = weighted_step_from_query(g, tw, QueryId(b), rng) else {
                return 0.0;
            };
            a = next_a;
            b = next_b;
        } else {
            factor *= config.c2;
            let Some(next_a) = weighted_step_from_ad(g, tw, simrankpp_graph::AdId(a), rng) else {
                return 0.0;
            };
            let Some(next_b) = weighted_step_from_ad(g, tw, simrankpp_graph::AdId(b), rng) else {
                return 0.0;
            };
            a = next_a;
            b = next_b;
        }
        on_query_side = !on_query_side;
        if a == b {
            return factor;
        }
    }
    0.0
}

/// Samples the next ad from `q` per `W(q,·)`, or `None` when the walker takes
/// the self-transition (dies, per the weighted equations).
fn weighted_step_from_query(
    g: &ClickGraph,
    tw: &TransitionWeights,
    q: QueryId,
    rng: &mut SmallRng,
) -> Option<u32> {
    let (ads, _) = g.ads_of(q);
    let weights = tw.from_query(g, q);
    sample_or_die(ads.iter().map(|a| a.0), weights, rng)
}

fn weighted_step_from_ad(
    g: &ClickGraph,
    tw: &TransitionWeights,
    a: simrankpp_graph::AdId,
    rng: &mut SmallRng,
) -> Option<u32> {
    let (qs, _) = g.queries_of(a);
    let weights = tw.from_ad(g, a);
    sample_or_die(qs.iter().map(|q| q.0), weights, rng)
}

/// Inverse-CDF sample over `weights` (which sum to ≤ 1); the residual mass
/// is the die/self-transition outcome.
fn sample_or_die(
    ids: impl Iterator<Item = u32>,
    weights: &[f64],
    rng: &mut SmallRng,
) -> Option<u32> {
    let u: f64 = rng.gen::<f64>();
    let mut acc = 0.0;
    for (id, &w) in ids.zip(weights) {
        acc += w;
        if u < acc {
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrankpp_graph::fixtures::{figure3_graph, figure4_k12, figure4_k22};
    use simrankpp_graph::WeightKind;

    fn cfg() -> SimrankConfig {
        SimrankConfig::default()
            .with_iterations(30)
            .with_weight_kind(WeightKind::Clicks)
    }

    fn mc(walks: usize) -> McConfig {
        McConfig {
            walks,
            max_steps: 60,
            ..McConfig::default()
        }
    }

    #[test]
    fn k12_exact() {
        // Two queries, one ad: surfers always meet at step 1 → C1 exactly.
        let g = figure4_k12();
        let est = mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(2000));
        assert!((est - 0.8).abs() < 1e-12, "got {est}");
    }

    #[test]
    fn k22_close_to_exact() {
        let g = figure4_k22();
        let exact = crate::simrank::simrank(&g, &cfg()).queries.get(0, 1);
        let est = mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(60_000));
        assert!(
            (est - exact).abs() < 0.02,
            "estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn figure3_estimates_track_engine() {
        let g = figure3_graph();
        let exact = crate::simrank::simrank(&g, &cfg());
        let q = |n: &str| g.query_by_name(n).unwrap();
        for (a, b) in [("pc", "camera"), ("pc", "tv"), ("camera", "tv")] {
            let e = exact.queries.get(q(a).0, q(b).0);
            let est = mc_simrank_pair(&g, q(a), q(b), &cfg(), &mc(60_000));
            assert!(
                (est - e).abs() < 0.03,
                "pair ({a},{b}): estimate {est}, exact {e}"
            );
        }
    }

    #[test]
    fn disconnected_pair_is_zero() {
        let g = figure3_graph();
        let q = |n: &str| g.query_by_name(n).unwrap();
        let est = mc_simrank_pair(&g, q("flower"), q("pc"), &cfg(), &mc(5000));
        assert_eq!(est, 0.0);
    }

    #[test]
    fn self_pair_is_one() {
        let g = figure3_graph();
        assert_eq!(
            mc_simrank_pair(&g, QueryId(0), QueryId(0), &cfg(), &mc(10)),
            1.0
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = figure3_graph();
        let a = mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(5000));
        let b = mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(5000));
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_mc_tracks_weighted_engine() {
        use crate::evidence::EvidenceKind;
        let g = figure4_k22();
        let exact = crate::weighted::weighted_simrank(&g, &cfg(), EvidenceKind::Geometric);
        let est = mc_weighted_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(60_000));
        let raw = exact.raw.queries.get(0, 1);
        assert!(
            (est - raw).abs() < 0.02,
            "estimate {est} too far from raw weighted {raw}"
        );
    }

    #[test]
    fn mc_config_serde_round_trips() {
        let mc = McConfig {
            walks: 123,
            max_steps: 7,
            seed: 42,
        };
        let json = serde_json::to_string(&mc).unwrap();
        let back: McConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(mc, back);
    }

    #[test]
    fn default_seed_spells_qmrk() {
        // The seed bytes are ASCII "QMRK"; the comment used to claim "SRNK".
        let seed = McConfig::default().seed;
        let bytes = [
            (seed >> 24) as u8,
            (seed >> 16) as u8,
            (seed >> 8) as u8,
            seed as u8,
        ];
        assert_eq!(&bytes, b"QMRK");
    }

    #[test]
    fn topk_tracks_pairwise_estimates() {
        // The batched path must agree with per-pair estimation to MC noise.
        let g = figure3_graph();
        let q = g.query_by_name("camera").unwrap();
        let mcc = mc(20_000);
        let mut got = Vec::new();
        mc_topk_into(&g, q, 5, &cfg(), &mcc, &mut got);
        assert!(!got.is_empty());
        let exact = crate::simrank::simrank(&g, &cfg());
        for &(cand, est) in &got {
            let e = exact.queries.get(q.0, cand.0);
            assert!(
                (est - e).abs() < 0.03,
                "candidate {:?}: batched {est}, exact {e}",
                cand
            );
        }
    }

    #[test]
    fn topk_orders_by_score_and_excludes_source() {
        let g = figure3_graph();
        let q = g.query_by_name("pc").unwrap();
        let mut got = Vec::new();
        mc_topk_into(&g, q, 10, &cfg(), &mc(10_000), &mut got);
        assert!(got.iter().all(|&(w, _)| w != q));
        for w in got.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn topk_of_isolated_query_is_empty() {
        let g = figure3_graph();
        let q = g.query_by_name("flower").unwrap();
        let mut got = Vec::new();
        mc_topk_into(&g, q, 10, &cfg(), &mc(1000), &mut got);
        // "flower" shares its only ad with nobody.
        assert!(got.is_empty());
    }

    #[test]
    fn topk_deterministic_given_seed() {
        let g = figure3_graph();
        let q = g.query_by_name("camera").unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        mc_topk_into(&g, q, 5, &cfg(), &mc(5000), &mut a);
        mc_topk_into(&g, q, 5, &cfg(), &mc(5000), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn more_walks_reduce_error() {
        let g = figure4_k22();
        let exact = crate::simrank::simrank(&g, &cfg()).queries.get(0, 1);
        let coarse = (mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(200)) - exact).abs();
        let fine =
            (mc_simrank_pair(&g, QueryId(0), QueryId(1), &cfg(), &mc(100_000)) - exact).abs();
        // Not guaranteed pointwise, but with these seeds/sizes it holds and
        // guards against gross estimator bias.
        assert!(fine <= coarse + 0.01, "fine {fine} vs coarse {coarse}");
    }
}
