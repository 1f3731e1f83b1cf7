//! Everything a workload feeds the program: generator configurations, the
//! files written from them, and the traffic. All of it is a function of the
//! two seeds alone — the load generator draws from its own small PRNG
//! ([`Rng`]), never from the wall clock or a `HashMap`'s iteration order.
//!
//! `--seed` draws the traffic: request streams, which edges are re-observed,
//! the order epochs visit the component slices, which rows are sampled for
//! checks. The click graph itself comes from `--graph-seed`, fixed by
//! default: graphs of one generator family differ too much for one bound to
//! cover them (at 4 000 queries the live engine's peak memory ran from 652
//! to 889 MB over ten seeds), so the graph is a named input and a claim is
//! checked on a second graph by passing another `--graph-seed`.

use simrankpp_core::{KernelKind, ShardStrategy, SimrankConfig};
use simrankpp_graph::{ClickGraph, WeightKind};
use simrankpp_synth::generator::GeneratorConfig;
use simrankpp_synth::World;
use std::fmt::Write as _;

/// The seed used when `--seed` or `--graph-seed` is absent (the generator's
/// own default).
pub const DEFAULT_SEED: u64 = 0xC11C_C11C;

/// Share of requests that name a query the program has never seen (the
/// protocol's `err` path).
pub const UNKNOWN_SHARE: f64 = 0.01;

/// SplitMix64: the load generator's PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Worker threads of the engine and of every index build. One, not "all
/// cores": on the 2-core shared box this was written on a second thread
/// doubles the exposure to the neighbours — the same ten `offline_build`
/// runs spread 5.1 % on `refresh_p50_ms` with two threads and 2.6 % with one,
/// and `peak_rss_mb` of `stream_mixed` ran from 75 to 88 MB at one seed with
/// two threads and repeats to 0.1 MB with one. Thread scaling is a claim for
/// a runner with cores to spare (ROADMAP item 1), not for this benchmark.
pub const THREADS: usize = 1;

/// The settings every workload runs the engine with: weighted SimRank's
/// walk at `C1 = C2 = 0.8`, 7 iterations, pruning at `1e-4`, ECR weights,
/// the pull kernel, [`THREADS`] worker threads.
pub fn engine_config() -> SimrankConfig {
    SimrankConfig::default()
        .with_decay(0.8, 0.8)
        .with_iterations(7)
        .with_prune_threshold(1e-4)
        .with_weight_kind(WeightKind::ExpectedClickRate)
        .with_kernel(KernelKind::Pull)
        .with_threads(THREADS)
}

/// [`engine_config`] with exact per-component sharding, as the streaming
/// path runs it.
pub fn stream_engine_config() -> SimrankConfig {
    engine_config().with_sharding(ShardStrategy::Components)
}

/// `paper_scale()` at `n_queries`. Topic count scales with size: `generate`
/// does not terminate when `n_queries` exceeds the name space the topic
/// configuration can render.
pub fn paper_family(n_queries: usize, seed: u64) -> GeneratorConfig {
    let base = GeneratorConfig::paper_scale();
    scaled(base, n_queries, seed)
}

/// `small()` at `n_queries`, topics scaled with size for the same reason.
pub fn small_family(n_queries: usize, seed: u64) -> GeneratorConfig {
    scaled(GeneratorConfig::small(), n_queries, seed)
}

fn scaled(base: GeneratorConfig, n_queries: usize, seed: u64) -> GeneratorConfig {
    let ratio = n_queries as f64 / base.n_queries as f64;
    let scale = |v: usize| ((v as f64 * ratio).round() as usize).max(1);
    GeneratorConfig {
        n_queries,
        n_ads: scale(base.n_ads),
        n_topics: scale(base.n_topics).max(2),
        base_impressions: scale(base.base_impressions as usize) as u64,
        seed,
        ..base
    }
}

/// The bid-term list as a file: one query name per line, in id order.
pub fn bid_terms_text(world: &World) -> String {
    let mut ids: Vec<u32> = world.bids.iter().map(|q| q.0).collect();
    ids.sort_unstable();
    let mut out = String::new();
    for id in ids {
        out.push_str(&world.query_name[id as usize]);
        out.push('\n');
    }
    out
}

/// The planted traffic popularity over the queries the program can know:
/// `read_tsv` drops edge-less queries, so a name is kept only when it still
/// has an edge in the graph the TSV was written from.
#[derive(Debug)]
pub struct Popularity {
    pub names: Vec<String>,
    cdf: Vec<f64>,
}

impl Popularity {
    pub fn new(world: &World, written: &ClickGraph) -> Popularity {
        let mut names = Vec::new();
        let mut cdf = Vec::new();
        let mut total = 0.0;
        for (name, &p) in world.query_name.iter().zip(&world.query_popularity) {
            let has_edge = written
                .query_by_name(name)
                .is_some_and(|q| written.query_degree(q) > 0);
            if has_edge {
                total += p;
                names.push(name.clone());
                cdf.push(total);
            }
        }
        assert!(total > 0.0, "no named query survived the round trip");
        Popularity { names, cdf }
    }

    /// Index into `names`, drawn by popularity.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.names.len() - 1)
    }
}

/// A block of `rewrite` requests in protocol form.
#[derive(Debug)]
pub struct Requests {
    /// `rewrite <name>\n` per request.
    pub bytes: Vec<u8>,
    /// Per request: the index into [`Popularity::names`], or `None` for a
    /// planted unknown name.
    pub picks: Vec<Option<u32>>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    pub fn unknown(&self) -> usize {
        self.picks.iter().filter(|p| p.is_none()).count()
    }

    /// The requested names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| std::str::from_utf8(&l["rewrite ".len()..]).expect("request names are UTF-8"))
    }
}

/// `n` requests: names by planted popularity, [`UNKNOWN_SHARE`] of them
/// unknown to the program.
pub fn requests(pop: &Popularity, n: usize, rng: &mut Rng) -> Requests {
    let mut bytes = Vec::with_capacity(n * 32);
    let mut picks = Vec::with_capacity(n);
    let mut line = String::new();
    for _ in 0..n {
        line.clear();
        if rng.next_f64() < UNKNOWN_SHARE {
            let _ = writeln!(line, "rewrite no such query {}", rng.below(1_000_000));
            picks.push(None);
        } else {
            let i = pop.draw(rng);
            let _ = writeln!(line, "rewrite {}", pop.names[i]);
            picks.push(Some(i as u32));
        }
        bytes.extend_from_slice(line.as_bytes());
    }
    Requests { bytes, picks }
}
