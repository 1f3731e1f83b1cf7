//! Shared plumbing for `repro_all`: the paper's tables and figures, and the
//! ablations of its design choices, all or by section id. `bench_ci`, the
//! other binary here, is self-contained: the same-run ratio gates and
//! 1M-scale ceilings that `benchmark/` cannot carry.
//!
//! `repro_all` honors the `SIMRANKPP_SCALE` environment variable and refuses
//! any other value:
//!
//! * `tiny` — seconds; smoke-testing the harness;
//! * `small` (default) — tens of seconds; the example scale (~2k queries);
//! * `paper` — the bench scale (~50k queries, the Table 5 shape scaled to a
//!   laptop); its whole `repro_all` takes ≈ 1–2 s on a 2-core x86-64 VM, since
//!   the evaluation graph it extracts holds only ≈ 1 400 queries.
//!
//! Scale changes only the dataset size — seeds, method parameters and the
//! evaluation pipeline stay fixed, so results are deterministic per scale.

use simrankpp_core::{RewriterConfig, SimrankConfig};
use simrankpp_eval::ExperimentConfig;
use simrankpp_partition::ExtractConfig;
use simrankpp_synth::GeneratorConfig;

/// The scale selected via `SIMRANKPP_SCALE` (default `small`).
pub fn scale() -> String {
    std::env::var("SIMRANKPP_SCALE").unwrap_or_else(|_| "small".to_owned())
}

/// The generator configuration for a scale name; `None` for an unknown one.
pub fn generator_config(scale: &str) -> Option<GeneratorConfig> {
    match scale {
        "tiny" => Some(GeneratorConfig::tiny()),
        "small" => Some(GeneratorConfig::small()),
        "paper" => Some(GeneratorConfig::paper_scale()),
        _ => None,
    }
}

/// The full experiment configuration for a scale name; `None` for an
/// unknown one.
pub fn experiment_config(scale: &str) -> Option<ExperimentConfig> {
    let generator = generator_config(scale)?;
    let (n_subgraphs, min_size, max_size, sample, trials, prune) = match scale {
        "tiny" => (2, 6, 60, 30, 8, 0.0),
        "paper" => (5, 200, 30_000, 1200, 50, 1e-4),
        _ => (5, 20, 1200, 1200, 50, 0.0),
    };
    Some(ExperimentConfig {
        generator,
        extract: ExtractConfig {
            n_subgraphs,
            min_size,
            max_size,
            ..ExtractConfig::default()
        },
        simrank: SimrankConfig::default()
            .with_iterations(7)
            .with_prune_threshold(prune)
            .with_threads(if scale == "paper" { 0 } else { 1 }),
        rewriter: RewriterConfig::default(),
        eval_sample_size: sample,
        desirability_trials: trials,
        seed: 0x5EED,
    })
}

/// Prints the standard banner for a regeneration binary.
pub fn banner(target: &str, paper_ref: &str, scale: &str) {
    println!("=== {target} — reproduces {paper_ref} ===");
    println!("scale: {scale} (set SIMRANKPP_SCALE=tiny|small|paper)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        assert_eq!(generator_config("tiny").unwrap().n_queries, 60);
        assert_eq!(generator_config("small").unwrap().n_queries, 2_000);
        assert_eq!(generator_config("paper").unwrap().n_queries, 50_000);
        assert!(generator_config("anything").is_none());
        assert!(experiment_config("papr").is_none());
    }

    #[test]
    fn experiment_configs_are_consistent() {
        for s in ["tiny", "small", "paper"] {
            let c = experiment_config(s).unwrap();
            assert!(c.extract.n_subgraphs >= 2);
            assert!(c.simrank.validate().is_ok());
        }
    }
}
