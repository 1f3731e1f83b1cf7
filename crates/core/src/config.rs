//! Shared configuration for the SimRank family of engines.

use serde::{Deserialize, Serialize};
use simrankpp_graph::WeightKind;

/// Formerly how the engine decomposed the click graph before propagating.
/// The engine now always runs monolithic (component decomposition lives in
/// the index build), so this type **selects nothing**: both variants run
/// the same code and produce the same bits. It keeps its name, like
/// [`SimrankConfig::sharding`] and [`SimrankConfig::with_sharding`], only
/// because the frozen `benchmark/` sources spell it (benchmark-pinned). A
/// persisted config naming the removed approximate `Extracted` strategy
/// fails to load instead of silently running exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// The default.
    #[default]
    Off,
    /// Once "one engine run per connected component"; identical to `Off`.
    Components,
}

/// The engine's propagation kernel. There is one — the row-parallel pull
/// kernel of `engine::pull` — so this type selects nothing: it keeps its
/// name, like [`SimrankConfig::kernel`] and [`SimrankConfig::with_kernel`],
/// only because the frozen `benchmark/` sources and persisted configs and
/// snapshots spell it. A persisted config naming a removed kernel
/// (`"Flat"`, `"Hashmap"`) fails to load instead of silently running pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelKind {
    /// Two Gustavson SpGEMM passes per half-step over CSR score rows with a
    /// dense-scratch workspace; bit-deterministic for any thread count.
    #[default]
    Pull,
}

/// Parameters shared by all SimRank variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimrankConfig {
    /// Query-side decay factor `C1 ∈ (0, 1]` (Eq. 4.1).
    pub c1: f64,
    /// Ad-side decay factor `C2 ∈ (0, 1]` (Eq. 4.2).
    pub c2: f64,
    /// Number of Jacobi iterations `k`. The paper's experiments use a small
    /// fixed number; 7 reproduces Tables 3–4 and is close to converged on
    /// click-graph-like structures.
    pub iterations: usize,
    /// Sparse engines drop pair scores below this threshold after each
    /// iteration. `0.0` disables pruning.
    pub prune_threshold: f64,
    /// Early-exit tolerance: the unified engine stops iterating once the
    /// largest per-pair score change on the end side, two half-steps apart,
    /// falls to or below this (see [`crate::engine`]). `0.0` (default)
    /// disables early exit and runs all `iterations`.
    pub tolerance: f64,
    /// Which §2 edge weight weighted SimRank and Pearson consume.
    pub weight_kind: WeightKind,
    /// Worker threads for the sparse engines. `1` = serial (deterministic
    /// to the last bit), `0` = use all available cores.
    pub threads: usize,
    /// Read by nothing; selects nothing (see [`ShardStrategy`]). Defaults
    /// on deserialize so configs saved before this field existed still load.
    #[serde(default)]
    pub sharding: ShardStrategy,
    /// Always [`KernelKind::Pull`]; selects nothing (see [`KernelKind`]).
    /// Defaults on deserialize like `sharding`.
    #[serde(default)]
    pub kernel: KernelKind,
}

impl Default for SimrankConfig {
    fn default() -> Self {
        SimrankConfig {
            c1: 0.8,
            c2: 0.8,
            iterations: 7,
            prune_threshold: 0.0,
            tolerance: 0.0,
            weight_kind: WeightKind::ExpectedClickRate,
            threads: 1,
            sharding: ShardStrategy::Off,
            kernel: KernelKind::Pull,
        }
    }
}

impl SimrankConfig {
    /// The paper's running configuration: `C1 = C2 = 0.8` (Tables 2–4).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builder-style: set both decay factors.
    pub fn with_decay(mut self, c1: f64, c2: f64) -> Self {
        self.c1 = c1;
        self.c2 = c2;
        self
    }

    /// Builder-style: set the iteration count.
    pub fn with_iterations(mut self, k: usize) -> Self {
        self.iterations = k;
        self
    }

    /// Builder-style: set the pruning threshold.
    pub fn with_prune_threshold(mut self, t: f64) -> Self {
        self.prune_threshold = t;
        self
    }

    /// Builder-style: set the early-exit tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Builder-style: set the edge-weight kind.
    pub fn with_weight_kind(mut self, kind: WeightKind) -> Self {
        self.weight_kind = kind;
        self
    }

    /// Builder-style: set the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: set the shard strategy — a no-op kept for the callers
    /// that spell it (see [`ShardStrategy`]).
    pub fn with_sharding(mut self, sharding: ShardStrategy) -> Self {
        self.sharding = sharding;
        self
    }

    /// Builder-style: set the kernel — a no-op kept for the callers that
    /// spell it (see [`KernelKind`]).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.c1) || !(0.0..=1.0).contains(&self.c2) {
            return Err(format!(
                "decay factors must lie in [0, 1]; got C1={}, C2={}",
                self.c1, self.c2
            ));
        }
        if !self.prune_threshold.is_finite() || self.prune_threshold < 0.0 {
            return Err("prune threshold must be finite and non-negative".into());
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err("tolerance must be finite and non-negative".into());
        }
        Ok(())
    }

    /// The number of worker threads to actually spawn.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimrankConfig::default();
        assert_eq!(c.c1, 0.8);
        assert_eq!(c.c2, 0.8);
        assert_eq!(c.iterations, 7);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = SimrankConfig::default()
            .with_decay(0.6, 0.7)
            .with_iterations(10)
            .with_prune_threshold(1e-4)
            .with_threads(4);
        assert_eq!(c.c1, 0.6);
        assert_eq!(c.c2, 0.7);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.prune_threshold, 1e-4);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn validation_rejects_bad_decay() {
        assert!(SimrankConfig::default()
            .with_decay(1.5, 0.8)
            .validate()
            .is_err());
        assert!(SimrankConfig::default()
            .with_decay(-0.1, 0.8)
            .validate()
            .is_err());
    }

    #[test]
    fn tolerance_builder_and_validation() {
        let c = SimrankConfig::default().with_tolerance(1e-9);
        assert_eq!(c.tolerance, 1e-9);
        assert!(c.validate().is_ok());
        assert!(SimrankConfig::default()
            .with_tolerance(-1.0)
            .validate()
            .is_err());
        assert!(SimrankConfig::default()
            .with_tolerance(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn validation_rejects_bad_threshold() {
        let c = SimrankConfig {
            prune_threshold: f64::NAN,
            ..SimrankConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn sharding_builder_sets_the_unread_field() {
        let c = SimrankConfig::default();
        assert_eq!(c.sharding, ShardStrategy::Off);
        let c = c.with_sharding(ShardStrategy::Components);
        assert_eq!(c.sharding, ShardStrategy::Components);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn deserializes_configs_saved_before_sharding_existed() {
        // Back-compat: `sharding` was added after configs (e.g. inside
        // repro_report.json) were already being persisted, so it must
        // default rather than fail on older JSON.
        let json = serde_json::to_string(&SimrankConfig::default()).unwrap();
        assert!(json.contains("sharding"));
        let legacy = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            match &mut v {
                serde_json::Value::Object(m) => m.remove("sharding"),
                other => panic!("config must serialize to an object, got {}", other.kind()),
            };
            serde_json::to_string(&v).unwrap()
        };
        let c: SimrankConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(c.sharding, ShardStrategy::Off);
    }

    #[test]
    fn kernel_defaults_to_pull_and_deserializes_legacy() {
        let c = SimrankConfig::default();
        assert_eq!(c.kernel, KernelKind::Pull);
        assert_eq!(c.with_kernel(KernelKind::Pull), c);
        // Configs persisted before the kernel field existed must still load.
        let json = serde_json::to_string(&SimrankConfig::default()).unwrap();
        assert!(json.contains("\"kernel\":\"Pull\""), "{json}");
        let legacy = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            match &mut v {
                serde_json::Value::Object(m) => m.remove("kernel"),
                other => panic!("config must serialize to an object, got {}", other.kind()),
            };
            serde_json::to_string(&v).unwrap()
        };
        let c: SimrankConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(c.kernel, KernelKind::Pull);
    }

    #[test]
    fn legacy_kernel_values_are_refused() {
        // A config saved while the flat and hash-map kernels were selectable
        // must not load as if it had asked for pull: its scores would differ
        // at rounding level from what the file claims. Likewise the removed
        // approximate `Extracted` sharding must not load as an exact run.
        let json = serde_json::to_string(&SimrankConfig::default()).unwrap();
        for (current, legacy, needles) in [
            (
                "\"kernel\":\"Pull\"",
                "\"kernel\":\"Flat\"",
                ["Flat", "KernelKind"],
            ),
            (
                "\"kernel\":\"Pull\"",
                "\"kernel\":\"Hashmap\"",
                ["Hashmap", "KernelKind"],
            ),
            (
                "\"sharding\":\"Off\"",
                "\"sharding\":{\"Extracted\":5}",
                ["object", "ShardStrategy"],
            ),
        ] {
            let legacy_json = json.replace(current, legacy);
            assert_ne!(legacy_json, json);
            let err = serde_json::from_str::<SimrankConfig>(&legacy_json)
                .unwrap_err()
                .to_string();
            assert!(needles.iter().all(|n| err.contains(n)), "{legacy}: {err}");
        }
        // `Components` still loads, and selects nothing: same bits as `Off`.
        let components = json.replace("\"sharding\":\"Off\"", "\"sharding\":\"Components\"");
        let on: SimrankConfig = serde_json::from_str(&components).unwrap();
        assert_eq!(on.sharding, ShardStrategy::Components);
        let g = simrankpp_graph::fixtures::figure3_graph();
        let run = |c: &SimrankConfig| crate::engine::run(&g, c, &crate::UniformTransition);
        let (off, on) = (run(&SimrankConfig::default()), run(&on));
        let bits = |m: &crate::ScoreMatrix| -> Vec<(u32, u32, u64)> {
            m.iter().map(|(a, b, v)| (a, b, v.to_bits())).collect()
        };
        assert_eq!(bits(&off.queries), bits(&on.queries));
        assert_eq!(bits(&off.ads), bits(&on.ads));
    }

    #[test]
    fn legacy_mode_key_is_ignored() {
        // Configs persisted while `SimrankConfig` still carried the engine
        // `mode` knob must keep loading: unknown keys are ignored.
        let json = serde_json::to_string(&SimrankConfig::default()).unwrap();
        assert!(!json.contains("mode"));
        let legacy = format!(
            "{},\"mode\":\"SingleSource\"}}",
            json.strip_suffix('}')
                .expect("config serializes to an object")
        );
        let c: SimrankConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(c, SimrankConfig::default());
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(SimrankConfig::default().with_threads(0).effective_threads() >= 1);
        assert_eq!(
            SimrankConfig::default().with_threads(3).effective_threads(),
            3
        );
    }
}
