//! Metric names and the result of one workload run.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run); a layer that does no work in a workload's
//! measured part reads 0 there. The two tables below are the single list of
//! names — `BENCHMARK.json` restates them and a test keeps the two in step.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of each end-to-end metric; see `README.md` for what each
/// means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("request_p99_us", "us"),
    ("refresh_p50_ms", "ms"),
    ("refresh_tail_ms", "ms"),
];

/// `(name, unit)` of each per-layer metric, named `<crate>.<module>.<what>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.generator.generate_s", "s"),
    ("graph.io.write_tsv_s", "s"),
    ("graph.io.read_tsv_s", "s"),
    ("graph.io.tsv_bytes", "count"),
    ("core.engine.run_s", "s"),
    ("core.engine.iterations", "count"),
    ("core.engine.query_pairs", "count"),
    ("core.engine.ad_pairs", "count"),
    ("core.evidence.multiply_s", "s"),
    ("serve.index.build_s", "s"),
    ("core.rewriter.rewrite_ids_us_p50", "us"),
    ("serve.index.entries", "count"),
    ("serve.index.coverage", "ratio"),
    ("serve.index.mean_depth", "ratio"),
    ("serve.index.digest48", "count"),
    ("serve.snapshot.save_s", "s"),
    ("serve.snapshot.bytes", "count"),
    ("serve.mapped.open_us", "us"),
    ("serve.mapped.lookup_ns", "ns/req"),
    ("serve.index.lookup_ns", "ns/req"),
    ("serve.swap.load_ns", "ns/op"),
    ("serve.server.session_ns", "ns/req"),
    ("serve.server.self_ns", "ns/req"),
    ("serve.server.request_p50_us", "us"),
    ("serve.server.response_bytes", "count"),
    ("serve.server.err_share", "ratio"),
    ("serve.net.rtt_p50_us", "us"),
    ("serve.net.rtt_p99_us", "us"),
    ("serve.net.requests_per_s", "1/s"),
    ("core.single_source.precompute_s", "s"),
    ("serve.rowcache.hits", "count"),
    ("serve.rowcache.misses", "count"),
    ("serve.rowcache.hit_ratio", "ratio"),
    ("serve.server.hit_us_p50", "us"),
    ("serve.server.miss_us_p50", "us"),
    ("serve.server.miss_us_p99", "us"),
    ("graph.delta.parse_s", "s"),
    ("graph.delta.log_bytes", "count"),
    ("serve.ingest.apply_s", "s"),
    ("serve.ingest.events_per_s", "1/s"),
    ("graph.window.freeze_ms_p50", "ms"),
    ("serve.ingest.refresh_ms_p50", "ms"),
    ("serve.ingest.refresh_ms_p95", "ms"),
    ("serve.ingest.rows_refreshed", "count"),
    ("serve.ingest.rows_copied", "count"),
    ("serve.ingest.copied_row_share", "ratio"),
    ("serve.ingest.dirty_components_p50", "count"),
    ("serve.checkpoint.write_ms_p50", "ms"),
    ("serve.checkpoint.bytes", "count"),
    ("serve.checkpoint.resume_s", "s"),
    ("serve.ingest.first_build_s", "s"),
    ("serve.ingest.restart_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// A run that fails a million requests still prints a screenful.
const FAILURES_KEPT: usize = 20;

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Requests, builds, epochs and restarts attempted.
    pub ops: u64,
    /// Failed output checks and errored operations.
    pub failed: u64,
    /// What failed: the first [`FAILURES_KEPT`] lines.
    pub failures: Vec<String>,
    /// Human-readable lines: summaries printed beside the medians.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` failed ops of one kind.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if n > 0 && self.failures.len() < FAILURES_KEPT {
            self.failures.push(what);
        }
    }

    /// Counts a failed check; `what` says which output was wrong.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(1, format!("{what}: {e}"));
        }
    }

    /// The metrics this run must print, in table order. An idle layer reads
    /// 0; an end-to-end metric that is missing or not positive is a failure.
    pub fn metrics(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let missing = if traced { 0.0 } else { f64::NAN };
            let value = self.values.get(name).copied().unwrap_or(missing);
            let positive = value.is_finite() && value > 0.0;
            if !traced && !positive {
                self.fail(1, format!("end-to-end metric {name} reads {value}"));
            }
            out.push((name, value, unit));
        }
        out
    }
}

/// The one-line JSON object the run ends with.
pub fn result_json(
    metrics: &[(&'static str, f64, &'static str)],
    ops: u64,
    failed: u64,
    quick: bool,
) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        failed == 0,
        ops.max(1),
        failed
    );
    if quick {
        s.push_str("\"quick\": true, ");
    }
    s.push_str("\"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` lists exactly the workloads this program runs and the
    /// metrics it prints.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for (name, why) in crate::workloads::WORKLOADS {
            let entry = format!("\"name\": \"{name}\", \"why\": \"{why}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"why\":").count(),
            crate::workloads::WORKLOADS.len()
        );
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        assert_eq!(r.get("setup_s"), Some(1.5));
        let m = r.metrics(false);
        assert_eq!(m.len(), END_TO_END.len());
        assert!(r.failures.iter().any(|f| f.contains("peak_rss_mb")));
        let line = result_json(&m, 10, r.failed, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, "));
    }

    #[test]
    fn idle_layers_read_zero() {
        let mut r = Report::default();
        r.set("core.engine.run_s", 2.0);
        let m = r.metrics(true);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(r.failed, 0);
        assert!(m
            .iter()
            .any(|&(n, v, _)| n == "serve.swap.load_ns" && v == 0.0));
    }
}
