//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract with `BENCHMARK.json`
//! (a test checks they agree). Definitions per workload are in
//! `perfbench/METRICS.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mdf_trace::json::escape;

use crate::trace::SelfTimes;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_ms_per_op", "ms"),
    ("fresh_cpu_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_us", "us"),
    ("ir.extract_us", "us"),
    ("ir.loops", "count"),
    ("graph.fingerprint_us", "us"),
    ("graph.edges", "count"),
    ("core.plan_us", "us"),
    ("core.degradations", "count"),
    ("analyze.certify_us", "us"),
    ("analyze.verify_us", "us"),
    ("kernel.lower_us", "us"),
    ("kernel.exec_ms.t1", "ms"),
    ("kernel.exec_ms.tn", "ms"),
    ("kernel.scaling", "ratio"),
    ("kernel.checked_exec_ms.tn", "ms"),
    ("kernel.unchecked_gain", "ratio"),
    ("kernel.barriers", "count"),
    ("kernel.instances", "count"),
    ("kernel.ns_per_instance", "ns"),
    ("kernel.lost_us_per_barrier", "us"),
    ("kernel.fronts", "count"),
    ("kernel.waves", "count"),
    ("kernel.elided", "count"),
    ("kernel.serial_waves", "count"),
    ("sim.unfused_ms", "ms"),
    ("sim.fused_ms", "ms"),
    ("sim.fusion_ratio", "ratio"),
    ("sim.unfused_barriers", "count"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_rejected", "count"),
    ("service.overload_rejections", "count"),
    ("service.deadline_expiries", "count"),
    ("service.recoveries", "count"),
    ("service.fresh_share", "ratio"),
    ("service.cache_lookup_us", "us"),
    ("service.cache_insert_us", "us"),
    ("proto.codec_us", "us"),
    ("service.residue_ms", "ms"),
    ("router.batch_ratio", "ratio"),
    ("router.reroutes", "count"),
    ("router.fair_rejections", "count"),
    ("router.shard_skew", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts for the informational line: config fields, host facts,
    /// sample counts.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Sets the layer-call time metrics from span self times: the mean
    /// per call, in µs.
    pub fn fold_spans(&mut self, times: &SelfTimes) {
        for (metric, span) in [
            ("ir.parse_us", "ir.parse"),
            ("ir.extract_us", "ir.extract"),
            ("graph.fingerprint_us", "graph.fingerprint"),
            ("core.plan_us", "core.plan"),
            ("analyze.certify_us", "analyze.certify"),
            ("analyze.verify_us", "analyze.verify"),
            ("kernel.lower_us", "kernel.lower"),
            ("service.cache_lookup_us", "service.cache_lookup"),
            ("service.cache_insert_us", "service.cache_insert"),
            ("proto.codec_us", "proto.codec"),
        ] {
            self.set(metric, times.mean_us(span));
        }
    }

    /// The informational line printed before the result: every fact as a
    /// JSON string field.
    pub fn facts_line(&self) -> String {
        let mut out = String::from("{\"perfbench\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("}}");
        out
    }

    /// The result line for the metric list `wanted`. Fails when a metric
    /// of the list was not measured or is not a finite number.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
