//! Span recording from the benchmark's own side of each layer call.
//!
//! Each thread that issues work owns one [`Trace`]: a `mdf-trace`
//! [`Tracer`] over a [`MemorySink`]. Its root spans are sequential, so the
//! written profile satisfies the schema-v1 validator behind
//! `mdfuse profile-check` (siblings may not overlap). Spans stay in memory
//! until the run ends; [`Trace::finish`] writes them as JSONL, validates
//! the file and folds the spans into per-name self times.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mdf_trace::{validate_trace, MemorySink, Span, Tracer};

/// A tracer that is either recording into memory or inert.
pub struct Trace {
    tracer: Tracer,
    sink: Option<Arc<MemorySink>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        if !enabled {
            return Trace {
                tracer: Tracer::disabled(),
                sink: None,
            };
        }
        let sink = Arc::new(MemorySink::new());
        Trace {
            tracer: Tracer::new(sink.clone()),
            sink: Some(sink),
        }
    }

    /// A root span; inert when tracing is off.
    pub fn root(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// Writes the recorded spans to `path` as a schema-v1 profile,
    /// validates the file, and returns the self time of every span name.
    /// An inert trace returns empty totals and writes nothing.
    pub fn finish(self, path: &Path, command: &str) -> Result<SelfTimes, String> {
        let Some(sink) = self.sink else {
            return Ok(SelfTimes::default());
        };
        drop(self.tracer);
        let profile = sink.profile()?;
        let text = profile.to_jsonl("perfbench", command);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let written = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        validate_trace(&written).map_err(|e| format!("{}: {e}", path.display()))?;

        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &profile.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut times = SelfTimes::default();
        for s in &profile.spans {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = times.by_name.entry(s.name.clone()).or_default();
            e.0 += own;
            e.1 += 1;
        }
        times.spans = profile.spans.len();
        Ok(times)
    }
}

/// Per span name: total self time (ns) and call count.
#[derive(Default)]
pub struct SelfTimes {
    by_name: BTreeMap<String, (u64, u64)>,
    pub spans: usize,
}

impl SelfTimes {
    pub fn merge(&mut self, other: SelfTimes) {
        for (k, (ns, n)) in other.by_name {
            let e = self.by_name.entry(k).or_default();
            e.0 += ns;
            e.1 += n;
        }
        self.spans += other.spans;
    }

    /// Mean self time per call of span `name`, in microseconds (`0` when
    /// the span never occurred).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }
}
