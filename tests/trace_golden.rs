//! Golden-file tests for the observability layer.
//!
//! Two artifact families are pinned under `tests/golden/`:
//!
//! * **Structure goldens** (`trace_*.txt`) — the timing-free
//!   [`Profile::structure`] rendering of a traced pipeline run: span
//!   names, nesting, and counters. Any change to where spans open, how
//!   they nest, or what counters the phases report shows up as a diff
//!   here. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
//!   trace_golden`.
//! * **A committed profile document** (`trace_example.jsonl`) — a
//!   schema-v1 JSON-lines profile that must keep validating. This pins
//!   the *reader* side: a validator change that rejects today's format
//!   (or silently accepts a broken one) fails here.
//!
//! The negative tests drive `validate_trace` over malformed documents —
//! unknown version, orphan spans, sibling overlap, interval escape,
//! dishonest `span_count` — and assert the specific violation message.

use std::path::Path;
use std::sync::Arc;

use mdfusion::core::{plan_fusion_traced, Budget, DegradedPlan};
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::FusedSpec;
use mdfusion::kernel::{plan_mode_traced, CompiledKernel};
use mdfusion::sim::align_plan_to_program;
use mdfusion::trace::{validate_trace, MemorySink, Profile, Tracer};

/// Compares `fresh` against the committed golden at
/// `tests/golden/<rel>`; `UPDATE_GOLDEN=1` rewrites it instead.
fn check_golden(rel: &str, fresh: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {rel} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        golden, fresh,
        "golden {rel} is stale; rerun with UPDATE_GOLDEN=1 cargo test --test trace_golden"
    );
}

/// The full single-threaded pipeline for one sample program, traced with
/// the same phase layout the CLI uses: `run` > `parse`, `graph`, `plan`,
/// `lower`, `execute`.
fn pipeline_profile(p: mdfusion::ir::Program, n: i64, m: i64) -> Profile {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let root = tracer.span("run");

    let parse = root.child("parse");
    parse.finish(); // samples are built programmatically; the phase still exists
    let graph_span = root.child("graph");
    let x = extract_mldg(&p).expect("sample extracts");
    graph_span.finish();

    let plan_span = root.child("plan");
    let report =
        plan_fusion_traced(&x.graph, &Budget::unlimited(), &plan_span).expect("sample plans");
    plan_span.finish();
    let DegradedPlan::Fused(plan) = &report.plan else {
        panic!("sample degraded");
    };
    let plan = align_plan_to_program(&x.graph, &p, plan).expect("sample aligns");
    let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());

    let lower = root.child("lower");
    let mode = plan_mode_traced(&spec, &plan, &lower);
    let kernel = CompiledKernel::compile_traced(&spec, n, m, &lower).expect("sample compiles");
    lower.finish();

    let exec = root.child("execute");
    let (_, stats) = kernel.run_with_threads(mode, 1);
    kernel.report_exec(mode, 1, &stats, &exec);
    exec.finish();

    root.finish();
    sink.profile().expect("well-formed span tree")
}

#[test]
fn figure2_pipeline_structure_matches_golden() {
    // Figure 2: cyclic, Algorithm 4, certified row-DOALL.
    let profile = pipeline_profile(mdfusion::ir::samples::figure2_program(), 8, 8);
    check_golden("trace_pipeline_figure2.txt", &profile.structure());
}

#[test]
fn relaxation_pipeline_structure_matches_golden() {
    // Relaxation: the degradation ladder falls through alg4-cyclic to
    // the hyperplane rung; execution takes the wavefront path.
    let profile = pipeline_profile(mdfusion::ir::samples::relaxation_program(), 6, 6);
    check_golden("trace_pipeline_relaxation.txt", &profile.structure());
}

#[test]
fn emitted_profiles_validate_and_nest() {
    for (p, n, m) in [
        (mdfusion::ir::samples::figure2_program(), 8, 8),
        (mdfusion::ir::samples::image_pipeline_program(), 10, 10),
        (mdfusion::ir::samples::relaxation_program(), 6, 6),
    ] {
        let name = p.name.clone();
        let profile = pipeline_profile(p, n, m);
        let doc = profile.to_jsonl("run", "golden-test");
        // validate_trace enforces: header first, known version, parents
        // before children, no orphans, child ⊆ parent intervals,
        // sibling non-overlap, honest span_count.
        let summary = validate_trace(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(summary.spans, profile.structure().lines().count(), "{name}");
        assert_eq!(summary.roots, 1, "{name}");
        assert_eq!(summary.command, "golden-test", "{name}");
    }
}

#[test]
fn committed_example_profile_stays_valid() {
    let doc = include_str!("golden/trace_example.jsonl");
    let summary = validate_trace(doc).expect("committed example profile validates");
    assert_eq!(summary.spans, 6);
    assert_eq!(summary.roots, 1);
    assert!(summary.command.contains("figure2"), "{}", summary.command);
}

// ---------------------------------------------------------------------
// Negative space: the validator must reject each malformation with a
// specific, actionable message.

const HEADER: &str = r#"{"kind":"header","schema_version":1,"name":"mdf-trace","tool":"run","command":"t","span_count":"#;

fn doc(span_count: usize, spans: &[&str]) -> String {
    let mut out = format!("{HEADER}{span_count}}}\n");
    for s in spans {
        out.push_str(s);
        out.push('\n');
    }
    out
}

#[test]
fn validator_rejects_unknown_schema_version() {
    let text = doc(0, &[]).replace("\"schema_version\":1", "\"schema_version\":2");
    let err = validate_trace(&text).unwrap_err();
    assert_eq!(err, "unknown schema_version 2 (expected 1)");
}

#[test]
fn validator_rejects_orphan_spans() {
    let text = doc(
        1,
        &[r#"{"kind":"span","id":1,"parent":7,"name":"x","start_ns":0,"dur_ns":5,"counters":{}}"#],
    );
    let err = validate_trace(&text).unwrap_err();
    assert!(
        err.contains("references parent 7 not yet emitted (orphan)"),
        "{err}"
    );
}

#[test]
fn validator_rejects_overlapping_siblings() {
    let text = doc(
        3,
        &[
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":0,"dur_ns":100,"counters":{}}"#,
            r#"{"kind":"span","id":1,"parent":0,"name":"a","start_ns":0,"dur_ns":60,"counters":{}}"#,
            r#"{"kind":"span","id":2,"parent":0,"name":"b","start_ns":50,"dur_ns":10,"counters":{}}"#,
        ],
    );
    let err = validate_trace(&text).unwrap_err();
    assert!(err.contains("overlap"), "{err}");
}

#[test]
fn validator_rejects_children_escaping_their_parent() {
    let text = doc(
        2,
        &[
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":10,"dur_ns":10,"counters":{}}"#,
            r#"{"kind":"span","id":1,"parent":0,"name":"a","start_ns":5,"dur_ns":30,"counters":{}}"#,
        ],
    );
    let err = validate_trace(&text).unwrap_err();
    assert!(err.contains("escapes its parent"), "{err}");
}

#[test]
fn validator_rejects_dishonest_span_count() {
    let text = doc(
        2,
        &[
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":0,"dur_ns":1,"counters":{}}"#,
        ],
    );
    let err = validate_trace(&text).unwrap_err();
    assert!(err.contains("span_count"), "{err}");
}

#[test]
fn validator_rejects_duplicate_ids_and_bad_counters() {
    let dup = doc(
        2,
        &[
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":0,"dur_ns":9,"counters":{}}"#,
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":9,"dur_ns":1,"counters":{}}"#,
        ],
    );
    assert!(validate_trace(&dup)
        .unwrap_err()
        .contains("duplicate span id 0"));

    let neg = doc(
        1,
        &[
            r#"{"kind":"span","id":0,"parent":null,"name":"r","start_ns":0,"dur_ns":9,"counters":{"k":-1}}"#,
        ],
    );
    assert!(validate_trace(&neg)
        .unwrap_err()
        .contains("not a non-negative integer"));
}
