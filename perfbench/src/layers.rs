//! The workspace's layers, called one by one through their public items,
//! each call wrapped in a span named after its layer.
//!
//! These wrappers are the only place the benchmark touches `mdf-ir`,
//! `mdf-graph`, `mdf-core`, `mdf-analyze` (through `mdf-kernel`),
//! `mdf-kernel` and the service codec directly; the exec workloads time
//! them during set-up and the service workloads replay requests through
//! them.

use mdf_core::{plan_fusion_budgeted, DegradedPlan, FusionPlan};
use mdf_graph::{canonical_fingerprint, Budget, Mldg};
use mdf_ir::retgen::FusedSpec;
use mdf_ir::{extract_mldg, parse_program_spanned, Program};
use mdf_kernel::{BytecodeCert, CompiledKernel, ExecMode, KernelMemory};
use mdf_service::proto::read_frame;
use mdf_service::{Engine, Outcome, Request, Response, Submit};
use mdf_sim::ExecStats;
use mdf_trace::Span;

/// `mdf-ir`: parse a DSL source and extract its MLDG.
pub fn parse(source: &str, span: &Span) -> Result<(Program, Mldg), String> {
    let s = span.child("ir.parse");
    let parsed = parse_program_spanned(source).map_err(|e| format!("parse: {e}"))?;
    drop(s);
    let s = span.child("ir.extract");
    let extracted = extract_mldg(&parsed.program).map_err(|e| format!("extract: {e}"))?;
    drop(s);
    Ok((parsed.program, extracted.graph))
}

/// `mdf-graph`: the canonical fingerprint (the plan-cache key).
pub fn fingerprint(graph: &Mldg, span: &Span) -> u64 {
    let _s = span.child("graph.fingerprint");
    canonical_fingerprint(graph)
}

/// `mdf-core`: plan under an unlimited budget and check the plan, as the
/// daemon does on a cache miss. Returns the plan and the ladder rungs the
/// planner fell past.
pub fn plan(graph: &Mldg, span: &Span) -> Result<(FusionPlan, u64), String> {
    let s = span.child("core.plan");
    let report =
        plan_fusion_budgeted(graph, &Budget::unlimited()).map_err(|e| format!("plan: {e}"))?;
    drop(s);
    let s = span.child("core.verify");
    report
        .verify(graph)
        .map_err(|e| format!("plan check: {e}"))?;
    drop(s);
    let degradations = report.attempts.len().saturating_sub(1) as u64;
    match report.plan {
        DegradedPlan::Fused(p) => Ok((p, degradations)),
        DegradedPlan::Partial(_) => Err("planner fell back to partial fusion".into()),
    }
}

/// A program lowered for fixed bounds, with its certified mode.
pub struct Lowered {
    pub spec: FusedSpec,
    pub mode: ExecMode,
    pub kernel: CompiledKernel,
}

/// `mdf-analyze` race certificate (through `mdf_kernel::plan_mode`) and
/// `mdf-kernel` lowering.
pub fn lower(
    program: &Program,
    graph: &Mldg,
    plan: &FusionPlan,
    n: i64,
    m: i64,
    span: &Span,
) -> Result<Lowered, String> {
    let plan = mdf_sim::align_plan_to_program(graph, program, plan)
        .ok_or("program does not realize its graph")?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    let s = span.child("analyze.certify");
    let mode = mdf_kernel::plan_mode(&spec, &plan);
    drop(s);
    let s = span.child("kernel.lower");
    let kernel = CompiledKernel::compile(&spec, n, m).map_err(|e| format!("lower: {e}"))?;
    drop(s);
    Ok(Lowered { spec, mode, kernel })
}

/// `mdf-analyze` bytecode verifier (through `CompiledKernel::arm`).
pub fn arm(
    kernel: &mut CompiledKernel,
    mode: ExecMode,
    span: &Span,
) -> Result<BytecodeCert, String> {
    let _s = span.child("analyze.verify");
    kernel.arm(mode).map_err(|d| {
        let codes: Vec<&str> = d.iter().map(|d| d.code).collect();
        format!("bytecode verifier rejected the kernel: {codes:?}")
    })
}

/// `mdf-kernel`: one run on fresh memory with `threads` workers.
pub fn exec(
    kernel: &CompiledKernel,
    mode: ExecMode,
    threads: usize,
    span: &Span,
    name: &'static str,
) -> (KernelMemory, ExecStats) {
    let _s = span.child(name);
    rayon::with_workers(threads, || kernel.run_with_threads(mode, threads))
}

/// `mdf-service` codec: a submission and its reply through `encode` and
/// `decode`, as the client and the daemon each do once per request.
pub fn codec(source: &str, n: i64, m: i64, fingerprint: u64, span: &Span) -> Result<(), String> {
    let _s = span.child("proto.codec");
    let req = Request::Submit(submit(source, n, m, "perfbench"));
    let frame = req.encode();
    let payload = read_frame(&mut frame.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty request frame")?;
    if Request::decode(&payload).map_err(|e| e.to_string())? != req {
        return Err("request codec does not round-trip".into());
    }
    let resp = Response::Done(Outcome {
        executed: true,
        fingerprint,
        barriers: 0,
        stmt_instances: 0,
        cache_hit: true,
        recovered: false,
        batched: 1,
        rerouted: false,
        shard: 0,
        plan: "full parallel".into(),
    });
    let frame = resp.encode();
    let payload = read_frame(&mut frame.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty response frame")?;
    match Response::decode(&payload).map_err(|e| e.to_string())? {
        Response::Done(o) if o.fingerprint == fingerprint => Ok(()),
        _ => Err("response codec does not round-trip".into()),
    }
}

/// The submission every benchmark request sends: kernel engine, no
/// client deadline.
pub fn submit(source: &str, n: i64, m: i64, client: &str) -> Submit {
    Submit {
        engine: Engine::Kernel,
        n,
        m,
        deadline_ms: 0,
        client: client.to_string(),
        source: source.to_string(),
    }
}
