//! Executing fused, retimed programs — and checking them against the
//! reference interpreter.
//!
//! A fused execution is a sequence of barrier steps, named by a
//! [`Schedule`]:
//! * [`Schedule::Rows`] — one step per fused row. Ascending `J` is the
//!   serialization of any legally-fused loop (all retimed dependences are
//!   `>= (0,0)`); descending `J` is an adversarial serialization that
//!   produces the same result **iff** no dependence binds within a row,
//!   i.e. exactly when the fused loop really is DOALL;
//! * [`Schedule::Wavefront`] — one step per non-empty hyperplane group,
//!   for Algorithm 5 plans;
//! * [`Schedule::Clusters`] — one step per cluster per fused row, for
//!   partial-fusion plans.
//!
//! One private driver runs any range of those steps, with or without a
//! budget meter, behind the plain runs ([`run_fused`], [`run_wavefront`],
//! [`run_partitioned`], …), [`run_budgeted`] and [`run_supervised`].
//! [`check_plan`] runs the full pipeline for a plan and compares every
//! memory image against the original program's.

use std::collections::BTreeMap;
use std::ops::Range;

use mdf_core::{FusionPlan, PartialFusionPlan};
use mdf_graph::mldg::{Mldg, NodeId};
use mdf_graph::{BudgetMeter, IVec2, MdfError};
use mdf_ir::ast::Program;
use mdf_ir::retgen::FusedSpec;
use mdf_retime::{Retiming, Wavefront};

use crate::interp::{eval_expr, run_original, run_original_budgeted, ExecStats, Memory};
use crate::recover::{
    check_resume, deadline_expired, supervise_run, Checkpoint, RetryPolicy, RunOutcome,
    SupervisedOutcome,
};

/// Inner-loop traversal order for fused row execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Ascending `J` (the canonical serialization).
    Ascending,
    /// Descending `J` (adversarial; only valid for DOALL rows).
    Descending,
}

/// The barrier sequence of a fused execution (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule<'a> {
    /// One barrier per fused row, the row swept in the given order.
    Rows(RowOrder),
    /// One barrier per non-empty group of cells sharing `s · (fi, fj)`,
    /// groups ascending.
    Wavefront(Wavefront),
    /// A partial-fusion plan's clusters: within each fused row the
    /// clusters run in order with a barrier after each, each cluster's row
    /// sweep row-DOALL.
    Clusters(&'a [Vec<NodeId>]),
}

impl Schedule<'_> {
    /// The schedule a fully-fused plan executes in: ascending rows for a
    /// full-parallel plan, its hyperplane groups for a wavefront plan.
    pub fn for_plan(plan: &FusionPlan) -> Schedule<'static> {
        match plan {
            FusionPlan::FullParallel { .. } => Schedule::Rows(RowOrder::Ascending),
            FusionPlan::Hyperplane { wavefront, .. } => Schedule::Wavefront(*wavefront),
        }
    }
}

/// A [`Schedule`] resolved against a spec and bounds: step `k` is fused
/// row `outer.lo + k`, wavefront group `k`, or cluster `k % C` of fused
/// row `outer.lo + k / C`.
struct Steps<'s> {
    spec: &'s FusedSpec,
    n: i64,
    m: i64,
    kind: StepKind,
}

enum StepKind {
    /// The fused body order, swept cell by cell in `order`.
    Rows { body: Vec<usize>, order: RowOrder },
    /// The fused body order and the hyperplane groups.
    Groups {
        body: Vec<usize>,
        groups: Vec<Vec<(i64, i64)>>,
    },
    /// Each cluster's members, in fused body order.
    Clusters(Vec<Vec<usize>>),
}

impl<'s> Steps<'s> {
    /// Resolves `schedule`; a typed error for non-executable specs (a
    /// `(0,0)`-dependence cycle between loops) instead of a panic.
    fn new(
        spec: &'s FusedSpec,
        schedule: Schedule<'_>,
        n: i64,
        m: i64,
    ) -> Result<Steps<'s>, MdfError> {
        let body = spec.body_order().ok_or_else(|| {
            MdfError::invalid(
                "fused body has a (0,0)-dependence cycle: the program is not executable",
            )
        })?;
        let kind = match schedule {
            Schedule::Rows(order) => StepKind::Rows { body, order },
            Schedule::Wavefront(w) => StepKind::Groups {
                groups: wavefront_groups(spec, w.schedule, n, m),
                body,
            },
            Schedule::Clusters(clusters) => StepKind::Clusters(
                clusters
                    .iter()
                    .map(|c| {
                        body.iter()
                            .copied()
                            .filter(|&li| c.iter().any(|n| n.index() == li))
                    })
                    .map(Iterator::collect)
                    .collect(),
            ),
        };
        Ok(Steps { spec, n, m, kind })
    }

    /// The number of barriers the schedule executes.
    fn total(&self) -> u64 {
        let rows = self.spec.outer_range(self.n).len() as u64;
        match &self.kind {
            StepKind::Rows { .. } => rows,
            StepKind::Groups { groups, .. } => groups.len() as u64,
            StepKind::Clusters(clusters) => rows * clusters.len() as u64,
        }
    }

    /// Executes step `k` in place, counting statement instances.
    fn exec(&self, k: u64, mem: &mut Memory, stats: &mut ExecStats) {
        let fi0 = self.spec.outer_range(self.n).lo;
        let inner = self.spec.inner_range(self.m);
        let mut at = |order: &[usize], fi: i64, fj: i64| self.exec_at(order, fi, fj, mem, stats);
        match &self.kind {
            StepKind::Rows { body, order } => {
                let fi = fi0 + k as i64;
                match order {
                    RowOrder::Ascending => (inner.lo..=inner.hi).for_each(|fj| at(body, fi, fj)),
                    RowOrder::Descending => {
                        (inner.lo..=inner.hi).rev().for_each(|fj| at(body, fi, fj))
                    }
                }
            }
            StepKind::Groups { body, groups } => {
                for &(fi, fj) in &groups[k as usize] {
                    at(body, fi, fj);
                }
            }
            StepKind::Clusters(clusters) => {
                let c = clusters.len() as u64;
                let fi = fi0 + (k / c) as i64;
                for fj in inner.lo..=inner.hi {
                    at(&clusters[(k % c) as usize], fi, fj);
                }
            }
        }
    }

    /// Executes the active loops of `order` at fused cell `(fi, fj)`.
    fn exec_at(&self, order: &[usize], fi: i64, fj: i64, mem: &mut Memory, stats: &mut ExecStats) {
        for &li in order {
            if !self.spec.node_active(li, fi, fj, self.n, self.m) {
                continue;
            }
            let r = self.spec.offsets[li];
            let (i, j) = (fi + r.x, fj + r.y);
            for s in &self.spec.program.loops[li].stmts {
                let v = eval_expr(mem, &s.rhs, i, j);
                mem.write(&s.lhs, i, j, v);
                stats.stmt_instances += 1;
            }
        }
    }
}

/// The wavefront groups of the fused iteration space: active cells
/// bucketed by `s · (fi, fj)`, ascending.
fn wavefront_groups(spec: &FusedSpec, s: IVec2, n: i64, m: i64) -> Vec<Vec<(i64, i64)>> {
    let orange = spec.outer_range(n);
    let irange = spec.inner_range(m);
    let mut buckets: BTreeMap<i64, Vec<(i64, i64)>> = BTreeMap::new();
    for fi in orange.lo..=orange.hi {
        for fj in irange.lo..=irange.hi {
            if (0..spec.program.loops.len()).any(|l| spec.node_active(l, fi, fj, n, m)) {
                buckets
                    .entry(s.x * fi + s.y * fj)
                    .or_default()
                    .push((fi, fj));
            }
        }
    }
    buckets.into_values().collect()
}

/// The step driver: executes barriers `range` of `steps` over `mem`,
/// booking onto `stats`. With a meter, the top of every barrier re-checks
/// the deadline and consults the `sim.barrier` fault site, and every
/// completed barrier charges its statement instances. A deadline at a
/// barrier top stops the drive there with the memory clean, returning the
/// stop index and the cause; any other meter error propagates.
fn drive(
    steps: &Steps<'_>,
    mem: &mut Memory,
    range: Range<u64>,
    stats: &mut ExecStats,
    mut meter: Option<&mut BudgetMeter>,
) -> Result<Option<(u64, MdfError)>, MdfError> {
    for k in range {
        if let Some(meter) = meter.as_deref_mut() {
            match meter
                .check_deadline()
                .and_then(|()| meter.chaos_site("sim.barrier"))
            {
                Ok(()) => {}
                Err(e) if deadline_expired(&e) => return Ok(Some((k, e))),
                Err(e) => return Err(e),
            }
        }
        let before = stats.stmt_instances;
        steps.exec(k, mem, stats);
        stats.barriers += 1;
        if let Some(meter) = meter.as_deref_mut() {
            meter.charge_iterations(stats.stmt_instances - before)?;
        }
    }
    Ok(None)
}

/// An unmetered run of the whole schedule on fresh memory. Executability
/// of `spec` is a documented precondition of the plain runs.
fn run_plain(spec: &FusedSpec, schedule: Schedule<'_>, n: i64, m: i64) -> (Memory, ExecStats) {
    #[allow(clippy::expect_used)]
    let steps = Steps::new(spec, schedule, n, m)
        .expect("fused spec has a (0,0)-dependence cycle: input was not executable");
    // Guards keep every access within max_offset of [0,n]x[0,m], so the
    // fused run uses the same allocation as the reference interpreter and
    // the final memory images are directly comparable.
    let mut mem = Memory::for_program(&spec.program, n, m, 0);
    let mut stats = ExecStats::default();
    // Without a meter the driver has no gate to stop or fail it.
    let _ = drive(&steps, &mut mem, 0..steps.total(), &mut stats, None);
    (mem, stats)
}

/// Runs the fused program row by row with the chosen inner order.
///
/// One barrier is charged per fused row — the synchronization saving the
/// paper reports (Section 4.2's `7n` vs `n - 2` arithmetic comes from this
/// model plus the unfused one in [`run_original`]).
pub fn run_fused_ordered(spec: &FusedSpec, n: i64, m: i64, order: RowOrder) -> (Memory, ExecStats) {
    run_plain(spec, Schedule::Rows(order), n, m)
}

/// [`run_fused_ordered`] with ascending rows.
pub fn run_fused(spec: &FusedSpec, n: i64, m: i64) -> (Memory, ExecStats) {
    run_plain(spec, Schedule::Rows(RowOrder::Ascending), n, m)
}

/// [`run_fused_ordered`] with descending rows (adversarial DOALL check).
pub fn run_fused_desc(spec: &FusedSpec, n: i64, m: i64) -> (Memory, ExecStats) {
    run_plain(spec, Schedule::Rows(RowOrder::Descending), n, m)
}

/// Runs the fused program in wavefront order: iterations grouped by
/// `t = s · (I, J)`, groups ascending; one barrier per non-empty group.
pub fn run_wavefront(
    spec: &FusedSpec,
    wavefront: Wavefront,
    n: i64,
    m: i64,
) -> (Memory, ExecStats) {
    run_plain(spec, Schedule::Wavefront(wavefront), n, m)
}

/// Runs a partial-fusion plan: within each fused row, the clusters execute
/// in order with a barrier after each (so `clusters.len()` barriers per
/// row); iterations within a cluster's row sweep are independent
/// (row-DOALL per cluster).
pub fn run_partitioned(
    spec: &FusedSpec,
    clusters: &[Vec<NodeId>],
    n: i64,
    m: i64,
) -> (Memory, ExecStats) {
    run_plain(spec, Schedule::Clusters(clusters), n, m)
}

/// Allocation under the budget and the `sim.alloc` fault site.
fn alloc_budgeted(
    spec: &FusedSpec,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Memory, MdfError> {
    meter.chaos_site("sim.alloc")?;
    Memory::for_program_budgeted(&spec.program, n, m, 0, meter)
}

/// Runs `schedule` under a resource budget: a typed error for
/// non-executable specs, cells charged at allocation, the deadline
/// re-checked and statement instances charged at every barrier. Deadline
/// expiry at a barrier top returns [`RunOutcome::Partial`] with the
/// completed barriers and a resumable [`Checkpoint`] instead of
/// discarding them.
///
/// With `resume`, the run continues from a prior partial result instead
/// of fresh memory: the checkpoint is verified against the image and the
/// schedule first, nothing is allocated, and a completed resume is
/// bit-identical to an uninterrupted run.
pub fn run_budgeted(
    spec: &FusedSpec,
    schedule: Schedule<'_>,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
    resume: Option<(Memory, &Checkpoint)>,
) -> Result<RunOutcome<Memory>, MdfError> {
    let (mut mem, checkpoint) = match resume {
        Some((mem, checkpoint)) => (mem, Some(checkpoint)),
        None => (alloc_budgeted(spec, n, m, meter)?, None),
    };
    let steps = Steps::new(spec, schedule, n, m)?;
    let total = steps.total();
    let (start, mut stats) = match checkpoint {
        Some(cp) => {
            check_resume(&mem, cp, total)?;
            (cp.completed_barriers, cp.stats)
        }
        None => (0, ExecStats::default()),
    };
    match drive(&steps, &mut mem, start..total, &mut stats, Some(meter))? {
        None => Ok(RunOutcome::Complete { mem, stats }),
        Some((completed, cause)) => Ok(RunOutcome::partial(mem, completed, stats, cause)),
    }
}

/// Supervised execution: `schedule` driven barrier by barrier through
/// [`supervise_run`] — a checkpoint per barrier, retry with deterministic
/// backoff on recoverable failures, typed partial report once the ladder
/// is exhausted. The interpreter is single-threaded, so the degradation
/// ladder's thread step is a no-op here (the kernel supervisor exercises
/// it for real). With `resume`, the run continues from a prior checkpoint
/// (digest- and range-verified).
pub fn run_supervised(
    spec: &FusedSpec,
    schedule: Schedule<'_>,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
    policy: &RetryPolicy,
    resume: Option<(Memory, Checkpoint)>,
) -> Result<SupervisedOutcome<Memory>, MdfError> {
    let steps = Steps::new(spec, schedule, n, m)?;
    supervise_run(
        steps.total(),
        1,
        policy,
        meter,
        resume,
        |meter| alloc_budgeted(spec, n, m, meter),
        // Each chunk is a one-step drive: the same gate, step and charge
        // as an uninterrupted run, with a deadline stop handed to the
        // supervisor as the recoverable error it is.
        |mem, barrier, _threads, meter| {
            let mut stats = ExecStats::default();
            match drive(&steps, mem, barrier..barrier + 1, &mut stats, Some(meter))? {
                None => Ok(stats.stmt_instances),
                Some((_, cause)) => Err(cause),
            }
        },
    )
}

/// The permutation sending each graph node index to the program loop with
/// the same label. `None` when the program is not a loop-per-node
/// realization of the graph (count mismatch, unknown or duplicated label).
fn node_to_loop_map(g: &Mldg, p: &Program) -> Option<Vec<usize>> {
    if p.loops.len() != g.node_count() {
        return None;
    }
    let mut map = vec![usize::MAX; g.node_count()];
    for (li, l) in p.loops.iter().enumerate() {
        let n = g.node_by_label(&l.label)?;
        if map[n.index()] != usize::MAX {
            return None;
        }
        map[n.index()] = li;
    }
    Some(map)
}

/// Re-indexes a graph-node-indexed retiming into program-loop order.
fn align_retiming(map: &[usize], r: &Retiming) -> Option<Retiming> {
    let offs = r.offsets();
    if offs.len() != map.len() {
        return None;
    }
    let mut out = vec![IVec2::ZERO; offs.len()];
    for (ni, &li) in map.iter().enumerate() {
        out[li] = offs[ni];
    }
    Some(Retiming::from_offsets(out))
}

/// A fusion plan's retiming is indexed by MLDG node, but a program
/// realized from that graph may order its loops differently (any textual
/// order of the zero-distance subgraph is valid, and the realizer must
/// follow one). Re-index the plan by matching loop labels to node labels
/// so it can be executed against the program; `None` when the program is
/// not a loop-per-node realization of the graph.
pub fn align_plan_to_program(g: &Mldg, p: &Program, plan: &FusionPlan) -> Option<FusionPlan> {
    let map = node_to_loop_map(g, p)?;
    let retiming = align_retiming(&map, plan.retiming())?;
    Some(match plan {
        FusionPlan::FullParallel { method, .. } => FusionPlan::FullParallel {
            retiming,
            method: *method,
        },
        FusionPlan::Hyperplane { wavefront, .. } => FusionPlan::Hyperplane {
            retiming,
            wavefront: *wavefront,
        },
    })
}

/// [`align_plan_to_program`] for partial-fusion plans: permutes both the
/// retiming and every cluster's node ids into program-loop order.
pub fn align_partial_to_program(
    g: &Mldg,
    p: &Program,
    plan: &PartialFusionPlan,
) -> Option<PartialFusionPlan> {
    let map = node_to_loop_map(g, p)?;
    let retiming = align_retiming(&map, &plan.retiming)?;
    let clusters = plan
        .clusters
        .iter()
        .map(|c| c.iter().map(|n| NodeId(map[n.index()] as u32)).collect())
        .collect();
    Some(PartialFusionPlan { clusters, retiming })
}

/// Why a plan failed simulation-based checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The fused execution's final memory differs from the original's.
    ResultMismatch {
        /// Which execution differed.
        mode: &'static str,
    },
    /// A full-parallel plan's rows are not actually independent: the
    /// descending-order run produced a different result.
    NotDoall,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ResultMismatch { mode } => {
                write!(
                    f,
                    "{mode} execution result differs from the original program"
                )
            }
            SimError::NotDoall => write!(
                f,
                "claimed-DOALL fused loop produced different results under reversed row order"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Counters from a successful [`check_plan`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Barriers of the original (unfused) execution.
    pub original_barriers: u64,
    /// Barriers of the fused execution (rows or hyperplane steps).
    pub fused_barriers: u64,
    /// Statement instances (identical in both by construction).
    pub stmt_instances: u64,
}

/// End-to-end check of a fusion plan on a program:
///
/// 1. run the original program;
/// 2. run the fused program per the plan (row-major, plus descending-row
///    for full-parallel plans, plus wavefront order for hyperplane plans);
/// 3. require every final memory image to be identical.
pub fn check_plan(
    program: &Program,
    plan: &FusionPlan,
    n: i64,
    m: i64,
) -> Result<SimReport, SimError> {
    let (reference, ref_stats) = run_original(program, n, m);
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());

    let (fused_mem, fused_stats) = run_fused(&spec, n, m);
    if fused_mem != reference {
        return Err(SimError::ResultMismatch { mode: "row-major" });
    }
    // Report the barrier count of the plan's *parallel* execution: fused
    // rows for full-parallel plans, hyperplane steps for wavefront plans.
    let fused_barriers = match plan {
        FusionPlan::FullParallel { .. } => {
            let (desc_mem, _) = run_fused_desc(&spec, n, m);
            if desc_mem != reference {
                return Err(SimError::NotDoall);
            }
            fused_stats.barriers
        }
        FusionPlan::Hyperplane { wavefront, .. } => {
            let (wf_mem, wf_stats) = run_wavefront(&spec, *wavefront, n, m);
            if wf_mem != reference {
                return Err(SimError::ResultMismatch { mode: "wavefront" });
            }
            wf_stats.barriers
        }
    };
    Ok(SimReport {
        original_barriers: ref_stats.barriers,
        fused_barriers,
        stmt_instances: ref_stats.stmt_instances,
    })
}

/// [`check_plan`] under a resource budget. The outer `Result` reports
/// abnormal termination (a budget trip); the inner one is the differential
/// verdict itself, exactly as [`check_plan`] would return it.
#[allow(clippy::type_complexity)]
pub fn check_plan_budgeted(
    program: &Program,
    plan: &FusionPlan,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Result<SimReport, SimError>, MdfError> {
    let (reference, ref_stats) = run_original_budgeted(program, n, m, meter)?;
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());

    // A partial run cannot support a differential verdict, so the typed
    // cause propagates as abnormal termination here (`into_complete`).
    let (fused_mem, fused_stats) = run_budgeted(
        &spec,
        Schedule::Rows(RowOrder::Ascending),
        n,
        m,
        meter,
        None,
    )?
    .into_complete()?;
    if fused_mem != reference {
        return Ok(Err(SimError::ResultMismatch { mode: "row-major" }));
    }
    let fused_barriers = match plan {
        FusionPlan::FullParallel { .. } => {
            let (desc_mem, _) = run_budgeted(
                &spec,
                Schedule::Rows(RowOrder::Descending),
                n,
                m,
                meter,
                None,
            )?
            .into_complete()?;
            if desc_mem != reference {
                return Ok(Err(SimError::NotDoall));
            }
            fused_stats.barriers
        }
        FusionPlan::Hyperplane { wavefront, .. } => {
            let (wf_mem, wf_stats) =
                run_budgeted(&spec, Schedule::Wavefront(*wavefront), n, m, meter, None)?
                    .into_complete()?;
            if wf_mem != reference {
                return Ok(Err(SimError::ResultMismatch { mode: "wavefront" }));
            }
            wf_stats.barriers
        }
    };
    Ok(Ok(SimReport {
        original_barriers: ref_stats.barriers,
        fused_barriers,
        stmt_instances: ref_stats.stmt_instances,
    }))
}

/// Differentially checks a partial-fusion plan under a resource budget:
/// the clustered execution must reproduce the original program's memory
/// image exactly. Same nesting convention as [`check_plan_budgeted`].
#[allow(clippy::type_complexity)]
pub fn check_partial_budgeted(
    program: &Program,
    plan: &PartialFusionPlan,
    n: i64,
    m: i64,
    meter: &mut BudgetMeter,
) -> Result<Result<SimReport, SimError>, MdfError> {
    let (reference, ref_stats) = run_original_budgeted(program, n, m, meter)?;
    let spec = FusedSpec::new(program.clone(), plan.retiming.offsets().to_vec());
    let (part_mem, part_stats) =
        run_budgeted(&spec, Schedule::Clusters(&plan.clusters), n, m, meter, None)?
            .into_complete()?;
    if part_mem != reference {
        return Ok(Err(SimError::ResultMismatch {
            mode: "partitioned",
        }));
    }
    Ok(Ok(SimReport {
        original_barriers: ref_stats.barriers,
        fused_barriers: part_stats.barriers,
        stmt_instances: ref_stats.stmt_instances,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_core::plan_fusion;
    use mdf_graph::v2;
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, image_pipeline_program, relaxation_program};

    fn plan_for(p: &Program) -> FusionPlan {
        let x = extract_mldg(p).unwrap();
        plan_fusion(&x.graph).unwrap()
    }

    #[test]
    fn alignment_fixes_permuted_realizations() {
        // Fuzzer-found (seed 42, case 500): a graph whose only valid
        // textual order reverses its node order. Realizing it permutes
        // the loops, so applying the graph-indexed retiming positionally
        // races; aligning by label makes the differential check pass.
        let mut g = Mldg::new();
        let n3 = g.add_node("N3");
        let n4 = g.add_node("N4");
        g.add_dep(n4, n3, (0, 2));
        let p = mdf_gen_realize(&g);
        assert_eq!(p.loops[0].label, "N4", "realizer must follow textual order");
        let plan = plan_fusion(&g).unwrap();
        let aligned = align_plan_to_program(&g, &p, &plan).unwrap();
        check_plan(&p, &aligned, 10, 10).unwrap();
        // The unaligned plan misassigns the offsets and is caught.
        assert!(check_plan(&p, &plan, 10, 10).is_err());
    }

    /// A minimal loop-per-node realization (mirrors `mdf-gen`'s, which
    /// this crate cannot depend on): each node becomes a loop, in textual
    /// order, reading each producer at the dependence offset.
    fn mdf_gen_realize(g: &Mldg) -> Program {
        use mdf_ir::ast::{ArrayRef, BinOp, Expr, Stmt};
        let order = mdf_graph::legality::textual_order(g).unwrap();
        let mut p = Program::new("realized");
        let arrays: Vec<usize> = g
            .node_ids()
            .map(|n| p.add_array(format!("a_{}", g.label(n).to_lowercase())))
            .collect();
        let input = p.add_array("input");
        for &v in &order {
            let mut expr = Expr::Ref(ArrayRef::new(input, 0, 0));
            for &e in g.in_edges(v) {
                let u = g.edge(e).src;
                for d in g.deps(e).iter() {
                    let r = Expr::Ref(ArrayRef::new(arrays[u.index()], -d.x, -d.y));
                    expr = Expr::bin(BinOp::Add, expr, r);
                }
            }
            p.add_loop(
                g.label(v).to_string(),
                vec![Stmt {
                    lhs: ArrayRef::new(arrays[v.index()], 0, 0),
                    rhs: expr,
                }],
            );
        }
        p
    }

    #[test]
    fn align_rejects_mismatched_programs() {
        let mut g = Mldg::new();
        g.add_node("A");
        g.add_node("B");
        let p = figure2_program(); // four loops, different labels
        let plan = FusionPlan::FullParallel {
            retiming: mdf_retime::Retiming::identity(2),
            method: mdf_core::FullParallelMethod::Cyclic,
        };
        assert!(align_plan_to_program(&g, &p, &plan).is_none());
    }

    #[test]
    fn figure2_plan_passes_end_to_end() {
        let p = figure2_program();
        let plan = plan_for(&p);
        assert!(plan.is_full_parallel());
        let report = check_plan(&p, &plan, 12, 9).unwrap();
        // Original: 4 barriers per outer iteration, 13 iterations = 52.
        assert_eq!(report.original_barriers, 52);
        // Fused: one barrier per fused row; r.x in {-1,0} so rows = n+2 = 14.
        assert_eq!(report.fused_barriers, 14);
    }

    #[test]
    fn image_pipeline_plan_passes_end_to_end() {
        let p = image_pipeline_program();
        let plan = plan_for(&p);
        assert!(plan.is_full_parallel());
        check_plan(&p, &plan, 10, 10).unwrap();
    }

    #[test]
    fn relaxation_needs_hyperplane_and_passes() {
        let p = relaxation_program();
        let plan = plan_for(&p);
        assert!(!plan.is_full_parallel(), "both edges are hard");
        check_plan(&p, &plan, 10, 10).unwrap();
    }

    #[test]
    fn unretimed_fusion_of_figure2_changes_results() {
        // Figure 4: fusing without retiming is illegal; the simulator must
        // catch the wrong values (c[i][j] reads b[i][j+2] before it is
        // computed).
        let p = figure2_program();
        let (reference, _) = run_original(&p, 8, 8);
        let spec = FusedSpec::unretimed(p);
        let (fused, _) = run_fused(&spec, 8, 8);
        assert_ne!(fused, reference);
    }

    #[test]
    fn llofra_only_retiming_is_legal_but_serial() {
        // Figure 6's retiming fuses legally (row-major matches the
        // original) but the inner loop is serial: descending order differs.
        let p = figure2_program();
        let spec = FusedSpec::new(p.clone(), vec![v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
        let (reference, _) = run_original(&p, 8, 8);
        let (asc, _) = run_fused(&spec, 8, 8);
        assert_eq!(asc, reference);
        let (desc, _) = run_fused_desc(&spec, 8, 8);
        assert_ne!(desc, reference, "Figure 7 shows intra-row dependences");
    }

    #[test]
    fn small_bounds_edge_cases() {
        // n = 0 or m = 0: prologue/epilogue regions dominate; the guarded
        // execution must still be exact.
        let p = figure2_program();
        let plan = plan_for(&p);
        for (n, m) in [(0, 0), (0, 5), (5, 0), (1, 1), (2, 3)] {
            check_plan(&p, &plan, n, m).unwrap_or_else(|e| panic!("bounds ({n},{m}): {e}"));
        }
    }

    #[test]
    fn wavefront_respects_schedule_grouping() {
        let p = relaxation_program();
        let plan = plan_for(&p);
        let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
        let w = plan.wavefront().unwrap();
        let (mem, stats) = run_wavefront(&spec, w, 6, 6);
        let (reference, _) = run_original(&p, 6, 6);
        assert_eq!(mem, reference);
        assert!(stats.barriers > 0);
    }
}

#[cfg(test)]
mod budgeted_tests {
    use super::*;
    use mdf_core::{fuse_partial, plan_fusion};
    use mdf_graph::{Budget, BudgetResource};
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, relaxation_program};

    #[test]
    fn budgeted_check_matches_plain_when_unlimited() {
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let plain = check_plan(&p, &plan, 10, 8).unwrap();
        let mut meter = Budget::unlimited().meter();
        let budgeted = check_plan_budgeted(&p, &plan, 10, 8, &mut meter)
            .unwrap()
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn budgeted_wavefront_check_matches_plain() {
        let p = relaxation_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let plain = check_plan(&p, &plan, 8, 8).unwrap();
        let mut meter = Budget::unlimited().meter();
        let budgeted = check_plan_budgeted(&p, &plan, 8, 8, &mut meter)
            .unwrap()
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn iteration_budget_trips_the_differential_check() {
        let p = figure2_program();
        let plan = plan_fusion(&extract_mldg(&p).unwrap().graph).unwrap();
        let mut meter = Budget::unlimited().with_max_iterations(20).meter();
        match check_plan_budgeted(&p, &plan, 10, 8, &mut meter) {
            Err(MdfError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn budgeted_partial_check_passes_on_relaxation() {
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        let mut meter = Budget::unlimited().meter();
        let report = check_partial_budgeted(&p, &plan, 10, 10, &mut meter)
            .unwrap()
            .unwrap();
        assert!(report.original_barriers > 0);
    }

    #[test]
    fn unretimed_fusion_reported_as_mismatch_not_panic() {
        // Figure 4's illegal fusion must surface as a structured verdict.
        let p = figure2_program();
        let spec = FusedSpec::unretimed(p.clone());
        let mut meter = Budget::unlimited().meter();
        let (reference, _) = run_original(&p, 8, 8);
        let rows = Schedule::Rows(RowOrder::Ascending);
        let (fused, _) = run_budgeted(&spec, rows, 8, 8, &mut meter, None)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_ne!(fused, reference);
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;
    use mdf_core::partial::{fuse_partial, verify_partial};
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::{figure2_program, relaxation_program};

    #[test]
    fn relaxation_partial_plan_executes_correctly() {
        // E5: Algorithm 4 fails; partial fusion finds 2 row-DOALL clusters.
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).expect("2-cluster solution exists");
        assert_eq!(plan.clusters.len(), 2);
        assert!(verify_partial(&g, &plan));
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, orig_stats) = run_original(&p, 14, 14);
        let (part_mem, part_stats) = run_partitioned(&spec, &plan.clusters, 14, 14);
        assert_eq!(part_mem, reference);
        // 2 barriers per row here equals the unfused count (2 loops) — the
        // value shows on graphs where clusters merge more than one loop.
        assert_eq!(part_stats.barriers, orig_stats.barriers);
    }

    #[test]
    fn figure2_partial_plan_is_single_cluster_and_matches_fused() {
        let p = figure2_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        assert_eq!(plan.clusters.len(), 1);
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, _) = run_original(&p, 10, 10);
        let (mem, stats) = run_partitioned(&spec, &plan.clusters, 10, 10);
        assert_eq!(mem, reference);
        // One cluster: one barrier per fused row.
        assert_eq!(stats.barriers, spec.outer_range(10).len() as u64);
    }

    #[test]
    fn partial_clusters_are_row_doall_individually() {
        // Adversarial check: reversing J within each cluster's sweep must
        // not change results (each cluster is row-DOALL by construction).
        let p = relaxation_program();
        let g = extract_mldg(&p).unwrap().graph;
        let plan = fuse_partial(&g).unwrap();
        let spec = FusedSpec::new(p.clone(), plan.retiming.offsets().to_vec());
        let (reference, _) = run_original(&p, 12, 12);
        // Hand-rolled reversed-J partitioned execution.
        let body = spec.body_order().unwrap();
        let mut mem = Memory::for_program(&spec.program, 12, 12, 0);
        let orange = spec.outer_range(12);
        let irange = spec.inner_range(12);
        for fi in orange.lo..=orange.hi {
            for cluster in &plan.clusters {
                let members: Vec<usize> = body
                    .iter()
                    .copied()
                    .filter(|li| cluster.iter().any(|n| n.index() == *li))
                    .collect();
                for fj in (irange.lo..=irange.hi).rev() {
                    for &li in &members {
                        if !spec.node_active(li, fi, fj, 12, 12) {
                            continue;
                        }
                        let r = spec.offsets[li];
                        let (i, j) = (fi + r.x, fj + r.y);
                        for s in &spec.program.loops[li].stmts {
                            let v = eval_expr(&mem, &s.rhs, i, j);
                            mem.write(&s.lhs, i, j, v);
                        }
                    }
                }
            }
        }
        assert_eq!(mem, reference);
    }
}
