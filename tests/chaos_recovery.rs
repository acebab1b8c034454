//! Checkpoint/resume soundness under injected faults: the fault-injection
//! layer's core invariant.
//!
//! For every executable workload, every execution mode (planned, forced
//! multi-worker, serial fallback), and **every barrier index**, a run
//! interrupted at that barrier and resumed from its checkpoint must be
//! bit-identical to an uninterrupted run — same memory fingerprint, same
//! barrier and statement-instance counters (the numbers the mdf-trace
//! counters mirror, see `trace_determinism.rs`). The supervised executor
//! must additionally *absorb* transient worker panics at any barrier
//! without help, and report what recovery did.

use mdfusion::chaos::{FaultKind, FaultPlan};
use mdfusion::core::fuse_partial;
use mdfusion::core::{plan_fusion, Budget, FusionPlan};
use mdfusion::gen::{executable_suite, random_program, ProgramGenConfig};
use mdfusion::graph::MdfError;
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::samples::relaxation_program;
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode};
use mdfusion::sim::{
    align_partial_to_program, run_budgeted, run_fused_ordered, run_partitioned, run_supervised,
    run_wavefront, ExecStats, Memory, RetryPolicy, RowOrder, RunOutcome, Schedule,
    SupervisedOutcome,
};
use proptest::prelude::*;

const N: i64 = 9;
const M: i64 = 8;

/// Plans `p` and lowers it: the fused spec, its aligned plan, the chosen
/// kernel mode, and the compiled kernel. `None` when the planner (by
/// design) does not reach a fused schedule.
fn artifacts(p: &Program) -> Option<(FusedSpec, FusionPlan, ExecMode, CompiledKernel)> {
    let graph = extract_mldg(p).ok()?.graph;
    let plan = plan_fusion(&graph).ok()?;
    let plan = mdfusion::sim::align_plan_to_program(&graph, p, &plan)?;
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, N, M).ok()?;
    Some((spec, plan, mode, kernel))
}

/// Interrupt the kernel with an injected deadline at barrier `b`, resume
/// from the partial result's checkpoint, and demand bit-identity.
fn kernel_interrupt_resume(kernel: &CompiledKernel, mode: ExecMode, b: u64, name: &str) {
    let (want_mem, want_stats) = kernel.run_with_threads(mode, 1);
    let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, b).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let out = kernel
        .run_budgeted(mode, &mut meter, None)
        .expect("injected deadline is a partial result, not an error");
    let RunOutcome::Partial {
        mem, checkpoint, ..
    } = out
    else {
        panic!("{name}: deadline at barrier {b} must stop the run");
    };
    assert_eq!(guard.injected(), 1, "{name}");
    assert_eq!(checkpoint.completed_barriers, b - 1, "{name}");
    drop(guard);

    let mut clean = Budget::unlimited().meter();
    let (rmem, rstats) = kernel
        .run_budgeted(mode, &mut clean, Some((mem, checkpoint)))
        .expect("resume plans within budget")
        .into_complete()
        .expect("clean resume runs to completion");
    assert_eq!(
        rmem.fingerprint(),
        want_mem.fingerprint(),
        "{name}: resumed fingerprint diverged (barrier {b})"
    );
    assert_eq!(rstats, want_stats, "{name}: resumed counters (barrier {b})");
}

#[test]
fn kernel_interrupted_at_every_barrier_resumes_bit_identically() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((_, _, planned, kernel)) = artifacts(&p) else {
            continue;
        };
        // Planned mode and the serial fallback: both checkpoint at every
        // barrier and must resume identically.
        for mode in [planned, ExecMode::RowsSerial] {
            let total = kernel.barrier_count(mode);
            assert!(total > 1, "{}: needs at least two barriers", entry.id);
            for b in 1..=total {
                kernel_interrupt_resume(&kernel, mode, b, entry.id);
            }
        }
    }
}

/// Interrupt the interpreter with an injected deadline at every barrier
/// of `schedule`, resume each partial result from its checkpoint, and
/// demand bit-identity with the uninterrupted plain run `want`.
fn interp_interrupt_resume_everywhere(
    spec: &FusedSpec,
    schedule: Schedule<'_>,
    (want_mem, want_stats): (Memory, ExecStats),
    name: &str,
) {
    assert!(
        want_stats.barriers > 1,
        "{name}: needs at least two barriers"
    );
    for b in 1..=want_stats.barriers {
        let guard = FaultPlan::single("sim.barrier", FaultKind::DeadlineExpiry, b).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = run_budgeted(spec, schedule, N, M, &mut meter, None)
            .expect("injected deadline is a partial result, not an error");
        let RunOutcome::Partial {
            mem, checkpoint, ..
        } = out
        else {
            panic!("{name}: deadline at barrier {b} must stop the run");
        };
        assert_eq!(checkpoint.completed_barriers, b - 1, "{name}");
        drop(guard);

        let mut clean = Budget::unlimited().meter();
        let (rmem, rstats) =
            run_budgeted(spec, schedule, N, M, &mut clean, Some((mem, &checkpoint)))
                .expect("resume runs within budget")
                .into_complete()
                .expect("clean resume runs to completion");
        assert_eq!(
            rmem.fingerprint(),
            want_mem.fingerprint(),
            "{name}: interpreter resumed fingerprint (barrier {b})"
        );
        assert_eq!(rstats, want_stats, "{name}: interpreter counters");
    }
}

#[test]
fn interpreter_interrupted_at_every_barrier_resumes_bit_identically() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((spec, plan, _, _)) = artifacts(&p) else {
            continue;
        };
        let want = match &plan {
            FusionPlan::FullParallel { .. } => run_fused_ordered(&spec, N, M, RowOrder::Ascending),
            FusionPlan::Hyperplane { wavefront, .. } => run_wavefront(&spec, *wavefront, N, M),
        };
        interp_interrupt_resume_everywhere(&spec, Schedule::for_plan(&plan), want, entry.id);
    }

    // The cluster schedule of a partial-fusion plan: relaxation splits
    // into two row-DOALL clusters, two barriers per fused row.
    let p = relaxation_program();
    let graph = extract_mldg(&p).expect("relaxation extracts").graph;
    let plan = fuse_partial(&graph).expect("a 2-cluster solution exists");
    let plan = align_partial_to_program(&graph, &p, &plan).expect("relaxation aligns");
    assert_eq!(plan.clusters.len(), 2);
    let spec = FusedSpec::new(p, plan.retiming.offsets().to_vec());
    let want = run_partitioned(&spec, &plan.clusters, N, M);
    let clusters = Schedule::Clusters(&plan.clusters);
    interp_interrupt_resume_everywhere(&spec, clusters, want, "relaxation-partial");
}

/// A checkpoint past the end of the schedule it is presented to — here a
/// late wavefront partial resumed as rows over the same memory layout,
/// whose digest matches — must be refused, not reported `Complete` over
/// an empty range with a half-computed image.
#[test]
fn interpreter_resume_past_the_end_of_the_schedule_is_rejected() {
    let entry = executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let (spec, plan, _, _) = artifacts(&p).expect("E5 plans");
    let wavefront = Schedule::for_plan(&plan);
    let rows = Schedule::Rows(RowOrder::Ascending);
    let rows_total = run_fused_ordered(&spec, N, M, RowOrder::Ascending)
        .1
        .barriers;

    let last = run_wavefront(
        &spec,
        plan.wavefront().expect("E5 is a wavefront plan"),
        N,
        M,
    )
    .1
    .barriers;
    assert!(last > rows_total + 1, "E5's wavefront outlasts its rows");
    let guard = FaultPlan::single("sim.barrier", FaultKind::DeadlineExpiry, last).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let RunOutcome::Partial {
        mem, checkpoint, ..
    } = run_budgeted(&spec, wavefront, N, M, &mut meter, None).expect("partial result")
    else {
        panic!("deadline at the last barrier must stop the run");
    };
    drop(guard);
    assert!(checkpoint.completed_barriers > rows_total);

    let mut clean = Budget::unlimited().meter();
    let resumed = run_budgeted(
        &spec,
        rows,
        N,
        M,
        &mut clean,
        Some((mem.clone(), &checkpoint)),
    );
    assert!(
        matches!(resumed, Err(MdfError::Invalid { .. })),
        "budgeted: {resumed:?}"
    );
    let policy = RetryPolicy::deterministic();
    let supervised = run_supervised(
        &spec,
        rows,
        N,
        M,
        &mut clean,
        &policy,
        Some((mem, checkpoint)),
    );
    assert!(
        matches!(supervised, Err(MdfError::Invalid { .. })),
        "supervised: {supervised:?}"
    );
}

/// [`interpreter_resume_past_the_end_of_the_schedule_is_rejected`] on the
/// kernel: a late wavefront-group partial presented to the row modes.
#[test]
fn kernel_resume_past_the_end_of_the_schedule_is_rejected() {
    let entry = executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let (_, plan, _, kernel) = artifacts(&p).expect("E5 plans");
    let schedule = plan.wavefront().expect("E5 is a wavefront plan").schedule;
    // The untiled group drive: one barrier per hyperplane group.
    let groups = ExecMode::Wavefront {
        schedule,
        certified: false,
        elide: false,
    };
    let rows_total = kernel.barrier_count(ExecMode::RowsSerial);
    let last = kernel.barrier_count(groups);
    assert!(last > rows_total + 1, "E5's wavefront outlasts its rows");
    let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, last).arm();
    let mut meter = Budget::unlimited().with_chaos().meter();
    let RunOutcome::Partial {
        mem, checkpoint, ..
    } = kernel
        .run_budgeted(groups, &mut meter, None)
        .expect("partial result")
    else {
        panic!("deadline at the last barrier must stop the run");
    };
    drop(guard);
    assert!(checkpoint.completed_barriers > rows_total);

    let mut clean = Budget::unlimited().meter();
    let policy = RetryPolicy::deterministic();
    for rows in [ExecMode::RowsSerial, ExecMode::RowsCertified] {
        let resumed = kernel.run_budgeted(rows, &mut clean, Some((mem.clone(), checkpoint)));
        assert!(
            matches!(resumed, Err(MdfError::Invalid { .. })),
            "budgeted {rows:?}: {resumed:?}"
        );
        let resume = Some((mem.clone(), checkpoint));
        let supervised = kernel.run_supervised(rows, 2, &policy, &mut clean, resume);
        assert!(
            matches!(supervised, Err(MdfError::Invalid { .. })),
            "supervised {rows:?}: {supervised:?}"
        );
    }
}

#[test]
fn supervisor_absorbs_worker_panics_at_every_barrier() {
    for entry in executable_suite() {
        let p = entry.program.expect("executable suite has programs");
        let Some((_, _, planned, kernel)) = artifacts(&p) else {
            continue;
        };
        let policy = RetryPolicy::deterministic();
        // Planned mode single-worker, forced multi-worker, and the serial
        // fallback all recover in place — no caller-driven resume needed.
        for (mode, threads) in [(planned, 1), (planned, 4), (ExecMode::RowsSerial, 1)] {
            let (want_mem, want_stats) = kernel.run_with_threads(mode, threads);
            let total = kernel.barrier_count(mode);
            for b in 1..=total {
                let guard = FaultPlan::single("kernel.barrier", FaultKind::WorkerPanic, b).arm();
                let mut meter = Budget::unlimited().with_chaos().meter();
                let out = kernel
                    .run_supervised(mode, threads, &policy, &mut meter, None)
                    .expect("supervised run does not surface recoverable faults");
                assert_eq!(guard.injected(), 1, "{}", entry.id);
                drop(guard);
                let SupervisedOutcome::Complete {
                    mem,
                    stats,
                    recovery,
                } = out
                else {
                    panic!(
                        "{}: one transient panic (barrier {b}) must not end partial",
                        entry.id
                    );
                };
                assert_eq!(
                    mem.fingerprint(),
                    want_mem.fingerprint(),
                    "{}: supervised fingerprint (barrier {b}, {threads} workers)",
                    entry.id
                );
                assert_eq!(stats, want_stats, "{}: supervised counters", entry.id);
                assert_eq!(recovery.retries, 1, "{}", entry.id);
                assert!(recovery.resumes >= 1, "{}", entry.id);
                assert_eq!(recovery.checkpoints_taken, total, "{}", entry.id);
            }
        }
    }
}

/// The sweeps above cover whatever mode the planner picks — but a silent
/// regression from the tiled wavefront back to the untiled one would
/// weaken them without failing anything. Pin the elided path explicitly:
/// E5 must plan a certified, elision-licensed wavefront, and with the
/// tile grid at a shape big enough for a multi-wave anti-diagonal
/// schedule, a run interrupted at **every tile-wave boundary** (deadline)
/// and a supervised run panicked at every wave must both land
/// bit-identical, with exactly one checkpoint per post-elision sync.
#[test]
fn tiled_wavefront_recovers_at_every_wave_boundary() {
    let entry = mdfusion::gen::executable_suite()
        .into_iter()
        .find(|e| e.id == "E5")
        .expect("E5 is executable");
    let p = entry.program.expect("executable suite has programs");
    let graph = extract_mldg(&p).expect("E5 extracts").graph;
    let plan = plan_fusion(&graph).expect("E5 plans");
    let plan = mdfusion::sim::align_plan_to_program(&graph, &p, &plan).expect("E5 aligns");
    let spec = FusedSpec::new(p, plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    assert!(
        matches!(
            mode,
            ExecMode::Wavefront {
                certified: true,
                elide: true,
                ..
            }
        ),
        "E5 must carry the elision license, got {mode:?}"
    );
    let kernel = CompiledKernel::compile(&spec, 48, 48).expect("E5 compiles");
    let tp = kernel.tile_plan(mode).expect("elision-licensed mode tiles");
    let total = kernel.barrier_count(mode);
    assert_eq!(total, tp.waves(), "checkpoint unit is the tile wave");
    assert!(tp.elided() > 0, "the tiled shape must actually elide");
    assert!(total > 1, "needs at least two waves to interrupt");

    // Deadline at every wave boundary, resumed from the checkpoint.
    for b in 1..=total {
        kernel_interrupt_resume(&kernel, mode, b, "E5-tiled");
    }

    // Worker panic at every wave under the supervisor, multi-worker so
    // the threaded tile dispatch is the thing recovering.
    let policy = RetryPolicy::deterministic();
    let (want_mem, want_stats) = kernel.run_with_threads(mode, 4);
    for b in 1..=total {
        let guard = FaultPlan::single("kernel.barrier", FaultKind::WorkerPanic, b).arm();
        let mut meter = Budget::unlimited().with_chaos().meter();
        let out = kernel
            .run_supervised(mode, 4, &policy, &mut meter, None)
            .expect("supervised run does not surface recoverable faults");
        assert_eq!(guard.injected(), 1);
        drop(guard);
        let SupervisedOutcome::Complete {
            mem,
            stats,
            recovery,
        } = out
        else {
            panic!("one transient panic (wave {b}) must not end partial");
        };
        assert_eq!(mem.fingerprint(), want_mem.fingerprint(), "wave {b}");
        assert_eq!(stats, want_stats, "wave {b}");
        assert_eq!(
            recovery.checkpoints_taken,
            tp.waves(),
            "one checkpoint per post-elision sync (wave {b})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, random interrupt points: wherever the planner
    /// fuses, an injected mid-run deadline plus a resume reproduces the
    /// uninterrupted kernel run exactly.
    #[test]
    fn random_programs_resume_bit_identically(seed in 0u64..1u64 << 48, loops in 2usize..5) {
        let cfg = ProgramGenConfig {
            loops,
            reads_per_loop: 1 + (seed % 3) as usize,
            max_offset: 2,
            self_read_probability: 0.3,
        };
        let p = random_program(seed, &cfg);
        if let Some((_, _, mode, kernel)) = artifacts(&p) {
            let total = kernel.barrier_count(mode);
            if total >= 1 {
                let b = 1 + seed % total;
                kernel_interrupt_resume(&kernel, mode, b, &p.name);
            }
        }
    }
}
