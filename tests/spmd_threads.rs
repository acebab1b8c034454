//! Thread-count equivalence and panic safety of the SPMD kernel driver.
//!
//! The kernel runs a drive as one parallel region: the caller and
//! `threads - 1` spawned workers walk the same steps and meet at one
//! barrier after each shared step. How many workers walk must never show
//! in the result. For every executable suite program plus `conv_chain`
//! and `adi_pass`, at a shape whose rows and waves tile, threads 1-4 must
//! give the same fingerprint, `ExecStats` and barrier count, checked and
//! armed, in the planned mode and in its fallbacks. A budgeted two-worker
//! run stopped by a deadline must resume to the uninterrupted image, and
//! a panic in any worker must reach the caller instead of leaving its
//! peers waiting at a barrier.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use mdfusion::chaos::{FaultKind, FaultPlan};
use mdfusion::core::{plan_fusion, Budget};
use mdfusion::gen::executable_suite;
use mdfusion::ir::extract::extract_mldg;
use mdfusion::ir::samples::{adi_pass_program, conv_chain_program};
use mdfusion::ir::{FusedSpec, Program};
use mdfusion::kernel::{plan_mode, CompiledKernel, ExecMode, Instr};
use mdfusion::sim::{align_plan_to_program, run_original, RunOutcome};
use mdfusion::trace::{MemorySink, Tracer};

/// Bounds whose fused inner extent (>= 512) tiles certified rows and
/// whose tile waves are a mix of shared and serial at two workers.
const N: i64 = 16;
const M: i64 = 1024;

/// How long a test body may run before it counts as hung: a region left
/// waiting at a barrier must fail the suite, not stall it.
const HANG: Duration = Duration::from_secs(120);

/// Runs `f` on its own thread and returns how it ended (its panic payload
/// on a panic), failing the test if it is still running after [`HANG`].
fn within<T: Send + 'static>(
    label: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    rx.recv_timeout(HANG)
        .unwrap_or_else(|_| panic!("{label}: the run hung"))
}

fn corpus() -> Vec<Program> {
    executable_suite()
        .into_iter()
        .filter_map(|e| e.program)
        .chain([conv_chain_program(), adi_pass_program()])
        .collect()
}

/// Plans and lowers `p` at `(N, M)`: its planned mode and the kernel.
fn planned(p: &Program) -> (ExecMode, CompiledKernel) {
    let graph = extract_mldg(p).expect("corpus programs extract").graph;
    let plan = plan_fusion(&graph).expect("corpus programs plan");
    let plan = align_plan_to_program(&graph, p, &plan).expect("corpus programs align");
    let spec = FusedSpec::new(p.clone(), plan.retiming().offsets().to_vec());
    let mode = plan_mode(&spec, &plan);
    let kernel = CompiledKernel::compile(&spec, N, M).expect("planned specs compile");
    (mode, kernel)
}

/// The planned mode and every fallback it admits: the serial rows, and
/// for a tiled wavefront the untiled one-group-per-barrier drive.
fn modes(mode: ExecMode) -> Vec<ExecMode> {
    let mut out = vec![mode, ExecMode::RowsSerial];
    if let ExecMode::Wavefront {
        schedule,
        certified: true,
        elide: true,
    } = mode
    {
        out.push(ExecMode::Wavefront {
            schedule,
            certified: true,
            elide: false,
        });
    }
    out
}

/// Whether some step of `mode` is split across two workers at this
/// shape — what makes the equivalence check more than a serial rerun.
fn shares_work(kernel: &CompiledKernel, mode: ExecMode) -> bool {
    if let Some(tp) = kernel.tile_plan(mode) {
        return tp.serial_waves(2) < tp.waves();
    }
    let sink = std::sync::Arc::new(MemorySink::new());
    let span = Tracer::new(sink.clone()).span("execute");
    let (_, stats) = kernel.run_with_threads(mode, 2);
    kernel.report_exec(mode, 2, &stats, &span);
    span.finish();
    sink.profile()
        .expect("trace parses")
        .counter_total("kernel.tiles")
        > 0
}

#[test]
fn every_thread_count_gives_the_same_image_counters_and_barriers() {
    within("equivalence", every_thread_count_agrees).unwrap_or_else(|p| resume_unwind(p));
}

fn every_thread_count_agrees() {
    for p in corpus() {
        let (mode, kernel) = planned(&p);
        assert!(
            shares_work(&kernel, mode),
            "{}: shape must share steps",
            p.name
        );
        let want = run_original(&p, N, M).0.fingerprint();
        for m in modes(mode) {
            let mut armed = kernel.clone();
            let armed_ok = armed.arm(m).is_ok();
            let (base_mem, base) = kernel.run_with_threads(m, 1);
            assert_eq!(base_mem.fingerprint(), want, "{} {m:?}", p.name);
            assert_eq!(base.barriers, kernel.barrier_count(m), "{} {m:?}", p.name);
            for threads in 1..=4 {
                let (mem, stats) = kernel.run_with_threads(m, threads);
                assert_eq!(mem.fingerprint(), want, "{} {m:?} at {threads}", p.name);
                assert_eq!(stats, base, "{} {m:?} at {threads}", p.name);
                if armed_ok {
                    let (mem, stats) = armed.run_with_threads(m, threads);
                    assert_eq!(mem.fingerprint(), want, "{} armed at {threads}", p.name);
                    assert_eq!(stats, base, "{} armed {m:?} at {threads}", p.name);
                }
            }
        }
    }
}

#[test]
fn deadline_stopped_two_worker_runs_resume_bit_identically() {
    within("deadline", deadline_stops_resume).unwrap_or_else(|p| resume_unwind(p));
}

fn deadline_stops_resume() {
    for p in corpus() {
        let (mode, kernel) = planned(&p);
        let (want_mem, want_stats) = kernel.run_with_threads(mode, 1);
        let total = kernel.barrier_count(mode);
        for b in 1..=total {
            let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, b).arm();
            let mut meter = Budget::unlimited().with_chaos().meter();
            let out = rayon::with_workers(2, || kernel.run_budgeted(mode, &mut meter, None))
                .expect("a deadline is a partial result, not an error");
            assert_eq!(guard.injected(), 1, "{}", p.name);
            drop(guard);
            let RunOutcome::Partial {
                mem, checkpoint, ..
            } = out
            else {
                panic!("{}: deadline at barrier {b} must stop the run", p.name);
            };
            assert_eq!(checkpoint.completed_barriers, b - 1, "{}", p.name);
            assert_eq!(checkpoint.stats.barriers, b - 1, "{}", p.name);
            let mut clean = Budget::unlimited().meter();
            let (mem, stats) = rayon::with_workers(2, || {
                kernel.run_budgeted(mode, &mut clean, Some((mem, checkpoint)))
            })
            .expect("resume runs within budget")
            .into_complete()
            .expect("a clean resume completes");
            assert_eq!(
                mem.fingerprint(),
                want_mem.fingerprint(),
                "{}: resumed image (barrier {b})",
                p.name
            );
            assert_eq!(
                stats, want_stats,
                "{}: resumed counters (barrier {b})",
                p.name
            );
        }
    }
}

/// Demands that `f` panic, and within [`HANG`].
fn must_panic(label: &str, f: impl FnOnce() + Send + 'static) {
    assert!(within(label, f).is_err(), "{label}: the run must panic");
}

fn program(name: &str) -> Program {
    corpus()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no corpus program {name}"))
}

#[test]
fn an_out_of_bounds_worker_panics_in_the_caller_instead_of_hanging() {
    for name in ["fig8_code", "relaxation"] {
        let (mode, mut kernel) = planned(&program(name));
        // Every load now points far past the buffer, so the checked path
        // asserts in each worker on its first cell. Touching the loops
        // disarms the kernel: no certificate covers the mutant.
        for cl in kernel.loops_mut() {
            for s in &mut cl.stmts {
                for ins in &mut s.instrs {
                    if let Instr::Load { delta, .. } = ins {
                        *delta = isize::MAX / 4;
                    }
                }
            }
        }
        assert!(!kernel.is_armed(mode));
        must_panic(name, move || {
            kernel.run_with_threads(mode, 2);
        });
    }
}

#[test]
fn an_injected_lead_panic_reaches_the_caller_at_every_site() {
    for name in ["fig8_code", "relaxation"] {
        let (mode, kernel) = planned(&program(name));
        let total = kernel.barrier_count(mode);
        for site in ["kernel.barrier", "kernel.chunk.mid"] {
            for b in [1, total / 2, total] {
                let guard = FaultPlan::single(site, FaultKind::WorkerPanic, b).arm();
                let k = kernel.clone();
                must_panic(&format!("{name} {site} #{b}"), move || {
                    let mut meter = Budget::unlimited().with_chaos().meter();
                    let _ = rayon::with_workers(2, || k.run_budgeted(mode, &mut meter, None));
                });
                assert_eq!(guard.injected(), 1, "{name} {site} #{b}");
            }
        }
    }
}
