//! The `exec-rows` and `exec-wavefront` workloads: fused programs run
//! through the armed `mdf-kernel` at one large shape.
//!
//! One operation is one *pass*: every program of the workload runs once
//! at `nproc` workers on fresh memory. Its cost is the process CPU time
//! of the kernel calls, its latency their wall time; the fingerprint of
//! every run is checked against `mdf_sim::run_original`, computed once
//! before timing.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mdf_core::FusionPlan;
use mdf_ir::pretty::program_to_dsl;
use mdf_ir::{samples, Program};
use mdf_kernel::{CompiledKernel, ExecMode};
use mdf_service::PlanCache;
use mdf_trace::Span;

use crate::calib::{scaled, Calibration};
use crate::layers;
use crate::report::Outcome;
use crate::trace::Trace;
use crate::util::{median, ms_since, nproc, process_cpu_ms, quantile};
use crate::Args;

/// Passes a run holds at least, so that ten lie beyond the 90th
/// percentile; a slow host runs past `--seconds` (up to three times) to
/// reach it.
const MIN_PASSES: usize = 100;
/// Calibration jobs timed after every pass (see `calib`).
const CAL_JOBS: usize = 5;

/// Default shape: the inner extent is sixteen times the kernel's
/// 512-column row-tiling threshold and each array (8-byte cells) is
/// 3 MiB, above the 2 MiB per-core L2 of the reference host. Few rows
/// keep the run steady: every row dispatch wakes the second vCPU, and at
/// 192x2048 (the same cell count, four times the dispatches) the medians
/// of ten runs on a 2-vCPU host spread by 0.30 (interquartile range over
/// median), against 0.09 to 0.19 at this shape.
pub const SHAPE: (i64, i64) = (48, 8192);

/// The programs of one exec workload, by suite name, with the AST the
/// reference runs on.
fn programs(wavefront: bool) -> Vec<(&'static str, Program)> {
    let suite = mdf_gen::executable_suite();
    let pick = |id: &str| -> Program {
        let entry = suite.iter().find(|e| e.id == id);
        entry
            .and_then(|e| e.program.clone())
            .unwrap_or_else(|| panic!("suite entry {id} has no program"))
    };
    if wavefront {
        vec![
            ("E5", pick("E5")),
            ("adi_pass", samples::adi_pass_program()),
        ]
    } else {
        vec![
            ("E1", pick("E1")),
            ("E2", pick("E2")),
            ("E4", pick("E4")),
            ("conv_chain", samples::conv_chain_program()),
        ]
    }
}

/// One program after set-up.
struct Prepared {
    name: &'static str,
    source: String,
    program: Program,
    graph: mdf_graph::Mldg,
    plan: FusionPlan,
    spec: mdf_ir::retgen::FusedSpec,
    mode: ExecMode,
    checked: CompiledKernel,
    armed: CompiledKernel,
    degradations: u64,
    reference: u64,
}

/// Parse + plan + certify + compile + arm of one program.
fn prepare(
    name: &'static str,
    source: &str,
    n: i64,
    m: i64,
    span: &Span,
) -> Result<Prepared, String> {
    let err = |e: String| format!("{name}: {e}");
    let (program, graph) = layers::parse(source, span).map_err(err)?;
    let _ = layers::fingerprint(&graph, span);
    let (plan, degradations) = layers::plan(&graph, span).map_err(err)?;
    let low = layers::lower(&program, &graph, &plan, n, m, span).map_err(err)?;
    let mut armed = low.kernel.clone();
    layers::arm(&mut armed, low.mode, span).map_err(err)?;
    Ok(Prepared {
        name,
        source: source.to_string(),
        program,
        graph,
        plan,
        spec: low.spec,
        mode: low.mode,
        checked: low.kernel,
        armed,
        degradations,
        reference: 0,
    })
}

/// Which kernel and worker count a pass runs.
#[derive(Clone, Copy)]
enum Variant {
    Armed(usize),
    Checked(usize),
}

/// What one pass took, in ms.
#[derive(Clone, Copy)]
struct PassTime {
    /// Wall time of the kernel calls.
    kernel_ms: f64,
    /// Process CPU time of the kernel calls, all workers together.
    cpu_ms: f64,
    /// Wall time of the pass: the kernel calls plus the fingerprint checks.
    wall_ms: f64,
}

/// One timed pass: every program once. A fingerprint that differs from
/// the reference fails the run.
fn pass(progs: &[Prepared], v: Variant, span: &Span) -> Result<PassTime, String> {
    let wall = Instant::now();
    let (mut kernel_ms, mut cpu_ms) = (0.0, 0.0);
    for p in progs {
        let (k, threads) = match v {
            Variant::Armed(t) => (&p.armed, t),
            Variant::Checked(t) => (&p.checked, t),
        };
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let (mem, _) = layers::exec(k, p.mode, threads, span, "kernel.exec");
        kernel_ms += ms_since(t0);
        cpu_ms += process_cpu_ms() - c0;
        let fp = mem.fingerprint();
        if fp != p.reference {
            return Err(format!(
                "{}: kernel fingerprint {fp:#x} differs from the reference {:#x}",
                p.name, p.reference
            ));
        }
    }
    Ok(PassTime {
        kernel_ms,
        cpu_ms,
        wall_ms: ms_since(wall),
    })
}

pub fn run(args: &Args, wavefront: bool, cal: &mut Calibration) -> Result<Outcome, String> {
    let (n, m) = args.shape.unwrap_or(SHAPE);
    let trace = Trace::new(args.trace);
    let sources: Vec<(&'static str, Program, String)> = programs(wavefront)
        .into_iter()
        .map(|(name, p)| {
            let src = program_to_dsl(&p);
            (name, p, src)
        })
        .collect();

    // Set-ups run on a thread of their own, so their allocations come
    // from another allocator arena than the kernels' run memory: made on
    // the pass thread, they fragmented its heap and the peak resident set
    // varied by half from run to run.
    let (go, jobs) = mpsc::channel::<u64>();
    let (done, results) = mpsc::channel();
    std::thread::scope(|scope| {
        let (trace, sources) = (&trace, &sources);
        scope.spawn(move || {
            for rep in jobs {
                let root = trace.root("setup");
                root.add("rep", rep);
                let c0 = process_cpu_ms();
                let progs = sources
                    .iter()
                    .map(|(name, _, src)| prepare(name, src, n, m, &root))
                    .collect::<Result<Vec<_>, _>>();
                let secs = (process_cpu_ms() - c0) / 1e3;
                drop(root);
                if done.send(progs.map(|p| (p, secs))).is_err() {
                    break;
                }
            }
        });
        let mut setup = move |rep: u64| -> Result<(Vec<Prepared>, f64), String> {
            go.send(rep).map_err(|_| "the set-up thread ended")?;
            results.recv().map_err(|_| "the set-up thread ended")?
        };
        measure(args, wavefront, (n, m), trace, sources, &mut setup, cal)
    })
    .and_then(|mut out| {
        if args.trace {
            let times = trace.finish(&args.trace_file("spans"), &args.command())?;
            out.fact("trace_spans", times.spans);
            out.fold_spans(&times);
        }
        Ok(out)
    })
}

/// A set-up of every program of the workload: the kernels and the CPU
/// seconds it took (the pass thread waits meanwhile, so the process CPU
/// time is the set-up's own).
type Setup<'a> = dyn FnMut(u64) -> Result<(Vec<Prepared>, f64), String> + 'a;

fn measure(
    args: &Args,
    wavefront: bool,
    (n, m): (i64, i64),
    trace: &Trace,
    sources: &[(&'static str, Program, String)],
    setup: &mut Setup,
    cal: &mut Calibration,
) -> Result<Outcome, String> {
    let threads = nproc();
    let mut out = Outcome::default();
    // One set-up before the first pass, then one more after every timed
    // pass, so the samples span the whole run.
    let mut setup_s = Vec::new();
    let mut setup = |setup_s: &mut Vec<f64>| -> Result<Vec<Prepared>, String> {
        let (progs, secs) = setup(setup_s.len() as u64)?;
        setup_s.push(secs);
        Ok(progs)
    };
    let mut progs = setup(&mut setup_s)?;
    for p in &progs {
        let ok = match (wavefront, p.mode) {
            (false, ExecMode::RowsCertified) => true,
            (true, mode) => p.armed.tile_plan(mode).is_some(),
            _ => false,
        };
        if !ok {
            return Err(format!(
                "{}: unexpected execution mode {:?}",
                p.name, p.mode
            ));
        }
    }

    // Reference fingerprints, outside set-up and timing.
    let mut unfused_ms = 0.0;
    let mut unfused_barriers = 0;
    for (p, (_, original, _)) in progs.iter_mut().zip(sources) {
        let t0 = Instant::now();
        let (mem, stats) = mdf_sim::run_original(original, n, m);
        unfused_ms += ms_since(t0);
        unfused_barriers += stats.barriers;
        p.reference = mem.fingerprint();
    }
    if args.corrupt_reference {
        progs[0].reference ^= 1;
    }

    // One untimed warm-up pass, then passes until the time is up.
    pass(&progs, Variant::Armed(threads), &Span::disabled())?;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut s = Samples::default();
    // CPU times over the calibration job's time measured right after them.
    let (mut cpu_ratio, mut setup_ratio) = (Vec::new(), Vec::new());
    if !args.trace {
        while start.elapsed() < budget
            || (s.untraced.len() < MIN_PASSES && start.elapsed() < 3 * budget)
        {
            let p = pass(&progs, Variant::Armed(threads), &Span::disabled())?;
            setup(&mut setup_s)?;
            let job_ms = cal.measure(CAL_JOBS);
            cpu_ratio.push(p.cpu_ms / job_ms);
            setup_ratio.push(setup_s[setup_s.len() - 1] * 1e3 / job_ms);
            s.untraced.push(p);
        }
    } else {
        // Interleaved rounds, so a slow spell of the host hits every
        // variant alike: untraced armed, then traced armed, armed at one
        // worker and checked, each at `nproc` workers unless noted.
        let mut round = 0u64;
        while start.elapsed() < budget {
            s.untraced
                .push(pass(&progs, Variant::Armed(threads), &Span::disabled())?);
            for (v, into) in [
                (Variant::Armed(threads), &mut s.traced),
                (Variant::Armed(1), &mut s.t1),
                (Variant::Checked(threads), &mut s.checked),
            ] {
                let root = trace.root("pass");
                root.add("pass", round);
                into.push(pass(&progs, v, &root)?);
            }
            setup(&mut setup_s)?;
            round += 1;
        }
        layer_metrics(&mut out, &progs, trace, (n, m), threads, &mut s)?;
        out.set("sim.unfused_ms", unfused_ms);
        out.set("sim.unfused_barriers", unfused_barriers as f64);
        let fused_ms = sim_fused_ms(&progs, n, m)?;
        out.set("sim.fused_ms", fused_ms);
        out.set("sim.fusion_ratio", unfused_ms / fused_ms);
    }
    let passes = s.untraced.len() as u64;
    out.attempted = passes * progs.len() as u64;

    if !args.trace {
        let cpu = scaled(&mut cpu_ratio);
        out.set("cpu_ms_per_op", cpu);
        // Every pass runs on fresh memory with nothing cached between
        // passes.
        out.set("fresh_cpu_ms.p50", cpu);
        out.set("setup_s", scaled(&mut setup_ratio) / 1e3);
        out.fact("raw.cpu_ms_per_op", median(&mut cpu_ms(&s.untraced)));
        out.fact("raw.setup_s", median(&mut setup_s));
        out.fact("calibration.job_ms", cal.job_ms());
        out.fact("calibration.jobs", cal.samples());
    }
    // Wall times, printed but not bounded: with `nproc` workers on a
    // shared host they follow the host's load (see METRICS.md).
    let mut lat: Vec<f64> = s.untraced.iter().map(|p| p.kernel_ms).collect();
    let p50 = median(&mut lat);
    out.fact("latency_ms.p50", p50);
    out.fact("latency_ms.p90", quantile(&mut lat, 0.9));
    out.fact("throughput_rps", 1e3 / p50);

    out.fact("shape", format!("{n}x{m}"));
    out.fact("threads", threads);
    out.fact(
        "programs",
        progs.iter().map(|p| p.name).collect::<Vec<_>>().join(","),
    );
    out.fact(
        "modes",
        progs
            .iter()
            .map(|p| format!("{:?}", p.mode))
            .collect::<Vec<_>>()
            .join("; "),
    );
    out.fact("passes", passes);
    out.fact("latency_samples", passes);
    out.fact("setup_reps", setup_s.len());
    out.fact("checked_runs", out.attempted);
    Ok(out)
}

/// The passes of one run.
#[derive(Default)]
struct Samples {
    /// Untraced armed passes at `nproc` workers: the end-to-end samples.
    untraced: Vec<PassTime>,
    traced: Vec<PassTime>,
    t1: Vec<PassTime>,
    checked: Vec<PassTime>,
}

fn kernel_ms(passes: &[PassTime]) -> Vec<f64> {
    passes.iter().map(|p| p.kernel_ms).collect()
}

fn cpu_ms(passes: &[PassTime]) -> Vec<f64> {
    passes.iter().map(|p| p.cpu_ms).collect()
}

fn layer_metrics(
    out: &mut Outcome,
    progs: &[Prepared],
    trace: &Trace,
    (n, m): (i64, i64),
    threads: usize,
    s: &mut Samples,
) -> Result<(), String> {
    // Plan-cache and codec layers on this workload's own programs.
    let root = trace.root("service");
    let mut cache = PlanCache::new(64);
    for p in progs {
        let key = layers::fingerprint(&p.graph, &root);
        let span = root.child("service.cache_insert");
        cache.insert(key, &p.graph, &p.plan);
        drop(span);
        let span = root.child("service.cache_lookup");
        let hit = matches!(
            cache.lookup(key, &p.graph, false),
            mdf_service::CacheLookup::Hit(..)
        );
        drop(span);
        if !hit {
            return Err(format!("{}: plan cache missed its own insert", p.name));
        }
        layers::codec(&p.source, n, m, p.reference, &root)?;
    }
    drop(root);

    let (tn, one) = (
        median(&mut kernel_ms(&s.traced)),
        median(&mut kernel_ms(&s.t1)),
    );
    let chk = median(&mut kernel_ms(&s.checked));
    let mut barriers = 0;
    let mut instances = 0;
    let (mut fronts, mut waves, mut elided, mut serial) = (0, 0, 0, 0);
    for p in progs {
        let (_, stats) = p.armed.run_with_threads(p.mode, threads);
        barriers += stats.barriers;
        instances += stats.stmt_instances;
        if let Some(tp) = p.armed.tile_plan(p.mode) {
            fronts += tp.fronts();
            waves += tp.waves();
            elided += tp.elided();
            serial += tp.serial_waves(threads);
        }
    }
    out.set(
        "ir.loops",
        progs.iter().map(|p| p.program.loops.len()).sum::<usize>() as f64,
    );
    out.set(
        "graph.edges",
        progs.iter().map(|p| p.graph.edge_count()).sum::<usize>() as f64,
    );
    out.set(
        "core.degradations",
        progs.iter().map(|p| p.degradations).sum::<u64>() as f64,
    );
    out.set("kernel.exec_ms.t1", one);
    out.set("kernel.exec_ms.tn", tn);
    out.set("kernel.scaling", one / tn);
    out.set("kernel.checked_exec_ms.tn", chk);
    out.set("kernel.unchecked_gain", chk / tn);
    out.set("kernel.barriers", barriers as f64);
    out.set("kernel.instances", instances as f64);
    out.set("kernel.ns_per_instance", tn * 1e6 / instances.max(1) as f64);
    out.set(
        "kernel.lost_us_per_barrier",
        (tn - one / threads as f64) * 1e3 / barriers.max(1) as f64,
    );
    out.set("kernel.fronts", fronts as f64);
    out.set("kernel.waves", waves as f64);
    out.set("kernel.elided", elided as f64);
    out.set("kernel.serial_waves", serial as f64);
    out.set(
        "trace.overhead_ratio",
        median(&mut cpu_ms(&s.traced)) / median(&mut cpu_ms(&s.untraced)),
    );
    // No daemon runs here: the service counters read zero.
    for name in [
        "service.cache_hit_rate",
        "service.cache_rejected",
        "service.overload_rejections",
        "service.deadline_expiries",
        "service.recoveries",
        "service.fresh_share",
        "router.batch_ratio",
        "router.reroutes",
        "router.fair_rejections",
        "router.shard_skew",
    ] {
        out.set(name, 0.0);
    }
    // The pass's time outside the kernel calls: the harness's own checks.
    let mut residue: Vec<f64> = s.untraced.iter().map(|p| p.wall_ms - p.kernel_ms).collect();
    out.set("service.residue_ms", median(&mut residue));
    out.fact("trace_rounds", s.traced.len());
    Ok(())
}

/// The fused reference interpreter over every program, once: the
/// denominator of `sim.fusion_ratio`.
fn sim_fused_ms(progs: &[Prepared], n: i64, m: i64) -> Result<f64, String> {
    let mut total = 0.0;
    for p in progs {
        let t0 = Instant::now();
        let (mem, _) = match &p.plan {
            FusionPlan::FullParallel { .. } => mdf_sim::run_fused(&p.spec, n, m),
            FusionPlan::Hyperplane { wavefront, .. } => {
                mdf_sim::run_wavefront(&p.spec, *wavefront, n, m)
            }
        };
        total += ms_since(t0);
        if mem.fingerprint() != p.reference {
            return Err(format!(
                "{}: fused interpreter differs from the reference",
                p.name
            ));
        }
    }
    Ok(total)
}
