//! # `mdf-bench` — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (and the
//! extended experiments described in DESIGN.md §4) as **table/figure
//! binaries** (`src/bin/`): deterministic programs that print the
//! rows/series each experiment reports — `fig2_worked`, `fig6_llofra`,
//! `fig8_acyclic`, `fig11_constraints`, `fig13_space`, `fig14_hyperplane`,
//! `table1_suite`, `table2_baselines`, `table3_partial`, `fig_speedup`,
//! `fig_locality`, `fig_prologue`, and `fig_complexity` (FX1: planner
//! runtime vs graph size, plus the minimal-vector ablation).
//! Wall-clock execution is measured elsewhere: `mdfuse bench` times the
//! kernel on real threads, and `perfbench` measures the workspace end to
//! end and layer by layer.
//!
//! This library holds the cost-model extensions shared by the binaries:
//! makespans for baseline partitions and for shift-and-peel executions.

use mdf_baselines::{Partition, ShiftPeelPlan};
use mdf_ir::ast::Program;
use mdf_sim::{MachineParams, Makespan};

fn finish(mut ms: Makespan, mp: &MachineParams) -> Makespan {
    ms.total = ms.compute + ms.barriers as f64 * mp.barrier_cost;
    ms
}

fn cluster_work(p: &Program, cluster: &[mdf_graph::NodeId]) -> u64 {
    cluster
        .iter()
        .map(|n| p.loops[n.index()].stmts.len() as u64)
        .sum()
}

/// Makespan of executing a baseline [`Partition`]: per outer iteration,
/// each cluster is one parallel step when it stayed DOALL and a serial
/// sweep otherwise (plus one barrier either way).
pub fn makespan_partition(
    p: &Program,
    partition: &Partition,
    n: i64,
    m: i64,
    mp: &MachineParams,
) -> Makespan {
    let mut ms = Makespan {
        barriers: 0,
        compute: 0.0,
        total: 0.0,
    };
    let width = (m + 1) as u64;
    for _ in 0..=n {
        for (cluster, &doall) in partition.clusters.iter().zip(&partition.cluster_doall) {
            let work = cluster_work(p, cluster) as f64 * mp.stmt_cost;
            ms.barriers += 1;
            if doall {
                ms.compute += width.div_ceil(mp.processors) as f64 * work;
            } else {
                ms.compute += width as f64 * work;
            }
        }
    }
    finish(ms, mp)
}

/// Makespan of a shift-and-peel execution: the fused loop runs one row per
/// outer iteration; each processor sweeps its block, then the `peel`
/// iterations at each block boundary run as a serial cleanup. Rows with a
/// cleanup need a second barrier. (Modeling choice documented here; the
/// comparison's *shape* — overhead growing with `peel`, breakdown when
/// `peel` reaches the block width — is what matters.)
pub fn makespan_shift_peel(
    p: &Program,
    plan: &ShiftPeelPlan,
    n: i64,
    m: i64,
    mp: &MachineParams,
) -> Makespan {
    let mut ms = Makespan {
        barriers: 0,
        compute: 0.0,
        total: 0.0,
    };
    let body_work: f64 = p.loops.iter().map(|l| l.stmts.len() as f64).sum::<f64>() * mp.stmt_cost;
    // The shifted fused row spans m + 1 + peel positions.
    let width = (m + 1 + plan.peel) as u64;
    for _ in 0..=n {
        ms.barriers += 1;
        ms.compute += width.div_ceil(mp.processors) as f64 * body_work;
        if plan.peel > 0 {
            // Boundary cleanup: peel iterations per internal boundary,
            // executed as one serial chain per boundary (they can run
            // concurrently across boundaries).
            ms.barriers += 1;
            ms.compute += plan.peel as f64 * body_work;
        }
    }
    finish(ms, mp)
}

/// Pretty-prints a makespan as `total (barriers B, compute C)`.
pub fn fmt_makespan(ms: &Makespan) -> String {
    format!(
        "{:>10.0} (bar {:>6}, cmp {:>9.0})",
        ms.total, ms.barriers, ms.compute
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_baselines::{direct_fusion, shift_and_peel, DirectPolicy};
    use mdf_ir::extract::extract_mldg;
    use mdf_ir::samples::figure2_program;

    #[test]
    fn partition_makespan_unfused_matches_sim_model() {
        let p = figure2_program();
        let g = extract_mldg(&p).unwrap().graph;
        let mp = MachineParams::default();
        let (n, m) = (50, 50);
        let ours = mdf_sim::makespan_original(&p, n, m, &mp);
        let part = makespan_partition(&p, &Partition::unfused(&g), n, m, &mp);
        assert_eq!(ours.barriers, part.barriers);
        assert_eq!(ours.compute, part.compute);
    }

    #[test]
    fn direct_fusion_beats_no_fusion() {
        let p = figure2_program();
        let g = extract_mldg(&p).unwrap().graph;
        let mp = MachineParams::default();
        let (n, m) = (50, 50);
        let unfused = makespan_partition(&p, &Partition::unfused(&g), n, m, &mp);
        let direct = direct_fusion(&g, DirectPolicy::PreserveParallelism).unwrap();
        let dm = makespan_partition(&p, &direct, n, m, &mp);
        assert!(dm.total < unfused.total);
    }

    #[test]
    fn shift_peel_overhead_scales_with_peel() {
        let p = figure2_program();
        let g = extract_mldg(&p).unwrap().graph;
        let sp = shift_and_peel(&g).unwrap();
        let mp = MachineParams::default();
        let base = makespan_shift_peel(&p, &sp, 50, 50, &mp);
        let bigger = ShiftPeelPlan {
            peel: sp.peel + 10,
            ..sp.clone()
        };
        let worse = makespan_shift_peel(&p, &bigger, 50, 50, &mp);
        assert!(worse.total > base.total);
    }
}
