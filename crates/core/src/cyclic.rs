//! Algorithm 4: legal loop fusion with full parallelism for *cyclic*
//! 2LDGs (Theorem 4.2).
//!
//! The retiming is computed in two scalar phases:
//!
//! * **Phase one (x):** solve `r_x(v) - r_x(u) <= δ_L(e).x - 1` for hard
//!   edges and `<= δ_L(e).x` otherwise (Figure 11(a)). Hard edges then end
//!   up with retimed first coordinate `>= 1` — they can never be made
//!   loop-independent, because two of their dependence vectors would need
//!   different second-coordinate adjustments.
//! * **Phase two (y):** every non-hard edge whose phase-one retimed first
//!   coordinate is zero must become exactly `(0,0)`, giving *equality*
//!   constraints `r_y(v) - r_y(u) = δ_L(e).y`, encoded as opposing
//!   inequalities (Figure 11(b)).
//!
//! Theorem 4.2: a DOALL-after-fusion retiming exists iff both constraint
//! graphs are free of negative cycles.

use mdf_constraint::{DifferenceSystem, Infeasible};
use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::error::{InfeasiblePhase, MdfError, WitnessWeight};
use mdf_graph::mldg::{EdgeId, Mldg};
use mdf_graph::vec2::IVec2;
use mdf_retime::Retiming;
use mdf_trace::Span;

use crate::llofra::infeasible_witness;

/// Builds the phase-one ("in x") difference system: one scalar variable per
/// node; constraint indices equal MLDG edge indices.
pub fn build_x_system(g: &Mldg) -> DifferenceSystem<i64> {
    let mut sys = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let discount = if g.is_hard(e) { 1 } else { 0 };
        sys.add_le(ed.dst.index(), ed.src.index(), g.delta(e).x - discount);
    }
    sys
}

/// Builds the phase-two ("in y") difference system given the phase-one
/// solution: equality constraints for every non-hard edge that is
/// loop-independent in x after phase one.
pub fn build_y_system(g: &Mldg, rx: &[i64]) -> DifferenceSystem<i64> {
    let mut sys = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        if g.is_hard(e) {
            continue;
        }
        let ed = g.edge(e);
        if g.delta(e).x + rx[ed.src.index()] - rx[ed.dst.index()] == 0 {
            sys.add_eq(ed.dst.index(), ed.src.index(), g.delta(e).y);
        }
    }
    sys
}

/// Maps a phase-one infeasibility onto the unified witness: constraint
/// indices equal MLDG edge indices in [`build_x_system`].
fn phase_x_infeasible(g: &Mldg, inf: Infeasible<i64>) -> MdfError {
    infeasible_witness(
        g,
        InfeasiblePhase::OuterX,
        inf.cycle.edges.iter().map(|&i| EdgeId(i as u32)).collect(),
        WitnessWeight::Scalar(inf.cycle.total),
    )
}

/// Maps a phase-two infeasibility. The y system's constraints do not map
/// 1:1 onto MLDG edges (equalities lower to two edges each), so the
/// witness carries only the weight.
fn phase_y_infeasible(inf: Infeasible<i64>) -> MdfError {
    MdfError::Infeasible {
        phase: InfeasiblePhase::InnerY,
        cycle: Vec::new(),
        nodes: Vec::new(),
        weight: WitnessWeight::Scalar(inf.cycle.total),
    }
}

/// Runs Algorithm 4: [`fuse_cyclic_traced`] with no limits and tracing off.
pub fn fuse_cyclic(g: &Mldg) -> Result<Retiming, MdfError> {
    fuse_cyclic_traced(g, &mut Budget::unlimited().meter(), &Span::disabled())
}

/// Runs Algorithm 4 under a resource budget: both scalar solves are
/// metered, so oversized systems fail fast with
/// [`MdfError::BudgetExceeded`]. Each phase's solve reports onto a
/// `solve-x` / `solve-y` child of `span`.
pub fn fuse_cyclic_traced(
    g: &Mldg,
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<Retiming, MdfError> {
    let x_sys = build_x_system(g);
    let solve_x = span.child("solve-x");
    let rx = x_sys
        .solve_traced(meter, &solve_x)?
        .map_err(|inf| phase_x_infeasible(g, inf))?;
    solve_x.finish();
    let y_sys = build_y_system(g, &rx);
    let solve_y = span.child("solve-y");
    let ry = y_sys
        .solve_traced(meter, &solve_y)?
        .map_err(phase_y_infeasible)?;
    combine(rx, ry)
}

/// PHASE THREE: combine the per-axis solutions.
fn combine(rx: Vec<i64>, ry: Vec<i64>) -> Result<Retiming, MdfError> {
    let offsets = rx
        .into_iter()
        .zip(ry)
        .map(|(x, y)| IVec2::new(x, y))
        .collect();
    Ok(Retiming::from_offsets(offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::legality::fused_inner_loop_is_doall;
    use mdf_graph::paper::{figure14, figure2};
    use mdf_graph::v2;
    use mdf_retime::{
        apply_retiming, check_fusion_legal, check_inner_doall, check_retiming_consistency,
    };

    #[test]
    fn figure2_reproduces_figure12_retiming() {
        let g = figure2();
        let r = fuse_cyclic(&g).unwrap();
        // Section 4.3: r(A)=r(B)=(0,0), r(C)=(-1,0), r(D)=(-1,-1).
        assert_eq!(r.offsets(), &[v2(0, 0), v2(0, 0), v2(-1, 0), v2(-1, -1)]);
        let gr = apply_retiming(&g, &r);
        assert_eq!(check_retiming_consistency(&g, &gr, &r, 100), Ok(()));
        assert_eq!(check_fusion_legal(&gr), Ok(()));
        assert_eq!(check_inner_doall(&gr), Ok(()));
        assert!(fused_inner_loop_is_doall(&gr));
    }

    #[test]
    fn figure2_x_constraint_graph_matches_figure11a() {
        // Figure 11(a): hard edge B->C discounted to -1; all other weights
        // are the first coordinates of δ_L.
        let g = figure2();
        let sys = build_x_system(&g);
        let weights: Vec<i64> = sys.graph().edges().iter().map(|e| e.weight).collect();
        // Edge insertion order: A->B, B->C, C->D, A->C, D->A, C->C.
        assert_eq!(weights, vec![1, -1, 0, 0, 2, 1]);
    }

    #[test]
    fn figure2_y_constraint_graph_matches_figure11b() {
        let g = figure2();
        let rx = vec![0, 0, -1, -1];
        let sys = build_y_system(&g, &rx);
        // Only C->D qualifies (non-hard, x-weight 0 after phase one):
        // equality encoded as two edges with weights -1 and +1.
        assert_eq!(sys.constraints(), 2);
        let ws: Vec<i64> = sys.graph().edges().iter().map(|e| e.weight).collect();
        assert_eq!(ws, vec![-1, 1]);
    }

    #[test]
    fn figure14_fails_phase_x() {
        // Figure 14 needs the hyperplane method: the cycle B->C->D->E->B has
        // zero outer weight but contains the hard edges B->C and C->D, so
        // the x system demands sum <= -2 around a cycle.
        let g = figure14();
        match fuse_cyclic(&g) {
            Err(MdfError::Infeasible {
                phase: InfeasiblePhase::OuterX,
                cycle,
                nodes,
                weight: WitnessWeight::Scalar(weight),
            }) => {
                assert!(weight < 0);
                assert!(!cycle.is_empty());
                assert_eq!(nodes.len(), cycle.len());
                // The witness must be a real cycle of the MLDG whose
                // x-weight minus hard-edge discounts equals `weight`.
                let mut w = 0;
                for &e in &cycle {
                    w += g.delta(e).x - if g.is_hard(e) { 1 } else { 0 };
                }
                assert_eq!(w, weight);
            }
            other => panic!("expected PhaseX failure, got {other:?}"),
        }
    }

    #[test]
    fn phase_y_failure_case() {
        // Two same-iteration paths from A to B demanding different
        // alignments: A->B directly with (0,2) and via C with (0,0)+(0,1).
        // All edges are non-hard and loop-independent in x, so phase two
        // requires y(B)-y(A) = 2 and y(B)-y(A) = 1 simultaneously.
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_dep(a, b, (0, 2));
        g.add_dep(a, c, (0, 0));
        g.add_dep(c, b, (0, 1));
        match fuse_cyclic(&g) {
            Err(MdfError::Infeasible {
                phase: InfeasiblePhase::InnerY,
                weight: WitnessWeight::Scalar(weight),
                ..
            }) => assert!(weight < 0),
            other => panic!("expected PhaseY failure, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_cyclic_matches_plain() {
        use mdf_graph::budget::Budget;
        let g = figure2();
        let mut meter = Budget::unlimited().with_max_solver_rounds(100).meter();
        assert_eq!(
            fuse_cyclic_traced(&g, &mut meter, &Span::disabled()).unwrap(),
            fuse_cyclic(&g).unwrap()
        );
    }

    #[test]
    fn acyclic_graphs_also_work() {
        // Algorithm 4 generalizes Algorithm 3's feasibility on DAGs (though
        // it only forces hard edges across iterations, not every edge).
        let g = mdf_graph::paper::figure8();
        let r = fuse_cyclic(&g).unwrap();
        let gr = apply_retiming(&g, &r);
        assert_eq!(check_fusion_legal(&gr), Ok(()));
        assert_eq!(check_inner_doall(&gr), Ok(()));
    }
}
