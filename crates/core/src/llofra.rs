//! LLOFRA — the Legal LOop Fusion Retiming Algorithm (Algorithm 2,
//! Theorem 3.2).
//!
//! Finds a retiming `r` with `δ_r(e) >= (0,0)` for every edge, making loop
//! fusion legal (Theorem 3.1). The inequality system
//! `r(v_j) - r(v_i) <= δ_L(e)` is lowered to a constraint graph with a
//! virtual source (Figure 5) and solved with the two-dimensional
//! Bellman–Ford algorithm. Infeasibility — impossible for any 2LDG whose
//! cycles all weigh at least `(0,0)` — is reported with the offending
//! cycle.

use mdf_constraint::DifferenceSystem;
use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::error::{InfeasiblePhase, MdfError, WitnessWeight};
use mdf_graph::mldg::{EdgeId, Mldg};
use mdf_graph::vec2::IVec2;
use mdf_retime::Retiming;
use mdf_trace::Span;

/// Builds the pipeline-wide [`MdfError::Infeasible`] witness from a
/// negative cycle expressed as MLDG edges: node labels are read off the
/// edge sources in traversal order so the error is self-describing.
pub(crate) fn infeasible_witness(
    g: &Mldg,
    phase: InfeasiblePhase,
    cycle: Vec<EdgeId>,
    weight: WitnessWeight,
) -> MdfError {
    let nodes = cycle
        .iter()
        .map(|&e| g.label(g.edge(e).src).to_string())
        .collect();
    MdfError::Infeasible {
        phase,
        cycle,
        nodes,
        weight,
    }
}

/// Builds LLOFRA's 2-ILP system: one `IVec2` variable per node, one
/// constraint `r(v) - r(u) <= δ_L(e)` per edge. Constraint indices equal
/// MLDG edge indices, which lets infeasibility cycles map back directly.
pub fn build_llofra_system(g: &Mldg) -> DifferenceSystem<IVec2> {
    let mut sys = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        let idx = sys.add_le(ed.dst.index(), ed.src.index(), g.delta(e));
        debug_assert_eq!(idx, e.index());
    }
    sys
}

/// Runs LLOFRA: [`llofra_traced`] with no limits and tracing off.
///
/// ```
/// use mdf_core::llofra;
/// use mdf_graph::{paper::figure2, v2};
///
/// // Figure 2's 2LDG has fusion-preventing dependences; LLOFRA finds the
/// // retiming of the paper's Section 3.3.
/// let r = llofra(&figure2()).unwrap();
/// assert_eq!(r.offsets(), &[v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
/// ```
pub fn llofra(g: &Mldg) -> Result<Retiming, MdfError> {
    llofra_traced(g, &mut Budget::unlimited().meter(), &Span::disabled())
}

/// Runs LLOFRA under a resource budget: the 2-D Bellman–Ford solve is
/// metered (rounds + deadline), so oversized or adversarial graphs return
/// [`MdfError::BudgetExceeded`] instead of stalling. The solve reports
/// onto a `solve` child of `span`.
pub fn llofra_traced(g: &Mldg, meter: &mut BudgetMeter, span: &Span) -> Result<Retiming, MdfError> {
    let sys = build_llofra_system(g);
    let solve = span.child("solve");
    match sys.solve_traced(meter, &solve)? {
        Ok(offsets) => Ok(Retiming::from_offsets(offsets)),
        Err(inf) => Err(lex_infeasible(g, inf)),
    }
}

fn lex_infeasible(g: &Mldg, inf: mdf_constraint::Infeasible<IVec2>) -> MdfError {
    infeasible_witness(
        g,
        InfeasiblePhase::Lex,
        inf.cycle.edges.iter().map(|&i| EdgeId(i as u32)).collect(),
        WitnessWeight::Lex(inf.cycle.total),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::paper::{figure14, figure2};
    use mdf_graph::v2;
    use mdf_retime::{apply_retiming, check_fusion_legal, check_retiming_consistency};

    #[test]
    fn figure2_reproduces_section_3_3_retiming() {
        let g = figure2();
        let r = llofra(&g).unwrap();
        // Section 3.3: r(A)=(0,0), r(B)=(0,0), r(C)=(0,-2), r(D)=(0,-3).
        assert_eq!(r.offsets(), &[v2(0, 0), v2(0, 0), v2(0, -2), v2(0, -3)]);
        let gr = apply_retiming(&g, &r);
        assert_eq!(check_retiming_consistency(&g, &gr, &r, 100), Ok(()));
        assert_eq!(check_fusion_legal(&gr), Ok(()));
    }

    #[test]
    fn figure6_retimed_weights() {
        // Figure 6(a) shows the retimed 2LDG: A->B (1,1), B->C (0,0),
        // C->D (0,0), A->C (0,3), D->A (2,-2), C->C (1,0).
        let g = figure2();
        let r = llofra(&g).unwrap();
        let gr = apply_retiming(&g, &r);
        let id = |s: &str| gr.node_by_label(s).unwrap();
        let dd = |a: &str, b: &str| gr.delta(gr.edge_between(id(a), id(b)).unwrap());
        assert_eq!(dd("A", "B"), v2(1, 1));
        assert_eq!(dd("B", "C"), v2(0, 0));
        assert_eq!(dd("C", "D"), v2(0, 0));
        assert_eq!(dd("A", "C"), v2(0, 3));
        assert_eq!(dd("D", "A"), v2(2, -2));
        assert_eq!(dd("C", "C"), v2(1, 0));
    }

    #[test]
    fn figure14_reproduces_section_4_4_retiming() {
        let g = figure14();
        let r = llofra(&g).unwrap();
        assert_eq!(
            r.offsets(),
            &[
                v2(0, 0),
                v2(0, -4),
                v2(0, -6),
                v2(0, -3),
                v2(0, -5),
                v2(0, -6),
                v2(0, 0)
            ]
        );
    }

    #[test]
    fn negative_cycle_reported_with_witness() {
        // A graph violating the legality hypothesis: cycle weight (0,-1).
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_dep(a, b, (0, -2));
        g.add_dep(b, a, (0, 1));
        match llofra(&g) {
            Err(MdfError::Infeasible {
                phase: InfeasiblePhase::Lex,
                cycle,
                nodes,
                weight: WitnessWeight::Lex(weight),
            }) => {
                assert_eq!(weight, v2(0, -1));
                assert_eq!(cycle.len(), 2);
                assert_eq!(g.delta_sum(&cycle), v2(0, -1));
                // Node labels follow the cycle's edge sources.
                assert_eq!(nodes.len(), 2);
                assert!(nodes.contains(&"A".to_string()));
                assert!(nodes.contains(&"B".to_string()));
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_llofra_matches_plain_llofra() {
        use mdf_graph::budget::Budget;
        let g = figure2();
        let mut meter = Budget::unlimited().with_max_solver_rounds(100).meter();
        assert_eq!(
            llofra_traced(&g, &mut meter, &Span::disabled()).unwrap(),
            llofra(&g).unwrap()
        );
    }

    #[test]
    fn already_legal_graph_gets_identity_like_retiming() {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_dep(a, b, (0, 2));
        g.add_dep(b, a, (1, 0));
        let r = llofra(&g).unwrap();
        // δ_r must be >= (0,0); with nothing negative, shortest paths from
        // the virtual source are all (0,0).
        assert!(r.is_identity());
    }
}
