//! Algorithm 5: full hyperplane parallelism for cyclic 2LDGs
//! (Lemma 4.3, Theorem 4.4).
//!
//! When Theorem 4.2's conditions fail — some cycle cannot absorb its hard
//! edges, or same-iteration alignment is contradictory — the innermost loop
//! cannot be DOALL in the original row order. Algorithm 5 instead:
//!
//! 1. retimes with LLOFRA so that every dependence vector is `>= (0,0)`;
//! 2. derives a strict schedule vector `s` from the retimed vectors
//!    (Lemma 4.3);
//! 3. returns the hyperplane `h ⟂ s` along which all iterations are
//!    independent (wavefront execution).

use mdf_graph::budget::{Budget, BudgetMeter};
use mdf_graph::error::MdfError;
use mdf_graph::mldg::Mldg;
use mdf_retime::{apply_retiming, wavefront_for, Retiming, Wavefront};
use mdf_trace::Span;

use crate::llofra::llofra_traced;

/// The result of Algorithm 5: a fusion-legalizing retiming plus a wavefront
/// along which the fused loop is fully parallel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperplanePlan {
    /// The LLOFRA retiming.
    pub retiming: Retiming,
    /// Schedule vector and DOALL hyperplane.
    pub wavefront: Wavefront,
}

/// Runs Algorithm 5: [`fuse_hyperplane_traced`] with no limits and
/// tracing off. Fails only when LLOFRA itself is infeasible, i.e. the 2LDG
/// has a cycle of lexicographically negative weight (such a graph is not a
/// legal nested loop at all).
pub fn fuse_hyperplane(g: &Mldg) -> Result<HyperplanePlan, MdfError> {
    fuse_hyperplane_traced(g, &mut Budget::unlimited().meter(), &Span::disabled())
}

/// Runs Algorithm 5 under a resource budget (the LLOFRA solve is metered
/// and reports onto a `solve` child of `span`).
pub fn fuse_hyperplane_traced(
    g: &Mldg,
    meter: &mut BudgetMeter,
    span: &Span,
) -> Result<HyperplanePlan, MdfError> {
    finish(g, llofra_traced(g, meter, span)?)
}

/// Derives the wavefront from a LLOFRA retiming. LLOFRA guarantees all
/// retimed dependence vectors are `>= (0,0)`, so Lemma 4.3 applies; the
/// schedule derivation failing anyway would mean the retiming is corrupt,
/// reported as [`MdfError::Invalid`] rather than a panic.
fn finish(g: &Mldg, retiming: Retiming) -> Result<HyperplanePlan, MdfError> {
    let retimed = apply_retiming(g, &retiming);
    let wavefront = wavefront_for(&retimed)
        .map_err(|e| MdfError::invalid(format!("wavefront derivation failed: {e}")))?;
    Ok(HyperplanePlan {
        retiming,
        wavefront,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::paper::{figure14, figure2};
    use mdf_graph::v2;
    use mdf_retime::is_strict_schedule;

    #[test]
    fn figure14_reproduces_section_4_4() {
        let g = figure14();
        let plan = fuse_hyperplane(&g).unwrap();
        // Retiming from Algorithm 2 (checked against the paper's Figure 15
        // in mdf-retime); schedule s = (5,1); hyperplane h = (1,-5).
        assert_eq!(plan.wavefront.schedule, v2(5, 1));
        assert_eq!(plan.wavefront.hyperplane, v2(1, -5));
        let retimed = apply_retiming(&g, &plan.retiming);
        assert!(is_strict_schedule(&retimed, plan.wavefront.schedule));
    }

    #[test]
    fn figure2_also_admits_a_wavefront() {
        // Algorithm 4 succeeds on Figure 2, but Algorithm 5 must still
        // produce a valid (if less convenient) wavefront plan.
        let g = figure2();
        let plan = fuse_hyperplane(&g).unwrap();
        let retimed = apply_retiming(&g, &plan.retiming);
        assert!(is_strict_schedule(&retimed, plan.wavefront.schedule));
        assert_eq!(plan.wavefront.schedule.dot(plan.wavefront.hyperplane), 0);
    }

    #[test]
    fn illegal_graph_propagates_llofra_error() {
        let mut g = Mldg::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_dep(a, b, (0, -5));
        g.add_dep(b, a, (0, 2));
        assert!(matches!(
            fuse_hyperplane(&g),
            Err(MdfError::Infeasible { .. })
        ));
    }

    #[test]
    fn budgeted_hyperplane_matches_plain() {
        use mdf_graph::budget::Budget;
        let g = figure14();
        let mut meter = Budget::unlimited().with_max_solver_rounds(100).meter();
        assert_eq!(
            fuse_hyperplane_traced(&g, &mut meter, &Span::disabled()).unwrap(),
            fuse_hyperplane(&g).unwrap()
        );
    }
}
