#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-constraint` — difference-constraint solving substrate
//!
//! Implements Section 2.4 of the paper ("Two Dimensional Linear Inequality
//! Systems"): systems of constraints `x_j - x_i <= w_ij` over scalar
//! (`i64`) or lexicographically ordered vector (`IVec2`, `IVecN`) unknowns,
//! lowered to constraint graphs and solved by shortest paths from a virtual
//! source.
//!
//! * [`weight::Weight`] — the linearly ordered abelian group the solver
//!   is generic over;
//! * [`graph::ConstraintGraph`] — the lowered graph, with
//!   [`graph::NegativeCycle`] infeasibility certificates;
//! * [`bellman_ford`] — the paper's Algorithm 1 (generic Bellman–Ford) with
//!   negative-cycle extraction: the one solver, metered and traced;
//! * [`floyd`] — all-pairs Floyd–Warshall, kept only as the test oracle;
//! * [`system::DifferenceSystem`] — the user-facing builder (Problem ILP /
//!   Problem 2-ILP).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod floyd;
pub mod graph;
pub mod system;
pub mod weight;

pub use bellman_ford::{
    solve_difference_constraints, solve_difference_constraints_traced, Solution,
};
pub use graph::{CEdge, ConstraintGraph, NegativeCycle};
pub use system::{DifferenceSystem, Infeasible};
pub use weight::Weight;
