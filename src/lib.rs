//! # `mdfusion` — Polynomial-Time Nested Loop Fusion with Full Parallelism
//!
//! A complete Rust implementation of
//! *"Efficient Polynomial-Time Nested Loop Fusion with Full Parallelism"*
//! (Edwin H.-M. Sha, Timothy W. O'Neil, Nelson L. Passos; ICPP 1996):
//! multi-dimensional retiming applied to multi-dimensional loop dependence
//! graphs (MLDGs) so that a sequence of innermost DOALL loops can be fused
//! — even across fusion-preventing dependences — while keeping the fused
//! innermost loop fully parallel.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `mdf-graph` | `IVec2`, the MLDG model, legality, the paper's figures |
//! | [`constraint`] | `mdf-constraint` | difference-constraint systems, Bellman–Ford (Algorithm 1) |
//! | [`retime`] | `mdf-retime` | retiming functions, `G -> G_r`, schedules/hyperplanes |
//! | [`core`] | `mdf-core` | LLOFRA (Alg 2), Alg 3/4/5, the planner, n-dim extension |
//! | [`ir`] | `mdf-ir` | loop-nest DSL, dependence analysis, fused code generation |
//! | [`sim`] | `mdf-sim` | sequential interpreter (the oracle), plan checking, checkpoint/resume, DOALL checker, cost model |
//! | [`analysis`] | `mdf-analyze` | static race certifier, certificate checker, DSL lints |
//! | [`kernel`] | `mdf-kernel` | compiled execution engine, the one parallel engine: bytecode lowering, tiled in-place steps |
//! | [`trace`] | `mdf-trace` | structured tracing: span trees, phase counters, profile emission |
//! | [`chaos`] | `mdf-chaos` | deterministic fault injection: seeded fault plans, named sites |
//! | [`service`] | `mdf-service` | `mdfused` daemon: wire protocol, admission control, plan cache |
//! | [`router`] | `mdf-router` | fleet router: fingerprint sharding, batching, fair share, respawn |
//! | [`baselines`] | `mdf-baselines` | direct fusion, shift-and-peel, no-fusion |
//! | [`gen`] | `mdf-gen` | random workloads and the E1–E5 experiment suite |
//!
//! ## Quickstart
//!
//! ```
//! use mdfusion::prelude::*;
//!
//! // The paper's running example (Figure 2(b))...
//! let program = mdfusion::ir::samples::figure2_program();
//! // ...extract its loop dependence graph...
//! let extracted = extract_mldg(&program).unwrap();
//! // ...plan fusion (the planner picks Algorithm 4 here)...
//! let plan = plan_fusion(&extracted.graph).unwrap();
//! assert!(plan.is_full_parallel());
//! // ...and check the transformed program end to end.
//! let report = check_plan(&program, &plan, 16, 16).unwrap();
//! assert!(report.fused_barriers < report.original_barriers / 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mdf_analyze as analysis;
pub use mdf_baselines as baselines;
pub use mdf_chaos as chaos;
pub use mdf_constraint as constraint;
pub use mdf_core as core;
pub use mdf_gen as gen;
pub use mdf_graph as graph;
pub use mdf_ir as ir;
pub use mdf_kernel as kernel;
pub use mdf_retime as retime;
pub use mdf_router as router;
pub use mdf_service as service;
pub use mdf_sim as sim;
pub use mdf_trace as trace;

/// The most common imports for working with the library.
pub mod prelude {
    pub use mdf_core::{
        analyze, fuse_acyclic, fuse_cyclic, fuse_hyperplane, llofra, plan_fusion,
        plan_fusion_budgeted, verify_plan, Budget, DegradedPlan, FullParallelMethod, FusionPlan,
        MdfError, PlanReport,
    };
    pub use mdf_graph::{v2, IVec2, Mldg, NodeId};
    pub use mdf_ir::{extract_mldg, parse_program, FusedSpec, Program};
    pub use mdf_retime::{apply_retiming, Retiming, Wavefront};
    pub use mdf_sim::{check_plan, run_fused, run_original, MachineParams};
}
