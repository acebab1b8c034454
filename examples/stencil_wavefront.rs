//! A two-stage relaxation stencil (experiment E5) whose dependence cycle
//! has *two* hard edges: Theorem 4.2 fails, and full parallelism is only
//! achievable along a hyperplane (Algorithm 5's wavefront).
//!
//! ```text
//! cargo run --example stencil_wavefront
//! ```

use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::{ir, sim};

fn main() {
    let program = ir::samples::relaxation_program();
    let extracted = extract_mldg(&program).unwrap();
    let g = &extracted.graph;
    println!("== {} ==\n{:?}\n", program.name, g);

    // Algorithm 4 must fail: the A <-> B cycle carries two hard edges and
    // no outer-loop weight to absorb them.
    let alg4 = mdfusion::core::fuse_cyclic(g);
    println!(
        "Algorithm 4: {}",
        match &alg4 {
            Ok(_) => "succeeded (unexpected!)".to_string(),
            Err(e) => format!("fails as expected — {e}"),
        }
    );
    assert!(alg4.is_err());

    // The planner falls back to Algorithm 5.
    let plan = plan_fusion(g).unwrap();
    verify_plan(g, &plan).unwrap();
    let w = plan.wavefront().expect("hyperplane plan");
    println!(
        "Algorithm 5: retiming {} with schedule s={} and DOALL hyperplane h={}\n",
        plan.retiming().display(g),
        w.schedule,
        w.hyperplane
    );

    let (n, m) = (128, 128);
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());

    // Execute by wavefront and compare with the original.
    let (reference, orig_stats) = run_original(&program, n, m);
    let (wf_mem, wf_stats) = sim::run_wavefront(&spec, w, n, m);
    assert_eq!(wf_mem, reference);
    println!("wavefront execution matches the original");
    println!(
        "parallel steps: {} (original barriers) vs {} (hyperplanes)",
        orig_stats.barriers, wf_stats.barriers
    );

    // The dynamic checker proves each hyperplane is conflict-free, and
    // that plain rows are NOT (this kernel genuinely needs the wavefront).
    sim::check_hyperplanes_doall(&spec, w, n, m).expect("hyperplanes are DOALL");
    assert!(sim::check_rows_doall(&spec, n, m).is_err());
    println!("dynamic check: hyperplanes conflict-free; rows are not (as predicted)");

    // Real threads along hyperplanes: the compiled kernel, in the mode the
    // race and elision certificates license, on 4 workers.
    let kernel = CompiledKernel::compile(&spec, n, m).unwrap();
    let (par, _) = kernel.run_with_threads(plan_mode(&spec, &plan), 4);
    assert_eq!(par.fingerprint(), reference.fingerprint());
    println!("kernel wavefront execution on 4 workers matches the original");

    // Hyperplane width statistics (how much parallelism each step exposes).
    let mp = MachineParams::default();
    let wf_cost = sim::makespan_wavefront(&spec, w, n, m, &mp);
    let serial_work = (orig_stats.stmt_instances as f64) * mp.stmt_cost;
    println!(
        "machine model: wavefront total {:.0} vs serial work {:.0} ({:.2}x parallel speedup)",
        wf_cost.total,
        serial_work,
        serial_work / wf_cost.compute
    );
}
