//! Quickstart: fuse the paper's running example (Figure 2) end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Parses the kernel from DSL source, extracts its loop dependence graph,
//! plans a retiming with the paper's algorithms, prints the fused code,
//! and validates the transformation by executing both versions.

use mdfusion::kernel::{plan_mode, CompiledKernel};
use mdfusion::prelude::*;
use mdfusion::{core, ir, sim};

const FIGURE2: &str = r#"
    // The code of the paper's Figure 2(b).
    program figure2 {
        arrays a, b, c, d, e;
        do i {
            doall A: j { a[i][j] = e[i-2][j-1]; }
            doall B: j { b[i][j] = a[i-1][j-1] + a[i-2][j-1]; }
            doall C: j {
                c[i][j] = b[i][j+2] - a[i][j-1] + b[i][j-1];
                d[i][j] = c[i-1][j];
            }
            doall D: j { e[i][j] = c[i][j+1]; }
        }
    }
"#;

fn main() {
    // 1. Front end: parse and analyze.
    let program = parse_program(FIGURE2).expect("the sample parses");
    let extracted = extract_mldg(&program).expect("dependence analysis succeeds");
    println!("== dependence graph ==\n{:?}\n", extracted.graph);

    // 2. Plan fusion: the planner picks Algorithm 4 (cyclic, full parallel).
    let report = core::analyze(&extracted.graph, &program.name);
    print!("{}", report.render(Some(&extracted.graph)));
    let plan = plan_fusion(&extracted.graph).expect("Figure 2 is a legal 2LDG");
    verify_plan(&extracted.graph, &plan).expect("independent verification");

    // 3. Generate the fused code.
    let spec = FusedSpec::new(program.clone(), plan.retiming().offsets().to_vec());
    println!("\n== fused code ==\n{}", spec.render());

    // 4. Execute original and fused versions and compare.
    let (n, m) = (64, 64);
    let sim_report = check_plan(&program, &plan, n, m).expect("results identical");
    println!("== simulation (n={n}, m={m}) ==");
    println!(
        "synchronizations: {} (original) -> {} (fused), {:.1}x fewer",
        sim_report.original_barriers,
        sim_report.fused_barriers,
        sim_report.original_barriers as f64 / sim_report.fused_barriers as f64
    );

    // 5. Run the certified-DOALL fused loop on real threads: the compiled
    //    kernel, in the mode the race certificate licenses, on 4 workers.
    //    Rows 1024 columns wide split into column tiles the workers share.
    let wide = 1024;
    let kernel = CompiledKernel::compile(&spec, n, wide).expect("the fused spec lowers");
    let (par_mem, _) = kernel.run_with_threads(plan_mode(&spec, &plan), 4);
    let (ref_mem, _) = run_original(&program, n, wide);
    assert_eq!(
        par_mem.fingerprint(),
        ref_mem.fingerprint(),
        "kernel execution matches the original"
    );
    println!("kernel execution on 4 workers: results identical to the sequential original");

    // 6. Predicted makespans under the machine model.
    let mp = MachineParams::default();
    let orig = sim::makespan_original(&program, n, m, &mp);
    let fused = sim::makespan_fused_rows(&spec, n, m, &mp);
    println!(
        "machine model (p={}, barrier={}): {:.0} -> {:.0} total cost ({:.2}x speedup)",
        mp.processors,
        mp.barrier_cost,
        orig.total,
        fused.total,
        sim::speedup(&orig, &fused)
    );
    let _ = ir::pretty::program_to_fortran(&program);
}
