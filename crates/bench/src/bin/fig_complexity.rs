//! Experiment FX1 — the polynomial-time claim: wall-clock runtime of the
//! four algorithms vs graph size on random legal 2LDGs. The growth should
//! track `O(|V| |E|)` (Bellman–Ford dominates everything).
//!
//! Each cell is the plain mean of a fixed number of repetitions on this
//! machine: no warm-up, spread or outlier statistics. The last two columns
//! are the minimal-vector ablation: LLOFRA as specified (one constraint per
//! edge, `δ_L = min D_L`, Definition 2.2) against one constraint per
//! dependence vector, on graphs where most edges carry several vectors.
//! The binary asserts that both formulations return the same retiming.

use std::time::Instant;

use mdf_constraint::DifferenceSystem;
use mdf_core::{fuse_acyclic, fuse_cyclic, fuse_hyperplane, llofra};
use mdf_gen::{random_acyclic_mldg, random_legal_mldg, GenConfig};
use mdf_graph::mldg::Mldg;
use mdf_graph::vec2::IVec2;

fn time_us<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// LLOFRA with one constraint per *dependence vector* instead of one per
/// edge (skipping Definition 2.2's minimal-vector reduction). The solution
/// is identical — the minimum dominates — but the system is larger.
fn llofra_all_vectors(g: &Mldg) -> Vec<IVec2> {
    let mut sys: DifferenceSystem<IVec2> = DifferenceSystem::new(g.node_count());
    for e in g.edge_ids() {
        let ed = g.edge(e);
        for d in g.deps(e).iter() {
            sys.add_le(ed.dst.index(), ed.src.index(), d);
        }
    }
    sys.solve().expect("legal by construction")
}

fn main() {
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "|V|", "|E|", "llofra(us)", "alg3(us)", "alg4(us)", "alg5(us)", "minvec(us)", "allvec(us)"
    );
    for nodes in [8usize, 16, 32, 64, 128, 256, 512] {
        let cfg = GenConfig {
            nodes,
            extra_edges: nodes * 2,
            ..GenConfig::default()
        };
        let g = random_legal_mldg(42, &cfg);
        let ga = random_acyclic_mldg(42, &cfg);
        // Plenty of multi-vector edges for the reduction ablation.
        let gm = random_legal_mldg(
            5,
            &GenConfig {
                hard_probability: 0.6,
                ..cfg
            },
        );
        assert_eq!(
            llofra(&gm).unwrap().offsets(),
            &llofra_all_vectors(&gm)[..],
            "the minimal-vector reduction changed LLOFRA's retiming"
        );
        let reps = if nodes <= 64 { 50 } else { 10 };
        let t_llofra = time_us(reps, || {
            llofra(&g).unwrap();
        });
        let t_alg3 = time_us(reps, || {
            fuse_acyclic(&ga).unwrap();
        });
        let t_alg4 = time_us(reps, || {
            let _ = fuse_cyclic(&g);
        });
        let t_alg5 = time_us(reps, || {
            fuse_hyperplane(&g).unwrap();
        });
        let t_minvec = time_us(reps, || {
            llofra(&gm).unwrap();
        });
        let t_allvec = time_us(reps, || {
            llofra_all_vectors(&gm);
        });
        println!(
            "{:>6} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            nodes,
            g.edge_count(),
            t_llofra,
            t_alg3,
            t_alg4,
            t_alg5,
            t_minvec,
            t_allvec
        );
    }
    println!("\nexpect roughly O(|V| |E|) growth (doubling |V| with |E| ~ 3|V|");
    println!("should roughly quadruple the times; absolute values are machine-dependent)");
}
