//! Floyd–Warshall all-pairs shortest paths.
//!
//! `O(|V|^3)` and allocation-heavy — used only as an independent oracle for
//! property-testing the Bellman–Ford solver, never on the hot path.

use crate::graph::ConstraintGraph;
use crate::weight::Weight;

/// All-pairs shortest path matrix; `dist[u][v] = None` means unreachable.
/// Returns `Err(())` when any negative cycle exists (detected as a negative
/// diagonal entry).
#[allow(clippy::result_unit_err, clippy::needless_range_loop)]
pub fn all_pairs_shortest_paths<W: Weight>(
    g: &ConstraintGraph<W>,
) -> Result<Vec<Vec<Option<W>>>, ()> {
    let n = g.vertex_count();
    let mut dist: Vec<Vec<Option<W>>> = vec![vec![None; n]; n];
    for (v, row) in dist.iter_mut().enumerate() {
        row[v] = Some(W::ZERO);
    }
    for e in g.edges() {
        let entry = &mut dist[e.src][e.dst];
        if entry.is_none_or(|d| e.weight < d) {
            *entry = Some(e.weight);
        }
    }
    for k in 0..n {
        for i in 0..n {
            let Some(dik) = dist[i][k] else { continue };
            for j in 0..n {
                let Some(dkj) = dist[k][j] else { continue };
                let cand = dik + dkj;
                if dist[i][j].is_none_or(|d| cand < d) {
                    dist[i][j] = Some(cand);
                }
            }
        }
    }
    for (v, row) in dist.iter().enumerate() {
        if row[v].is_some_and(|d| d < W::ZERO) {
            return Err(());
        }
    }
    Ok(dist)
}

/// Difference-constraint solution via Floyd–Warshall (virtual source
/// emulated by taking, for each vertex, the minimum distance from any
/// vertex — every vertex is at distance 0 from the source).
#[allow(clippy::result_unit_err)]
pub fn solve_difference_constraints_floyd<W: Weight>(g: &ConstraintGraph<W>) -> Result<Vec<W>, ()> {
    let ap = all_pairs_shortest_paths(g)?;
    let n = g.vertex_count();
    let mut out = Vec::with_capacity(n);
    for v in 0..n {
        let mut best = W::ZERO;
        for row in ap.iter() {
            if let Some(d) = row[v] {
                if d < best {
                    best = d;
                }
            }
        }
        out.push(best);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bellman_ford::solve_difference_constraints;
    use crate::graph::ConstraintGraph;
    use mdf_graph::v2;
    use mdf_graph::vec2::IVec2;

    #[test]
    fn agrees_with_bellman_ford() {
        let mut g: ConstraintGraph<IVec2> = ConstraintGraph::new(4);
        g.add_edge(0, 1, v2(1, 1));
        g.add_edge(1, 2, v2(0, -2));
        g.add_edge(2, 3, v2(0, -1));
        g.add_edge(0, 2, v2(0, 1));
        g.add_edge(3, 0, v2(2, 1));
        let bf = solve_difference_constraints(&g).expect_feasible("bf");
        let fw = solve_difference_constraints_floyd(&g).expect("feasible");
        assert_eq!(bf, fw);
    }

    #[test]
    fn detects_negative_cycle() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(2);
        g.add_edge(0, 1, -2);
        g.add_edge(1, 0, 1);
        assert!(all_pairs_shortest_paths(&g).is_err());
        assert!(solve_difference_constraints_floyd(&g).is_err());
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(3);
        g.add_edge(0, 1, 4);
        let ap = all_pairs_shortest_paths(&g).unwrap();
        assert_eq!(ap[0][1], Some(4));
        assert_eq!(ap[1][0], None);
        assert_eq!(ap[2][0], None);
        assert_eq!(ap[2][2], Some(0));
    }

    #[test]
    fn parallel_edges_take_minimum() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(2);
        g.add_edge(0, 1, 9);
        g.add_edge(0, 1, 3);
        let ap = all_pairs_shortest_paths(&g).unwrap();
        assert_eq!(ap[0][1], Some(3));
    }
}
