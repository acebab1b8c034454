//! The constraint graph of Section 2.4.
//!
//! An inequality `x_j - x_i <= w_ij` becomes an edge `v_i -> v_j` of weight
//! `w_ij`; shortest paths from a virtual source connected to every vertex by
//! zero-weight edges (Theorem 2.2) are then a feasible assignment, and a
//! negative cycle certifies infeasibility (Theorem 2.3 for the
//! two-dimensional case).

use crate::weight::Weight;

/// A directed, edge-weighted graph specialized for difference-constraint
/// solving. Vertices are dense `usize` indices.
#[derive(Clone, Debug)]
pub struct ConstraintGraph<W> {
    vertex_count: usize,
    edges: Vec<CEdge<W>>,
}

/// One weighted edge (one inequality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CEdge<W> {
    /// Tail (`v_i` of `x_j - x_i <= w`).
    pub src: usize,
    /// Head (`v_j`).
    pub dst: usize,
    /// Bound `w`.
    pub weight: W,
}

impl<W: Weight> ConstraintGraph<W> {
    /// Creates a graph with `vertex_count` vertices and no edges.
    pub fn new(vertex_count: usize) -> Self {
        ConstraintGraph {
            vertex_count,
            edges: Vec::new(),
        }
    }

    /// Adds the edge for `x_dst - x_src <= weight`; returns its index.
    pub fn add_edge(&mut self, src: usize, dst: usize, weight: W) -> usize {
        assert!(src < self.vertex_count && dst < self.vertex_count);
        let id = self.edges.len();
        self.edges.push(CEdge { src, dst, weight });
        id
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[CEdge<W>] {
        &self.edges
    }

    /// Edge by index.
    #[inline]
    pub fn edge(&self, id: usize) -> &CEdge<W> {
        &self.edges[id]
    }

    /// Sum of weights along a list of edge indices.
    pub fn weight_sum(&self, edge_ids: &[usize]) -> W {
        edge_ids
            .iter()
            .fold(W::ZERO, |acc, &e| acc + self.edges[e].weight)
    }
}

/// A certificate of infeasibility: a cycle whose total weight is negative
/// (lexicographically, for vector weights).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegativeCycle<W> {
    /// Edge indices of the cycle, in traversal order.
    pub edges: Vec<usize>,
    /// The (negative) total weight.
    pub total: W,
}

impl<W: Weight> NegativeCycle<W> {
    /// The vertex sequence of the cycle (one entry per edge, starting at the
    /// tail of the first edge).
    pub fn vertices(&self, g: &ConstraintGraph<W>) -> Vec<usize> {
        self.edges.iter().map(|&e| g.edge(e).src).collect()
    }

    /// Verifies the certificate against a graph: edges must chain into a
    /// closed walk and their weights must sum to a negative total.
    pub fn verify(&self, g: &ConstraintGraph<W>) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        for w in self.edges.windows(2) {
            if g.edge(w[0]).dst != g.edge(w[1]).src {
                return false;
            }
        }
        let first = g.edge(self.edges[0]).src;
        let last = g.edge(self.edges[self.edges.len() - 1]).dst;
        first == last && g.weight_sum(&self.edges) == self.total && self.total < W::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_graph::v2;
    use mdf_graph::vec2::IVec2;

    #[test]
    fn build_and_query() {
        let mut g: ConstraintGraph<i64> = ConstraintGraph::new(3);
        let e0 = g.add_edge(0, 1, 5);
        let e1 = g.add_edge(1, 2, -2);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge(e0).weight, 5);
        assert_eq!(g.weight_sum(&[e0, e1]), 3);
    }

    #[test]
    fn negative_cycle_verification() {
        let mut g: ConstraintGraph<IVec2> = ConstraintGraph::new(2);
        let e0 = g.add_edge(0, 1, v2(0, -2));
        let e1 = g.add_edge(1, 0, v2(0, 1));
        let good = NegativeCycle {
            edges: vec![e0, e1],
            total: v2(0, -1),
        };
        assert!(good.verify(&g));
        assert_eq!(good.vertices(&g), vec![0, 1]);
        let bad_total = NegativeCycle {
            edges: vec![e0, e1],
            total: v2(0, -2),
        };
        assert!(!bad_total.verify(&g));
        let not_closed = NegativeCycle {
            edges: vec![e0],
            total: v2(0, -2),
        };
        assert!(!not_closed.verify(&g));
    }
}
