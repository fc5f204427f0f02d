//! Frontier bookkeeping for direction-optimizing traversals.
//!
//! A level-synchronous BFS that switches between top-down (push) and
//! bottom-up (pull) steps needs two things from its frontier beyond
//! membership: a cheap conversion between the sparse (packed queue) and
//! dense (bitmap) representations, and a running *degree-weighted* size —
//! the number of edges incident to the frontier — because the push→pull
//! switch heuristic compares edges-in-frontier against edges-still-
//! unexplored, not vertex counts (Beamer et al., SC'12; see
//! `graphct_kernels::bfs` for the heuristic itself).

use crate::bitmap::AtomicBitmap;
use rayon::prelude::*;

/// A BFS frontier in either sparse (queue) or dense (bitmap) form.
#[derive(Debug)]
pub enum Frontier {
    /// Packed vertex queue — work scales with the frontier.
    Sparse(Vec<u32>),
    /// Bitmap plus its population count — membership tests are O(1).
    Dense { bits: AtomicBitmap, count: usize },
}

impl Frontier {
    /// A frontier holding exactly the given vertices.
    pub fn sparse(vertices: Vec<u32>) -> Self {
        Frontier::Sparse(vertices)
    }

    /// A frontier from a bitmap whose population count the caller already
    /// tracked (avoids a re-count sweep).
    pub fn dense(bits: AtomicBitmap, count: usize) -> Self {
        debug_assert_eq!(bits.count_ones(), count);
        Frontier::Dense { bits, count }
    }

    /// Number of vertices in the frontier.
    pub fn len(&self) -> usize {
        match self {
            Frontier::Sparse(v) => v.len(),
            Frontier::Dense { count, .. } => *count,
        }
    }

    /// `true` when the traversal is finished.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Degree-weighted size: the number of edge endpoints incident to the
    /// frontier, i.e. the work a push step would perform.  `degrees[v]`
    /// must hold the out-degree of vertex `v`.
    pub fn edge_weight(&self, degrees: &[usize]) -> usize {
        match self {
            Frontier::Sparse(v) => v.par_iter().map(|&u| degrees[u as usize]).sum(),
            Frontier::Dense { bits, .. } => bits.iter_ones().map(|u| degrees[u]).sum(),
        }
    }

    /// The frontier as a packed queue, repacking a bitmap if necessary
    /// (the dense→sparse conversion of a pull→push direction switch).
    pub fn into_sparse(self) -> Vec<u32> {
        match self {
            Frontier::Sparse(v) => v,
            Frontier::Dense { bits, .. } => bits.to_queue(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_len_and_weight() {
        let f = Frontier::sparse(vec![0, 2, 4]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        let degrees = [5usize, 1, 7, 1, 3];
        assert_eq!(f.edge_weight(&degrees), 15);
        assert_eq!(f.into_sparse(), vec![0, 2, 4]);
    }

    #[test]
    fn dense_round_trips_to_sparse() {
        let bits = AtomicBitmap::new(100);
        for i in [3usize, 64, 99] {
            bits.set(i);
        }
        let f = Frontier::dense(bits, 3);
        assert_eq!(f.len(), 3);
        let degrees = vec![2usize; 100];
        assert_eq!(f.edge_weight(&degrees), 6);
        assert_eq!(f.into_sparse(), vec![3, 64, 99]);
    }

    #[test]
    fn empty_frontiers() {
        assert!(Frontier::sparse(Vec::new()).is_empty());
        assert!(Frontier::dense(AtomicBitmap::new(10), 0).is_empty());
    }
}
