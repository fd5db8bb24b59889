//! The sequential-scan baseline (the "naïve approach" of paper §3).
//!
//! Every experiment in the paper compares the Planar index against a scan
//! over the entire dataset: `O(n·d')` for the inequality query and
//! `O(n·d' + k·log k)` for the top-k query. The scan is also the reference
//! implementation our property tests compare the index against — the index
//! must return *exactly* the same answer set.

use crate::parallel::{drain_ascending, Emit, IdBits};
use crate::query::{Cmp, InequalityQuery, TopKQuery};
use crate::table::{FeatureTable, PointId};
use crate::{PlanarError, Result};
use planar_geom::{dot_block_cols, dot_cmp_block, BLOCK_ROWS};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate in the top-k buffer, ordered by distance (max-heap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub dist: f64,
    pub id: PointId,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances are finite; ties broken by id for determinism.
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded max-heap holding the `k` best (smallest-distance) candidates
/// seen so far — the paper's "top-k buffer" (Algorithm 2).
#[derive(Debug, Clone)]
pub(crate) struct TopKBuffer {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl TopKBuffer {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer a candidate; keeps only the `k` smallest in `(dist, id)`
    /// order. The id tie-break makes the buffer content independent of the
    /// order candidates arrive in — indexed and scan execution visit points
    /// in different orders and must return identical answers even when
    /// distances tie exactly.
    pub(crate) fn offer(&mut self, dist: f64, id: PointId) {
        let cand = Candidate { dist, id };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(worst) = self.heap.peek() {
            if cand < *worst {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Largest distance currently kept, if the buffer is non-empty.
    pub(crate) fn worst(&self) -> Option<f64> {
        self.heap.peek().map(|c| c.dist)
    }

    /// Offer every id of `ids` — points already known to satisfy `query` —
    /// at its row's distance from the query hyperplane. The distance comes
    /// from [`InequalityQuery::distance`], bit-identical to
    /// [`InequalityQuery::distance_from_dot`] of any block kernel's lane.
    pub(crate) fn offer_rows(
        &mut self,
        query: &InequalityQuery,
        table: &FeatureTable,
        ids: &[PointId],
    ) {
        for &id in ids {
            self.offer(query.distance(table.row(id)), id);
        }
    }

    /// Drain into `(id, dist)` pairs sorted by ascending distance.
    pub(crate) fn into_sorted(self) -> Vec<(PointId, f64)> {
        let mut v: Vec<Candidate> = self.heap.into_vec();
        v.sort();
        v.into_iter().map(|c| (c.id, c.dist)).collect()
    }
}

/// Sequential-scan evaluation over a [`FeatureTable`].
#[derive(Debug, Clone, Copy)]
pub struct SeqScan<'a> {
    table: &'a FeatureTable,
}

impl<'a> SeqScan<'a> {
    /// A scanner over `table`.
    pub fn new(table: &'a FeatureTable) -> Self {
        Self { table }
    }

    /// All point ids satisfying the inequality, in id order.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] when the query dimensionality
    /// differs from the table's.
    pub fn evaluate(&self, query: &InequalityQuery) -> Result<Vec<PointId>> {
        self.check_dim(query)?;
        // Slot order is id order unless the table is clustered; then the
        // ids go through an id-space bitmap, drained in ascending order.
        let mut out = Vec::new();
        if self.table.is_clustered() {
            let mut found = vec![0u64; self.table.len().div_ceil(BLOCK_ROWS)];
            self.emit_matches(query, &mut IdBits(&mut found));
            drain_ascending(&found, &mut out);
        } else {
            self.emit_matches(query, &mut out);
        }
        Ok(out)
    }

    /// Count of satisfying points (selectivity numerator) without
    /// materializing ids.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn count(&self, query: &InequalityQuery) -> Result<usize> {
        self.check_dim(query)?;
        let mut count = 0;
        self.masked(query, |_, mask| {
            count += mask.count_ones() as usize;
        });
        Ok(count)
    }

    /// The top-k satisfying points nearest the query hyperplane, sorted by
    /// ascending distance (paper Problem 2, solved naïvely). The only top-k
    /// path that computes `f64` block products ([`dot_block_cols`]); the
    /// engine's top-k paths verify through the inequality kernels instead,
    /// so this stays an independent oracle for them.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] on dimensionality mismatch.
    pub fn top_k(&self, q: &TopKQuery) -> Result<Vec<(PointId, f64)>> {
        self.check_dim(&q.query)?;
        let mut buf = TopKBuffer::new(q.k);
        self.blocked(&q.query, |id, dot| {
            if q.query.satisfies_dot(dot) {
                buf.offer(q.query.distance_from_dot(dot), id);
            }
        });
        Ok(buf.into_sorted())
    }

    /// Drive `f(id, ⟨a, row⟩)` over every row in slot order, computing the
    /// scalar products one columnar block at a time with
    /// [`dot_block_cols`]. The dot buffer lives on the stack, so the scan
    /// loop itself allocates nothing; results are bit-identical to the
    /// row-at-a-time path (see the accumulation guarantee in
    /// `planar_geom::kernels`).
    fn blocked(&self, query: &InequalityQuery, mut f: impl FnMut(PointId, f64)) {
        let cols = self.table.columns();
        let mut dots = [0.0f64; BLOCK_ROWS];
        for seg in cols.segments(0, self.table.len() as PointId) {
            dot_block_cols(query.a(), seg.cols, cols.stride(), &mut dots[..seg.lanes]);
            for (i, &dot) in dots[..seg.lanes].iter().enumerate() {
                f(self.table.id_at(seg.first + i as u32), dot);
            }
        }
    }

    /// Emit the id of every row satisfying `query`, in slot order.
    fn emit_matches(&self, query: &InequalityQuery, out: &mut impl Emit) {
        self.masked(query, |first, mut mask| {
            while mask != 0 {
                out.emit(self.table.id_at(first + mask.trailing_zeros()));
                mask &= mask - 1;
            }
        });
    }

    /// Drive `f(first_slot, predicate_mask)` over every columnar block in
    /// slot order with the fused [`dot_cmp_block`] kernel — the scalar
    /// products never leave the vector registers. Bit `i` of the mask
    /// corresponds to slot `first_slot + i` (see
    /// [`FeatureTable::id_at`]).
    fn masked(&self, query: &InequalityQuery, mut f: impl FnMut(PointId, u64)) {
        let cols = self.table.columns();
        let leq = query.cmp() == Cmp::Leq;
        for seg in cols.segments(0, self.table.len() as PointId) {
            let mask = dot_cmp_block(
                query.a(),
                seg.cols,
                cols.stride(),
                seg.lanes,
                query.b(),
                leq,
            );
            f(seg.first, mask);
        }
    }

    fn check_dim(&self, query: &InequalityQuery) -> Result<()> {
        if query.dim() != self.table.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: self.table.dim(),
                found: query.dim(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Cmp;

    fn table() -> FeatureTable {
        FeatureTable::from_rows(
            2,
            vec![
                vec![1.0, 1.0], // ⟨(1,1),·⟩ = 2
                vec![2.0, 3.0], // 5
                vec![4.0, 4.0], // 8
                vec![0.5, 0.5], // 1
            ],
        )
        .unwrap()
    }

    #[test]
    fn evaluate_leq_and_geq() {
        let t = table();
        let scan = SeqScan::new(&t);
        let q = InequalityQuery::new(vec![1.0, 1.0], Cmp::Leq, 5.0).unwrap();
        assert_eq!(scan.evaluate(&q).unwrap(), vec![0, 1, 3]);
        let g = InequalityQuery::new(vec![1.0, 1.0], Cmp::Geq, 5.0).unwrap();
        assert_eq!(scan.evaluate(&g).unwrap(), vec![1, 2]);
        assert_eq!(scan.count(&q).unwrap(), 3);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let t = table();
        let scan = SeqScan::new(&t);
        let q = InequalityQuery::leq(vec![1.0], 5.0).unwrap();
        assert!(scan.evaluate(&q).is_err());
        assert!(scan.count(&q).is_err());
    }

    #[test]
    fn top_k_orders_by_distance() {
        let t = table();
        let scan = SeqScan::new(&t);
        // distances to x+y=5: ids 0→3/√2, 1→0, 2→3/√2(unsat), 3→4/√2
        let q = TopKQuery::new(InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap(), 2).unwrap();
        let res = scan.top_k(&q).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].0, 1);
        assert!((res[0].1 - 0.0).abs() < 1e-12);
        assert_eq!(res[1].0, 0);
    }

    #[test]
    fn top_k_with_k_exceeding_matches() {
        let t = table();
        let scan = SeqScan::new(&t);
        let q = TopKQuery::new(InequalityQuery::leq(vec![1.0, 1.0], 2.0).unwrap(), 10).unwrap();
        let res = scan.top_k(&q).unwrap();
        assert_eq!(res.len(), 2); // only ids 0 and 3 satisfy
        assert!(res[0].1 <= res[1].1);
    }

    #[test]
    fn blocked_scan_matches_rowwise_across_block_boundaries() {
        // More rows than one columnar block so the loop takes several
        // blocks plus a ragged tail.
        let n = 3 * BLOCK_ROWS + 17;
        let t = FeatureTable::from_rows(
            3,
            (0..n).map(|i| vec![i as f64 * 0.25, (i % 7) as f64, 1.0 / (i + 1) as f64]),
        )
        .unwrap();
        let scan = SeqScan::new(&t);
        let q = InequalityQuery::new(vec![0.5, 1.5, 2.0], Cmp::Leq, 40.0).unwrap();
        let expected: Vec<PointId> = t
            .iter()
            .filter(|(_, row)| q.satisfies(row))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(scan.evaluate(&q).unwrap(), expected);
        assert_eq!(scan.count(&q).unwrap(), expected.len());

        let topk = TopKQuery::new(q.clone(), 9).unwrap();
        let mut buf = TopKBuffer::new(9);
        for (id, row) in t.iter() {
            if q.satisfies(row) {
                buf.offer(q.distance(row), id);
            }
        }
        assert_eq!(scan.top_k(&topk).unwrap(), buf.into_sorted());
    }

    #[test]
    fn buffer_keeps_k_smallest_with_deterministic_ties() {
        let mut buf = TopKBuffer::new(2);
        buf.offer(5.0, 0);
        buf.offer(1.0, 1);
        buf.offer(1.0, 2);
        buf.offer(3.0, 3);
        let out = buf.into_sorted();
        assert_eq!(out, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn buffer_worst_and_full() {
        let mut buf = TopKBuffer::new(2);
        assert!(!buf.is_full());
        assert_eq!(buf.worst(), None);
        buf.offer(2.0, 0);
        buf.offer(7.0, 1);
        assert!(buf.is_full());
        assert_eq!(buf.worst(), Some(7.0));
        buf.offer(1.0, 2); // evicts 7.0
        assert_eq!(buf.worst(), Some(2.0));
    }
}
