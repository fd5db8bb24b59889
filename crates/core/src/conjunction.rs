//! Linear-constraint queries: conjunctions of scalar product inequalities.
//!
//! The paper's related-work discussion (§2, "Linear constraint queries")
//! notes that the search region of a linear constraint query is an
//! intersection of half-spaces, and that "one could also apply multiple
//! Planar indices in answering such linear constraint queries". This module
//! implements that suggestion:
//!
//! Given constraints `⟨a₁,φ(x)⟩ ≤ b₁ ∧ … ∧ ⟨a_m,φ(x)⟩ ≤ b_m`, each
//! constraint gets interval boundaries from the best index for *it*; a
//! point wholesale-rejected by **any** constraint is out, a point
//! wholesale-accepted by **all** constraints is in, and only the rest are
//! verified — against the cheapest constraint first, so most failing points
//! cost a single scalar product.

use crate::multi::PlanarIndexSet;
use crate::query::InequalityQuery;
use crate::stats::{ExecutionPath, QueryStats, ScanReason};
use crate::store::KeyStore;
use crate::table::PointId;
use crate::{PlanarError, Result};

/// A conjunction of inequality constraints (all must hold).
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctionQuery {
    constraints: Vec<InequalityQuery>,
}

impl ConjunctionQuery {
    /// Build from at least one constraint; all must share dimensionality.
    ///
    /// # Errors
    ///
    /// [`PlanarError::EmptyDataset`] with zero constraints,
    /// [`PlanarError::DimensionMismatch`] on mixed dimensionality.
    pub fn new(constraints: Vec<InequalityQuery>) -> Result<Self> {
        let first = constraints.first().ok_or(PlanarError::EmptyDataset)?;
        let dim = first.dim();
        for c in &constraints {
            if c.dim() != dim {
                return Err(PlanarError::DimensionMismatch {
                    expected: dim,
                    found: c.dim(),
                });
            }
        }
        Ok(Self { constraints })
    }

    /// The constraints.
    pub fn constraints(&self) -> &[InequalityQuery] {
        &self.constraints
    }

    /// Dimensionality of the query space.
    pub fn dim(&self) -> usize {
        self.constraints[0].dim()
    }

    /// Exact predicate: does the row satisfy every constraint?
    pub fn satisfies(&self, phi: &[f64]) -> bool {
        self.constraints.iter().all(|c| c.satisfies(phi))
    }
}

/// Result of a conjunction query.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctionOutcome {
    /// Ids of points satisfying every constraint (unspecified order).
    pub matches: Vec<PointId>,
    /// Combined statistics. `verified` counts scalar products actually
    /// computed across all constraints.
    pub stats: QueryStats,
}

impl ConjunctionOutcome {
    /// Matching ids in ascending order.
    pub fn sorted_ids(&self) -> Vec<PointId> {
        let mut ids = self.matches.clone();
        ids.sort_unstable();
        ids
    }
}

impl<S: KeyStore> PlanarIndexSet<S> {
    /// Answer a conjunction of inequality constraints (linear constraint
    /// query, §2). Exact.
    ///
    /// Execution plan: every constraint is planned against its best index
    /// (two rank queries, no data touched); the **most selective**
    /// constraint — the one whose larger interval wholesale-rejects the
    /// most points — becomes the *driver*. Only the driver's accepted +
    /// intermediate intervals are enumerated; each candidate is verified
    /// against the remaining constraints (and against the driver itself
    /// inside its intermediate interval). Points the driver rejects
    /// wholesale are never touched, so a selective constraint anywhere in
    /// the conjunction prunes the whole query.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] when constraint dimensionality
    /// differs from the table's.
    pub fn query_conjunction(&self, q: &ConjunctionQuery) -> Result<ConjunctionOutcome> {
        if q.dim() != self.dim() {
            return Err(PlanarError::DimensionMismatch {
                expected: self.dim(),
                found: q.dim(),
            });
        }
        // Every index store holds exactly the live points, so ranks and
        // ranges are in live-count space.
        let n = self.len();

        // Plan every indexable constraint (two rank queries each, no data
        // touched).
        let mut plans: Vec<(usize, DriverPlan)> = Vec::new();
        for (ci, c) in q.constraints().iter().enumerate() {
            if let Some((pos, bounds, cmp)) = self.constraint_plan(c) {
                plans.push((ci, DriverPlan { pos, bounds, cmp }));
            }
        }
        let any_indexed = !plans.is_empty();

        let mut matches = Vec::new();
        let mut verified = 0usize;
        let mut smaller = 0usize;
        let mut quant = crate::quant::QuantFilterStats::default();
        if any_indexed {
            // Pick the *index position* whose intersected candidate range
            // is narrowest — constraints sharing an index (e.g. the two
            // sides of a band) prune jointly by rank.
            // Candidate-range intersection per index position.
            let mut best: Option<(usize, (usize, usize))> = None; // (pos, range)
            for (_, plan) in &plans {
                let mut lo = 0usize;
                let mut hi = n;
                for (_, other) in plans.iter().filter(|(_, o)| o.pos == plan.pos) {
                    let (olo, ohi) = other.candidate_range(n);
                    lo = lo.max(olo);
                    hi = hi.min(ohi);
                }
                let hi = hi.max(lo);
                if best.is_none_or(|(_, (blo, bhi))| hi - lo < bhi - blo) {
                    best = Some((plan.pos, (lo, hi)));
                }
            }
            let (pos, (lo, hi)) = best.expect("at least one plan exists");
            // Accepted rank ranges of the driver-index constraints: inside
            // them the constraint is proven and needs no verification.
            let accepted_ranges: Vec<(usize, (usize, usize))> = plans
                .iter()
                .filter(|(_, p)| p.pos == pos)
                .map(|(ci, p)| (*ci, p.accepted_range(n)))
                .collect();
            let idx = self.index_at(pos).expect("planned index exists");
            for (offset, &id) in idx.ids()[lo..hi].iter().enumerate() {
                let rank = lo + offset;
                verified += 1;
                let fully_accepted = accepted_ranges
                    .iter()
                    .all(|(_, (alo, ahi))| (*alo..*ahi).contains(&rank));
                if fully_accepted {
                    smaller += 1;
                }
                let row = self.table().row(id);
                let ok = q.constraints().iter().enumerate().all(|(ci, c)| {
                    let proven = accepted_ranges
                        .iter()
                        .any(|(aci, (alo, ahi))| *aci == ci && (*alo..*ahi).contains(&rank));
                    proven || c.satisfies(row)
                });
                if ok {
                    matches.push(id);
                }
            }
        } else if let Some(qcols) = self.table().quant() {
            // No constraint can use an index, but the quantized tier can
            // still wholesale-reject rows that provably fail the first
            // constraint — a row out on any constraint is out of the
            // conjunction. Survivors are checked exactly (skipping the
            // first constraint for lanes the filter already proved), so
            // answers match the plain scan bit for bit.
            quant.tier = crate::quant::QuantTier::I16;
            let c0 = &q.constraints()[0];
            let mut filter = crate::quant::QuantFilter::new(c0, qcols);
            let table = self.table();
            for (first, rows) in table.blocks() {
                let lanes = rows.len() / table.dim();
                let lanes_mask = if lanes == planar_geom::BLOCK_ROWS {
                    u64::MAX
                } else {
                    (1u64 << lanes) - 1
                };
                let (accept, reject) = match filter.classify(first, lanes) {
                    crate::quant::BlockClass::Fallback => {
                        quant.fallback += lanes;
                        (0u64, 0u64)
                    }
                    crate::quant::BlockClass::Classified { accept, reject } => {
                        quant.lanes += lanes;
                        quant.accepted += accept.count_ones() as usize;
                        quant.rejected += (reject & lanes_mask).count_ones() as usize;
                        quant.reverified += (!(accept | reject) & lanes_mask).count_ones() as usize;
                        (accept, reject)
                    }
                };
                for (l, row) in rows.chunks_exact(table.dim()).enumerate() {
                    if reject >> l & 1 == 1 {
                        continue;
                    }
                    let id = table.id_at(first + l as u32);
                    if !self.is_live(id) {
                        continue;
                    }
                    verified += 1;
                    let ok = if accept >> l & 1 == 1 {
                        q.constraints()[1..].iter().all(|c| c.satisfies(row))
                    } else {
                        q.satisfies(row)
                    };
                    if ok {
                        matches.push(id);
                    }
                }
            }
            // Slots run in the table's block order, not id order.
            matches.sort_unstable();
        } else {
            // No constraint can use an index: exact scan over live rows.
            for (id, row) in self.table().iter() {
                if self.is_live(id) && q.satisfies(row) {
                    matches.push(id);
                }
            }
            verified = n;
        }

        let stats = QueryStats {
            n,
            smaller,
            intermediate: verified.saturating_sub(smaller),
            larger: n.saturating_sub(verified),
            verified,
            intersect_pruned: 0,
            matched: matches.len(),
            quant,
            fill_skipped: 0,
            path: if any_indexed {
                ExecutionPath::Index { index: 0 }
            } else {
                ExecutionPath::ScanFallback(ScanReason::OctantMismatch)
            },
        };
        Ok(ConjunctionOutcome { matches, stats })
    }
}

/// The chosen driver constraint's plan.
struct DriverPlan {
    pos: usize,
    bounds: crate::index::IntervalBounds,
    cmp: crate::query::Cmp,
}

impl DriverPlan {
    /// Rank range of points this constraint does not wholesale-reject.
    fn candidate_range(&self, n: usize) -> (usize, usize) {
        match self.cmp {
            crate::query::Cmp::Leq => (0, self.bounds.j_max),
            crate::query::Cmp::Geq => (self.bounds.j_min, n),
        }
    }

    /// Rank range where this constraint is proven satisfied.
    fn accepted_range(&self, n: usize) -> (usize, usize) {
        match self.cmp {
            crate::query::Cmp::Leq => (0, self.bounds.j_min),
            crate::query::Cmp::Geq => (self.bounds.j_max, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ParameterDomain;
    use crate::multi::IndexConfig;
    use crate::query::Cmp;
    use crate::store::VecStore;
    use crate::table::FeatureTable;

    fn setup() -> PlanarIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![1.0 + (i % 20) as f64, 1.0 + (i / 20) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 3.0).unwrap();
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(10)).unwrap()
    }

    fn brute(set: &PlanarIndexSet<VecStore>, q: &ConjunctionQuery) -> Vec<PointId> {
        set.table()
            .iter()
            .filter(|(_, row)| q.satisfies(row))
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(ConjunctionQuery::new(vec![]).is_err());
        let a = InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap();
        let b = InequalityQuery::leq(vec![1.0], 5.0).unwrap();
        assert!(ConjunctionQuery::new(vec![a.clone(), b]).is_err());
        assert!(ConjunctionQuery::new(vec![a]).is_ok());
    }

    #[test]
    fn band_query_matches_brute_force() {
        let set = setup();
        // 10 ≤ x + 2y ≤ 30 — a classic band (two half-spaces).
        let q = ConjunctionQuery::new(vec![
            InequalityQuery::new(vec![1.0, 2.0], Cmp::Geq, 10.0).unwrap(),
            InequalityQuery::new(vec![1.0, 2.0], Cmp::Leq, 30.0).unwrap(),
        ])
        .unwrap();
        let out = set.query_conjunction(&q).unwrap();
        assert_eq!(out.sorted_ids(), brute(&set, &q));
        assert!(!out.matches.is_empty());
        assert!(out.stats.matched > 0);
    }

    #[test]
    fn polytope_query_matches_brute_force() {
        let set = setup();
        let q = ConjunctionQuery::new(vec![
            InequalityQuery::leq(vec![1.0, 1.0], 25.0).unwrap(),
            InequalityQuery::geq(vec![2.0, 0.5], 6.0).unwrap(),
            InequalityQuery::leq(vec![0.5, 2.0], 30.0).unwrap(),
        ])
        .unwrap();
        let out = set.query_conjunction(&q).unwrap();
        assert_eq!(out.sorted_ids(), brute(&set, &q));
    }

    #[test]
    fn contradictory_constraints_yield_empty() {
        let set = setup();
        let q = ConjunctionQuery::new(vec![
            InequalityQuery::leq(vec![1.0, 1.0], 5.0).unwrap(),
            InequalityQuery::geq(vec![1.0, 1.0], 100.0).unwrap(),
        ])
        .unwrap();
        let out = set.query_conjunction(&q).unwrap();
        assert!(out.matches.is_empty());
    }

    #[test]
    fn scan_constraints_mix_with_indexed_ones() {
        let set = setup();
        // Second constraint has a zero coefficient → per-constraint scan.
        let q = ConjunctionQuery::new(vec![
            InequalityQuery::leq(vec![1.0, 1.0], 30.0).unwrap(),
            InequalityQuery::leq(vec![0.0, 1.0], 10.0).unwrap(),
        ])
        .unwrap();
        let out = set.query_conjunction(&q).unwrap();
        assert_eq!(out.sorted_ids(), brute(&set, &q));
    }

    #[test]
    fn deleted_points_are_excluded() {
        let mut set = setup();
        let q = ConjunctionQuery::new(vec![InequalityQuery::leq(vec![1.0, 1.0], 1000.0).unwrap()])
            .unwrap();
        let before = set.query_conjunction(&q).unwrap().matches.len();
        set.delete_point(3).unwrap();
        let out = set.query_conjunction(&q).unwrap();
        assert_eq!(out.matches.len(), before - 1);
        assert!(!out.sorted_ids().contains(&3));
    }

    #[test]
    fn stats_partition_the_dataset() {
        let set = setup();
        let q = ConjunctionQuery::new(vec![
            InequalityQuery::leq(vec![1.0, 2.0], 20.0).unwrap(),
            InequalityQuery::geq(vec![2.0, 1.0], 8.0).unwrap(),
        ])
        .unwrap();
        let st = set.query_conjunction(&q).unwrap().stats;
        assert_eq!(st.smaller + st.intermediate + st.larger, st.n);
        // Every touched candidate counts as verified (driver-accepted ones
        // still check the remaining constraints).
        assert_eq!(st.verified, st.smaller + st.intermediate);
    }
}
