//! Pair-intersection indexes: the φ-mappings of Example 2 / §7.5.1 and the
//! MOVIES-style time-sliced Planar index sets built on them.
//!
//! Each index answers: *given a future time `t` and distance `S`, which
//! cross-set pairs are within `S` at `t`?* The squared pair distance is a
//! scalar product `⟨params(t), φ(pair)⟩`, so one `PlanarIndexSet` over all
//! pairs — with one index normal per anticipated time instant — answers the
//! query exactly. When `t` hits an indexed instant the chosen index is
//! *parallel* to the query and pruning is total (paper Corollary 1).

use crate::kinematics::{dot3, sub3, AcceleratingMotion, CircularMotion, LinearMotion};
use crate::{MovingError, Pair, Result};
use planar_core::{
    Domain, FeatureTable, InequalityQuery, KeyStore, ParameterDomain, PlanarIndexSet, QueryStats,
    SelectionStrategy, VecStore,
};

/// Smallest positive value used to keep trigonometric parameter domains and
/// index normals away from zero (a coefficient of exactly zero falls back
/// to a scan — sound, just slower; see `planar_core::stats::ScanReason`).
const TRIG_EPS: f64 = 1e-6;

// ---------------------------------------------------------------------------
// φ-mappings and parameter vectors
// ---------------------------------------------------------------------------

/// Linear–linear pair features: `φ = (|Δp|², 2Δp·Δu, |Δu|²)` (§7.5.1).
pub fn linear_pair_phi(a: &LinearMotion, b: &LinearMotion) -> [f64; 3] {
    let dp = sub3(&a.p, &b.p);
    let du = sub3(&a.u, &b.u);
    [dot3(&dp, &dp), 2.0 * dot3(&dp, &du), dot3(&du, &du)]
}

/// Linear–linear parameter vector `(1, t, t²)`.
pub fn linear_params(t: f64) -> [f64; 3] {
    [1.0, t, t * t]
}

/// Accelerating–linear pair features (§7.5.1, corrected for the paper's
/// obvious typos): with `Δp = p₁−p₂`, `Δu = u₁−u₂` and `a` the acceleration
/// of the first object,
///
/// ```text
/// |Δ(t)|² = |Δp|² + 2Δp·Δu·t + (|Δu|² + Δp·a)·t² + (Δu·a)·t³ + ¼|a|²·t⁴
/// ```
pub fn accelerating_pair_phi(acc: &AcceleratingMotion, lin: &LinearMotion) -> [f64; 5] {
    let dp = sub3(&acc.p, &lin.p);
    let du = sub3(&acc.u, &lin.u);
    [
        dot3(&dp, &dp),
        2.0 * dot3(&dp, &du),
        dot3(&du, &du) + dot3(&dp, &acc.a),
        dot3(&du, &acc.a),
        0.25 * dot3(&acc.a, &acc.a),
    ]
}

/// Accelerating–linear parameter vector `(1, t, t², t³, t⁴)`.
pub fn accelerating_params(t: f64) -> [f64; 5] {
    let t2 = t * t;
    [1.0, t, t2, t2 * t, t2 * t2]
}

/// Circular–linear pair features — the paper's Example 2 monomials
/// `X₁ … X₇` for a circle `(r·sin ωt, r·cos ωt)` against a line
/// `(pₓ+uₓt, p_y+u_yt)`:
pub fn circular_pair_phi(c: &CircularMotion, l: &LinearMotion) -> [f64; 7] {
    let (r, px, py, ux, uy) = (c.r, l.p[0], l.p[1], l.u[0], l.u[1]);
    [
        r * r + px * px + py * py + 2.0 * r * px + 2.0 * r * py, // X1
        2.0 * (ux * (r + px) + uy * (r + py)),                   // X2
        -2.0 * r * px,                                           // X3
        -2.0 * r * py,                                           // X4
        -2.0 * r * ux,                                           // X5
        -2.0 * r * uy,                                           // X6
        ux * ux + uy * uy,                                       // X7
    ]
}

/// Circular–linear parameter vector (Example 2): depends on the circular
/// object's angular velocity `ω` as well as `t`:
/// `(1, t, 1+sin ωt, 1+cos ωt, t(1+sin ωt), t(1+cos ωt), t²)`.
pub fn circular_params(t: f64, omega: f64) -> [f64; 7] {
    let (s, c) = (omega * t).sin_cos();
    [
        1.0,
        t,
        1.0 + s,
        1.0 + c,
        t * (1.0 + s),
        t * (1.0 + c),
        t * t,
    ]
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

fn validate_instants(instants: &[f64]) -> Result<(f64, f64)> {
    if instants.is_empty() || instants.iter().any(|&t| t <= 0.0 || !t.is_finite()) {
        return Err(MovingError::BadTimeInstants);
    }
    let lo = instants.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = instants.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok((lo, hi))
}

fn recompute_horizon(instants: &[f64]) -> (f64, f64) {
    let lo = instants.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = instants.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

fn check_advance(instants: &[f64], new_instant: f64) -> Result<()> {
    let max = instants.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !new_instant.is_finite() || new_instant <= max {
        return Err(MovingError::BadTimeInstants);
    }
    Ok(())
}

fn check_pair_count(a: usize, b: usize) -> Result<()> {
    if a == 0 || b == 0 {
        return Err(MovingError::EmptySet);
    }
    if (a as u128) * (b as u128) > u32::MAX as u128 {
        return Err(MovingError::TooManyPairs);
    }
    Ok(())
}

fn check_horizon(t: f64, horizon: (f64, f64)) -> Result<()> {
    // A small slack past the horizon is fine — the index stays exact, only
    // slower — but a far-future query should rebuild the time slices
    // (MOVIES-style), so we enforce one horizon-width of slack.
    let width = (horizon.1 - horizon.0).max(1.0);
    if t < horizon.0 - width || t > horizon.1 + width {
        return Err(MovingError::TimeOutsideHorizon { t, horizon });
    }
    Ok(())
}

/// Intersection-query statistics aggregated over the underlying Planar
/// queries (one per query for linear/accelerating, one per circular object
/// for circular).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntersectionStats {
    /// Total pairs considered.
    pub pairs: usize,
    /// Pairs pruned without a scalar product.
    pub pruned: usize,
    /// Pairs verified exactly.
    pub verified: usize,
    /// Matching pairs.
    pub matched: usize,
}

impl IntersectionStats {
    fn absorb(&mut self, s: &QueryStats) {
        self.pairs += s.n;
        self.pruned += s.smaller + s.larger;
        self.verified += s.verified;
        self.matched += s.matched;
    }

    /// Pruning percentage over all pairs.
    pub fn pruning_percentage(&self) -> f64 {
        if self.pairs == 0 {
            return 100.0;
        }
        100.0 * self.pruned as f64 / self.pairs as f64
    }
}

// ---------------------------------------------------------------------------
// Linear–linear
// ---------------------------------------------------------------------------

/// Time-sliced Planar index over all pairs of two constant-velocity object
/// sets.
#[derive(Debug, Clone)]
pub struct LinearIntersectionIndex<S: KeyStore = VecStore> {
    set: PlanarIndexSet<S>,
    b_len: u32,
    a_motions: Vec<LinearMotion>,
    b_motions: Vec<LinearMotion>,
    instants: Vec<f64>,
    horizon: (f64, f64),
}

impl<S: KeyStore> LinearIntersectionIndex<S> {
    /// Build over all `|A|·|B|` pairs, with one index normal per time
    /// instant (paper: t = 10 … 15 min).
    ///
    /// # Errors
    ///
    /// [`MovingError::EmptySet`], [`MovingError::BadTimeInstants`],
    /// [`MovingError::TooManyPairs`], or index-construction errors.
    pub fn build(
        set_a: Vec<LinearMotion>,
        set_b: Vec<LinearMotion>,
        instants: &[f64],
    ) -> Result<Self> {
        check_pair_count(set_a.len(), set_b.len())?;
        let horizon = validate_instants(instants)?;
        let mut table = FeatureTable::with_capacity(3, set_a.len() * set_b.len())?;
        for a in &set_a {
            for b in &set_b {
                table.push_row(&linear_pair_phi(a, b))?;
            }
        }
        let (lo, hi) = horizon;
        let domain = ParameterDomain::new(vec![
            Domain::Discrete(vec![1.0]),
            Domain::Continuous { lo, hi },
            Domain::Continuous {
                lo: lo * lo,
                hi: hi * hi,
            },
        ])?;
        let normals: Vec<Vec<f64>> = instants
            .iter()
            .map(|&t| linear_params(t).to_vec())
            .collect();
        let set =
            PlanarIndexSet::with_normals(table, domain, normals, SelectionStrategy::MinStretch)?;
        Ok(Self {
            set,
            b_len: set_b.len() as u32,
            a_motions: set_a,
            b_motions: set_b,
            instants: instants.to_vec(),
            horizon,
        })
    }

    /// All pairs within distance `s` of each other at future time `t`.
    ///
    /// # Errors
    ///
    /// [`MovingError::TimeOutsideHorizon`] when `t` is far outside the
    /// indexed instants.
    pub fn query(&self, t: f64, s: f64) -> Result<(Vec<Pair>, IntersectionStats)> {
        check_horizon(t, self.horizon)?;
        let q = InequalityQuery::leq(linear_params(t).to_vec(), s * s)?;
        let out = self.set.query(&q)?;
        let mut stats = IntersectionStats::default();
        stats.absorb(&out.stats);
        let pairs = out
            .matches
            .iter()
            .map(|&id| (id / self.b_len, id % self.b_len))
            .collect();
        Ok((pairs, stats))
    }

    /// Update the motion of object `i` of set A (re-keys its `|B|` pairs —
    /// the paper's per-object index update).
    ///
    /// # Errors
    ///
    /// Index errors for unknown ids.
    pub fn update_object_a(&mut self, i: u32, motion: LinearMotion) -> Result<()> {
        self.a_motions[i as usize] = motion;
        for j in 0..self.b_len {
            let phi = linear_pair_phi(&motion, &self.b_motions[j as usize]);
            self.set.update_point(i * self.b_len + j, &phi)?;
        }
        Ok(())
    }

    /// The underlying index set (for memory accounting etc.).
    pub fn index_set(&self) -> &PlanarIndexSet<S> {
        &self.set
    }

    /// Number of pairs indexed.
    pub fn pairs(&self) -> usize {
        self.a_motions.len() * self.b_motions.len()
    }

    /// The currently indexed time instants (oldest first).
    pub fn instants(&self) -> &[f64] {
        &self.instants
    }

    /// MOVIES-style horizon advancement (paper §7.5.1, citing \[9\]): drop
    /// the oldest time-instant index and build one for `new_instant`, in
    /// `O(n log n)` — "for a short period of time, we use an index to
    /// answer the incoming queries; after that, we throw that index away
    /// and use a new index".
    ///
    /// # Errors
    ///
    /// [`MovingError::BadTimeInstants`] unless `new_instant` lies strictly
    /// beyond every indexed instant.
    pub fn advance(&mut self, new_instant: f64) -> Result<()> {
        check_advance(&self.instants, new_instant)?;
        if self.instants.len() > 1 {
            self.set.remove_index(0)?;
            self.instants.remove(0);
        }
        self.set.add_index(linear_params(new_instant).to_vec())?;
        self.instants.push(new_instant);
        self.horizon = recompute_horizon(&self.instants);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Accelerating–linear
// ---------------------------------------------------------------------------

/// Time-sliced Planar index over pairs of an accelerating set and a linear
/// set (the paper's non-uniform workload, Fig. 14c).
#[derive(Debug, Clone)]
pub struct AcceleratingIntersectionIndex<S: KeyStore = VecStore> {
    set: PlanarIndexSet<S>,
    b_len: u32,
    instants: Vec<f64>,
    horizon: (f64, f64),
}

impl<S: KeyStore> AcceleratingIntersectionIndex<S> {
    /// Build over all pairs.
    ///
    /// # Errors
    ///
    /// As [`LinearIntersectionIndex::build`].
    pub fn build(
        set_a: &[AcceleratingMotion],
        set_b: &[LinearMotion],
        instants: &[f64],
    ) -> Result<Self> {
        check_pair_count(set_a.len(), set_b.len())?;
        let horizon = validate_instants(instants)?;
        let mut table = FeatureTable::with_capacity(5, set_a.len() * set_b.len())?;
        for a in set_a {
            for b in set_b {
                table.push_row(&accelerating_pair_phi(a, b))?;
            }
        }
        let (lo, hi) = horizon;
        let powers = |p: u32| Domain::Continuous {
            lo: lo.powi(p as i32),
            hi: hi.powi(p as i32),
        };
        let domain = ParameterDomain::new(vec![
            Domain::Discrete(vec![1.0]),
            powers(1),
            powers(2),
            powers(3),
            powers(4),
        ])?;
        let normals: Vec<Vec<f64>> = instants
            .iter()
            .map(|&t| accelerating_params(t).to_vec())
            .collect();
        let set =
            PlanarIndexSet::with_normals(table, domain, normals, SelectionStrategy::MinStretch)?;
        Ok(Self {
            set,
            b_len: set_b.len() as u32,
            instants: instants.to_vec(),
            horizon,
        })
    }

    /// All pairs within `s` at time `t`.
    ///
    /// # Errors
    ///
    /// [`MovingError::TimeOutsideHorizon`].
    pub fn query(&self, t: f64, s: f64) -> Result<(Vec<Pair>, IntersectionStats)> {
        check_horizon(t, self.horizon)?;
        let q = InequalityQuery::leq(accelerating_params(t).to_vec(), s * s)?;
        let out = self.set.query(&q)?;
        let mut stats = IntersectionStats::default();
        stats.absorb(&out.stats);
        let pairs = out
            .matches
            .iter()
            .map(|&id| (id / self.b_len, id % self.b_len))
            .collect();
        Ok((pairs, stats))
    }

    /// The underlying index set.
    pub fn index_set(&self) -> &PlanarIndexSet<S> {
        &self.set
    }

    /// The currently indexed time instants (oldest first).
    pub fn instants(&self) -> &[f64] {
        &self.instants
    }

    /// MOVIES-style horizon advancement; see
    /// [`LinearIntersectionIndex::advance`].
    ///
    /// # Errors
    ///
    /// [`MovingError::BadTimeInstants`] unless `new_instant` lies strictly
    /// beyond every indexed instant.
    pub fn advance(&mut self, new_instant: f64) -> Result<()> {
        check_advance(&self.instants, new_instant)?;
        if self.instants.len() > 1 {
            self.set.remove_index(0)?;
            self.instants.remove(0);
        }
        self.set
            .add_index(accelerating_params(new_instant).to_vec())?;
        self.instants.push(new_instant);
        self.horizon = recompute_horizon(&self.instants);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Circular–linear
// ---------------------------------------------------------------------------

/// Time-sliced Planar indexes over circular–linear pairs (Example 2,
/// Fig. 14b).
///
/// The parameter vector involves `sin ωt` / `cos ωt` with `ω` the angular
/// velocity of the circular object, so pairs are grouped per circular
/// object: each group shares one parameter vector per query and gets its
/// own small `PlanarIndexSet` (whose normals are that object's exact
/// parameter vectors at the indexed instants).
#[derive(Debug, Clone)]
pub struct CircularIntersectionIndex<S: KeyStore = VecStore> {
    groups: Vec<PlanarIndexSet<S>>,
    omegas: Vec<f64>,
    instants: Vec<f64>,
    horizon: (f64, f64),
}

impl<S: KeyStore> CircularIntersectionIndex<S> {
    /// Build one group per circular object over its pairs with every linear
    /// object.
    ///
    /// # Errors
    ///
    /// As [`LinearIntersectionIndex::build`].
    pub fn build(
        circles: &[CircularMotion],
        lines: &[LinearMotion],
        instants: &[f64],
    ) -> Result<Self> {
        check_pair_count(circles.len(), lines.len())?;
        let horizon = validate_instants(instants)?;
        let (lo, hi) = horizon;
        let domain = ParameterDomain::new(vec![
            Domain::Discrete(vec![1.0]),
            Domain::Continuous { lo, hi },
            Domain::Continuous {
                lo: TRIG_EPS,
                hi: 2.0,
            },
            Domain::Continuous {
                lo: TRIG_EPS,
                hi: 2.0,
            },
            Domain::Continuous {
                lo: TRIG_EPS,
                hi: 2.0 * hi,
            },
            Domain::Continuous {
                lo: TRIG_EPS,
                hi: 2.0 * hi,
            },
            Domain::Continuous {
                lo: lo * lo,
                hi: hi * hi,
            },
        ])?;
        let mut groups = Vec::with_capacity(circles.len());
        for c in circles {
            let mut table = FeatureTable::with_capacity(7, lines.len())?;
            for l in lines {
                table.push_row(&circular_pair_phi(c, l))?;
            }
            let normals: Vec<Vec<f64>> = instants
                .iter()
                .map(|&t| {
                    circular_params(t, c.omega)
                        .iter()
                        .map(|&v| v.max(TRIG_EPS)) // keep normals strictly positive
                        .collect()
                })
                .collect();
            groups.push(PlanarIndexSet::with_normals(
                table,
                domain.clone(),
                normals,
                SelectionStrategy::MinStretch,
            )?);
        }
        Ok(Self {
            groups,
            omegas: circles.iter().map(|c| c.omega).collect(),
            instants: instants.to_vec(),
            horizon,
        })
    }

    /// All pairs within `s` at time `t`: one Planar query per circular
    /// object (its group of pairs shares the parameter vector).
    ///
    /// # Errors
    ///
    /// [`MovingError::TimeOutsideHorizon`].
    pub fn query(&self, t: f64, s: f64) -> Result<(Vec<Pair>, IntersectionStats)> {
        check_horizon(t, self.horizon)?;
        let mut pairs = Vec::new();
        let mut stats = IntersectionStats::default();
        for (i, (group, &omega)) in self.groups.iter().zip(&self.omegas).enumerate() {
            let q = InequalityQuery::leq(circular_params(t, omega).to_vec(), s * s)?;
            let out = group.query(&q)?;
            stats.absorb(&out.stats);
            pairs.extend(out.matches.iter().map(|&j| (i as u32, j)));
        }
        Ok((pairs, stats))
    }

    /// Total heap bytes across all groups.
    pub fn memory_usage(&self) -> usize {
        self.groups.iter().map(|g| g.memory_usage()).sum()
    }

    /// The currently indexed time instants (oldest first).
    pub fn instants(&self) -> &[f64] {
        &self.instants
    }

    /// MOVIES-style horizon advancement; see
    /// [`LinearIntersectionIndex::advance`]. Each per-object group gets a
    /// fresh normal from its own angular velocity.
    ///
    /// # Errors
    ///
    /// [`MovingError::BadTimeInstants`] unless `new_instant` lies strictly
    /// beyond every indexed instant.
    pub fn advance(&mut self, new_instant: f64) -> Result<()> {
        check_advance(&self.instants, new_instant)?;
        let drop_oldest = self.instants.len() > 1;
        for (group, &omega) in self.groups.iter_mut().zip(&self.omegas) {
            if drop_oldest {
                group.remove_index(0)?;
            }
            let normal: Vec<f64> = circular_params(new_instant, omega)
                .iter()
                .map(|&v| v.max(TRIG_EPS))
                .collect();
            group.add_index(normal)?;
        }
        if drop_oldest {
            self.instants.remove(0);
        }
        self.instants.push(new_instant);
        self.horizon = recompute_horizon(&self.instants);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::kinematics::dist_sq;
    use crate::workload;
    use planar_geom::approx_eq_eps;

    const INSTANTS: [f64; 6] = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0];

    #[test]
    fn linear_phi_reduction_equals_kinematics() {
        let a = LinearMotion::planar(3.0, -2.0, 0.4, 0.9);
        let b = LinearMotion::planar(-1.0, 5.0, -0.3, 0.2);
        for t in [0.0, 1.5, 10.0, 14.7] {
            let direct = dist_sq(&a.position(t), &b.position(t));
            let phi = linear_pair_phi(&a, &b);
            let via: f64 = linear_params(t).iter().zip(&phi).map(|(p, x)| p * x).sum();
            assert!(approx_eq_eps(direct, via, 1e-9), "t={t}: {direct} vs {via}");
        }
    }

    #[test]
    fn accelerating_phi_reduction_equals_kinematics() {
        let a = AcceleratingMotion {
            p: [10.0, -5.0, 3.0],
            u: [0.5, 0.8, -0.2],
            a: [0.03, -0.05, 0.01],
        };
        let b = LinearMotion {
            p: [-20.0, 8.0, 1.0],
            u: [-0.4, 0.1, 0.6],
        };
        for t in [0.0, 2.0, 10.0, 15.0] {
            let direct = dist_sq(&a.position(t), &b.position(t));
            let phi = accelerating_pair_phi(&a, &b);
            let via: f64 = accelerating_params(t)
                .iter()
                .zip(&phi)
                .map(|(p, x)| p * x)
                .sum();
            assert!(approx_eq_eps(direct, via, 1e-9), "t={t}: {direct} vs {via}");
        }
    }

    #[test]
    fn circular_phi_reduction_equals_kinematics() {
        let c = CircularMotion {
            r: 12.0,
            omega: 0.05,
        };
        let l = LinearMotion::planar(4.0, -7.0, 0.6, -0.9);
        for t in [0.0, 1.0, 10.0, 13.2, 15.0] {
            let direct = dist_sq(&c.position(t), &l.position(t));
            let phi = circular_pair_phi(&c, &l);
            let via: f64 = circular_params(t, c.omega)
                .iter()
                .zip(&phi)
                .map(|(p, x)| p * x)
                .sum();
            assert!(approx_eq_eps(direct, via, 1e-9), "t={t}: {direct} vs {via}");
        }
    }

    fn sorted(mut v: Vec<Pair>) -> Vec<Pair> {
        v.sort_unstable();
        v
    }

    #[test]
    fn linear_index_matches_baseline() {
        let a = workload::linear_objects(40, 200.0, 7);
        let b = workload::linear_objects(35, 200.0, 8);
        let idx: LinearIntersectionIndex =
            LinearIntersectionIndex::build(a.clone(), b.clone(), &INSTANTS).unwrap();
        for t in [10.0, 11.5, 13.0, 15.0] {
            let (got, stats) = idx.query(t, 10.0).unwrap();
            let want = baseline::linear_pairs_within(&a, &b, t, 10.0);
            assert_eq!(sorted(got), sorted(want), "t={t}");
            assert_eq!(stats.pairs, 40 * 35);
        }
    }

    #[test]
    fn linear_index_prunes_fully_at_indexed_instant() {
        let a = workload::linear_objects(50, 500.0, 1);
        let b = workload::linear_objects(50, 500.0, 2);
        let idx: LinearIntersectionIndex = LinearIntersectionIndex::build(a, b, &INSTANTS).unwrap();
        let (_, stats) = idx.query(12.0, 10.0).unwrap();
        // Query at an indexed instant → some index is parallel → only
        // boundary keys (measure zero) are verified.
        assert!(
            stats.pruning_percentage() > 99.0,
            "pruning {}",
            stats.pruning_percentage()
        );
    }

    #[test]
    fn accelerating_index_matches_baseline() {
        let a = workload::accelerating_objects(20, 500.0, 3);
        let b = workload::linear_objects_3d(25, 500.0, 4);
        let idx: AcceleratingIntersectionIndex =
            AcceleratingIntersectionIndex::build(&a, &b, &INSTANTS).unwrap();
        for t in [10.0, 12.3, 15.0] {
            let (got, _) = idx.query(t, 10.0).unwrap();
            let want = baseline::accelerating_pairs_within(&a, &b, t, 10.0);
            assert_eq!(sorted(got), sorted(want), "t={t}");
        }
    }

    #[test]
    fn circular_index_matches_baseline() {
        let c = workload::circular_objects(15, 7);
        let l = workload::linear_objects(30, 100.0, 9);
        let idx: CircularIntersectionIndex =
            CircularIntersectionIndex::build(&c, &l, &INSTANTS).unwrap();
        for t in [10.0, 11.7, 14.0] {
            let (got, _) = idx.query(t, 10.0).unwrap();
            let want = baseline::circular_pairs_within(&c, &l, t, 10.0);
            assert_eq!(sorted(got), sorted(want), "t={t}");
        }
    }

    #[test]
    fn update_object_rekeys_pairs() {
        let a = workload::linear_objects(10, 100.0, 1);
        let b = workload::linear_objects(10, 100.0, 2);
        let mut idx: LinearIntersectionIndex =
            LinearIntersectionIndex::build(a.clone(), b.clone(), &INSTANTS).unwrap();
        // Object 3 changes course.
        let new_motion = LinearMotion::planar(0.0, 0.0, 0.9, 0.9);
        idx.update_object_a(3, new_motion).unwrap();
        let mut a2 = a;
        a2[3] = new_motion;
        let (got, _) = idx.query(12.0, 15.0).unwrap();
        let want = baseline::linear_pairs_within(&a2, &b, 12.0, 15.0);
        assert_eq!(sorted(got), sorted(want));
    }

    #[test]
    fn horizon_is_enforced() {
        let a = workload::linear_objects(5, 100.0, 1);
        let b = workload::linear_objects(5, 100.0, 2);
        let idx: LinearIntersectionIndex = LinearIntersectionIndex::build(a, b, &INSTANTS).unwrap();
        assert!(idx.query(12.0, 5.0).is_ok());
        assert!(idx.query(16.0, 5.0).is_ok()); // small slack allowed
        assert!(matches!(
            idx.query(100.0, 5.0),
            Err(MovingError::TimeOutsideHorizon { .. })
        ));
    }

    #[test]
    fn build_validates_inputs() {
        let a = workload::linear_objects(5, 100.0, 1);
        assert!(matches!(
            LinearIntersectionIndex::<VecStore>::build(a.clone(), vec![], &INSTANTS),
            Err(MovingError::EmptySet)
        ));
        assert!(matches!(
            LinearIntersectionIndex::<VecStore>::build(a.clone(), a.clone(), &[]),
            Err(MovingError::BadTimeInstants)
        ));
        assert!(matches!(
            LinearIntersectionIndex::<VecStore>::build(a.clone(), a, &[-1.0]),
            Err(MovingError::BadTimeInstants)
        ));
    }
}

#[cfg(test)]
mod rolling_tests {
    use super::*;
    use crate::baseline;
    use crate::workload;

    fn sorted(mut v: Vec<Pair>) -> Vec<Pair> {
        v.sort_unstable();
        v
    }

    #[test]
    fn linear_advance_moves_the_horizon() {
        let a = workload::linear_objects(30, 200.0, 11);
        let b = workload::linear_objects(30, 200.0, 12);
        let mut idx: LinearIntersectionIndex =
            LinearIntersectionIndex::build(a.clone(), b.clone(), &[10.0, 11.0, 12.0]).unwrap();
        assert!(
            idx.query(20.0, 10.0).is_err(),
            "t=20 outside initial horizon"
        );

        for t in [13.0, 14.0, 15.0, 16.0, 17.0, 18.0] {
            idx.advance(t).unwrap();
        }
        assert_eq!(idx.instants(), &[16.0, 17.0, 18.0]);

        // Far-future query now answerable and exact — with full pruning at
        // an indexed instant.
        let (got, stats) = idx.query(17.0, 10.0).unwrap();
        assert_eq!(
            sorted(got),
            sorted(baseline::linear_pairs_within(&a, &b, 17.0, 10.0))
        );
        assert!(stats.pruning_percentage() > 99.0);
        // The old horizon has been dropped.
        assert!(idx.query(10.0, 10.0).is_err());
    }

    #[test]
    fn advance_rejects_non_monotone_times() {
        let a = workload::linear_objects(5, 100.0, 1);
        let b = workload::linear_objects(5, 100.0, 2);
        let mut idx: LinearIntersectionIndex =
            LinearIntersectionIndex::build(a, b, &[10.0, 11.0]).unwrap();
        assert!(matches!(
            idx.advance(11.0),
            Err(MovingError::BadTimeInstants)
        ));
        assert!(matches!(
            idx.advance(f64::NAN),
            Err(MovingError::BadTimeInstants)
        ));
        assert!(idx.advance(12.0).is_ok());
    }

    #[test]
    fn circular_advance_stays_exact() {
        let circles = workload::circular_objects(10, 13);
        let lines = workload::linear_objects(20, 100.0, 14);
        let mut idx: CircularIntersectionIndex =
            CircularIntersectionIndex::build(&circles, &lines, &[10.0, 11.0]).unwrap();
        idx.advance(12.0).unwrap();
        idx.advance(13.0).unwrap();
        let (got, _) = idx.query(13.0, 10.0).unwrap();
        assert_eq!(
            sorted(got),
            sorted(baseline::circular_pairs_within(
                &circles, &lines, 13.0, 10.0
            ))
        );
    }

    #[test]
    fn accelerating_advance_stays_exact() {
        let accel = workload::accelerating_objects(10, 300.0, 15);
        let lines = workload::linear_objects_3d(15, 300.0, 16);
        let mut idx: AcceleratingIntersectionIndex =
            AcceleratingIntersectionIndex::build(&accel, &lines, &[10.0, 11.0]).unwrap();
        idx.advance(12.5).unwrap();
        assert_eq!(idx.instants(), &[11.0, 12.5]);
        let (got, _) = idx.query(12.5, 10.0).unwrap();
        assert_eq!(
            sorted(got),
            sorted(baseline::accelerating_pairs_within(
                &accel, &lines, 12.5, 10.0
            ))
        );
    }
}
