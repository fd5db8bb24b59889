//! Self-tuning index maintenance from observed queries.
//!
//! The paper argues (§4.1, §7.2.2, §8) that rather than holding many
//! indices for a huge parameter space, it is "more beneficial to
//! dynamically update our indices based on the recent queries" — and lists
//! learning-driven index updates as future work. This module implements
//! that loop:
//!
//! 1. every query's coefficients feed a sliding-window
//!    [`crate::DomainTracker`];
//! 2. every query's *pruning fraction* feeds a rolling quality window;
//! 3. when quality degrades below a threshold (and a cooldown has passed),
//!    the index set is rebuilt with normals sampled from the *learned*
//!    domain — so the budget concentrates where the workload actually is.
//!
//! Rebuilds are loglinear (paper §4.2 measures ~2.5–3 s for 1M points), so
//! an occasional rebuild is far cheaper than permanently degraded queries.

use crate::domain::{DomainTracker, ParameterDomain};
use crate::multi::{IndexConfig, PlanarIndexSet, QueryOutcome};
use crate::query::InequalityQuery;
use crate::store::KeyStore;
use crate::table::FeatureTable;
use crate::{Result, VecStore};
use std::collections::VecDeque;

/// Tuning knobs for [`AdaptivePlanarIndexSet`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding window of observed queries used to learn the domain.
    pub window: usize,
    /// Minimum observed queries before a rebuild is considered.
    pub min_queries: usize,
    /// Rebuild when the rolling mean pruning fraction drops below this
    /// (0.7 = rebuild once fewer than 70 % of points are pruned).
    pub pruning_threshold: f64,
    /// Envelope widening fraction for the learned domain.
    pub widen: f64,
    /// Queries that must pass between rebuilds.
    pub cooldown: usize,
    /// Index construction parameters for rebuilds.
    pub index: IndexConfig,
}

impl AdaptiveConfig {
    /// Reasonable defaults around a given index budget.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            window: 64,
            min_queries: 16,
            pruning_threshold: 0.7,
            widen: 0.1,
            cooldown: 32,
            index: IndexConfig::with_budget(budget),
        }
    }
}

/// A [`PlanarIndexSet`] that retunes itself to the observed workload.
pub struct AdaptivePlanarIndexSet<S: KeyStore = VecStore> {
    set: PlanarIndexSet<S>,
    tracker: DomainTracker,
    config: AdaptiveConfig,
    pruning_window: VecDeque<f64>,
    since_rebuild: usize,
    rebuilds: usize,
}

impl<S: KeyStore> AdaptivePlanarIndexSet<S> {
    /// Build with an initial (possibly rough) parameter domain.
    ///
    /// # Errors
    ///
    /// Same as [`PlanarIndexSet::build`].
    pub fn build(
        table: FeatureTable,
        initial_domain: ParameterDomain,
        config: AdaptiveConfig,
    ) -> Result<Self> {
        let set = PlanarIndexSet::build(table, initial_domain, config.index.clone())?;
        Ok(Self {
            set,
            tracker: DomainTracker::new(config.window, config.widen),
            config,
            pruning_window: VecDeque::new(),
            since_rebuild: 0,
            rebuilds: 0,
        })
    }

    /// Answer a query, record its coefficients and pruning quality, and
    /// retune the index set if the workload has drifted.
    ///
    /// # Errors
    ///
    /// Same as [`PlanarIndexSet::query`]; a failed *rebuild* (e.g. the
    /// window contains two octants) is not an error — the current indices
    /// stay in place.
    pub fn query(&mut self, q: &InequalityQuery) -> Result<QueryOutcome> {
        let out = self.set.query(q)?;
        self.observe(q, out.stats.pruned_fraction());
        Ok(out)
    }

    /// Record an externally-executed query (when the caller drives the
    /// inner set directly).
    pub fn observe(&mut self, q: &InequalityQuery, pruned_fraction: f64) {
        self.tracker.observe(q);
        if self.pruning_window.len() == self.config.window {
            self.pruning_window.pop_front();
        }
        self.pruning_window.push_back(pruned_fraction);
        self.since_rebuild += 1;
        if self.should_rebuild() {
            self.try_rebuild();
        }
    }

    /// Rolling mean pruning fraction over the window.
    pub fn rolling_pruning(&self) -> f64 {
        if self.pruning_window.is_empty() {
            return 1.0;
        }
        self.pruning_window.iter().sum::<f64>() / self.pruning_window.len() as f64
    }

    fn should_rebuild(&self) -> bool {
        self.since_rebuild >= self.config.cooldown
            && self.tracker.len() >= self.config.min_queries
            && self.rolling_pruning() < self.config.pruning_threshold
    }

    /// Force a retune from the learned domain now. Returns whether a
    /// rebuild happened (it is skipped when no consistent domain can be
    /// learned — e.g. the window straddles octants).
    pub fn try_rebuild(&mut self) -> bool {
        let Ok(domain) = self.tracker.learned_domain() else {
            return false;
        };
        if self
            .set
            .rebuild_for_domain(domain, self.config.index.clone())
            .is_err()
        {
            return false;
        }
        self.rebuilds += 1;
        self.since_rebuild = 0;
        self.pruning_window.clear();
        // A rebuild is a set-up point: apply the quantization size rule.
        self.set.retune_quantization();
        true
    }

    /// Number of retunes performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The inner index set (read-only).
    pub fn inner(&self) -> &PlanarIndexSet<S> {
        &self.set
    }

    /// The inner index set, mutable (for point updates; mutations do not
    /// disturb the learned-domain state).
    pub fn inner_mut(&mut self) -> &mut PlanarIndexSet<S> {
        &mut self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Cmp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, dim: usize) -> FeatureTable {
        let mut rng = StdRng::seed_from_u64(21);
        FeatureTable::from_rows(
            dim,
            (0..n)
                .map(|_| (0..dim).map(|_| rng.random_range(1.0..100.0)).collect())
                .collect::<Vec<Vec<f64>>>(),
        )
        .unwrap()
    }

    /// A drifted workload: a strongly *skewed* coefficient direction
    /// (≈100 on even axes, ≈1 on odd axes) that random normals from the
    /// broad initial domain are unlikely to be parallel to.
    fn drifted_query(rng: &mut StdRng, dim: usize) -> InequalityQuery {
        let a: Vec<f64> = (0..dim)
            .map(|i| {
                if i % 2 == 0 {
                    rng.random_range(95.0..100.0)
                } else {
                    rng.random_range(1.0..1.05)
                }
            })
            .collect();
        let b = 0.25 * a.iter().sum::<f64>() * 100.0;
        InequalityQuery::new(a, Cmp::Leq, b).unwrap()
    }

    #[test]
    fn adapts_to_drifted_workload_and_improves_pruning() {
        let dim = 6;
        let initial = ParameterDomain::uniform_continuous(dim, 1.0, 100.0).unwrap();
        let mut adaptive: AdaptivePlanarIndexSet = AdaptivePlanarIndexSet::build(
            table(20_000, dim),
            initial,
            AdaptiveConfig {
                pruning_threshold: 0.97,
                cooldown: 24,
                min_queries: 12,
                ..AdaptiveConfig::with_budget(12)
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);

        // Phase 1: measure pruning before any retune is possible.
        let mut before = 0.0;
        for _ in 0..16 {
            let q = drifted_query(&mut rng, dim);
            before += adaptive.query(&q).unwrap().stats.pruned_fraction();
        }
        before /= 16.0;

        // Phase 2: keep querying until the adaptive set retunes.
        for _ in 0..64 {
            let q = drifted_query(&mut rng, dim);
            adaptive.query(&q).unwrap();
        }
        assert!(
            adaptive.rebuilds() >= 1,
            "drifted workload should trigger a retune (rolling pruning {:.2})",
            adaptive.rolling_pruning()
        );

        // Phase 3: pruning after retuning must be better.
        let mut after = 0.0;
        for _ in 0..16 {
            let q = drifted_query(&mut rng, dim);
            after += adaptive.query(&q).unwrap().stats.pruned_fraction();
        }
        after /= 16.0;
        assert!(
            after > before + 0.05,
            "expected pruning improvement: before {before:.3}, after {after:.3}"
        );
        // And exactness is untouched.
        let q = drifted_query(&mut rng, dim);
        assert_eq!(
            adaptive.query(&q).unwrap().sorted_ids(),
            adaptive.inner().query_scan(&q).unwrap().sorted_ids()
        );
    }

    #[test]
    fn no_rebuild_while_quality_is_good() {
        let dim = 3;
        // Initial domain matches the workload exactly.
        let initial = ParameterDomain::uniform_randomness(dim, 2).unwrap();
        let mut adaptive: AdaptivePlanarIndexSet = AdaptivePlanarIndexSet::build(
            table(5_000, dim),
            initial,
            AdaptiveConfig::with_budget(16),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let a: Vec<f64> = (0..dim).map(|_| rng.random_range(1..=2) as f64).collect();
            let b = 0.25 * a.iter().sum::<f64>() * 100.0;
            let q = InequalityQuery::leq(a, b).unwrap();
            adaptive.query(&q).unwrap();
        }
        assert_eq!(
            adaptive.rebuilds(),
            0,
            "well-matched domain must not retune"
        );
    }

    #[test]
    fn mixed_octant_window_skips_rebuild_gracefully() {
        let dim = 2;
        let initial = ParameterDomain::uniform_continuous(dim, 0.5, 2.0).unwrap();
        let mut adaptive: AdaptivePlanarIndexSet = AdaptivePlanarIndexSet::build(
            table(500, dim),
            initial,
            AdaptiveConfig {
                cooldown: 1,
                min_queries: 2,
                pruning_threshold: 1.1, // always "bad" → always tries
                ..AdaptiveConfig::with_budget(4)
            },
        )
        .unwrap();
        // Alternate octants: learned_domain() fails, queries still work.
        for i in 0..20 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let q = InequalityQuery::leq(vec![sign, sign], 100.0).unwrap();
            let out = adaptive.query(&q).unwrap();
            assert_eq!(
                out.sorted_ids(),
                adaptive.inner().query_scan(&q).unwrap().sorted_ids()
            );
        }
        assert_eq!(adaptive.rebuilds(), 0);
    }

    #[test]
    fn forced_rebuild_reports_outcome() {
        let dim = 2;
        let initial = ParameterDomain::uniform_continuous(dim, 0.5, 2.0).unwrap();
        let mut adaptive: AdaptivePlanarIndexSet =
            AdaptivePlanarIndexSet::build(table(200, dim), initial, AdaptiveConfig::with_budget(4))
                .unwrap();
        // Nothing observed yet → nothing to learn from.
        assert!(!adaptive.try_rebuild());
        let q = InequalityQuery::leq(vec![1.0, 2.0], 100.0).unwrap();
        adaptive.query(&q).unwrap();
        assert!(adaptive.try_rebuild());
        assert_eq!(adaptive.rebuilds(), 1);
    }
}
