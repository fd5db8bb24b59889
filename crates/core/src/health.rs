//! Index self-verification: the checks behind the quarantine-and-degrade
//! lifecycle.
//!
//! A Planar index is *redundant* — its id order is recomputable from the
//! feature table and the index normal — so a corrupted index never has to
//! cost correctness: detect it, quarantine it, serve queries from the
//! remaining indices (or the exact scan fallback), and rebuild at leisure.
//! This module supplies the *detect* step:
//!
//! * [`SingleIndex::verify`] checks one index against the table it claims
//!   to describe — ids sorted by the keys computed from their rows,
//!   entry-count reconciliation against the live-point count, and
//!   membership of every id;
//! * [`HealthIssue`] / [`IndexHealth`] / [`HealthReport`] describe what was
//!   found, per index and per set.
//!
//! The lifecycle verbs — `verify_all`, `quarantine`, `rebuild_quarantined`
//! — live on [`crate::PlanarIndexSet`]; quarantined indices are skipped by
//! the query planner, and when none remain usable, queries degrade to the
//! exact sequential scan with [`crate::ServedBy::Degraded`] provenance.

use crate::index::SingleIndex;
use crate::store::KeyStore;
use crate::table::FeatureTable;

/// Cap on recorded issues per index: verification is a diagnosis step, not
/// a full damage inventory, and a thoroughly corrupted index would
/// otherwise produce `O(n)` issue records.
pub const MAX_ISSUES_PER_INDEX: usize = 64;

/// One defect found while verifying a single Planar index.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthIssue {
    /// Adjacent ids out of `(key, id)` order at this rank, with keys
    /// computed from their rows — the sorted list `L` invariant (paper
    /// §4.2) is broken, so rank queries lie.
    UnsortedKeys {
        /// Rank of the first id that sorts below its predecessor.
        rank: usize,
    },
    /// The index holds a different number of entries than there are live
    /// points.
    EntryCountMismatch {
        /// Live points in the set.
        expected: usize,
        /// Entries actually present in the index.
        found: usize,
    },
    /// An entry references an id that is out of range for the table or
    /// tombstoned — the index would resurrect deleted points.
    DeadOrUnknownId {
        /// The offending id.
        id: u32,
    },
}

impl core::fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HealthIssue::UnsortedKeys { rank } => {
                write!(f, "entries out of order at rank {rank}")
            }
            HealthIssue::EntryCountMismatch { expected, found } => {
                write!(f, "expected {expected} entries, found {found}")
            }
            HealthIssue::DeadOrUnknownId { id } => {
                write!(f, "entry references dead or unknown id {id}")
            }
        }
    }
}

/// Verification verdict for one index of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexHealth {
    /// Position of the index within the set.
    pub pos: usize,
    /// Issues found; empty means the index passed every check. Capped at
    /// [`MAX_ISSUES_PER_INDEX`].
    pub issues: Vec<HealthIssue>,
}

impl IndexHealth {
    /// True when no issues were found.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Verification verdict for a whole [`crate::PlanarIndexSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// One verdict per index, in position order.
    pub indices: Vec<IndexHealth>,
}

impl HealthReport {
    /// True when every index passed.
    pub fn healthy(&self) -> bool {
        self.indices.iter().all(IndexHealth::is_healthy)
    }

    /// Positions of the indices that failed verification.
    pub fn failing_positions(&self) -> Vec<usize> {
        self.indices
            .iter()
            .filter(|h| !h.is_healthy())
            .map(|h| h.pos)
            .collect()
    }
}

/// Verification verdict for a whole [`crate::ShardedIndexSet`]: one
/// [`HealthReport`] per shard, in shard order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedHealthReport {
    /// Per-shard verdicts.
    pub shards: Vec<HealthReport>,
}

impl ShardedHealthReport {
    /// True when every index of every shard passed.
    pub fn healthy(&self) -> bool {
        self.shards.iter().all(HealthReport::healthy)
    }

    /// `(shard, failing index positions)` for every shard with at least
    /// one failing index, ascending by shard.
    pub fn failing(&self) -> Vec<(usize, Vec<usize>)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, r)| {
                let failing = r.failing_positions();
                (!failing.is_empty()).then_some((s, failing))
            })
            .collect()
    }
}

impl<S: KeyStore> SingleIndex<S> {
    /// Verify this index against the table it describes.
    ///
    /// Checks, in one pass over the ids:
    ///
    /// 1. every id in range and live (`deleted[id] == false`);
    /// 2. the sorted invariant: ids in `(key, id)` order, each key computed
    ///    from its row by the same function the searches use;
    /// 3. entry count equal to `expected_len` (the live-point count).
    ///
    /// Returns all issues found, capped at [`MAX_ISSUES_PER_INDEX`]. An
    /// empty vector means healthy. `O(n·d')`.
    pub fn verify(
        &self,
        table: &FeatureTable,
        deleted: &[bool],
        expected_len: usize,
    ) -> Vec<HealthIssue> {
        let mut issues = Vec::new();
        let mut prev: Option<(f64, u32)> = None;
        for (rank, &id) in self.ids().iter().enumerate() {
            if issues.len() >= MAX_ISSUES_PER_INDEX {
                return issues;
            }
            if id as usize >= table.len() || deleted.get(id as usize).copied().unwrap_or(false) {
                issues.push(HealthIssue::DeadOrUnknownId { id });
                continue;
            }
            let entry = (self.key(table, id), id);
            if prev.is_some_and(|p| p.0.total_cmp(&entry.0).then(p.1.cmp(&id)).is_gt()) {
                issues.push(HealthIssue::UnsortedKeys { rank });
            }
            prev = Some(entry);
        }
        let n = self.len();
        if n != expected_len && issues.len() < MAX_ISSUES_PER_INDEX {
            issues.push(HealthIssue::EntryCountMismatch {
                expected: expected_len,
                found: n,
            });
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VecStore;
    use planar_geom::Normalizer;

    fn table() -> FeatureTable {
        FeatureTable::from_rows(
            2,
            vec![
                vec![1.0, 2.0],
                vec![3.0, 1.0],
                vec![2.0, 2.0],
                vec![5.0, 4.0],
            ],
        )
        .unwrap()
    }

    fn healthy_index(table: &FeatureTable) -> SingleIndex<VecStore> {
        SingleIndex::build(table, &Normalizer::identity(2), vec![1.0, 1.0]).unwrap()
    }

    /// An index over normal (1, 1) that adopts `ids` in the given order.
    fn index_with_ids(ids: Vec<u32>) -> SingleIndex<VecStore> {
        let norm = Normalizer::identity(2);
        SingleIndex::from_parts(
            vec![1.0, 1.0],
            norm.raw_normal(&[1.0, 1.0]),
            VecStore::from_sorted_ids(ids),
        )
    }

    #[test]
    fn healthy_index_passes_all_checks() {
        let t = table();
        let idx = healthy_index(&t);
        // Keys 3, 4, 4, 9: the tie between ids 1 and 2 breaks by id.
        assert_eq!(idx.ids(), &[0, 1, 2, 3]);
        let deleted = vec![false; t.len()];
        assert!(idx.verify(&t, &deleted, t.len()).is_empty());
    }

    #[test]
    fn entry_count_mismatch_is_reported() {
        let t = table();
        let idx = healthy_index(&t);
        let deleted = vec![false; t.len()];
        let issues = idx.verify(&t, &deleted, t.len() - 1);
        assert_eq!(
            issues,
            vec![HealthIssue::EntryCountMismatch {
                expected: t.len() - 1,
                found: t.len(),
            }]
        );
    }

    #[test]
    fn dead_and_unknown_ids_are_reported() {
        let t = table();
        let idx = healthy_index(&t);
        let mut deleted = vec![false; t.len()];
        deleted[2] = true; // tombstoned but still indexed
        let issues = idx.verify(&t, &deleted, t.len() - 1);
        assert!(issues.contains(&HealthIssue::DeadOrUnknownId { id: 2 }));
        // EntryCountMismatch too: 4 entries vs 3 live.
        assert!(issues
            .iter()
            .any(|i| matches!(i, HealthIssue::EntryCountMismatch { .. })));
        let unknown = index_with_ids(vec![0, 1, 2, 3, 9]);
        let issues = unknown.verify(&t, &vec![false; t.len()], t.len());
        assert!(issues.contains(&HealthIssue::DeadOrUnknownId { id: 9 }));
    }

    #[test]
    fn swapped_ids_are_reported() {
        let t = table();
        let deleted = vec![false; t.len()];
        // Keys 3, 4, 4, 9 by id 0, 1, 2, 3: swapping ids 0 and 3 puts key 9
        // first.
        let issues = index_with_ids(vec![3, 1, 2, 0]).verify(&t, &deleted, t.len());
        assert_eq!(
            issues,
            vec![
                HealthIssue::UnsortedKeys { rank: 1 },
                HealthIssue::UnsortedKeys { rank: 3 }
            ]
        );
        // Equal keys must still follow id order.
        let issues = index_with_ids(vec![0, 2, 1, 3]).verify(&t, &deleted, t.len());
        assert_eq!(issues, vec![HealthIssue::UnsortedKeys { rank: 2 }]);
    }

    #[test]
    fn a_row_changed_behind_the_index_is_reported() {
        // The row moved but the index was not told: the key computed from
        // the new row breaks the order.
        let mut t = table();
        let idx = healthy_index(&t);
        t.update_row(0, &[9.0, 9.0]).unwrap();
        let issues = idx.verify(&t, &vec![false; t.len()], t.len());
        assert_eq!(issues, vec![HealthIssue::UnsortedKeys { rank: 1 }]);
    }

    #[test]
    fn report_aggregates_positions() {
        let report = HealthReport {
            indices: vec![
                IndexHealth {
                    pos: 0,
                    issues: vec![],
                },
                IndexHealth {
                    pos: 1,
                    issues: vec![HealthIssue::UnsortedKeys { rank: 7 }],
                },
            ],
        };
        assert!(!report.healthy());
        assert_eq!(report.failing_positions(), vec![1]);
        assert_eq!(
            format!("{}", HealthIssue::UnsortedKeys { rank: 7 }),
            "entries out of order at rank 7"
        );
    }
}
