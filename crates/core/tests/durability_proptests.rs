//! Durability properties: arbitrary insert/update/delete interleavings
//! followed by a save→load round trip must be invisible to queries —
//! bit-identical answers (ids *and* distances).

use planar_core::{
    Domain, FeatureTable, IndexConfig, InequalityQuery, KeyStore, ParameterDomain, PlanarIndexSet,
    TopKQuery, VecStore,
};
use proptest::prelude::*;

/// One step of a mutation trace. `pick` selects among live ids modulo the
/// live count, so every generated trace is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Update(u16, Vec<f64>),
    Delete(u16),
}

#[derive(Debug, Clone)]
struct Trace {
    dim: usize,
    rows: Vec<Vec<f64>>,
    ops: Vec<Op>,
    queries: Vec<(Vec<f64>, f64)>,
    budget: usize,
}

fn trace() -> impl Strategy<Value = Trace> {
    (1..=4usize).prop_flat_map(|dim| {
        let row = prop::collection::vec(0.1..50.0_f64, dim);
        let op = prop_oneof![
            row.clone().prop_map(Op::Insert),
            (any::<u16>(), row.clone()).prop_map(|(pick, r)| Op::Update(pick, r)),
            any::<u16>().prop_map(Op::Delete),
        ];
        (
            Just(dim),
            prop::collection::vec(row, 1..30),
            prop::collection::vec(op, 0..25),
            prop::collection::vec(
                (prop::collection::vec(0.1..10.0_f64, dim), -50.0..150.0_f64),
                1..4,
            ),
            1..4usize,
        )
            .prop_map(|(dim, rows, ops, queries, budget)| Trace {
                dim,
                rows,
                ops,
                queries,
                budget,
            })
    })
}

/// Apply the trace to a set over store `S`, round-trip through bytes, and
/// check both loaded copies (strict and recovering) answer every query —
/// inequality and top-k — bit-identically to the live set.
fn check_store<S: KeyStore>(t: &Trace) {
    let table = FeatureTable::from_rows(t.dim, t.rows.clone()).unwrap();
    let domain =
        ParameterDomain::new(vec![Domain::Continuous { lo: 0.1, hi: 10.0 }; t.dim]).unwrap();
    let mut set: PlanarIndexSet<S> =
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(t.budget)).unwrap();

    let mut live: Vec<u32> = (0..t.rows.len() as u32).collect();
    let mut next_id = t.rows.len() as u32;
    for op in &t.ops {
        match op {
            Op::Insert(row) => {
                let id = set.insert_point(row).unwrap();
                assert_eq!(id, next_id);
                live.push(id);
                next_id += 1;
            }
            Op::Update(pick, row) if !live.is_empty() => {
                let id = live[*pick as usize % live.len()];
                set.update_point(id, row).unwrap();
            }
            Op::Delete(pick) if !live.is_empty() => {
                let slot = *pick as usize % live.len();
                set.delete_point(live[slot]).unwrap();
                live.remove(slot);
            }
            _ => {}
        }
    }

    let bytes = set.to_bytes();
    let strict = PlanarIndexSet::<S>::from_bytes(&bytes).unwrap();
    let (recovered, report) = PlanarIndexSet::<S>::from_bytes_recover(&bytes).unwrap();
    assert!(
        report.is_clean(),
        "uncorrupted bytes must load clean: {report:?}"
    );
    assert_eq!(strict.len(), set.len());

    for (a, b) in &t.queries {
        let q = InequalityQuery::leq(a.clone(), *b).unwrap();
        let want = set.query(&q).unwrap().sorted_ids();
        assert_eq!(strict.query(&q).unwrap().sorted_ids(), want);
        assert_eq!(recovered.query(&q).unwrap().sorted_ids(), want);

        let tk = TopKQuery::new(q, 5).unwrap();
        // Distances too: the round trip must preserve keys bit-for-bit.
        let want_k = set.top_k(&tk).unwrap().neighbors;
        assert_eq!(strict.top_k(&tk).unwrap().neighbors, want_k);
        assert_eq!(recovered.top_k(&tk).unwrap().neighbors, want_k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutated_sets_round_trip_exactly_vec_store(t in trace()) {
        check_store::<VecStore>(&t);
    }
}
