//! Model test of `FeatureTable`'s one slot-ordered `f64` buffer: random
//! sequences of `push_row`, `update_row`, `cluster` and `clone` run against
//! a `Vec<Vec<f64>>` model. After every step the id-addressed views equal
//! the model, the slot maps are inverse, the table equals an unclustered
//! table of the same rows, and the `I16` tier equals a fresh encode.

use planar_core::table::PointId;
use planar_core::{FeatureTable, PlanarError, QuantTier, QuantizedColumns};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Push(Vec<f64>),
    /// Update the row of id `index % len` (a push when the table is empty).
    Update(usize, Vec<f64>),
    Cluster,
    Clone,
}

#[derive(Debug, Clone)]
struct Scenario {
    dim: usize,
    rows: Vec<Vec<f64>>,
    tier: bool,
    ops: Vec<Op>,
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -50.0..50.0_f64,
        1 => Just(0.0),
        1 => -1e-300..1e-300_f64,
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1..=4usize).prop_flat_map(|dim| {
        let row = move || prop::collection::vec(value(), dim);
        let op = prop_oneof![
            3 => row().prop_map(Op::Push),
            3 => (0..10_000usize, row()).prop_map(|(i, r)| Op::Update(i, r)),
            1 => Just(Op::Cluster),
            1 => Just(Op::Clone),
        ];
        (
            Just(dim),
            prop::collection::vec(row(), 0..200),
            any::<bool>(),
            prop::collection::vec(op, 1..30),
        )
            .prop_map(|(dim, rows, tier, ops)| Scenario {
                dim,
                rows,
                tier,
                ops,
            })
    })
}

fn check(table: &FeatureTable, model: &[Vec<f64>], step: &str) {
    let n = model.len();
    assert_eq!(table.len(), n, "{step}");
    for (id, want) in model.iter().enumerate() {
        let id = id as PointId;
        assert_eq!(table.row(id), &want[..], "{step}: row {id}");
        assert_eq!(table.try_row(id), Ok(&want[..]), "{step}: try_row {id}");
        assert_eq!(table.id_at(table.slot_of(id)), id, "{step}: id {id}");
    }
    assert_eq!(
        table.try_row(n as PointId),
        Err(PlanarError::PointNotFound(n as PointId)),
        "{step}"
    );
    for slot in 0..n as u32 {
        assert_eq!(
            table.slot_of(table.id_at(slot)),
            slot,
            "{step}: slot {slot}"
        );
    }
    let ids: Vec<PointId> = table.iter().map(|(id, _)| id).collect();
    assert_eq!(ids, (0..n as PointId).collect::<Vec<_>>(), "{step}");
    assert!(
        table
            .iter()
            .map(|(_, r)| r)
            .eq(model.iter().map(Vec::as_slice)),
        "{step}: iter rows"
    );
    let plain = FeatureTable::from_rows(table.dim(), model.iter().cloned()).unwrap();
    assert!(*table == plain, "{step}: == unclustered");
    if let Some(q) = table.quant() {
        let fresh = QuantizedColumns::encode(table);
        assert_eq!(q.len(), fresh.len(), "{step}");
        assert_eq!(q.codes(), fresh.codes(), "{step}: codes");
        for j in 0..table.dim() {
            assert_eq!(q.lo(j), fresh.lo(j), "{step}: lo plane {j}");
            assert_eq!(q.hi(j), fresh.hi(j), "{step}: hi plane {j}");
        }
        assert_eq!(q.fallback_blocks(), fresh.fallback_blocks(), "{step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-buffer table behaves as its row model under every
    /// mutation, clustering and clone.
    #[test]
    fn single_buffer_table_matches_a_row_model(s in scenario()) {
        let mut table = FeatureTable::from_rows(s.dim, s.rows.iter().cloned()).unwrap();
        let mut model = s.rows.clone();
        if s.tier {
            table.set_quant_tier(QuantTier::I16);
        }
        check(&table, &model, "start");
        for (i, op) in s.ops.iter().enumerate() {
            match op {
                Op::Push(row) => {
                    let id = table.push_row(row).unwrap();
                    prop_assert_eq!(id as usize, model.len());
                    model.push(row.clone());
                }
                Op::Update(_, row) if model.is_empty() => {
                    table.push_row(row).unwrap();
                    model.push(row.clone());
                }
                Op::Update(at, row) => {
                    let id = at % model.len();
                    table.update_row(id as PointId, row).unwrap();
                    model[id] = row.clone();
                }
                Op::Cluster => table.cluster(),
                Op::Clone => table = table.clone(),
            }
            check(&table, &model, &format!("step {i} ({op:?})"));
        }
        prop_assert_eq!(table.quant_tier() == QuantTier::I16, s.tier);
    }
}
