//! The open-loop writer of `mixed_rw` and the model it checks recovery
//! against.
//!
//! The writer issues exactly `count` mutations at a fixed rate from one
//! thread, each timed from when it was due, so a stall delays (and is
//! charged to) the writes behind it. Every mutation touches only rows that
//! match no pool query (see [`crate::workload::NEUTRAL_MIN`]): inserts and
//! updates write spare rows, and updates and deletes target ids whose
//! current row is such a row. The reads running beside it therefore keep
//! exact canonical answers.

use crate::report::median;
use crate::workload::NEUTRAL_MIN;
use planar_core::{ConcurrentDurableShardedIndexSet, FeatureTable, Partitioner, ShardedIndexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const MUTATION_SALT: u64 = 0x3A7E_D1CE;

/// What the engine must hold after every acknowledged write.
pub struct Model {
    dim: usize,
    /// Current row of every global id, row-major.
    rows: Vec<f64>,
    live: Vec<bool>,
    /// Shard each id was routed to when created (placement is permanent).
    home: Vec<usize>,
    /// Live ids whose row matches no pool query: the writer's targets.
    neutral: Vec<u32>,
}

impl Model {
    /// The state of a freshly built engine over `table`.
    pub fn new(table: &FeatureTable, partitioner: &Partitioner) -> Model {
        let mut model = Model {
            dim: table.dim(),
            rows: Vec::with_capacity(table.len() * table.dim()),
            live: Vec::with_capacity(table.len()),
            home: Vec::with_capacity(table.len()),
            neutral: Vec::new(),
        };
        for (id, row) in table.iter() {
            model.push(partitioner.route(id, row), row);
        }
        model
    }

    fn push(&mut self, home: usize, row: &[f64]) {
        let id = self.live.len() as u32;
        if row.iter().all(|&x| x >= NEUTRAL_MIN) {
            self.neutral.push(id);
        }
        self.rows.extend_from_slice(row);
        self.live.push(true);
        self.home.push(home);
    }

    fn row(&self, id: usize) -> &[f64] {
        &self.rows[id * self.dim..(id + 1) * self.dim]
    }

    /// The id the engine assigns to the next insert.
    fn next_id(&self) -> u32 {
        self.live.len() as u32
    }
}

/// Measurements of one writer run.
#[derive(Debug, Default)]
pub struct Writes {
    /// Mutations issued.
    pub issued: u64,
    /// Mutations that returned an error.
    pub failed: u64,
    /// Due → acknowledged, ms.
    pub latency_ms: Vec<f64>,
    /// Due → issued, ms: how late the generator ran.
    pub late_ms: Vec<f64>,
    /// Call → acknowledged, µs, for inserts, updates and deletes.
    pub service_us: [Vec<f64>; 3],
    /// Call → acknowledged, µs, of the writes whose call published an epoch.
    pub publish_write_us: Vec<f64>,
    /// Insert acknowledged → first snapshot where the id is live, ms.
    pub visibility_ms: Vec<f64>,
}

impl Writes {
    /// Median service time of inserts, updates and deletes, µs.
    pub fn service_medians(&self) -> [f64; 3] {
        [0, 1, 2].map(|k| median(&self.service_us[k]))
    }
}

/// Issue `count` mutations at `per_s` from `start`, keeping `model` in step.
pub fn write(
    engine: &ConcurrentDurableShardedIndexSet,
    model: &mut Model,
    spare: &FeatureTable,
    seed: u64,
    count: u64,
    per_s: f64,
    start: Instant,
) -> Writes {
    let mut rng = StdRng::seed_from_u64(seed ^ MUTATION_SALT);
    let partitioner = engine.snapshot().partitioner().clone();
    let mut out = Writes::default();
    let mut spare_rows = spare.iter().map(|(_, row)| row);
    let mut unseen: VecDeque<(u32, Instant)> = VecDeque::new();
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / per_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let issued = Instant::now();
        let published = engine.epoch_stats().published;
        let draw: f64 = rng.random();
        let (kind, ok) = if draw < 0.2 || model.neutral.is_empty() {
            let row = spare_rows.next().expect("spare rows outlast the writes");
            let id = model.next_id();
            let ok = engine.insert_point(row).ok() == Some(id);
            model.push(partitioner.route(id, row), row);
            unseen.push_back((id, Instant::now()));
            (0, ok)
        } else if draw < 0.4 {
            let id = model
                .neutral
                .swap_remove(rng.random_range(0..model.neutral.len()));
            let ok = engine.delete_point(id).is_ok();
            model.live[id as usize] = false;
            (2, ok)
        } else {
            let id = model.neutral[rng.random_range(0..model.neutral.len())] as usize;
            let row = spare_rows.next().expect("spare rows outlast the writes");
            let ok = engine.update_point(id as u32, row).is_ok();
            model.rows[id * model.dim..(id + 1) * model.dim].copy_from_slice(row);
            (1, ok)
        };
        let acked = Instant::now();
        out.issued += 1;
        out.failed += u64::from(!ok);
        out.late_ms.push(ms(issued.saturating_duration_since(due)));
        out.latency_ms
            .push(ms(acked.saturating_duration_since(due)));
        let service = (acked - issued).as_secs_f64() * 1e6;
        out.service_us[kind].push(service);
        if engine.epoch_stats().published > published {
            out.publish_write_us.push(service);
        }
        // Publishes are ordered, so inserts become visible in ack order.
        let snap = engine.snapshot();
        while let Some(&(id, at)) = unseen.front() {
            if !snap.is_live(id) {
                break;
            }
            out.visibility_ms.push(ms(at.elapsed()));
            unseen.pop_front();
        }
    }
    out
}

/// Differences between a recovered engine and the model: liveness of every
/// id, and the stored row of every live one. A shard stores its ids'
/// rows in ascending global-id order, which locates each row.
pub fn recovery_mismatches(set: &ShardedIndexSet, model: &Model) -> usize {
    let mut wrong = (0..model.live.len())
        .filter(|&id| set.is_live(id as u32) != model.live[id])
        .count();
    let mut ids_of: Vec<Vec<usize>> = vec![Vec::new(); set.num_shards()];
    for (id, &home) in model.home.iter().enumerate() {
        ids_of[home].push(id);
    }
    for (s, ids) in ids_of.iter().enumerate() {
        let table = set.shard(s).expect("shard in range").table();
        if table.len() != ids.len() {
            wrong += ids.len().abs_diff(table.len());
            continue;
        }
        wrong += ids
            .iter()
            .enumerate()
            .filter(|&(local, &id)| model.live[id] && table.row(local as u32) != model.row(id))
            .count();
    }
    wrong
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
