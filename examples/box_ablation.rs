//! Block-box ablation and check on the served configuration: Eq. 18
//! queries (RQ = 4, s = 0.25) over Independent rows in 8 dimensions, four
//! pilot-key-range shards on the `I16` tier, laid out in k-d block order.
//! Every query is answered on every shard two ways — the box alone (every
//! live row through one box sweep and the block kernel) and the chosen
//! planar index plus the box — at index budgets 16 and 4. The two arms must
//! return identical matches (the program panics otherwise). Per query, it
//! reports the rows verified, the blocks settled by their bounding box, the
//! shards that skipped the interval fill, and the µs of the box sweep alone.
//!
//! ```sh
//! cargo run --release --example box_ablation -- [rows]
//! ```

use planar::planar_core::QueryStats;
use planar::planar_datagen::queries::{eq18_domain, Eq18Generator};
use planar::planar_datagen::synthetic::{SyntheticConfig, SyntheticKind};
use planar::prelude::*;
use std::time::Instant;

fn main() -> planar::planar_core::Result<()> {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let (dim, rq) = (8, 4);
    let table = SyntheticConfig::paper(SyntheticKind::Independent, rows, dim).generate();
    let queries = Eq18Generator::new(&table, rq, 0x51E7_0F0E)
        .with_inequality_parameter(0.25)
        .queries(64);
    println!("rows {rows}, {} queries, per query:", queries.len());
    for budget in [16, 4] {
        let mut set = ShardedIndexSet::<VecStore>::build(
            table.clone(),
            eq18_domain(dim, rq),
            IndexConfig::with_budget(budget),
            ShardConfig::pilot_key_range(4),
        )?;
        set.retune_quantization(&QuantAutotuneConfig::default());
        let shards: Vec<_> = (0..set.num_shards())
            .map(|s| set.shard(s).expect("shard"))
            .collect();
        let blocks: usize = shards.iter().map(|sh| sh.table().len().div_ceil(64)).sum();
        let mut arms = [Arm::new("box only"), Arm::new("index + box")];
        let (mut sweep_us, mut verdicts) = (0.0, Vec::new());
        for q in &queries {
            for shard in &shards {
                let start = Instant::now();
                let boxed = shard.query_scan(q)?;
                arms[0].add(&boxed.stats, start);
                let start = Instant::now();
                let indexed = shard.query(q)?;
                arms[1].add(&indexed.stats, start);
                assert_eq!(
                    boxed.matches, indexed.matches,
                    "budget {budget}: arms disagree"
                );
                if let Some(quant) = shard.table().quant() {
                    let start = Instant::now();
                    quant.box_sweep(q, 0..quant.blocks(), &mut verdicts);
                    sweep_us += start.elapsed().as_secs_f64() * 1e6;
                }
            }
        }
        for arm in &arms {
            arm.print(budget, blocks, queries.len());
        }
        println!(
            "budget {budget:>2}  box sweep alone {:>8.1} us per query over {blocks} blocks; \
             both arms returned identical matches",
            sweep_us / queries.len() as f64
        );
    }
    Ok(())
}

/// Per-arm sums over the query pool.
struct Arm {
    name: &'static str,
    verified: usize,
    accepted: usize,
    rejected: usize,
    fills_skipped: usize,
    matched: usize,
    micros: f64,
}

impl Arm {
    fn new(name: &'static str) -> Self {
        Arm {
            name,
            verified: 0,
            accepted: 0,
            rejected: 0,
            fills_skipped: 0,
            matched: 0,
            micros: 0.0,
        }
    }

    fn add(&mut self, s: &QueryStats, start: Instant) {
        self.micros += start.elapsed().as_secs_f64() * 1e6;
        self.verified += s.verified;
        self.accepted += s.quant.box_accepted;
        self.rejected += s.quant.box_rejected;
        self.fills_skipped += s.fill_skipped;
        self.matched += s.matched;
    }

    fn print(&self, budget: usize, blocks: usize, queries: usize) {
        let per = |v: usize| v as f64 / queries as f64;
        println!(
            "budget {budget:>2}  {:<12} verified {:>9.0}  box-accepted {:>7.1}  \
             box-rejected {:>7.1} of {blocks} blocks  fills skipped {:>4.2}/4  \
             matched {:>7.0}  {:>8.0} us",
            self.name,
            per(self.verified),
            per(self.accepted),
            per(self.rejected),
            per(self.fills_skipped),
            per(self.matched),
            self.micros / queries as f64,
        );
    }
}
