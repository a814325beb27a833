//! `shard_smoke` — CI end-to-end check of the sharded training path: a
//! 2-shard training run on the smoke-scale ACM graph. Exits non-zero
//! (panics) on any inconsistency; prints one `OK` line on success. Fast
//! enough to run on every push — the model is tiny and trains for a single
//! epoch.

use widen_core::{ShardParallelism, ShardedTrainer, WidenConfig, WidenModel};
use widen_data::{acm_like, Scale};

fn main() {
    let seed = 7;
    let dataset = acm_like(Scale::Smoke, seed);
    let mut cfg = WidenConfig::small().with_seed(seed);
    cfg.d = 8;
    cfg.n_w = 4;
    cfg.n_d = 4;
    cfg.phi = 1;
    cfg.epochs = 1;

    // 2-shard training: sequential execution is bitwise-identical to the
    // threaded mode, and cheapest on a small CI runner.
    let model = WidenModel::for_graph(&dataset.graph, cfg);
    let train = &dataset.transductive.train;
    let mut trainer = ShardedTrainer::new(model, &dataset.graph, train, 2);
    trainer.set_parallelism(ShardParallelism::Sequential);
    assert_eq!(trainer.num_shards(), 2);
    let report = trainer.fit();
    let loss = report.final_loss();
    assert!(loss.is_finite() && loss > 0.0, "bad training loss {loss}");
    let split: Vec<usize> = trainer.shard_sizes().iter().map(|&(_, _, t)| t).collect();
    assert!(
        split.iter().all(|&t| t > 0),
        "a shard ended up with no training nodes: {split:?}"
    );
    println!("shard_smoke: OK (trained 2 shards, split {split:?}, final loss {loss:.4})");
}
