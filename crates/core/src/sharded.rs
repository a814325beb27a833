//! Data-parallel shard training (the distributed half of the paper's
//! efficiency claim): the graph is partitioned with
//! [`widen_graph::greedy_bfs_weighted`] (balancing training-node weight), each part is expanded into a halo subgraph
//! wide enough that every deep walk of length `N_d` stays shard-local, and
//! each global step runs one sub-batch per shard on its own worker before
//! merging gradients through the same ParamId-ordered reduction the
//! single-graph [`crate::Trainer`] uses.
//!
//! Determinism contract: for a fixed seed **and** fixed shard count, runs
//! are bitwise identical regardless of [`ShardParallelism`] — workers are
//! joined and reduced in shard-major, chunk-major order, and every
//! random stream (state sampling, epoch shuffle, downsampling) is keyed by
//! the node's *global* id via [`WidenModel::sample_state_as`], not its
//! shard-local index. With one shard the trainer degenerates exactly to
//! [`crate::Trainer`]: same shuffle, same chunk decomposition, same
//! reduction order, bitwise-equal losses and weights (pinned by the
//! `shard_parity` differential suite).
//!
//! On a single-core host the shards still run their steps back to back, so
//! besides wall time the trainer records the *modelled distributed critical
//! path*: per global step, the slowest shard's busy nanos plus the
//! merge/optimizer nanos — what a k-worker deployment would pay. The
//! `bench_shards` sweep reports that figure.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use widen_graph::{greedy_bfs_weighted, HeteroGraph, NodeId, NodeMapping};
use widen_obs::{Counter, Registry, Stopwatch};
use widen_sampling::hash_seed;
use widen_tensor::{Adam, BufferPool, Optimizer, Tensor};

use crate::engine::{self, ChunkCtx, ChunkResult, NodeOutcome};
use crate::model::WidenModel;
use crate::state::NodeState;
use crate::trainer::{EpochStats, TrainReport};

/// How the per-step shard work is executed. Both modes produce bitwise
/// identical results; the reduction order is fixed by shard index, not by
/// completion order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardParallelism {
    /// Run shards back to back on the caller's thread. Deterministic and
    /// cheapest on a single-core host; the default for benchmarking, where
    /// the critical-path model supplies the distributed view.
    Sequential,
    /// One scoped OS thread per shard per step, joined in shard order.
    Threads,
}

/// Refinement passes handed to [`greedy_bfs_weighted`] when building the shard map.
const REFINEMENT_PASSES: usize = 2;

/// One shard: a halo-expanded induced subgraph, the global→local node
/// mapping, the persistent wide/deep states of its core training nodes
/// (keyed by *local* id), and a warm tape-buffer pool.
struct Shard {
    graph: HeteroGraph,
    mapping: NodeMapping,
    states: FxHashMap<NodeId, NodeState>,
    pool: BufferPool,
    /// Core (pre-halo) member count, for telemetry.
    core_size: usize,
}

impl Shard {
    fn to_local(&self, global: NodeId) -> NodeId {
        self.mapping
            .to_new(global)
            .expect("core training node must be inside its own shard")
    }
}

/// Report from [`ShardedTrainer::fit`]: the familiar per-epoch telemetry
/// plus the distributed-scaling view.
#[derive(Clone, Debug, Default)]
pub struct ShardedTrainReport {
    /// Per-epoch losses, wall seconds and downsampling stats, shaped
    /// exactly like the single-graph trainer's report.
    pub train: TrainReport,
    /// Modelled distributed seconds per epoch: Σ over steps of
    /// (max over shards of shard busy time) + merge/optimizer time. With
    /// one shard this equals busy + merge time, so the s1→sk ratio is the
    /// parallel speedup a k-worker deployment would see.
    pub critical_path_secs: Vec<f64>,
    /// Per epoch, per shard: seconds the shard spent on forward/backward/
    /// downsample work (summed over its steps).
    pub shard_busy_secs: Vec<Vec<f64>>,
    /// Per epoch: seconds spent in the gradient merge + optimizer step
    /// (the serial section of every global step).
    pub merge_secs: Vec<f64>,
    /// Per epoch, per non-empty global step, per shard: busy nanos. The
    /// raw samples behind `critical_path_secs`, exposed so a benchmark
    /// repeating the (deterministic) fit can take per-step minima across
    /// repetitions — scheduler noise only ever adds time, so the
    /// elementwise floor is the clean estimate of the true compute.
    pub step_busy_nanos: Vec<Vec<Vec<u64>>>,
    /// Per epoch, per non-empty global step: merge + optimizer nanos.
    pub step_merge_nanos: Vec<Vec<u64>>,
}

impl ShardedTrainReport {
    /// Final epoch's mean loss (0 before training).
    pub fn final_loss(&self) -> f64 {
        self.train.final_loss()
    }

    /// Mean modelled distributed seconds per epoch.
    pub fn mean_critical_path_secs(&self) -> f64 {
        if self.critical_path_secs.is_empty() {
            return 0.0;
        }
        self.critical_path_secs.iter().sum::<f64>() / self.critical_path_secs.len() as f64
    }
}

/// Drives Algorithm 3 over `k` graph shards with a shared model and one
/// optimizer step per global batch.
pub struct ShardedTrainer {
    model: WidenModel,
    optimizer: Adam,
    shards: Vec<Shard>,
    /// Global node id → owning shard, from [`greedy_bfs_weighted`].
    assignment: Vec<u32>,
    /// Global ids of the training nodes, in caller order.
    train: Vec<NodeId>,
    parallelism: ShardParallelism,
    metrics: Registry,
    shard_busy: Vec<Arc<Counter>>,
    merge_nanos: Arc<Counter>,
    nonfinite: Arc<Counter>,
    epochs: Arc<Counter>,
}

impl ShardedTrainer {
    /// Partitions `graph` into `k` shards (greedy BFS edge-cut weighted to
    /// balance training nodes, halo radius `max(N_d, 1)` so deep walks stay
    /// local), samples every training node's initial wide/deep
    /// neighbourhoods *inside its shard* keyed by its global id, and sets
    /// up Adam exactly like [`crate::Trainer::new`].
    ///
    /// # Panics
    /// Panics if `k` is zero, exceeds the node count, if any training node
    /// is unlabelled, or if a shard ends up empty.
    pub fn new(model: WidenModel, graph: &HeteroGraph, train_nodes: &[NodeId], k: usize) -> Self {
        assert!(k >= 1, "shard count must be positive");
        assert!(
            k <= graph.num_nodes(),
            "shard count {k} exceeds node count {}",
            graph.num_nodes()
        );
        for &node in train_nodes {
            assert!(
                graph.label(node).is_some(),
                "training node {node} is unlabelled"
            );
        }
        let seed = model.config.seed;
        let radius = model.config.n_d.max(1);
        // Balance *training* nodes across shards, not raw node counts: the
        // per-step critical path is the busiest shard's sub-batch, so a
        // shard hoarding labelled nodes caps the achievable speedup at
        // |T| / max_p |T_p| no matter how even the subgraphs are. A train
        // node outweighs the whole unlabelled graph; plain nodes act as
        // the tiebreaker toward even subgraph (memory) sizes.
        let mut weights = vec![1u64; graph.num_nodes()];
        let boost = graph.num_nodes() as u64;
        for &node in train_nodes {
            weights[node as usize] = 1 + boost;
        }
        let partition = greedy_bfs_weighted(graph, k, REFINEMENT_PASSES, &weights);
        let assignment = partition.assignment.clone();

        let mut shards = Vec::with_capacity(k);
        for p in 0..k as u32 {
            let core_size = partition.part(p).len();
            let keep = partition.halo(graph, p, radius);
            assert!(!keep.is_empty(), "shard {p} is empty");
            let sub = graph.induced_subgraph(&keep);
            let mut states = FxHashMap::default();
            for &global in train_nodes {
                if assignment[global as usize] != p {
                    continue;
                }
                let local = sub
                    .mapping
                    .to_new(global)
                    .expect("core training node must be inside its own shard");
                states.insert(
                    local,
                    model.sample_state_as(&sub.graph, local, global, hash_seed(seed, &[1])),
                );
            }
            shards.push(Shard {
                graph: sub.graph,
                mapping: sub.mapping,
                states,
                pool: BufferPool::default(),
                core_size,
            });
        }

        let optimizer = Adam::with_lr(model.config.learning_rate, model.config.weight_decay);
        let metrics = Registry::new();
        let shard_busy = (0..k)
            .map(|p| metrics.counter(&format!("core_shard{p}_busy_nanos_total")))
            .collect();
        let merge_nanos = metrics.counter("core_shard_merge_nanos_total");
        let nonfinite = metrics.counter("core_nonfinite_batches_total");
        let epochs = metrics.counter("core_epochs_total");
        Self {
            model,
            optimizer,
            shards,
            assignment,
            train: train_nodes.to_vec(),
            parallelism: ShardParallelism::Threads,
            metrics,
            shard_busy,
            merge_nanos,
            nonfinite,
            epochs,
        }
    }

    /// Selects how shard steps execute (results are identical either way).
    pub fn set_parallelism(&mut self, parallelism: ShardParallelism) {
        self.parallelism = parallelism;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per shard `(core nodes, nodes incl. halo, core training nodes)`.
    pub fn shard_sizes(&self) -> Vec<(usize, usize, usize)> {
        self.shards
            .iter()
            .map(|s| (s.core_size, s.graph.num_nodes(), s.states.len()))
            .collect()
    }

    /// Read access to the shared model.
    pub fn model(&self) -> &WidenModel {
        &self.model
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> WidenModel {
        self.model
    }

    /// This trainer's metric registry: per-shard busy nanos
    /// (`core_shard{p}_busy_nanos_total`), merge nanos, epoch and
    /// non-finite-batch counters.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Runs `config.epochs` sharded training epochs over the training set
    /// given at construction.
    pub fn fit(&mut self) -> ShardedTrainReport {
        let config = self.model.config.clone();
        let k = self.shards.len();
        let mut report = ShardedTrainReport::default();
        // Like the single-graph trainer, the visit order is one persistent
        // vector re-shuffled in place each epoch (epoch z shuffles the
        // epoch z-1 permutation) — required for bitwise 1-shard parity.
        let mut order = self.train.clone();

        for epoch in 1..=config.epochs {
            let wall = Stopwatch::start();
            // Global shuffle with the single-graph trainer's stream, then a
            // per-shard order-preserving filter: with one shard this IS the
            // trainer's batch sequence.
            let mut rng = StdRng::seed_from_u64(hash_seed(config.seed, &[2, epoch as u64]));
            order.shuffle(&mut rng);
            let mut shard_orders: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); k];
            for &global in &order {
                let p = self.assignment[global as usize] as usize;
                let local = self.shards[p].to_local(global);
                shard_orders[p].push((local, global));
            }
            let steps = shard_orders
                .iter()
                .map(|o| o.len().div_ceil(config.batch_size))
                .max()
                .unwrap_or(0)
                .max(1);

            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            let mut stats = EpochStats::default();
            let mut epoch_busy = vec![0u64; k];
            let mut critical_nanos = 0u64;
            let mut merge_total_nanos = 0u64;
            let mut step_busy: Vec<Vec<u64>> = Vec::new();
            let mut step_merge: Vec<u64> = Vec::new();

            for step in 0..steps {
                let sub_batches: Vec<&[(NodeId, NodeId)]> = shard_orders
                    .iter()
                    .map(|o| {
                        let lo = (step * config.batch_size).min(o.len());
                        let hi = ((step + 1) * config.batch_size).min(o.len());
                        &o[lo..hi]
                    })
                    .collect();
                let step_total: usize = sub_batches.iter().map(|b| b.len()).sum();
                if step_total == 0 {
                    continue;
                }
                batches += 1;

                let model = &self.model;
                let results: Vec<(Vec<ChunkResult>, u64)> = match self.parallelism {
                    ShardParallelism::Sequential => self
                        .shards
                        .iter_mut()
                        .zip(&sub_batches)
                        .map(|(shard, batch)| {
                            run_shard_step(model, shard, batch, epoch, step_total)
                        })
                        .collect(),
                    ShardParallelism::Threads => std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .shards
                            .iter_mut()
                            .zip(&sub_batches)
                            .map(|(shard, batch)| {
                                scope.spawn(move || {
                                    run_shard_step(model, shard, batch, epoch, step_total)
                                })
                            })
                            .collect();
                        // Joined in shard order: completion order never
                        // leaks into the reduction.
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("shard worker panicked"))
                            .collect()
                    }),
                };

                let max_busy = results.iter().map(|(_, busy)| *busy).max().unwrap_or(0);
                critical_nanos += max_busy;
                step_busy.push(results.iter().map(|(_, busy)| *busy).collect());
                for (p, (_, busy)) in results.iter().enumerate() {
                    epoch_busy[p] += busy;
                    self.shard_busy[p].add(*busy);
                }

                // Serial section: shard-major, chunk-major reduction through
                // the engine's ParamId-ordered accumulator, then one Adam
                // step for the whole global batch.
                let merge_sw = Stopwatch::start();
                let mut grads: Vec<(widen_tensor::ParamId, Tensor)> = Vec::new();
                let mut shard_outcomes: Vec<Vec<NodeOutcome>> = Vec::with_capacity(k);
                for (chunks, _) in results {
                    let mut outcomes = Vec::new();
                    for chunk in chunks {
                        epoch_loss += chunk.loss;
                        engine::accumulate_grads(&mut grads, chunk.grads);
                        outcomes.extend(chunk.outcomes);
                    }
                    shard_outcomes.push(outcomes);
                }
                let health = engine::grad_health(&grads);
                if health.finite {
                    stats.observe_grads(
                        health.norm,
                        f64::from(health.max_abs),
                        health.max_param.map(|id| self.model.params.name(id)),
                    );
                } else {
                    stats.nonfinite_batches += 1;
                    self.nonfinite.inc();
                }
                self.optimizer.step(&mut self.model.params, &grads);
                let merge_ns = merge_sw.elapsed_nanos();
                merge_total_nanos += merge_ns;
                critical_nanos += merge_ns;
                step_merge.push(merge_ns);

                for (p, outcomes) in shard_outcomes.into_iter().enumerate() {
                    engine::apply_outcomes(
                        &mut self.shards[p].states,
                        outcomes,
                        &mut report.train,
                        &mut stats,
                    );
                }
            }

            self.merge_nanos.add(merge_total_nanos);
            self.epochs.inc();
            report
                .train
                .epoch_losses
                .push(epoch_loss / batches.max(1) as f64);
            report.train.epoch_secs.push(wall.elapsed_secs());
            report.train.epoch_stats.push(stats);
            report.critical_path_secs.push(critical_nanos as f64 * 1e-9);
            report
                .shard_busy_secs
                .push(epoch_busy.iter().map(|&n| n as f64 * 1e-9).collect());
            report.merge_secs.push(merge_total_nanos as f64 * 1e-9);
            report.step_busy_nanos.push(step_busy);
            report.step_merge_nanos.push(step_merge);
        }
        report
    }
}

/// One shard's share of a global step: the sub-batch is cut into chunks
/// with the single-graph trainer's formula and run through the shared
/// engine, with each chunk's loss weighted by the *global* step size so the
/// cross-shard sum is the step mean. Returns the chunk results in order
/// plus the shard's busy nanos.
fn run_shard_step(
    model: &WidenModel,
    shard: &mut Shard,
    batch: &[(NodeId, NodeId)],
    epoch: usize,
    step_total: usize,
) -> (Vec<ChunkResult>, u64) {
    if batch.is_empty() {
        return (Vec::new(), 0);
    }
    let sw = Stopwatch::start();
    let chunk_size = batch
        .len()
        .div_ceil(rayon::current_num_threads().max(1))
        .max(1);
    let Shard {
        graph,
        states,
        pool,
        ..
    } = shard;
    let ctx = ChunkCtx {
        model,
        graph,
        states,
        profiling: false,
        trace: None,
    };
    let mut results = Vec::with_capacity(batch.len().div_ceil(chunk_size));
    for chunk in batch.chunks(chunk_size) {
        let locals: Vec<NodeId> = chunk.iter().map(|&(local, _)| local).collect();
        let idents: Vec<NodeId> = chunk.iter().map(|&(_, global)| global).collect();
        let warm = std::mem::take(pool);
        let (result, warm) = engine::run_chunk(&ctx, &locals, &idents, epoch, step_total, warm);
        *pool = warm;
        results.push(result);
    }
    (results, sw.elapsed_nanos())
}
