//! Training WIDEN (Algorithm 3): mini-batch semi-supervised cross-entropy
//! with active downsampling — the one training loop, with a shared model
//! and one optimizer step per global batch.
//!
//! Per epoch, every training node is visited once; its forward pass records
//! the wide/deep attention distributions, which (a) feed the KL trigger
//! (Eq. 9) against last epoch's distributions and (b) locate the
//! least-contributing neighbour for the argmin drop (Algorithms 1–2).
//! With `k` shards, each global step takes the next `k · batch_size` nodes
//! of the epoch's order and cuts them into `k` contiguous parts
//! ([`split_even`]). Every non-empty part runs as one chunk through the
//! shared chunk engine — several on scoped threads over the one borrowed
//! graph, a lone part inline. A shard is a thread slot with its own warm
//! buffer pool, not a sub-graph. Gradients are reduced in part order, so a
//! fixed seed and `k` give the same bits on any host.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use widen_graph::{HeteroGraph, NodeId};
use widen_obs::{Counter, Registry, Stopwatch, Tracer};
use widen_sampling::hash_seed;
use widen_tensor::{Adam, BufferPool, Optimizer, ParamId, ProfileReport, Tensor};

use crate::engine::{self, ChunkResult, TraceCtx};
use crate::model::WidenModel;
use crate::state::NodeState;

/// Per-epoch training telemetry: the one record of a fit, epoch by epoch.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean training cross-entropy per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_secs: Vec<f64>,
    /// Per-epoch stage times, downsampling and Eq. 9 trigger telemetry.
    pub epoch_stats: Vec<EpochStats>,
    /// Per-epoch aggregated op profiles (one per epoch when
    /// [`Trainer::set_profiling`] is on, empty otherwise).
    pub epoch_profiles: Vec<ProfileReport>,
    /// Wide neighbours dropped by downsampling, cumulative.
    pub wide_drops: usize,
    /// Deep packs pruned by downsampling, cumulative.
    pub deep_drops: usize,
    /// Relay edges generated while pruning (Eq. 8), cumulative.
    pub relay_edges: usize,
}

/// One epoch's stage times, downsampling decisions and Eq. 9 trigger
/// values.
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    /// Forward nanos, summed across part threads (so with several shards
    /// more than the epoch's wall time).
    pub forward_nanos: u64,
    /// Backward and gradient-extraction nanos, summed across part threads.
    pub backward_nanos: u64,
    /// Optimizer-step nanos.
    pub optim_nanos: u64,
    /// Eq. 9 decision-loop nanos, summed across part threads.
    pub downsample_nanos: u64,
    /// Message-packaging nanos, a part of `forward_nanos`: the epoch's
    /// delta of the process-wide [`crate::packaging::packaging_nanos_total`],
    /// so a fit running beside another in the same process counts the
    /// other's packaging too.
    pub packaging_nanos: u64,
    /// Number of Eq. 9 KL evaluations (attentive sets with usable history).
    pub kl_count: u64,
    /// Mean of the evaluated KL trigger values, if any were evaluated.
    pub kl_mean: Option<f64>,
    /// Minimum evaluated KL trigger value, if any.
    pub kl_min: Option<f64>,
    /// Wide sets kept this epoch.
    pub wide_keeps: u64,
    /// Wide neighbours dropped this epoch.
    pub wide_drops: u64,
    /// Deep walks kept this epoch.
    pub deep_keeps: u64,
    /// Deep packs pruned this epoch.
    pub deep_drops: u64,
    /// Relay edges installed this epoch (Eq. 8).
    pub relay_edges: u64,
    /// Batches whose gradient health was evaluated (finite gradients).
    pub grad_batches: u64,
    /// Mean of per-batch global gradient L2 norms, if any batch was finite.
    pub grad_norm_mean: Option<f64>,
    /// Largest per-parameter `max|g|` seen this epoch.
    pub grad_max_abs: f64,
    /// Name of the parameter holding [`EpochStats::grad_max_abs`].
    pub grad_max_param: String,
    /// Batches whose reduced gradients contained NaN/Inf; their optimizer
    /// step was skipped.
    pub nonfinite_batches: u64,
}

impl EpochStats {
    pub(crate) fn observe_kl(&mut self, kl: Option<f64>) {
        if let Some(kl) = kl {
            self.kl_count += 1;
            let mean = self.kl_mean.get_or_insert(0.0);
            // Streaming mean; counts stay small enough for exact f64 sums,
            // but the incremental form avoids a separate accumulator.
            *mean += (kl - *mean) / self.kl_count as f64;
            self.kl_min = Some(self.kl_min.map_or(kl, |m| m.min(kl)));
        }
    }

    pub(crate) fn observe_grads(&mut self, norm: f64, max_abs: f64, max_param: Option<&str>) {
        self.grad_batches += 1;
        let mean = self.grad_norm_mean.get_or_insert(0.0);
        *mean += (norm - *mean) / self.grad_batches as f64;
        if max_abs > self.grad_max_abs {
            self.grad_max_abs = max_abs;
            if let Some(name) = max_param {
                self.grad_max_param = name.to_string();
            }
        }
    }
}

impl TrainReport {
    /// Final epoch's mean loss (0 before training).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(0.0)
    }

    /// Total training seconds.
    pub fn total_secs(&self) -> f64 {
        self.epoch_secs.iter().sum()
    }
}

/// Phase-timing counters, one set per trainer (on its own registry).
/// Chunk phases accumulate from the part threads, so with several shards
/// forward/backward nanos are summed across threads rather than wall time.
struct PhaseCounters {
    forward: Arc<Counter>,
    backward: Arc<Counter>,
    optim: Arc<Counter>,
    downsample: Arc<Counter>,
    epochs: Arc<Counter>,
    nonfinite: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    pool_bytes_reused: Arc<Counter>,
    /// Per shard: wall nanos spent on its parts.
    shard_busy: Vec<Arc<Counter>>,
    /// Wall nanos of the serial section of every global step.
    merge: Arc<Counter>,
}

impl PhaseCounters {
    fn new(registry: &Registry, shards: usize) -> Self {
        Self {
            forward: registry.counter("core_forward_nanos_total"),
            backward: registry.counter("core_backward_nanos_total"),
            optim: registry.counter("core_optim_nanos_total"),
            downsample: registry.counter("core_downsample_nanos_total"),
            epochs: registry.counter("core_epochs_total"),
            nonfinite: registry.counter("core_nonfinite_batches_total"),
            pool_hits: registry.counter("core_grad_pool_hits_total"),
            pool_misses: registry.counter("core_grad_pool_misses_total"),
            pool_bytes_reused: registry.counter("core_grad_pool_bytes_reused_total"),
            shard_busy: (0..shards)
                .map(|p| registry.counter(&format!("core_shard{p}_busy_nanos_total")))
                .collect(),
            merge: registry.counter("core_shard_merge_nanos_total"),
        }
    }
}

/// Drives Algorithm 3 over a training node set: one loop over one graph,
/// a shared model, one optimizer step per global batch whose `k ≥ 1`
/// parts run on threads.
pub struct Trainer<'g> {
    model: WidenModel,
    graph: &'g HeteroGraph,
    /// Persistent wide/deep states of the training nodes.
    states: FxHashMap<NodeId, NodeState>,
    /// One warm tape-buffer pool (forward values, leaves and gradients)
    /// per shard: moved into the shard's chunk each step and back out
    /// holding its buffers, so it is never larger than the biggest chunk
    /// the shard has run.
    pools: Vec<BufferPool>,
    optimizer: Adam,
    metrics: Registry,
    phase: PhaseCounters,
    tracer: Option<Tracer>,
    profiling: bool,
}

impl<'g> Trainer<'g> {
    /// Prepares training on `graph`: samples every training node's initial
    /// wide/deep neighbourhoods (Algorithm 3 line 3) and sets up Adam with
    /// the configured learning rate and L2 strength. One shard.
    pub fn new(model: WidenModel, graph: &'g HeteroGraph, train_nodes: &[NodeId]) -> Self {
        Self::with_shards(model, graph, train_nodes, 1)
    }

    /// [`Trainer::new`] with `k` shards: each global step takes `k ·
    /// batch_size` nodes and runs its `k` parts on scoped threads, each
    /// with its own warm buffer pool, over the one borrowed graph. With
    /// `k = 1` this is [`Trainer::new`]. A fixed seed and `k` give the same
    /// bits on any host.
    ///
    /// ```no_run
    /// use widen_core::{Trainer, WidenConfig, WidenModel};
    /// use widen_data::{acm_like, Scale};
    ///
    /// let dataset = acm_like(Scale::Table, 1);
    /// let train = &dataset.transductive.train;
    /// let model = WidenModel::for_graph(&dataset.graph, WidenConfig::paper());
    /// let mut trainer = Trainer::with_shards(model, &dataset.graph, train, 4);
    /// let report = trainer.fit(train);
    /// println!("final loss {:.4}", report.final_loss());
    /// ```
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn with_shards(
        model: WidenModel,
        graph: &'g HeteroGraph,
        train_nodes: &[NodeId],
        k: usize,
    ) -> Self {
        assert!(k >= 1, "a trainer needs at least one shard");
        let seed = hash_seed(model.config.seed, &[1]);
        let states = train_nodes
            .iter()
            .map(|&node| (node, model.sample_state(graph, node, seed)))
            .collect();
        let optimizer = Adam::with_lr(model.config.learning_rate, model.config.weight_decay);
        let metrics = Registry::new();
        let phase = PhaseCounters::new(&metrics, k);
        Self {
            model,
            graph,
            states,
            pools: (0..k).map(|_| BufferPool::default()).collect(),
            optimizer,
            metrics,
            phase,
            tracer: None,
            profiling: false,
        }
    }

    /// Read access to the model.
    pub fn model(&self) -> &WidenModel {
        &self.model
    }

    /// This trainer's metric registry (phase timings, per-shard busy and
    /// merge nanos, epoch and non-finite-batch counters). Per-instance so
    /// concurrent trainers — and tests — never share state; packaging time
    /// lives on [`Registry::global`] instead (see
    /// [`crate::packaging::packaging_nanos_total`]).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Records per-epoch span trees into `tracer`: one
    /// `core.trainer.epoch` root per epoch with chunk-level
    /// forward/backward/downsample children (recorded from the part
    /// threads), an optimizer-step span, and a synthetic packaging span
    /// from the packaging counter delta.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Turns on per-op tape profiling: every chunk's tape records op
    /// timings and FLOP estimates, merged into one [`ProfileReport`] per
    /// epoch (see [`TrainReport::epoch_profiles`]).
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.pools.len()
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> WidenModel {
        self.model
    }

    /// Current neighbour-set sizes `(Σ|W|, Σ|D| over walks)` across all
    /// training nodes — used by tests and the efficiency harness to verify
    /// downsampling actually shrinks the message volume.
    pub fn neighbor_volume(&self) -> (usize, usize) {
        let mut wide = 0;
        let mut deep = 0;
        for state in self.states.values() {
            wide += state.wide.len();
            deep += state.deeps.iter().map(|d| d.len()).sum::<usize>();
        }
        (wide, deep)
    }

    /// Algorithm 3's loop condition is "until `L` converges **or**
    /// `z = Z`": trains for at most `config.epochs` epochs, stopping early
    /// once the relative epoch-loss improvement stays below `tol` for
    /// `patience` consecutive epochs.
    pub fn fit_until_converged(
        &mut self,
        train_nodes: &[NodeId],
        tol: f64,
        patience: usize,
    ) -> TrainReport {
        assert!(patience >= 1, "patience must be at least 1");
        self.fit_impl(train_nodes, Some((tol, patience)))
    }

    /// Runs `config.epochs` training epochs over `train_nodes` (labelled).
    ///
    /// # Panics
    /// Panics if any training node is unlabelled or was not given to the
    /// constructor.
    pub fn fit(&mut self, train_nodes: &[NodeId]) -> TrainReport {
        self.fit_impl(train_nodes, None)
    }

    fn fit_impl(
        &mut self,
        train_nodes: &[NodeId],
        convergence: Option<(f64, usize)>,
    ) -> TrainReport {
        let config = self.model.config.clone();
        // An `Arc` clone, so the epoch's span context never borrows `self`.
        let tracer = self.tracer.clone();
        let mut report = TrainReport::default();
        // The visit order is one persistent vector re-shuffled in place
        // each epoch (epoch z shuffles the epoch z-1 permutation).
        let mut order: Vec<NodeId> = train_nodes.to_vec();
        for &node in &order {
            assert!(
                self.states.contains_key(&node),
                "node {node} missing from trainer"
            );
            assert!(
                self.graph.label(node).is_some(),
                "training node {node} is unlabelled"
            );
        }
        let step_len = self.pools.len() * config.batch_size;

        for epoch in 1..=config.epochs {
            let start = Stopwatch::start();
            let phase_before = self.phase_snapshot();
            let epoch_span = tracer.as_ref().map(|t| (t, t.span("core.trainer.epoch")));
            let trace: TraceCtx<'_> = epoch_span.as_ref().map(|(t, s)| (*t, s.trace(), s.id()));
            let epoch_start_ns = trace.map(|(t, ..)| t.now_ns());
            let mut shuffle_rng = StdRng::seed_from_u64(hash_seed(config.seed, &[2, epoch as u64]));
            order.shuffle(&mut shuffle_rng);
            let steps = order.len().div_ceil(step_len);

            let mut epoch_loss = 0.0f64;
            let mut stats = EpochStats::default();
            let mut epoch_profile: Option<ProfileReport> = None;
            for step in order.chunks(step_len) {
                epoch_loss += self.train_step(
                    &split_even(step, self.pools.len()),
                    epoch,
                    trace,
                    &mut report,
                    &mut stats,
                    &mut epoch_profile,
                );
            }
            // Packaging runs inside forward on worker threads and only
            // surfaces as a global counter; synthesise its epoch share as a
            // span so the trace shows all four phases.
            if let Some(((t, id, parent), start_ns)) = trace.zip(epoch_start_ns) {
                let pack =
                    crate::packaging::packaging_nanos_total().saturating_sub(phase_before[4]);
                if pack > 0 {
                    t.record_complete(id, Some(parent), "core.packaging.pack", start_ns, pack);
                }
            }
            drop(epoch_span);
            let mean_loss = epoch_loss / steps.max(1) as f64;
            let secs = start.elapsed_secs();
            self.phase.epochs.inc();
            let after = self.phase_snapshot();
            let delta = |i: usize| after[i].saturating_sub(phase_before[i]);
            stats.forward_nanos = delta(0);
            stats.backward_nanos = delta(1);
            stats.optim_nanos = delta(2);
            stats.downsample_nanos = delta(3);
            stats.packaging_nanos = delta(4);
            report.epoch_profiles.extend(epoch_profile);
            report.epoch_losses.push(mean_loss);
            report.epoch_secs.push(secs);
            report.epoch_stats.push(stats);

            if let Some((tol, patience)) = convergence {
                let losses = &report.epoch_losses;
                if losses.len() > patience {
                    let converged = (0..patience).all(|k| {
                        let idx = losses.len() - 1 - k;
                        let prev = losses[idx - 1];
                        let curr = losses[idx];
                        prev - curr < tol * prev.abs().max(1e-12)
                    });
                    if converged {
                        break;
                    }
                }
            }
        }
        report
    }

    /// Cumulative `[forward, backward, optim, downsample, packaging]` nanos;
    /// diffed across an epoch into [`EpochStats`]' stage times.
    fn phase_snapshot(&self) -> [u64; 5] {
        [
            self.phase.forward.get(),
            self.phase.backward.get(),
            self.phase.optim.get(),
            self.phase.downsample.get(),
            crate::packaging::packaging_nanos_total(),
        ]
    }

    /// One global step: each non-empty part runs through the engine on
    /// its shard's pool, the part gradients are reduced in part order into
    /// one guarded optimizer step, and the downsampling outcomes are
    /// applied to the state table in part order. Returns the step's loss.
    fn train_step(
        &mut self,
        parts: &[&[NodeId]],
        epoch: usize,
        trace: TraceCtx<'_>,
        report: &mut TrainReport,
        stats: &mut EpochStats,
        epoch_profile: &mut Option<ProfileReport>,
    ) -> f64 {
        let step_total: usize = parts.iter().map(|p| p.len()).sum();
        let jobs: Vec<(usize, &[NodeId], BufferPool)> = parts
            .iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(slot, &part)| (slot, part, std::mem::take(&mut self.pools[slot])))
            .collect();
        let run = |(slot, part, pool)| {
            let (chunk, pool, nanos) = self.run_part(part, pool, epoch, step_total, trace);
            (slot, chunk, pool, nanos)
        };
        let results: Vec<(usize, ChunkResult, BufferPool, u64)> = if jobs.len() == 1 {
            // A lone part never pays a thread spawn per step, nor loses
            // the caller thread's warm GEMM packing scratch.
            jobs.into_iter().map(run).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|job| scope.spawn(move || run(job)))
                    .collect();
                // Joined in part order: completion order never leaks
                // into the reduction.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };

        // Serial section: deterministic reduction through the engine's
        // ParamId-ordered accumulator (it asserts the shared canonical
        // `ParamVars::pairs` order in debug builds), then one optimizer
        // step for the whole global batch.
        let merge_sw = Stopwatch::start();
        let mut loss = 0.0f64;
        let mut grads: Vec<(ParamId, Tensor)> = Vec::new();
        let mut outcomes = Vec::with_capacity(step_total);
        for (slot, chunk, pool, nanos) in results {
            self.pools[slot] = pool;
            self.phase.shard_busy[slot].add(nanos);
            loss += chunk.loss;
            engine::accumulate_grads(&mut grads, chunk.grads);
            if let Some(profile) = chunk.profile {
                match epoch_profile {
                    Some(acc) => acc.merge(&profile),
                    None => *epoch_profile = Some(profile),
                }
            }
            outcomes.extend(chunk.outcomes);
        }
        self.step_if_finite(&grads, trace, stats);
        self.phase.merge.add(merge_sw.elapsed_nanos());

        engine::apply_outcomes(&mut self.states, outcomes, report, stats);
        loss
    }

    /// One part of a global step: it runs as one chunk through the shared
    /// engine on its shard's warm `pool`, the chunk's loss weighted by the
    /// *global* step size so the sum over parts is the step mean. Returns
    /// the chunk, the pool holding its buffers, and the part's wall nanos.
    fn run_part(
        &self,
        part: &[NodeId],
        pool: BufferPool,
        epoch: usize,
        step_total: usize,
        trace: TraceCtx<'_>,
    ) -> (ChunkResult, BufferPool, u64) {
        let sw = Stopwatch::start();
        let chunk_ctx = engine::ChunkCtx {
            model: &self.model,
            graph: self.graph,
            states: &self.states,
            profiling: self.profiling,
            trace,
        };
        let before = pool.stats();
        let (result, pool) = engine::run_chunk(&chunk_ctx, part, epoch, step_total, pool);
        let after = pool.stats();
        self.phase.pool_hits.add(after.hits - before.hits);
        self.phase.pool_misses.add(after.misses - before.misses);
        self.phase
            .pool_bytes_reused
            .add(after.bytes_reused - before.bytes_reused);
        self.phase.forward.add(result.timings.forward_nanos);
        self.phase.backward.add(result.timings.backward_nanos);
        self.phase.downsample.add(result.timings.downsample_nanos);
        (result, pool, sw.elapsed_nanos())
    }

    /// The one non-finite-gradient policy: a reduced gradient holding
    /// NaN/Inf is counted (stats, counter) and never reaches the optimizer, where it would poison both Adam
    /// moment buffers and every weight for the rest of the fit. A finite
    /// one feeds the epoch's gradient-health stats and is stepped.
    fn step_if_finite(
        &mut self,
        grads: &Vec<(ParamId, Tensor)>,
        trace: TraceCtx<'_>,
        stats: &mut EpochStats,
    ) {
        // One pass over the reduced gradients — same order of work as the
        // optimizer step it guards.
        let health = engine::grad_health(grads);
        if !health.finite {
            stats.nonfinite_batches += 1;
            self.phase.nonfinite.inc();
            return;
        }
        stats.observe_grads(
            health.norm,
            f64::from(health.max_abs),
            health.max_param.map(|id| self.model.params.name(id)),
        );
        let _optim_span =
            trace.map(|(t, id, parent)| t.child_span(id, parent, "core.trainer.optim"));
        let sw = Stopwatch::start();
        self.optimizer.step(&mut self.model.params, grads);
        sw.record_nanos(&self.phase.optim);
    }
}

/// Cuts a step's nodes into `k` contiguous parts whose sizes differ by at
/// most one (the first `n mod k` parts are the longer ones); in order, the
/// parts concatenate back to `nodes`. A part is empty only when `n < k`.
fn split_even(nodes: &[NodeId], k: usize) -> Vec<&[NodeId]> {
    let (base, extra) = (nodes.len() / k, nodes.len() % k);
    let mut rest = nodes;
    (0..k)
        .map(|p| {
            let (part, tail) = rest.split_at(base + usize::from(p < extra));
            rest = tail;
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Variant;
    use crate::config::WidenConfig;
    use widen_data::{acm_like, Scale};

    fn tiny_config() -> WidenConfig {
        let mut c = WidenConfig::small();
        c.d = 16;
        c.n_w = 5;
        c.n_d = 5;
        c.phi = 2;
        c.epochs = 6;
        c.batch_size = 16;
        c.learning_rate = 5e-3;
        c.k_wide = 2;
        c.k_deep = 2;
        // Generous threshold so downsampling actually fires in few epochs.
        c.r_wide = 0.5;
        c.r_deep = 0.5;
        c
    }

    /// `k = 1` is [`Trainer::new`]; `k > 1` runs each step's parts on threads.
    fn trainer_over<'g>(
        dataset: &'g widen_data::Dataset,
        cfg: WidenConfig,
        train: &[u32],
        k: usize,
    ) -> Trainer<'g> {
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        match k {
            1 => Trainer::new(model, &dataset.graph, train),
            _ => Trainer::with_shards(model, &dataset.graph, train, k),
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let dataset = acm_like(Scale::Smoke, 1);
        let train = &dataset.transductive.train;
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut trainer = Trainer::new(model, &dataset.graph, train);
        let report = trainer.fit(train);
        assert_eq!(report.epoch_losses.len(), 6);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.98,
            "loss should drop: first = {first}, last = {last}"
        );
        assert!(report.total_secs() > 0.0);
    }

    #[test]
    fn downsampling_shrinks_neighbor_volume() {
        let dataset = acm_like(Scale::Smoke, 2);
        let train = &dataset.transductive.train;
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut trainer = Trainer::new(model, &dataset.graph, train);
        let before = trainer.neighbor_volume();
        let report = trainer.fit(train);
        let after = trainer.neighbor_volume();
        assert!(
            report.wide_drops > 0 || report.deep_drops > 0,
            "expected some downsampling with a loose threshold"
        );
        assert!(after.0 + after.1 < before.0 + before.1);
    }

    #[test]
    fn lower_bounds_are_respected() {
        let dataset = acm_like(Scale::Smoke, 3);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 12;
        cfg.r_wide = 10.0; // always trigger
        cfg.r_deep = 10.0;
        let model = WidenModel::for_graph(&dataset.graph, cfg.clone());
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        trainer.fit(&train);
        for state in trainer.states.values() {
            // Sets that started above the bound must not fall below it.
            assert!(state.wide.len() >= state.wide.len().min(cfg.k_wide));
            assert!(state.wide.is_empty() || state.wide.len() >= cfg.k_wide.min(cfg.n_w));
            for d in &state.deeps {
                assert!(d.is_empty() || d.len() >= cfg.k_deep.min(cfg.n_d));
            }
        }
    }

    #[test]
    fn pruning_fit_keeps_the_pool_warm_and_bounded() {
        let dataset = acm_like(Scale::Smoke, 6);
        let train: Vec<u32> = dataset.transductive.train[..32].to_vec();
        let mut cfg = tiny_config();
        cfg.n_w = 12;
        cfg.n_d = 12;
        cfg.batch_size = 32;
        cfg.r_wide = 10.0; // always trigger
        cfg.r_deep = 10.0;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        let before = trainer.neighbor_volume();
        let mut report = TrainReport::default();
        // Cumulative (takes, misses) and parked bytes after each epoch.
        let mut epochs: Vec<(u64, u64, u64)> = Vec::new();
        for epoch in 1..=10 {
            let mut stats = EpochStats::default();
            trainer.train_step(&[&train], epoch, None, &mut report, &mut stats, &mut None);
            let pool = trainer.pools[0].stats();
            let (resident, bound) = (pool.resident_bytes, pool.peak_live_bytes);
            assert!(
                resident <= bound,
                "epoch {epoch}: {resident} parked > {bound}"
            );
            let misses = trainer.phase.pool_misses.get();
            epochs.push((trainer.phase.pool_hits.get() + misses, misses, resident));
        }
        let after = trainer.neighbor_volume();
        assert!(
            2 * (after.0 + after.1) < before.0 + before.1 + after.0 + after.1,
            "every epoch after the first must prune: {before:?} -> {after:?}"
        );

        // Every epoch sees shapes no epoch before it saw. A pool keyed by
        // shape parks each of them for good and misses on the next; this
        // one keeps serving the shrinking matrices from the buffers epoch 1
        // allocated. What still allocates is what genuinely grows: relay
        // edges give pruned walks private rows in the deduplicated matrices.
        let (first_takes, first_misses, first_resident) = epochs[0];
        let (takes, misses, _) = epochs[epochs.len() - 1];
        assert!(
            (misses - first_misses) * 20 <= takes - first_takes,
            "epochs 2.. must run ≥ 95 % warm: {epochs:?}"
        );
        let largest = epochs.iter().map(|e| e.2).max().unwrap();
        assert!(
            largest * 4 <= first_resident * 5,
            "parked bytes must stay near epoch 1's {first_resident}: {epochs:?}"
        );
    }

    #[test]
    fn no_downsampling_variant_keeps_sets_intact() {
        let dataset = acm_like(Scale::Smoke, 4);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let cfg = tiny_config().with_variant(Variant::no_downsampling());
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        let before = trainer.neighbor_volume();
        let report = trainer.fit(&train);
        assert_eq!(report.wide_drops, 0);
        assert_eq!(report.deep_drops, 0);
        assert_eq!(trainer.neighbor_volume(), before);
    }

    #[test]
    fn random_downsampling_drops_every_epoch() {
        let dataset = acm_like(Scale::Smoke, 5);
        let train: Vec<u32> = dataset.transductive.train[..10].to_vec();
        let mut cfg = tiny_config().with_variant(Variant::random_wide_downsampling());
        cfg.epochs = 4;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        let report = trainer.fit(&train);
        // Epochs 2..4 each drop one wide neighbour per node (when above k).
        assert!(report.wide_drops > 0);
    }

    #[test]
    fn relay_edges_are_recorded_when_pruning_interior_packs() {
        let dataset = acm_like(Scale::Smoke, 6);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 10;
        cfg.r_deep = 10.0; // aggressive pruning
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        let report = trainer.fit(&train);
        assert!(report.deep_drops > 0);
        assert!(
            report.relay_edges > 0,
            "interior prunes must generate relay edges"
        );
        // Some state should carry overrides.
        let has_override = trainer.states.values().any(|s| {
            s.deeps
                .iter()
                .any(|d| d.edge_override.iter().any(Option::is_some))
        });
        assert!(has_override);
    }

    #[test]
    fn training_is_seed_deterministic() {
        let dataset = acm_like(Scale::Smoke, 7);
        let train: Vec<u32> = dataset.transductive.train[..16].to_vec();
        let run = |seed: u64| {
            let cfg = tiny_config().with_seed(seed);
            let model = WidenModel::for_graph(&dataset.graph, cfg);
            let mut trainer = Trainer::new(model, &dataset.graph, &train);
            let report = trainer.fit(&train);
            (report.epoch_losses.clone(), trainer.into_model())
        };
        let (losses_a, model_a) = run(42);
        let (losses_b, model_b) = run(42);
        assert_eq!(losses_a, losses_b);
        let pa = model_a.params.snapshot();
        let pb = model_b.params.snapshot();
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        let (losses_c, _) = run(43);
        assert_ne!(losses_a, losses_c);
    }

    #[test]
    fn convergence_stopping_halts_early() {
        let dataset = acm_like(Scale::Smoke, 9);
        let train: Vec<u32> = dataset.transductive.train[..24].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 60;
        for k in [1, 2] {
            let mut trainer = trainer_over(&dataset, cfg.clone(), &train, k);
            // Very loose tolerance ⇒ "converged" almost immediately.
            let report = trainer.fit_until_converged(&train, 0.5, 2);
            assert!(
                report.epoch_losses.len() < 60,
                "k = {k}: should stop before the epoch cap, ran {}",
                report.epoch_losses.len()
            );
            assert!(
                report.epoch_losses.len() >= 3,
                "k = {k}: patience must be exhausted first"
            );
        }
    }

    #[test]
    fn tight_convergence_tolerance_runs_to_cap() {
        let dataset = acm_like(Scale::Smoke, 10);
        let train: Vec<u32> = dataset.transductive.train[..16].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 4;
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        // Impossible tolerance ⇒ no early stop.
        let report = trainer.fit_until_converged(&train, 0.0, 3);
        assert_eq!(report.epoch_losses.len(), 4);
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions() {
        let dataset = acm_like(Scale::Smoke, 11);
        let train: Vec<u32> = dataset.transductive.train[..24].to_vec();
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut trainer = Trainer::new(model, &dataset.graph, &train);
        trainer.fit(&train);
        let trained = trainer.into_model();
        let checkpoint = trained.save_weights();
        let preds_before = trained.predict(&dataset.graph, &train, 1);

        // A freshly initialised model differs…
        let mut fresh = WidenModel::for_graph(&dataset.graph, tiny_config().with_seed(999));
        let preds_fresh = fresh.predict(&dataset.graph, &train, 1);
        // …until the checkpoint is restored.
        fresh.load_weights(&checkpoint);
        let preds_after = fresh.predict(&dataset.graph, &train, 1);
        assert_eq!(preds_before, preds_after);
        assert_ne!(
            preds_before, preds_fresh,
            "seeds 0 vs 999 should disagree somewhere"
        );
    }

    /// `TrainReport` is the one per-epoch record: every epoch's stage
    /// times, Eq. 9 trigger values, keep/drop counts and gradient health.
    #[test]
    fn epoch_stats_carry_one_record_per_epoch() {
        let dataset = acm_like(Scale::Smoke, 12);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let cfg = tiny_config();
        let epochs = cfg.epochs;
        for k in [1, 2] {
            let mut trainer = trainer_over(&dataset, cfg.clone(), &train, k);
            let report = trainer.fit(&train);
            assert_eq!(report.epoch_losses.len(), epochs);
            assert_eq!(report.epoch_secs.len(), epochs);
            assert_eq!(
                report.epoch_stats.len(),
                epochs,
                "k = {k}: one record per epoch"
            );
            for (i, s) in report.epoch_stats.iter().enumerate() {
                assert!(report.epoch_losses[i].is_finite());
                assert!(report.epoch_secs[i] > 0.0);
                for (stage, nanos) in [
                    ("forward", s.forward_nanos),
                    ("backward", s.backward_nanos),
                    ("optim", s.optim_nanos),
                ] {
                    assert!(nanos > 0, "k = {k}, epoch {}: no {stage} time", i + 1);
                }
                assert!(s.packaging_nanos > 0, "k = {k}, epoch {}", i + 1);
                // Every training node's sets are visited once per epoch.
                assert!(s.wide_keeps + s.wide_drops > 0);
                assert!(s.deep_keeps + s.deep_drops > 0);
                let norm = s.grad_norm_mean.expect("finite batches");
                assert!(norm.is_finite() && norm > 0.0);
                assert!(s.grad_max_abs > 0.0 && !s.grad_max_param.is_empty());
                assert_eq!(s.nonfinite_batches, 0);
            }
            // Eq. 9 values once history exists (epoch 1 never evaluates KL).
            assert_eq!(report.epoch_stats[0].kl_count, 0);
            assert!(report.epoch_stats[0].kl_mean.is_none());
            assert!(report.epoch_stats[1..].iter().any(|s| s.kl_count > 0));
            for s in &report.epoch_stats[1..] {
                if let Some(kl) = s.kl_mean {
                    assert!(kl.is_finite() && kl >= 0.0);
                    assert!(s.kl_min.unwrap() <= kl);
                }
            }
            let drops: u64 = report.epoch_stats.iter().map(|s| s.wide_drops).sum();
            assert_eq!(drops as usize, report.wide_drops);
            let relays: u64 = report.epoch_stats.iter().map(|s| s.relay_edges).sum();
            assert_eq!(relays as usize, report.relay_edges);
            // The stage times are the epoch deltas of the trainer's own
            // phase counters, so they sum to them.
            let snap = trainer.metrics().snapshot();
            assert_eq!(snap.counter("core_epochs_total"), Some(epochs as u64));
            let total = |f: fn(&EpochStats) -> u64| report.epoch_stats.iter().map(f).sum::<u64>();
            for (name, sum) in [
                ("core_forward_nanos_total", total(|s| s.forward_nanos)),
                ("core_backward_nanos_total", total(|s| s.backward_nanos)),
                ("core_optim_nanos_total", total(|s| s.optim_nanos)),
                ("core_downsample_nanos_total", total(|s| s.downsample_nanos)),
            ] {
                assert_eq!(snap.counter(name), Some(sum), "k = {k}: {name}");
            }
        }
    }

    #[test]
    fn tracing_and_profiling_capture_epoch_structure() {
        use widen_obs::Tracer;
        let dataset = acm_like(Scale::Smoke, 13);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 2;
        for k in [1, 2] {
            let mut trainer = trainer_over(&dataset, cfg.clone(), &train, k);
            let tracer = Tracer::new(99);
            trainer.set_tracer(tracer.clone());
            trainer.set_profiling(true);
            let report = trainer.fit(&train);

            // One merged op profile per epoch, naming real tensor ops with
            // time and FLOPs.
            assert_eq!(report.epoch_profiles.len(), 2);
            for profile in &report.epoch_profiles {
                assert!(!profile.is_empty());
                assert!(profile.fwd_nanos_total > 0);
                assert!(profile.bwd_nanos_total > 0);
                assert!(profile.total_flops() > 0);
                let top = profile.top_k(3);
                assert!(!top.is_empty());
                assert!(profile.ops.iter().any(|o| o.name == "matmul"));
            }

            // Gradient health observed on every (finite) batch.
            for stats in &report.epoch_stats {
                assert!(stats.grad_batches > 0);
                let norm = stats.grad_norm_mean.expect("finite batches");
                assert!(norm.is_finite() && norm > 0.0);
                assert!(stats.grad_max_abs > 0.0);
                assert!(!stats.grad_max_param.is_empty());
                assert_eq!(stats.nonfinite_batches, 0);
            }

            // The trace holds one epoch root per epoch, each with
            // forward/backward/downsample/optim children linked explicitly
            // (cross-thread parenting); every parent is in the drained set.
            let records = tracer.drain();
            let ids: std::collections::HashSet<_> = records.iter().map(|r| r.id).collect();
            assert!(records
                .iter()
                .filter_map(|r| r.parent)
                .all(|p| ids.contains(&p)));
            let roots: Vec<_> = records.iter().filter(|r| r.parent.is_none()).collect();
            assert_eq!(roots.len(), 2, "one root per epoch");
            for root in &roots {
                assert_eq!(root.name, "core.trainer.epoch");
                let children: Vec<_> = records
                    .iter()
                    .filter(|r| r.parent == Some(root.id))
                    .collect();
                assert!(children.iter().all(|c| c.trace == root.trace));
                let child_names: Vec<&str> = children.iter().map(|c| c.name.as_str()).collect();
                for needed in [
                    "core.trainer.forward",
                    "core.trainer.backward",
                    "core.trainer.downsample",
                    "core.trainer.optim",
                ] {
                    assert!(
                        child_names.contains(&needed),
                        "epoch span missing child {needed}: {child_names:?}"
                    );
                }
            }

            // Diagnostics observe the fit, they never steer it.
            let mut plain = trainer_over(&dataset, cfg.clone(), &train, k);
            assert_eq!(plain.fit(&train).epoch_losses, report.epoch_losses);
            let traced = trainer.into_model().params.snapshot();
            for (a, b) in traced.iter().zip(&plain.into_model().params.snapshot()) {
                assert_eq!(a.max_abs_diff(b), 0.0);
            }
        }
    }

    #[test]
    fn split_even_cuts_contiguous_parts_within_one_of_each_other() {
        for n in 0..40usize {
            let nodes: Vec<u32> = (0..n as u32).collect();
            for k in 1..=9 {
                let parts = split_even(&nodes, k);
                assert_eq!(parts.len(), k);
                for part in &parts {
                    assert!(part.len() == n / k || part.len() == n.div_ceil(k));
                    assert!(n < k || !part.is_empty(), "n = {n}, k = {k}");
                }
                assert_eq!(parts.concat(), nodes, "n = {n}, k = {k}");
            }
        }
        assert_eq!(
            split_even(&[1, 2, 3, 4, 5], 3),
            [&[1, 2][..], &[3, 4], &[5]]
        );
        assert_eq!(split_even(&[7], 3), [&[7][..], &[], &[]]);
    }

    /// A part is one chunk — one tape, one loss op — however many CPUs
    /// the host has, so a seed trains the same program anywhere; empty
    /// parts run nothing.
    #[test]
    fn every_shard_step_runs_one_chunk() {
        let dataset = acm_like(Scale::Smoke, 16);
        let train: Vec<u32> = dataset.transductive.train[..34].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 2;
        cfg.batch_size = 4;
        for (k, pinned) in [(1, 9), (2, 10), (4, 10)] {
            let mut trainer = trainer_over(&dataset, cfg.clone(), &train, k);
            trainer.set_profiling(true);
            let report = trainer.fit(&train);
            // Steps of k · batch_size nodes, each cut into k parts; the
            // last step of 34 at k = 4 is two nodes, two parts of one.
            let chunks: u64 = train
                .chunks(k * cfg.batch_size)
                .map(|step| split_even(step, k).iter().filter(|p| !p.is_empty()).count() as u64)
                .sum();
            assert_eq!(chunks, pinned, "k = {k}");
            assert!(chunks > k as u64);
            assert_eq!(report.epoch_profiles.len(), cfg.epochs);
            for profile in &report.epoch_profiles {
                let losses = profile
                    .ops
                    .iter()
                    .find(|op| op.name == "softmax_cross_entropy")
                    .map_or(0, |op| op.count);
                assert_eq!(losses, chunks, "k = {k}: one loss op per non-empty part");
            }
        }
    }

    /// A converged fit's attention rows put weights far below 2⁻⁶⁴ on most
    /// keys; their adjoints, and their products into the value gradients,
    /// would reach the GEMM backwards as subnormals, each a microcode
    /// assist. The tensor ops flush them where they are produced
    /// (`ADJOINT_FLUSH`), so the `matmul*` backwards of a fit driven into
    /// the converged regime read (almost) none — hundreds per fit with any
    /// one of the three flushes removed.
    #[test]
    fn a_converged_fit_reads_no_subnormal_in_matmul_backward() {
        const SLACK: u64 = 10;
        let dataset = acm_like(Scale::Smoke, 19);
        let train: Vec<u32> = dataset.transductive.train[..40].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 40;
        cfg.learning_rate = 5e-2;
        let mut trainer = trainer_over(&dataset, cfg, &train, 1);
        trainer.set_profiling(true);
        let report = trainer.fit(&train);
        assert!(
            report.final_loss() < 0.05 * report.epoch_losses[0],
            "the fit must reach the converged regime: {:?}",
            report.epoch_losses
        );
        let read: u64 = report
            .epoch_profiles
            .iter()
            .flat_map(|p| &p.ops)
            .filter(|op| op.name.starts_with("matmul"))
            .map(|op| op.bwd_subnormal)
            .sum();
        assert!(
            read <= SLACK,
            "matmul backwards read {read} subnormal elements over the fit"
        );
    }

    /// The tape `debug_assert!`s finite forward values, so the policy is
    /// driven with hand-made gradients rather than a poisoned fit.
    #[test]
    fn nonfinite_gradient_is_counted_and_never_reaches_the_optimizer() {
        let dataset = acm_like(Scale::Smoke, 14);
        let train: Vec<u32> = dataset.transductive.train[..4].to_vec();
        let grads = |model: &WidenModel, fill: f32| -> Vec<(ParamId, Tensor)> {
            let params = model.params.iter();
            params
                .map(|(id, _, w)| {
                    let mut g = Tensor::zeros(w.shape().0, w.shape().1);
                    g.as_mut_slice().fill(fill);
                    (id, g)
                })
                .collect()
        };

        let mut trainer = trainer_over(&dataset, tiny_config(), &train, 1);
        let before = trainer.model().params.snapshot();
        let mut poisoned = grads(trainer.model(), 0.25);
        poisoned[1].1.as_mut_slice()[0] = f32::NAN;
        let mut stats = EpochStats::default();
        trainer.step_if_finite(&poisoned, None, &mut stats);
        assert_eq!(stats.nonfinite_batches, 1);
        assert_eq!(stats.grad_batches, 0);
        let snap = trainer.metrics().snapshot();
        assert_eq!(snap.counter("core_nonfinite_batches_total"), Some(1));
        for (a, b) in before.iter().zip(&trainer.model().params.snapshot()) {
            assert_eq!(a.max_abs_diff(b), 0.0, "a skipped step moved a weight");
        }

        // The Adam moments are untouched too: the next finite step lands
        // where it lands on a trainer that never saw the NaN.
        let finite = grads(trainer.model(), 0.25);
        trainer.step_if_finite(&finite, None, &mut stats);
        let mut untouched = trainer_over(&dataset, tiny_config(), &train, 1);
        untouched.step_if_finite(&finite, None, &mut EpochStats::default());
        assert_eq!(stats.grad_batches, 1);
        let stepped = trainer.into_model().params.snapshot();
        for ((a, b), c) in stepped
            .iter()
            .zip(&untouched.model().params.snapshot())
            .zip(&before)
        {
            assert_eq!(a.max_abs_diff(b), 0.0);
            assert!(
                a.max_abs_diff(c) > 0.0,
                "a finite step must move the weights"
            );
        }
    }

    /// North-star 4, the trainer-sized slice, both ways: every counter a
    /// two-shard fit emits is a row of DESIGN.md's metric table, and every
    /// `core_*` row is emitted by that fit or is one of the named counters
    /// on [`Registry::global`].
    #[test]
    fn every_emitted_trainer_metric_is_documented() {
        const ON_GLOBAL: [&str; 2] = ["core_packaging_nanos_total", "core_packaging_calls_total"];
        let design = include_str!("../../../DESIGN.md");
        let dataset = acm_like(Scale::Smoke, 15);
        let train: Vec<u32> = dataset.transductive.train[..8].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 1;
        let mut trainer = trainer_over(&dataset, cfg, &train, 2);
        trainer.fit(&train);
        let snap = trainer.metrics().snapshot();
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
        assert!(snap.counter("core_shard1_busy_nanos_total").is_some());
        let row_of = |name: &str| match name.strip_prefix("core_shard") {
            Some(rest) if rest.starts_with(|c: char| c.is_ascii_digit()) => format!(
                "core_shard{{p}}{}",
                rest.trim_start_matches(|c: char| c.is_ascii_digit())
            ),
            _ => name.to_string(),
        };
        let emitted: Vec<String> = snap.counters.iter().map(|(n, _)| row_of(n)).collect();
        for row in &emitted {
            assert!(
                design.contains(&format!("`{row}`")),
                "{row} is not in DESIGN.md"
            );
        }
        // The metric table's rows open with a backticked name; a row may
        // name two or three counters separated by ` / `.
        let documented: Vec<&str> = design
            .lines()
            .filter(|l| l.starts_with("| `core_"))
            .flat_map(|l| l.split('|').nth(1).unwrap().split('/'))
            .map(|name| name.trim().trim_matches('`'))
            .collect();
        assert!(documented.len() >= emitted.len());
        for name in documented {
            assert!(
                ON_GLOBAL.contains(&name) || emitted.iter().any(|e| e == name),
                "DESIGN.md documents {name}, which neither a k = 2 fit nor the global registry emits"
            );
        }
    }

    #[test]
    #[should_panic(expected = "missing from trainer")]
    fn fit_on_a_node_not_given_to_the_constructor_panics() {
        let dataset = acm_like(Scale::Smoke, 8);
        let train = &dataset.transductive.train;
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut trainer = Trainer::new(model, &dataset.graph, &train[..4]);
        trainer.fit(&train[..5]);
    }

    #[test]
    #[should_panic(expected = "unlabelled")]
    fn unlabeled_train_node_rejected() {
        let dataset = acm_like(Scale::Smoke, 8);
        // Find an unlabelled node (author/subject).
        let unlabeled = (0..dataset.graph.num_nodes() as u32)
            .find(|&v| dataset.graph.label(v).is_none())
            .unwrap();
        let model = WidenModel::for_graph(&dataset.graph, tiny_config());
        let mut trainer = Trainer::new(model, &dataset.graph, &[unlabeled]);
        trainer.fit(&[unlabeled]);
    }
}
