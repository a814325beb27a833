//! Training WIDEN (Algorithm 3): mini-batch semi-supervised cross-entropy
//! with active downsampling — the one training loop, with a shared model
//! and one optimizer step per batch.
//!
//! Per epoch, every training node is visited once; its forward pass records
//! the wide/deep attention distributions, which (a) feed the KL trigger
//! (Eq. 9) against last epoch's distributions and (b) locate the
//! least-contributing neighbour for the argmin drop (Algorithms 1–2).
//! Each step takes the next `batch_size` nodes of the epoch's order and
//! runs them on the caller's thread: one fused forward + backward on one
//! tape over the borrowed graph, drawing on the thread's one warm buffer
//! pool (`arena`), then one optimizer step. A fixed seed gives the same
//! bits on any host.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use widen_graph::{HeteroGraph, NodeId};
use widen_obs::{Counter, Registry, SpanId, Stopwatch, TraceId, Tracer};
use widen_sampling::hash_seed;
use widen_tensor::{Adam, BufferPool, Optimizer, ParamId, ProfileReport, Tape, Tensor};

use crate::arena;
use crate::downsample::{decide_with_kl, relay_edge, Decision};
use crate::model::{BatchForward, ParamVars, WidenModel};
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
    /// Forward nanos.
    pub forward_nanos: u64,
    /// Backward and gradient-extraction nanos.
    pub backward_nanos: u64,
    /// Optimizer-step nanos.
    pub optim_nanos: u64,
    /// Eq. 9 decision-loop nanos.
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
    /// Batches whose gradients contained NaN/Inf; their optimizer
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
}

impl PhaseCounters {
    fn new(registry: &Registry) -> Self {
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
        }
    }
}

/// Where an epoch's child spans go, when the fit is traced: `(tracer,
/// trace, parent)`.
type TraceCtx<'a> = Option<(&'a Tracer, TraceId, SpanId)>;

/// Outcome of one node's epoch visit, read off the step's tape and applied
/// to the persistent state after the optimizer step.
struct NodeOutcome {
    node: NodeId,
    wide_attention: Option<Vec<f32>>,
    wide_decision: Decision,
    /// Eq. 9 value evaluated for the wide set, when the trigger ran.
    wide_kl: Option<f64>,
    deep: Vec<DeepOutcome>,
}

struct DeepOutcome {
    attention: Vec<f32>,
    decision: Decision,
    /// Eq. 9 value evaluated for this walk, when the trigger ran.
    kl: Option<f64>,
    /// `(position, relay vector)` to install before pruning.
    relay: Option<(usize, Vec<f32>)>,
}

/// Gradient health evaluated on a step's gradients — the same pass and
/// order of work as the optimizer step it guards.
struct GradHealth {
    /// Global L2 norm (√Σg²).
    norm: f64,
    max_abs: f32,
    /// Parameter holding `max_abs`.
    max_param: Option<ParamId>,
    finite: bool,
}

fn grad_health(grads: &[(ParamId, Tensor)]) -> GradHealth {
    let mut sq_sum = 0.0f64;
    let mut max_abs = 0.0f32;
    let mut max_param: Option<ParamId> = None;
    let mut finite = true;
    for (id, g) in grads {
        let mut local_max = 0.0f32;
        for &v in g.as_slice() {
            if !v.is_finite() {
                finite = false;
            }
            let a = v.abs();
            if a > local_max {
                local_max = a;
            }
            sq_sum += f64::from(v) * f64::from(v);
        }
        if local_max > max_abs {
            max_abs = local_max;
            max_param = Some(*id);
        }
    }
    GradHealth {
        norm: sq_sum.sqrt(),
        max_abs,
        max_param,
        finite,
    }
}

/// Drives Algorithm 3 over a training node set: one loop over one graph,
/// a shared model, one optimizer step per batch.
pub struct Trainer<'g> {
    model: WidenModel,
    graph: &'g HeteroGraph,
    /// Persistent wide/deep states of the training nodes.
    states: FxHashMap<NodeId, NodeState>,
    optimizer: Adam,
    metrics: Registry,
    phase: PhaseCounters,
    tracer: Option<Tracer>,
    profiling: bool,
}

impl<'g> Trainer<'g> {
    /// Prepares training on `graph`: samples every training node's initial
    /// wide/deep neighbourhoods (Algorithm 3 line 3) and sets up Adam with
    /// the configured learning rate and L2 strength.
    ///
    /// ```no_run
    /// use widen_core::{Trainer, WidenConfig, WidenModel};
    /// use widen_data::{acm_like, Scale};
    ///
    /// let dataset = acm_like(Scale::Table, 1);
    /// let train = &dataset.transductive.train;
    /// let model = WidenModel::for_graph(&dataset.graph, WidenConfig::paper());
    /// let mut trainer = Trainer::new(model, &dataset.graph, train);
    /// let report = trainer.fit(train);
    /// println!("final loss {:.4}", report.final_loss());
    /// ```
    pub fn new(model: WidenModel, graph: &'g HeteroGraph, train_nodes: &[NodeId]) -> Self {
        let seed = hash_seed(model.config.seed, &[1]);
        let states = train_nodes
            .iter()
            .map(|&node| (node, model.sample_state(graph, node, seed)))
            .collect();
        let optimizer = Adam::with_lr(model.config.learning_rate, model.config.weight_decay);
        let metrics = Registry::new();
        let phase = PhaseCounters::new(&metrics);
        Self {
            model,
            graph,
            states,
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

    /// This trainer's metric registry (phase timings, buffer-pool, epoch
    /// and non-finite-batch counters). Per-instance so concurrent trainers
    /// — and tests — never share state; packaging time lives on
    /// [`Registry::global`] instead (see
    /// [`crate::packaging::packaging_nanos_total`]).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Records per-epoch span trees into `tracer`: one
    /// `core.trainer.epoch` root per epoch with step-level
    /// forward/backward/downsample children, an optimizer-step span, and a
    /// synthetic packaging span from the packaging counter delta.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Turns on per-op tape profiling: every step's tape records op
    /// timings and FLOP estimates, merged into one [`ProfileReport`] per
    /// epoch (see [`TrainReport::epoch_profiles`]).
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
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
        // The thread's warm tape buffers (forward values, leaves and
        // gradients), moved into each step's tape and back out holding its
        // buffers, so they never outgrow the biggest step run on the
        // thread; handed back to the thread when the fit returns.
        let mut pool = arena::take();

        for epoch in 1..=config.epochs {
            let start = Stopwatch::start();
            let phase_before = self.phase_snapshot();
            let epoch_span = tracer.as_ref().map(|t| (t, t.span("core.trainer.epoch")));
            let trace: TraceCtx<'_> = epoch_span.as_ref().map(|(t, s)| (*t, s.trace(), s.id()));
            let epoch_start_ns = trace.map(|(t, ..)| t.now_ns());
            let mut shuffle_rng = StdRng::seed_from_u64(hash_seed(config.seed, &[2, epoch as u64]));
            order.shuffle(&mut shuffle_rng);
            let steps = order.len().div_ceil(config.batch_size);

            let mut epoch_loss = 0.0f64;
            let mut stats = EpochStats::default();
            let mut epoch_profile: Option<ProfileReport> = None;
            for step in order.chunks(config.batch_size) {
                epoch_loss += self.train_step(
                    &mut pool,
                    step,
                    epoch,
                    trace,
                    &mut report,
                    &mut stats,
                    &mut epoch_profile,
                );
            }
            // Packaging runs inside forward and only surfaces as a global
            // counter; synthesise its epoch share as a span so the trace
            // shows all four phases.
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
        arena::give_back(pool);
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

    /// One step over `nodes`: one fused [`WidenModel::forward_batch`] and
    /// backward on one tape drawing on `pool` (each node's downsampling rng
    /// stream keyed by its id), one guarded optimizer step, then the
    /// downsampling outcomes applied to the state table in node order.
    /// Returns the step's mean loss.
    #[allow(clippy::too_many_arguments)]
    fn train_step(
        &mut self,
        pool: &mut BufferPool,
        nodes: &[NodeId],
        epoch: usize,
        trace: TraceCtx<'_>,
        report: &mut TrainReport,
        stats: &mut EpochStats,
        epoch_profile: &mut Option<ProfileReport>,
    ) -> f64 {
        let child = |name| trace.map(|(t, id, parent)| t.child_span(id, parent, name));
        let span = child("core.trainer.forward");
        let sw = Stopwatch::start();
        let mut tape = self.model.new_tape();
        if self.profiling {
            tape.enable_profiling();
        }
        let before = pool.stats();
        tape.install_pool(std::mem::take(pool));
        let pv = self.model.insert_params(&mut tape);
        let states: Vec<&NodeState> = nodes.iter().map(|node| &self.states[node]).collect();
        let labels: Vec<usize> = nodes
            .iter()
            .map(|&node| self.graph.label(node).expect("labelled") as usize)
            .collect();
        let fw = self
            .model
            .forward_batch(&mut tape, &pv, self.graph, &states);
        let loss = tape.softmax_cross_entropy(fw.logits, &labels);
        sw.record_nanos(&self.phase.forward);
        drop(span);

        let span = child("core.trainer.backward");
        let sw = Stopwatch::start();
        tape.backward(loss);
        let grads = self.extract_grads(&tape, &pv);
        sw.record_nanos(&self.phase.backward);
        drop(span);

        // Downsampling decisions (Algorithm 3 lines 9–14), made here so the
        // pack/edge values relay edges need are still on the tape.
        let span = child("core.trainer.downsample");
        let sw = Stopwatch::start();
        let outcomes = self.downsampling_outcomes(&tape, &fw, nodes, &states, epoch);
        sw.record_nanos(&self.phase.downsample);
        drop(span);

        // Read the loss first: taking the pool back ends the tape.
        let loss = f64::from(tape.value(loss).get(0, 0));
        if let Some(profile) = tape.take_profile() {
            match epoch_profile {
                Some(acc) => acc.merge(&profile),
                None => *epoch_profile = Some(profile),
            }
        }
        *pool = tape.take_pool();
        let after = pool.stats();
        self.phase.pool_hits.add(after.hits - before.hits);
        self.phase.pool_misses.add(after.misses - before.misses);
        self.phase
            .pool_bytes_reused
            .add(after.bytes_reused - before.bytes_reused);

        self.step_if_finite(&grads, trace, stats);
        self.apply_outcomes(outcomes, report, stats);
        loss
    }

    /// Pulls every parameter gradient off the tape in the canonical
    /// [`ParamVars::pairs`] order (zero tensors where a parameter was
    /// unused, e.g. ablated branches).
    fn extract_grads(&self, tape: &Tape, pv: &ParamVars) -> Vec<(ParamId, Tensor)> {
        pv.pairs(self.model.ids())
            .into_iter()
            .map(|(id, var)| {
                let shape = self.model.params.get(id).shape();
                let g = tape
                    .grad(var)
                    .cloned()
                    .unwrap_or_else(|| Tensor::zeros(shape.0, shape.1));
                (id, g)
            })
            .collect()
    }

    /// Each node's downsampling decisions for this epoch. Downsampling sees
    /// exactly the per-node artefacts it needs: attention rows come out of
    /// the padded matrices via the node→range maps, and relay packs/edges
    /// (Eq. 8) are read from the deduplicated `M▷` and each unique row's
    /// edge row through each walk's span and the dedup index.
    fn downsampling_outcomes(
        &self,
        tape: &Tape,
        fw: &BatchForward,
        nodes: &[NodeId],
        states: &[&NodeState],
        epoch: usize,
    ) -> Vec<NodeOutcome> {
        let config = &self.model.config;
        let mut outcomes = Vec::with_capacity(nodes.len());
        for (i, (&node, &state)) in nodes.iter().zip(states).enumerate() {
            let mut rng =
                StdRng::seed_from_u64(hash_seed(config.seed, &[3, epoch as u64, u64::from(node)]));

            let (wide_attention, wide_decision, wide_kl) = match &fw.wide {
                Some(wb) => {
                    let attn = tape.value(wb.attention).row(i)[..wb.lens[i]].to_vec();
                    let (decision, kl) = decide_with_kl(
                        config.variant.wide_downsampling,
                        &attn,
                        state.prev_wide_attention.as_deref(),
                        state.wide.len(),
                        config.k_wide,
                        config.r_wide,
                        epoch,
                        &mut rng,
                    );
                    (Some(attn), decision, kl)
                }
                None => (None, Decision::Keep, None),
            };

            let mut deep = Vec::new();
            if let Some(db) = &fw.deep {
                let (first_walk, walk_count) = db.node_walks[i];
                deep.reserve(walk_count);
                for phi in 0..walk_count {
                    let walk = first_walk + phi;
                    let (wstart, wlen) = db.walk_spans[walk];
                    let deep_state = &state.deeps[phi];
                    let attn = tape.value(db.attention).row(walk)[..wlen].to_vec();
                    let (decision, kl) = decide_with_kl(
                        config.variant.deep_downsampling,
                        &attn,
                        deep_state.prev_attention.as_deref(),
                        deep_state.len(),
                        config.k_deep,
                        config.r_deep,
                        epoch,
                        &mut rng,
                    );
                    let relay = match decision {
                        Decision::Drop(s)
                            if config.variant.relay_edges && s + 1 < deep_state.len() =>
                        {
                            // Eq. 8: maxpool(e_{s'+1,s'}, m_{s'}); within the
                            // walk, pack row s+1 and edge row s+2 (row 0 is
                            // the target's self loop) — offset by the walk's
                            // start position, both read through the dedup
                            // index, the edge from `G_edge` or its relay row.
                            let packs = tape.value(db.unique_packs);
                            let edges = db.edges.as_ref().expect("a training tape assembles edges");
                            let relay_vec = relay_edge(
                                edges.row(tape, db.flat_index[wstart + s + 2]),
                                packs.row(db.flat_index[wstart + s + 1]),
                            );
                            Some((s + 1, relay_vec))
                        }
                        _ => None,
                    };
                    deep.push(DeepOutcome {
                        attention: attn,
                        decision,
                        kl,
                        relay,
                    });
                }
            }
            outcomes.push(NodeOutcome {
                node,
                wide_attention,
                wide_decision,
                wide_kl,
                deep,
            });
        }
        outcomes
    }

    /// Applies downsampling outcomes to the persistent per-node states,
    /// folding each decision (and any evaluated Eq. 9 value) into the
    /// epoch's telemetry.
    fn apply_outcomes(
        &mut self,
        outcomes: Vec<NodeOutcome>,
        report: &mut TrainReport,
        stats: &mut EpochStats,
    ) {
        for outcome in outcomes {
            let state = self.states.get_mut(&outcome.node).expect("state exists");
            stats.observe_kl(outcome.wide_kl);
            match outcome.wide_decision {
                Decision::Drop(n) => {
                    state.prune_wide(n);
                    report.wide_drops += 1;
                    stats.wide_drops += 1;
                }
                Decision::Keep => {
                    state.prev_wide_attention = outcome.wide_attention;
                    stats.wide_keeps += 1;
                }
            }
            for (phi, deep_outcome) in outcome.deep.into_iter().enumerate() {
                let deep_state = &mut state.deeps[phi];
                stats.observe_kl(deep_outcome.kl);
                match deep_outcome.decision {
                    Decision::Drop(s) => {
                        if let Some((pos, relay)) = deep_outcome.relay {
                            deep_state.edge_override[pos] = Some(relay);
                            report.relay_edges += 1;
                            stats.relay_edges += 1;
                        }
                        deep_state.prune(s);
                        report.deep_drops += 1;
                        stats.deep_drops += 1;
                    }
                    Decision::Keep => {
                        deep_state.prev_attention = Some(deep_outcome.attention);
                        stats.deep_keeps += 1;
                    }
                }
            }
        }
    }

    /// The one non-finite-gradient policy: a step gradient holding NaN/Inf
    /// is counted (stats, counter) and never reaches the optimizer, where it would poison both Adam
    /// moment buffers and every weight for the rest of the fit. A finite
    /// one feeds the epoch's gradient-health stats and is stepped.
    fn step_if_finite(
        &mut self,
        grads: &Vec<(ParamId, Tensor)>,
        trace: TraceCtx<'_>,
        stats: &mut EpochStats,
    ) {
        // One pass over the gradients — same order of work as the
        // optimizer step it guards.
        let health = grad_health(grads);
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

    fn trainer_over<'g>(
        dataset: &'g widen_data::Dataset,
        cfg: WidenConfig,
        train: &[u32],
    ) -> Trainer<'g> {
        let model = WidenModel::for_graph(&dataset.graph, cfg);
        Trainer::new(model, &dataset.graph, train)
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
            // One epoch as a fit runs it: on the thread's arena, handed
            // back when it ends.
            let mut stats = EpochStats::default();
            let mut pool = arena::take();
            let (report, stats) = (&mut report, &mut stats);
            trainer.train_step(&mut pool, &train, epoch, None, report, stats, &mut None);
            arena::give_back(pool);
            let resident = arena::with(|arena| arena.stats().resident_bytes);
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
            (misses - first_misses) * 100 <= takes - first_takes,
            "epochs 2.. must run ≥ 99 % warm: {epochs:?}"
        );
        let largest = epochs.iter().map(|e| e.2).max().unwrap();
        assert!(
            largest * 4 <= first_resident * 5,
            "parked bytes must stay near epoch 1's {first_resident}: {epochs:?}"
        );
    }

    /// A fit of `variant` on `train` at the settings of
    /// `pruning_fit_keeps_the_pool_warm_and_bounded`: each epoch's loss
    /// bits, and the fit's pool `(takes, misses)`.
    fn arena_fit(
        dataset: &widen_data::Dataset,
        train: &[u32],
        variant: Variant,
    ) -> (Vec<u64>, (u64, u64)) {
        let mut cfg = tiny_config().with_variant(variant);
        cfg.n_w = 12;
        cfg.n_d = 12;
        cfg.batch_size = 32;
        cfg.r_wide = 10.0;
        cfg.r_deep = 10.0;
        let mut trainer = trainer_over(dataset, cfg, train);
        let report = trainer.fit(train);
        assert_eq!(report.relay_edges > 0, variant == Variant::full());
        let losses = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        let misses = trainer.phase.pool_misses.get();
        (losses, (trainer.phase.pool_hits.get() + misses, misses))
    }

    #[test]
    fn a_second_fit_on_one_thread_runs_in_the_first_fits_buffers() {
        // Two identical fits in a row on one thread: the second draws its
        // buffers from the arena the first handed back, and trains the
        // bits a fit on a fresh thread (an empty arena) trains. A dense
        // step repeats its shapes, so the second dense fit allocates
        // nothing; a pruning one still grows its deduplicated matrices
        // where relay edges give pruned walks private rows.
        let dataset = acm_like(Scale::Smoke, 6);
        let train = &dataset.transductive.train[..32];
        for variant in [Variant::no_downsampling(), Variant::full()] {
            let fit = || arena_fit(&dataset, train, variant);
            let (fresh, (first, second)) = std::thread::scope(|s| {
                let fresh = s.spawn(fit).join().unwrap();
                (fresh, s.spawn(|| (fit(), fit())).join().unwrap())
            });
            let (takes, misses) = second.1;
            if variant == Variant::no_downsampling() {
                assert_eq!(misses, 0, "{misses} of {takes} takes missed");
            }
            assert!(misses * 100 <= takes, "{misses} of {takes} takes missed");
            assert!(misses * 5 < fresh.1 .1, "{:?} vs {:?}", second.1, fresh.1);
            assert_eq!(first.0, fresh.0);
            assert_eq!(second.0, fresh.0);
        }
    }

    #[test]
    fn a_poisoned_arena_never_leaks_into_a_fit() {
        // The training twin of `dirty_arena_never_leaks_into_another_requests_rows`:
        // a pruning fit on a thread whose parked buffers hold NaN trains
        // the bits of a fit on a fresh thread.
        let dataset = acm_like(Scale::Smoke, 6);
        let train = &dataset.transductive.train[..32];
        let fit = || arena_fit(&dataset, train, Variant::full());
        let (fresh, poisoned) = std::thread::scope(|s| {
            let fresh = s.spawn(fit).join().unwrap();
            let poisoned = s.spawn(|| {
                fit();
                let parked = arena::with(|arena| {
                    arena.fill_parked(f32::NAN);
                    arena.stats().resident_buffers
                });
                assert!(parked > 0, "nothing parked to poison");
                fit()
            });
            (fresh, poisoned.join().unwrap())
        });
        assert_eq!(poisoned.0, fresh.0);
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
        let mut trainer = trainer_over(&dataset, cfg, &train);
        // Very loose tolerance ⇒ "converged" almost immediately.
        let report = trainer.fit_until_converged(&train, 0.5, 2);
        assert!(
            report.epoch_losses.len() < 60,
            "should stop before the epoch cap, ran {}",
            report.epoch_losses.len()
        );
        assert!(
            report.epoch_losses.len() >= 3,
            "patience must be exhausted first"
        );
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
        let mut trainer = trainer_over(&dataset, cfg.clone(), &train);
        let report = trainer.fit(&train);
        assert_eq!(report.epoch_losses.len(), epochs);
        assert_eq!(report.epoch_secs.len(), epochs);
        assert_eq!(report.epoch_stats.len(), epochs, "one record per epoch");
        for (i, s) in report.epoch_stats.iter().enumerate() {
            assert!(report.epoch_losses[i].is_finite());
            assert!(report.epoch_secs[i] > 0.0);
            for (stage, nanos) in [
                ("forward", s.forward_nanos),
                ("backward", s.backward_nanos),
                ("optim", s.optim_nanos),
            ] {
                assert!(nanos > 0, "epoch {}: no {stage} time", i + 1);
            }
            assert!(s.packaging_nanos > 0, "epoch {}", i + 1);
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
            assert_eq!(snap.counter(name), Some(sum), "{name}");
        }
    }

    #[test]
    fn tracing_and_profiling_capture_epoch_structure() {
        use widen_obs::Tracer;
        let dataset = acm_like(Scale::Smoke, 13);
        let train: Vec<u32> = dataset.transductive.train[..20].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 2;
        let mut trainer = trainer_over(&dataset, cfg.clone(), &train);
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
        // forward/backward/downsample/optim children linked explicitly;
        // every parent is in the drained set.
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
        let mut plain = trainer_over(&dataset, cfg.clone(), &train);
        assert_eq!(plain.fit(&train).epoch_losses, report.epoch_losses);
        let traced = trainer.into_model().params.snapshot();
        for (a, b) in traced.iter().zip(&plain.into_model().params.snapshot()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    /// A step is one chunk — one tape, one loss op — however many CPUs
    /// the host has, so a seed trains the same program anywhere.
    #[test]
    fn every_step_runs_one_chunk() {
        let dataset = acm_like(Scale::Smoke, 16);
        let train: Vec<u32> = dataset.transductive.train[..34].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 2;
        cfg.batch_size = 4;
        let mut trainer = trainer_over(&dataset, cfg.clone(), &train);
        trainer.set_profiling(true);
        let report = trainer.fit(&train);
        assert_eq!(report.epoch_profiles.len(), cfg.epochs);
        for profile in &report.epoch_profiles {
            let losses = profile
                .ops
                .iter()
                .find(|op| op.name == "softmax_cross_entropy")
                .map_or(0, |op| op.count);
            // Eight steps of four nodes and a last one of two.
            assert_eq!(losses, 9, "one loss op per step");
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
        let mut trainer = trainer_over(&dataset, cfg, &train);
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

        let mut trainer = trainer_over(&dataset, tiny_config(), &train);
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
        let mut untouched = trainer_over(&dataset, tiny_config(), &train);
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
    /// fit emits is a row of DESIGN.md's metric table, and every `core_*`
    /// row is emitted by that fit or is one of the named counters on
    /// [`Registry::global`].
    #[test]
    fn every_emitted_trainer_metric_is_documented() {
        const ON_GLOBAL: [&str; 2] = ["core_packaging_nanos_total", "core_packaging_calls_total"];
        let design = include_str!("../../../DESIGN.md");
        let dataset = acm_like(Scale::Smoke, 15);
        let train: Vec<u32> = dataset.transductive.train[..8].to_vec();
        let mut cfg = tiny_config();
        cfg.epochs = 1;
        let mut trainer = trainer_over(&dataset, cfg, &train);
        trainer.fit(&train);
        let snap = trainer.metrics().snapshot();
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
        let emitted: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
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
                ON_GLOBAL.contains(&name) || emitted.contains(&name),
                "DESIGN.md documents {name}, which neither a fit nor the global registry emits"
            );
        }
    }

    /// The trainer's bits, pinned: a 2-epoch smoke fit (downsampling fires
    /// in epoch 2) ends on this loss and these weights on every host, so a
    /// change that reorders a step's nodes, its gradients or its optimizer
    /// step fails here.
    #[test]
    fn a_smoke_fit_trains_the_pinned_bits() {
        let dataset = acm_like(Scale::Smoke, 20);
        let train = &dataset.transductive.train;
        let mut cfg = tiny_config();
        cfg.epochs = 2;
        let mut trainer = trainer_over(&dataset, cfg, train);
        let report = trainer.fit(train);
        assert!(report.wide_drops > 0 && report.deep_drops > 0);
        let digest = widen_tensor::digest64(&trainer.into_model().save_weights());
        assert_eq!(report.final_loss().to_bits(), 0x3fee_6b75_a800_0000);
        assert_eq!(digest, 0xf7bd_ac5d_0bb0_edf9);
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
