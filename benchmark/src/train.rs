//! `train_prune` / `train_dense`: fixed-work training rounds.
//!
//! A round is a fresh model + trainer + `fit` of the paper schedule on the
//! seeded smoke graph — bitwise the same work every round (checked: the
//! rounds' epoch losses must be bit-equal), so epoch `i` of every round is
//! one more sample of the same quantity.

use std::time::Instant;

use widen_core::{TrainReport, Trainer, Variant, WidenConfig, WidenModel};
use widen_data::{acm_like, Dataset, Scale};
use widen_obs::Tracer;
use widen_tensor::BackendKind;

use crate::stats::{lower_quartile, median, percentile, quiet_epochs, quietest};
use crate::sys::Usage;
use crate::trace::{Span, Spans};
use crate::{Metrics, Outcome};

/// Epochs of the throw-away fit that warms allocator, caches and kernels,
/// and of the checkpoint fit behind the serving fixture.
pub const WARMUP_EPOCHS: usize = 4;
/// A round takes about this long at the baseline. The number of rounds
/// follows from `--seconds` alone — never from the clock, so a faster
/// commit takes its per-epoch minimum over as many samples as its parent.
const NOMINAL_ROUND_SECS: u64 = 4;
const MIN_ROUNDS: u64 = 3;
/// Ensemble rounds of the quality check.
const F1_ROUNDS: usize = 3;
/// Thirty epochs at the paper's learning rate take the training loss from
/// ≈ 1.10 to 0.85–0.98 (a drop of 12–15 % on every one of 40 seeds tried);
/// a fit that loses less than this share of its first-epoch loss is broken,
/// whatever its speed.
const MIN_LOSS_DROP: f64 = 0.05;

pub fn dataset(seed: u64) -> Dataset {
    acm_like(Scale::Smoke, seed)
}

/// The pinned configuration: paper hyperparameters, optimized kernels.
pub fn config(seed: u64, variant: Variant, epochs: usize) -> WidenConfig {
    let mut config = WidenConfig::paper()
        .with_seed(seed)
        .with_variant(variant)
        .with_backend(BackendKind::Optimized);
    config.epochs = epochs;
    config
}

pub fn variant_of(workload: &str) -> Variant {
    match workload {
        "train_dense" => Variant::no_downsampling(),
        _ => Variant::full(),
    }
}

pub fn fresh_trainer<'g>(ds: &'g Dataset, config: WidenConfig) -> Trainer<'g> {
    let model = WidenModel::for_graph(&ds.graph, config);
    Trainer::new(model, &ds.graph, &ds.transductive.train)
}

/// One full set-up: fixture generation, construction, warm-up fit.
pub fn setup(seed: u64, variant: Variant) -> Dataset {
    let ds = dataset(seed);
    fresh_trainer(&ds, config(seed, variant, WARMUP_EPOCHS)).fit(&ds.transductive.train);
    ds
}

/// Epochs whose loss or gradients went non-finite.
fn bad_epochs(report: &TrainReport) -> usize {
    report
        .epoch_losses
        .iter()
        .zip(&report.epoch_stats)
        .filter(|(loss, stats)| !loss.is_finite() || stats.nonfinite_batches > 0)
        .count()
}

/// Epochs whose loss differs bitwise from the reference round's.
fn diverged_epochs(report: &TrainReport, reference: &TrainReport) -> usize {
    let differing = report
        .epoch_losses
        .iter()
        .zip(&reference.epoch_losses)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    differing
        + report
            .epoch_losses
            .len()
            .abs_diff(reference.epoch_losses.len())
}

/// Test micro-F1 under a 3-round ensemble.
pub fn micro_f1(model: &WidenModel, ds: &Dataset, seed: u64) -> f64 {
    let test = &ds.transductive.test;
    let predicted = model.predict_ensemble(&ds.graph, test, seed, F1_ROUNDS);
    let right = predicted
        .iter()
        .zip(test)
        .filter(|(&p, &node)| ds.graph.label(node) == Some(p as u16))
        .count();
    right as f64 / test.len() as f64
}

/// The micro-F1 floor of this seed. So short a fit reaches 0.40–0.82
/// depending on the seed, so no constant separates a broken fit from an
/// unlucky graph; the floor is what the seed's own untrained model scores,
/// or chance (three classes) if that is lower.
fn f1_floor(ds: &Dataset, config: &WidenConfig) -> f64 {
    let untrained = WidenModel::for_graph(&ds.graph, config.clone());
    micro_f1(&untrained, ds, config.seed).min(1.0 / 3.0)
}

/// Whether a round learned, and whether its downsampling counters fit the
/// variant: pruning must prune, the dense control must not.
fn round_is_sound(variant: Variant, report: &TrainReport) -> bool {
    let learned = report.final_loss() <= (1.0 - MIN_LOSS_DROP) * report.epoch_losses[0];
    let drops = if variant == Variant::no_downsampling() {
        report.wide_drops == 0 && report.deep_drops == 0 && report.relay_edges == 0
    } else {
        report.wide_drops > 0 && report.deep_drops > 0
    };
    learned && drops
}

/// Plain statistics of a phase's unit times (ms): median, p99 and the
/// median over the quiet quartile — how noisy the host was.
pub fn plain_stats(unit_ms: &[f64]) -> [(&'static str, f64); 3] {
    let p50 = median(unit_ms);
    [
        ("run.unit_ms_p50", p50),
        ("run.unit_ms_p99", percentile(unit_ms, 0.99)),
        ("run.noise_ratio", p50 / lower_quartile(unit_ms)),
    ]
}

/// The untraced run: set-up, then `seconds / 4` timed rounds (at least 3),
/// then the set-up repeats. `started` is when the process began; set-up
/// runs from there to the first timed epoch.
pub fn run(workload: &str, seed: u64, seconds: u64, started: Instant) -> Outcome {
    let variant = variant_of(workload);
    let ds = setup(seed, variant);
    let setup_s = started.elapsed().as_secs_f64();
    let train = &ds.transductive.train;
    let schedule = config(seed, variant, WidenConfig::paper().epochs);

    let mut rounds: Vec<TrainReport> = Vec::new();
    let mut last_model = None;
    for _ in 0..(seconds / NOMINAL_ROUND_SECS).max(MIN_ROUNDS) {
        let mut trainer = fresh_trainer(&ds, schedule.clone());
        rounds.push(trainer.fit(train));
        last_model = Some(trainer.into_model());
    }
    // Before the quality check runs its own forward passes.
    let peak_rss_mb = crate::sys::peak_rss_mib();

    let reference = &rounds[0];
    let epochs = reference.epoch_secs.len();
    let failed: usize = rounds
        .iter()
        .map(|r| (bad_epochs(r) + diverged_epochs(r, reference)).min(epochs))
        .sum();
    let f1 = micro_f1(&last_model.expect("a round ran"), &ds, seed);
    let correct = failed == 0
        && f1 >= f1_floor(&ds, &schedule)
        && rounds.iter().all(|r| round_is_sound(variant, r));

    let timings: Vec<Vec<f64>> = rounds.iter().map(|r| r.epoch_secs.clone()).collect();
    let quiet_fit_s: f64 = quiet_epochs(&timings).iter().sum();
    let mut metrics = Metrics::default();
    let setups = crate::setup_samples(workload, seed, setup_s);
    metrics.set("setup_s", quietest(&setups));
    metrics.set("units_per_s", epochs as f64 / quiet_fit_s);
    metrics.set("unit_ms", 1e3 * quiet_fit_s / epochs as f64);
    metrics.set("peak_rss_mb", peak_rss_mb);

    let all_ms: Vec<f64> = timings.iter().flatten().map(|s| s * 1e3).collect();
    let mut notes = vec![
        format!("rounds {} x {epochs} epochs", rounds.len()),
        format!("micro_f1 {f1:.4} final_loss {:.6}", reference.final_loss()),
        format!(
            "round_s {:.3?}",
            rounds
                .iter()
                .map(TrainReport::total_secs)
                .collect::<Vec<_>>()
        ),
        format!("setup_s samples {setups:.3?}"),
    ];
    notes.extend(plain_stats(&all_ms).map(|(name, v)| format!("{name} {v:.4}")));
    Outcome {
        correct,
        attempted: rounds.len() * epochs,
        failed,
        metrics,
        notes,
    }
}

/// The training layers of a traced run: one round with the tape profiler
/// and the trainer's span tracer on. Returns the round's report, so the
/// caller can relate it to an untraced one, and the trained weights.
pub fn traced_round(
    ds: &Dataset,
    config: WidenConfig,
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> (TrainReport, Vec<u8>) {
    let seed = config.seed;
    let mut trainer = fresh_trainer(ds, config);
    let tracer = Tracer::new(seed);
    trainer.set_tracer(tracer.clone());
    trainer.set_profiling(true);
    let packaging_before = widen_core::packaging::packaging_nanos_total();
    let report = trainer.fit(&ds.transductive.train);
    let packaging_ns = widen_core::packaging::packaging_nanos_total() - packaging_before;

    // Stage shares of epoch wall time, from the trainer's own counters.
    // Packaging runs inside the forward pass, so it is carved out of it.
    let wall_ns = report.total_secs() * 1e9;
    let counters = trainer.metrics().snapshot();
    let nanos = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let packaging = packaging_ns as f64;
    let forward = (nanos("core_forward_nanos_total") - packaging).max(0.0);
    metrics.set("core.trainer.forward_share", forward / wall_ns);
    metrics.set("core.trainer.packaging_share", packaging / wall_ns);
    metrics.set(
        "core.trainer.backward_share",
        nanos("core_backward_nanos_total") / wall_ns,
    );
    metrics.set(
        "core.trainer.optim_share",
        nanos("core_optim_nanos_total") / wall_ns,
    );
    metrics.set(
        "core.trainer.downsample_share",
        nanos("core_downsample_nanos_total") / wall_ns,
    );
    let (hits, misses) = (
        nanos("core_grad_pool_hits_total"),
        nanos("core_grad_pool_misses_total"),
    );
    metrics.set("tensor.pool.hit_ratio", hits / (hits + misses).max(1.0));

    // The trainer's span tree, re-rooted as `train.epoch`; what its
    // children leave uncovered is the unattributed share.
    let records = tracer.drain();
    let mut index_of = std::collections::HashMap::new();
    let mut epoch = 0;
    for r in &records {
        let parent = r.parent.and_then(|p| index_of.get(&p.0).copied());
        if parent.is_none() {
            epoch += 1;
        }
        if !spans.has_room(1) {
            continue;
        }
        let name = if r.name == "core.trainer.epoch" {
            "train.epoch".to_string()
        } else {
            r.name.clone()
        };
        let at = spans.push(Span {
            name,
            start_ns: r.start_ns,
            end_ns: r.end_ns(),
            parent,
            unit_id: epoch,
        });
        index_of.insert(r.id.0, at);
    }
    let (self_ns, total_ns) = spans.root_self_time("train.epoch");
    metrics.set(
        "core.trainer.unattributed_share",
        self_ns as f64 / total_ns.max(1) as f64,
    );

    let mut profile = widen_tensor::ProfileReport::default();
    for p in &report.epoch_profiles {
        profile.merge(p);
    }
    let op_ns = (profile.fwd_nanos_total + profile.bwd_nanos_total).max(1) as f64;
    let matmul_ns: u64 = profile
        .ops
        .iter()
        .filter(|o| o.name.starts_with("matmul"))
        .map(|o| o.total_nanos())
        .sum();
    metrics.set("tensor.profile.matmul_share", matmul_ns as f64 / op_ns);
    metrics.set(
        "tensor.profile.est_gflop_per_epoch",
        profile.total_flops() as f64 / 1e9 / report.epoch_secs.len() as f64,
    );

    let (wide, deep) = trainer.neighbor_volume();
    metrics.set("core.trainer.neighbor_volume_wide", wide as f64);
    metrics.set("core.trainer.neighbor_volume_deep", deep as f64);
    metrics.set("core.trainer.wide_drops", report.wide_drops as f64);
    metrics.set("core.trainer.deep_drops", report.deep_drops as f64);
    metrics.set("core.trainer.relay_edges", report.relay_edges as f64);
    let nonfinite: u64 = report.epoch_stats.iter().map(|s| s.nonfinite_batches).sum();
    metrics.set("core.trainer.nonfinite_batches", nonfinite as f64);
    metrics.set("core.trainer.final_loss", report.final_loss());
    metrics.set("core.trainer.epoch_first_ms", report.epoch_secs[0] * 1e3);
    metrics.set(
        "core.trainer.epoch_last_ms",
        report.epoch_secs[report.epoch_secs.len() - 1] * 1e3,
    );
    let model = trainer.into_model();
    metrics.set("core.model.micro_f1", micro_f1(&model, ds, seed));
    (report, model.save_weights().to_vec())
}

/// The traced run of a training workload: a full throw-away round (the
/// first fit of a process pays ~10 k first-touch page faults per epoch,
/// which would drown the comparison), one untraced round (the `run.*`
/// statistics and the base of `trace.overhead_share`), one traced round.
/// Returns the dataset and the trained weights for the other layers'
/// probes.
pub fn traced(
    workload: &str,
    seed: u64,
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> (Dataset, Vec<u8>, Outcome) {
    let variant = variant_of(workload);
    let ds = dataset(seed);
    let schedule = config(seed, variant, WidenConfig::paper().epochs);
    fresh_trainer(&ds, schedule.clone()).fit(&ds.transductive.train);

    let before = Usage::now();
    let untraced = fresh_trainer(&ds, schedule.clone()).fit(&ds.transductive.train);
    let epochs = untraced.epoch_secs.len();
    for (name, value) in Usage::now().since(before).per_unit(epochs) {
        metrics.set(name, value);
    }
    let unit_ms: Vec<f64> = untraced.epoch_secs.iter().map(|s| s * 1e3).collect();
    for (name, value) in plain_stats(&unit_ms) {
        metrics.set(name, value);
    }

    let floor = f1_floor(&ds, &schedule);
    let (report, checkpoint) = traced_round(&ds, schedule, metrics, spans);
    metrics.set(
        "trace.overhead_share",
        (report.total_secs() - untraced.total_secs()) / untraced.total_secs(),
    );

    let failed =
        (bad_epochs(&untraced) + bad_epochs(&report) + diverged_epochs(&report, &untraced))
            .min(2 * epochs);
    let f1 = metrics.get("core.model.micro_f1").unwrap_or(0.0);
    let outcome = Outcome {
        correct: failed == 0 && f1 >= floor && round_is_sound(variant, &report),
        attempted: 2 * epochs,
        failed,
        metrics: Metrics::default(),
        notes: vec![format!(
            "untraced round {:.3} s, traced round {:.3} s",
            untraced.total_secs(),
            report.total_secs()
        )],
    };
    (ds, checkpoint, outcome)
}
