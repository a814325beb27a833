//! Regenerates **Figure 4** — training efficiency: mean wall-clock time per
//! training epoch and micro-F1 after exactly 10 epochs, for every method on
//! the ACM-like and DBLP-like graphs (the paper restricts this test to the
//! two smaller graphs; most baselines cannot mini-batch Yelp). Each WIDEN
//! epoch's stage times (`EpochStats`) land beside its wall clock. WIDEN's
//! row is timed on a bare fit, as every baseline's is; its per-op profile
//! comes from a second, untimed fit of the same config with the tape
//! profiler on.
//!
//! The binary then checks the paper's claim that downsampling makes
//! training cheaper. On each graph it fits Default and No Downsampling on
//! the full schedule, [`FITS`] times each, in interleaved rounds (as
//! `fig5_scalability` does), and exits non-zero unless the pruned side's
//! quietest last epoch is at most [`MAX_LAST_EPOCH_RATIO`] × the dense
//! side's.

use std::time::Instant;

use widen_baselines::all_baselines;
use widen_bench::parse_args;
use widen_bench::runners::{
    datasets, table_baseline_config, table_widen_config, EVAL_SAMPLING_SEED,
};
use widen_core::{Trainer, Variant, WidenModel};
use widen_eval::micro_f1;
use widen_obs::json::JsonValue;
use widen_tensor::ProfileReport;

const EPOCHS: usize = 10;
/// Full-schedule fits per side of the downsampling gate; the quietest
/// (fastest) last epoch of each side is compared.
const FITS: usize = 5;
/// The gate: pruned last epoch ≤ this × the dense one.
const MAX_LAST_EPOCH_RATIO: f64 = 0.8;

fn main() {
    let opts = parse_args();
    println!(
        "== Figure 4: training efficiency ({:?} scale, {} epochs) ==\n",
        opts.scale, EPOCHS
    );
    let seed = opts.seeds[0];
    let mut json_rows = Vec::new();
    let graphs: Vec<_> = datasets(opts.scale, seed).into_iter().take(2).collect();

    for dataset in &graphs {
        println!("--- {} ---", dataset.name);
        println!("{:<12} {:>16} {:>16}", "Method", "sec/epoch", "F1@10epochs");
        let train = &dataset.transductive.train;
        let test = &dataset.transductive.test;
        let truth: Vec<usize> = test
            .iter()
            .map(|&v| dataset.graph.label(v).unwrap() as usize)
            .collect();

        let mut base_cfg = table_baseline_config(opts.scale).with_seed(seed);
        base_cfg.epochs = EPOCHS;
        for mut baseline in all_baselines(&base_cfg) {
            let start = Instant::now();
            baseline.fit(&dataset.graph, train);
            let secs_per_epoch = start.elapsed().as_secs_f64() / EPOCHS as f64;
            let preds = baseline.predict(&dataset.graph, test);
            let f1 = micro_f1(&truth, &preds);
            println!(
                "{:<12} {:>16.4} {:>16.4}",
                baseline.name(),
                secs_per_epoch,
                f1
            );
            json_rows.push(JsonValue::object([
                ("dataset", dataset.name.as_str().into()),
                ("method", baseline.name().into()),
                ("secs_per_epoch", secs_per_epoch.into()),
                ("f1_after_10_epochs", f1.into()),
            ]));
        }

        let mut widen_cfg = table_widen_config(opts.scale).with_seed(seed);
        widen_cfg.epochs = EPOCHS;
        let fit = |profiling: bool| {
            let model = WidenModel::for_graph(&dataset.graph, widen_cfg.clone());
            let mut trainer = Trainer::new(model, &dataset.graph, train);
            trainer.set_profiling(profiling);
            let report = trainer.fit(train);
            (report, trainer.into_model())
        };
        let (report, model) = fit(false);
        let secs_per_epoch = report.total_secs() / EPOCHS as f64;
        let preds = model.predict(&dataset.graph, test, EVAL_SAMPLING_SEED);
        let f1 = micro_f1(&truth, &preds);
        println!("{:<12} {:>16.4} {:>16.4}", "WIDEN", secs_per_epoch, f1);
        println!(
            "             (downsampling: {} wide drops, {} deep prunes, {} relay edges)\n",
            report.wide_drops, report.deep_drops, report.relay_edges
        );
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "epoch", "wall ms", "fwd ms", "bwd ms", "optim ms", "down ms", "pack ms"
        );
        let ms = |nanos: u64| nanos as f64 / 1e6;
        for (i, (secs, s)) in report
            .epoch_secs
            .iter()
            .zip(&report.epoch_stats)
            .enumerate()
        {
            println!(
                "{:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                i + 1,
                secs * 1e3,
                ms(s.forward_nanos),
                ms(s.backward_nanos),
                ms(s.optim_nanos),
                ms(s.downsample_nanos),
                ms(s.packaging_nanos)
            );
        }
        println!();
        // Per-op autograd breakdown across all epochs of the profiled fit —
        // where the WIDEN epoch time above goes.
        let mut profile = ProfileReport::default();
        for epoch_profile in &fit(true).0.epoch_profiles {
            profile.merge(epoch_profile);
        }
        if !profile.is_empty() {
            println!("WIDEN per-op profile (top 8 by self-time, all epochs):");
            println!("{}", profile.render_table(8));
        }
        let stages: Vec<_> = report
            .epoch_stats
            .iter()
            .map(|s| {
                JsonValue::object([
                    ("forward_nanos", s.forward_nanos.into()),
                    ("backward_nanos", s.backward_nanos.into()),
                    ("optim_nanos", s.optim_nanos.into()),
                    ("downsample_nanos", s.downsample_nanos.into()),
                    ("packaging_nanos", s.packaging_nanos.into()),
                ])
            })
            .collect();
        let top_ops: Vec<_> = profile
            .top_k(8)
            .iter()
            .map(|o| {
                JsonValue::object([
                    ("op", o.name.into()),
                    ("count", o.count.into()),
                    ("fwd_ms", (o.fwd_nanos as f64 / 1e6).into()),
                    ("bwd_ms", (o.bwd_nanos as f64 / 1e6).into()),
                    ("est_gflop", (o.flops as f64 / 1e9).into()),
                    ("last_shape", o.last_shape.as_str().into()),
                ])
            })
            .collect();
        json_rows.push(JsonValue::object([
            ("dataset", dataset.name.as_str().into()),
            ("method", "WIDEN".into()),
            ("secs_per_epoch", secs_per_epoch.into()),
            ("f1_after_10_epochs", f1.into()),
            ("per_epoch_secs", report.epoch_secs.as_slice().into()),
            ("per_epoch_stages", JsonValue::Array(stages)),
            ("wide_drops", report.wide_drops.into()),
            ("deep_drops", report.deep_drops.into()),
            (
                "profile",
                JsonValue::object([
                    ("fwd_ms", (profile.fwd_nanos_total as f64 / 1e6).into()),
                    ("bwd_ms", (profile.bwd_nanos_total as f64 / 1e6).into()),
                    ("est_gflop", (profile.total_flops() as f64 / 1e9).into()),
                    ("top_ops", JsonValue::Array(top_ops)),
                ]),
            ),
        ]));
    }

    // The gate: rounds over (graph, side), so a slow spell of the host
    // costs one round, not one side.
    let sides = [Variant::full(), Variant::no_downsampling()];
    let mut last_epochs = vec![[Vec::with_capacity(FITS), Vec::with_capacity(FITS)]; graphs.len()];
    for _ in 0..FITS {
        for (dataset, secs) in graphs.iter().zip(&mut last_epochs) {
            for (variant, secs) in sides.iter().zip(secs.iter_mut()) {
                let cfg = table_widen_config(opts.scale)
                    .with_seed(seed)
                    .with_variant(*variant);
                let train = &dataset.transductive.train;
                let model = WidenModel::for_graph(&dataset.graph, cfg);
                let report = Trainer::new(model, &dataset.graph, train).fit(train);
                secs.push(*report.epoch_secs.last().expect("at least one epoch"));
            }
        }
    }
    println!(
        "Downsampling gate: quietest last epoch of {FITS} full-schedule fits, \
         pruned ≤ {MAX_LAST_EPOCH_RATIO} × dense"
    );
    let quietest = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    let mut failed = false;
    let mut gate_rows = Vec::new();
    for (dataset, [pruned, dense]) in graphs.iter().zip(&last_epochs) {
        let (pruned_secs, dense_secs) = (quietest(pruned), quietest(dense));
        let ratio = pruned_secs / dense_secs;
        let pass = ratio <= MAX_LAST_EPOCH_RATIO;
        failed |= !pass;
        println!(
            "  {:<10} Default {pruned_secs:.4} s, No Downsampling {dense_secs:.4} s, \
             ratio {ratio:.3}: {}",
            dataset.name,
            if pass { "pass" } else { "FAIL" }
        );
        gate_rows.push(JsonValue::object([
            ("dataset", dataset.name.as_str().into()),
            ("pruned_last_epoch_secs", pruned.as_slice().into()),
            ("dense_last_epoch_secs", dense.as_slice().into()),
            ("ratio", ratio.into()),
        ]));
    }
    opts.write_json(
        "fig4_efficiency",
        &JsonValue::object([
            ("methods", JsonValue::Array(json_rows)),
            ("downsampling_gate", JsonValue::Array(gate_rows)),
            ("max_last_epoch_ratio", MAX_LAST_EPOCH_RATIO.into()),
        ]),
    );
    if failed {
        eprintln!("fig4_efficiency: pruned training is not cheaper than the gate asks");
        std::process::exit(1);
    }
}
