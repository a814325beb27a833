//! Regenerates **Table 4** — ablation study: each row removes one component
//! of WIDEN (downsampling, wide/deep branches, successive self-attention,
//! relay edges, or replaces attentive downsampling with random drops) and
//! reports transductive micro-F1 on all three datasets.
//!
//! The binary exits non-zero unless the paper's downsampling claims hold on
//! every dataset: Default's mean is within [`MAX_GAP`] of No Downsampling's
//! and not significantly worse by a paired t-test at [`ALPHA`], and on
//! yelp-like random W(t) downsampling scores below Default. The t-test needs
//! [`MIN_SEEDS`] seeds; with fewer the gate cannot be evaluated, and fails.

use widen_bench::parse_args;
use widen_bench::runners::{datasets, run_widen_transductive, table_widen_config};
use widen_core::Variant;
use widen_eval::{paired_t_test, RunAggregate};
use widen_obs::json::JsonValue;

/// Largest |Default − No Downsampling| mean micro-F1 gap (1 pp).
const MAX_GAP: f64 = 0.01;
/// Two-tailed level at which Default must not be significantly worse.
const ALPHA: f64 = 0.05;
/// Fewest seeds the gate is evaluated on.
const MIN_SEEDS: usize = 3;

fn main() {
    let opts = parse_args();
    println!(
        "== Table 4: ablation study ({:?} scale, {} seeds) ==\n",
        opts.scale,
        opts.seeds.len()
    );

    let variants = Variant::table4_rows();
    let dataset_names = ["acm-like", "dblp-like", "yelp-like"];
    // scores[variant][dataset] → per-seed F1.
    let mut scores: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; variants.len()];

    for &seed in &opts.seeds {
        for (d_idx, dataset) in datasets(opts.scale, seed).into_iter().enumerate() {
            for (v_idx, (_, variant)) in variants.iter().enumerate() {
                let cfg = table_widen_config(opts.scale)
                    .with_seed(seed)
                    .with_variant(*variant);
                let f1 = run_widen_transductive(
                    &dataset,
                    cfg,
                    &dataset.transductive.train,
                    &dataset.transductive.test,
                );
                scores[v_idx][d_idx].push(f1);
            }
        }
    }

    print!("{:<38}", "Architecture");
    for name in dataset_names {
        print!(" {:>10}", name.trim_end_matches("-like"));
    }
    println!();
    let default_means: Vec<f64> = (0..3)
        .map(|d| RunAggregate::new(scores[0][d].clone()).mean())
        .collect();
    let mut json_rows = Vec::new();
    for (v_idx, (name, _)) in variants.iter().enumerate() {
        print!("{name:<38}");
        for d_idx in 0..3 {
            let agg = RunAggregate::new(scores[v_idx][d_idx].clone());
            // The paper marks severe (> 5 %) drops relative to Default.
            let severe = agg.mean() < default_means[d_idx] * 0.95;
            let marker = if severe { "↓" } else { "" };
            print!(" {:>9}{}", format!("{:.4}", agg.mean()), marker);
            json_rows.push(JsonValue::object([
                ("variant", (*name).into()),
                ("dataset", dataset_names[d_idx].into()),
                ("mean", agg.mean().into()),
                ("std", agg.std().into()),
                ("severe_drop", severe.into()),
                ("samples", scores[v_idx][d_idx].as_slice().into()),
            ]));
        }
        println!();
    }
    println!("\n(↓ marks a >5% drop relative to the Default row, as in the paper)");
    opts.write_json("table4_ablation", &JsonValue::Array(json_rows));

    if opts.seeds.len() < MIN_SEEDS {
        eprintln!(
            "table4_ablation: {} seed(s) cannot evaluate the gate (needs --seeds {MIN_SEEDS} or more)",
            opts.seeds.len()
        );
        std::process::exit(1);
    }
    let row = |name: &str| {
        variants
            .iter()
            .position(|(n, _)| *n == name)
            .expect("a Table 4 row")
    };
    let (default, dense, random_wide) = (
        row("Default"),
        row("No Downsampling"),
        row("Random Downsampling for W(t)"),
    );
    let mean = |v: usize, d: usize| RunAggregate::new(scores[v][d].clone()).mean();
    let mut failed = false;
    println!(
        "\nGate (|Default − No Downsampling| ≤ {MAX_GAP}, not significantly worse at α = {ALPHA}):"
    );
    for (d_idx, name) in dataset_names.iter().enumerate() {
        let gap = mean(default, d_idx) - mean(dense, d_idx);
        let t = paired_t_test(&scores[default][d_idx], &scores[dense][d_idx]);
        let worse = t.t < 0.0 && t.significant_at(ALPHA);
        let pass = gap.abs() <= MAX_GAP && !worse;
        failed |= !pass;
        println!(
            "  {name:<10} gap {:+.2} pp, t {:+.3}, p {:.4}: {}",
            gap * 100.0,
            t.t,
            t.p_value,
            if pass { "pass" } else { "FAIL" }
        );
    }
    let yelp = dataset_names
        .iter()
        .position(|&n| n == "yelp-like")
        .expect("yelp-like");
    let (attentive, random) = (mean(default, yelp), mean(random_wide, yelp));
    let pass = random < attentive;
    failed |= !pass;
    println!(
        "  yelp-like random W(t) {random:.4} below Default {attentive:.4}: {}",
        if pass { "pass" } else { "FAIL" }
    );
    if failed {
        eprintln!("table4_ablation: the downsampling gate failed");
        std::process::exit(1);
    }
}
