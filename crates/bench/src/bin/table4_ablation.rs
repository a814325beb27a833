//! Regenerates **Table 4** — ablation study: each row removes one component
//! of WIDEN (downsampling, wide/deep branches, successive self-attention,
//! relay edges, or replaces attentive downsampling with random drops) and
//! reports transductive micro-F1 on all three datasets.

use widen_bench::parse_args;
use widen_bench::runners::{datasets, run_widen_transductive, table_widen_config};
use widen_core::Variant;
use widen_eval::RunAggregate;
use widen_obs::json::JsonValue;

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
}
