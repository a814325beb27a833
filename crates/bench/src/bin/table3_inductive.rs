//! Regenerates **Table 3** — inductive node classification micro-F1: 20 %
//! of labelled nodes are removed from the training graph and embedded only
//! at test time. Node2Vec is excluded (it cannot embed unseen node ids,
//! §4.6); every other method fits on the reduced graph and predicts on the
//! full one.

use widen_baselines::all_baselines;
use widen_bench::harness::{best_baseline, render_score};
use widen_bench::parse_args;
use widen_bench::runners::{
    datasets, run_baseline_inductive, run_widen_inductive, table_baseline_config,
    table_widen_config,
};
use widen_eval::{paired_t_test, RunAggregate};
use widen_obs::json::JsonValue;

fn main() {
    let opts = parse_args();
    println!(
        "== Table 3: inductive node classification ({:?} scale, {} seeds) ==\n",
        opts.scale,
        opts.seeds.len()
    );

    let method_names: Vec<String> = {
        let cfg = table_baseline_config(opts.scale);
        let mut names: Vec<String> = all_baselines(&cfg)
            .iter()
            .filter(|b| b.supports_inductive())
            .map(|b| b.name().to_string())
            .collect();
        names.push("WIDEN".to_string());
        names
    };

    let dataset_names = ["acm-like", "dblp-like", "yelp-like"];
    // scores[method][dataset] → per-seed F1.
    let mut scores: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; method_names.len()];

    for &seed in &opts.seeds {
        for (d_idx, dataset) in datasets(opts.scale, seed).into_iter().enumerate() {
            let mut m_idx = 0;
            for mut baseline in all_baselines(&table_baseline_config(opts.scale).with_seed(seed)) {
                if !baseline.supports_inductive() {
                    continue;
                }
                let f1 = run_baseline_inductive(baseline.as_mut(), &dataset);
                scores[m_idx][d_idx].push(f1);
                m_idx += 1;
            }
            let widen_cfg = table_widen_config(opts.scale).with_seed(seed);
            let f1 = run_widen_inductive(&dataset, widen_cfg);
            scores[method_names.len() - 1][d_idx].push(f1);
        }
    }

    print!("{:<12}", "Method");
    for name in dataset_names {
        print!(" {:>14}", name);
    }
    println!();
    let widen_idx = method_names.len() - 1;
    let mut json_rows = Vec::new();
    for (m_idx, name) in method_names.iter().enumerate() {
        print!("{name:<12}");
        for d_idx in 0..3 {
            let samples = &scores[m_idx][d_idx];
            let agg = RunAggregate::new(samples.clone());
            let p = if m_idx == widen_idx && samples.len() >= 2 {
                best_baseline(&scores, d_idx, widen_idx)
                    .map(|best| paired_t_test(samples, &best).p_value)
            } else {
                None
            };
            print!(" {:>14}", render_score(agg.mean(), p));
            json_rows.push(JsonValue::object([
                ("dataset", dataset_names[d_idx].into()),
                ("method", name.as_str().into()),
                ("mean", agg.mean().into()),
                ("std", agg.std().into()),
                ("samples", samples.as_slice().into()),
            ]));
        }
        println!();
    }
    opts.write_json("table3_inductive", &JsonValue::Array(json_rows));
}
