//! Regenerates **Table 2** — transductive node classification micro-F1 for
//! all nine methods on the three datasets at {25, 50, 75, 100}% of the
//! training labels, with paired t-tests of WIDEN against the best baseline
//! per column (underscored when p < 0.05, double-underscored when p < 0.01).

use widen_baselines::all_baselines;
use widen_bench::harness::{best_baseline, render_score};
use widen_bench::runners::{
    datasets, run_baseline_transductive, run_widen_transductive, table_baseline_config,
    table_widen_config,
};
use widen_bench::{parse_args, RunScale};
use widen_data::subset_fraction;
use widen_eval::{paired_t_test, RunAggregate};
use widen_obs::json::JsonValue;

const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

fn main() {
    let opts = parse_args();
    println!(
        "== Table 2: transductive node classification ({:?} scale, {} seeds) ==",
        opts.scale,
        opts.seeds.len()
    );

    let method_names: Vec<&str> = {
        let cfg = table_baseline_config(opts.scale);
        let mut names: Vec<&str> = all_baselines(&cfg).iter().map(|b| b.name()).collect();
        names.push("WIDEN");
        names
    };

    let mut json_rows = Vec::new();
    for dataset_index in 0..3 {
        // Score matrix: [method][fraction] → per-seed scores.
        let mut scores: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::new(); FRACTIONS.len()]; method_names.len()];
        let mut dataset_name = String::new();

        for &seed in &opts.seeds {
            let dataset = datasets(opts.scale, seed).swap_remove(dataset_index);
            dataset_name = dataset.name.clone();
            let skip_gtn_here = dataset.name.starts_with("yelp") && opts.scale == RunScale::Table;
            for (f_idx, &frac) in FRACTIONS.iter().enumerate() {
                let train = subset_fraction(&dataset.transductive.train, frac);
                let test = &dataset.transductive.test;

                let baselines = all_baselines(&table_baseline_config(opts.scale).with_seed(seed));
                for (m_idx, mut baseline) in baselines.into_iter().enumerate() {
                    // The paper omits GTN on Yelp (one epoch > 10 h on CPU);
                    // we mirror that at table scale.
                    if baseline.name() == "GTN" && skip_gtn_here {
                        continue;
                    }
                    let f1 = run_baseline_transductive(baseline.as_mut(), &dataset, &train, test);
                    scores[m_idx][f_idx].push(f1);
                }
                let widen_cfg = table_widen_config(opts.scale).with_seed(seed);
                let f1 = run_widen_transductive(&dataset, widen_cfg, &train, test);
                scores[method_names.len() - 1][f_idx].push(f1);
            }
        }

        // Render the dataset block.
        println!("\n--- {dataset_name} ---");
        print!("{:<12}", "Method");
        for f in FRACTIONS {
            print!(" {:>14}", format!("{}%", (f * 100.0) as u32));
        }
        println!();
        let widen_idx = method_names.len() - 1;
        for (m_idx, name) in method_names.iter().enumerate() {
            print!("{name:<12}");
            for f_idx in 0..FRACTIONS.len() {
                let samples = &scores[m_idx][f_idx];
                if samples.is_empty() {
                    print!(" {:>14}", "-");
                    continue;
                }
                let agg = RunAggregate::new(samples.clone());
                let marker = if m_idx == widen_idx && samples.len() >= 2 {
                    // t-test vs the best baseline of this column.
                    best_baseline(&scores, f_idx, widen_idx)
                        .map(|best| paired_t_test(samples, &best).p_value)
                } else {
                    None
                };
                print!(" {:>14}", render_score(agg.mean(), marker));
            }
            println!();
            for (f_idx, f) in FRACTIONS.iter().enumerate() {
                if !scores[m_idx][f_idx].is_empty() {
                    let samples = &scores[m_idx][f_idx];
                    let agg = RunAggregate::new(samples.clone());
                    json_rows.push(JsonValue::object([
                        ("dataset", dataset_name.as_str().into()),
                        ("method", (*name).into()),
                        ("fraction", (*f).into()),
                        ("mean", agg.mean().into()),
                        ("std", agg.std().into()),
                        ("samples", samples.as_slice().into()),
                    ]));
                }
            }
        }
    }
    opts.write_json("table2_transductive", &JsonValue::Array(json_rows));
}
