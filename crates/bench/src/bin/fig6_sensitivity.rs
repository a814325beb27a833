//! Regenerates **Figure 6** — hyperparameter sensitivity: one-at-a-time
//! sweeps of the latent dimension `d`, wide sample size `N_w`, deep walk
//! length `N_d` and deep walk count `Φ` on all three datasets (transductive
//! micro-F1, full training set).

use widen_bench::parse_args;
use widen_bench::runners::{datasets, run_widen_transductive, table_widen_config};
use widen_bench::RunScale;
use widen_obs::json::JsonValue;

fn main() {
    let opts = parse_args();
    println!(
        "== Figure 6: hyperparameter sensitivity ({:?} scale) ==",
        opts.scale
    );
    let seed = opts.seeds[0];

    // Sweep grids: at smoke scale the larger settings are trimmed so the
    // run stays seconds-fast; table scale follows the paper's grids.
    let (d_grid, nw_grid, nd_grid, phi_grid): (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) =
        match opts.scale {
            RunScale::Smoke => (vec![16, 32, 64], vec![1, 5, 10], vec![1, 5, 10], vec![2, 4]),
            // The paper's full grids reach d = 256 and Φ = 10; on this
            // single-core CPU budget we sweep the informative prefix of
            // each grid (the curve shapes are established well before the
            // upper ends — see EXPERIMENTS.md).
            RunScale::Table => (
                vec![16, 32, 64, 128],
                vec![1, 5, 10, 15],
                vec![1, 5, 10, 15],
                vec![1, 2, 4, 6],
            ),
        };

    let mut json = Vec::new();
    for dataset in datasets(opts.scale, seed) {
        println!("\n--- {} ---", dataset.name);
        let mut block = Vec::new();
        for (param, grid) in [
            ("d", &d_grid),
            ("N_w", &nw_grid),
            ("N_d", &nd_grid),
            ("phi", &phi_grid),
        ] {
            print!("{param:<4}:");
            let mut series = Vec::new();
            for &value in grid.iter() {
                let mut cfg = table_widen_config(opts.scale).with_seed(seed);
                match param {
                    "d" => cfg.d = value,
                    "N_w" => cfg.n_w = value,
                    "N_d" => cfg.n_d = value,
                    "phi" => cfg.phi = value,
                    _ => unreachable!(),
                }
                let f1 = run_widen_transductive(
                    &dataset,
                    cfg,
                    &dataset.transductive.train,
                    &dataset.transductive.test,
                );
                print!("  {value}→{f1:.4}");
                series.push(JsonValue::object([
                    ("value", value.into()),
                    ("f1", f1.into()),
                ]));
            }
            println!();
            block.push((param.to_string(), JsonValue::Array(series)));
        }
        json.push((dataset.name.clone(), JsonValue::Object(block)));
    }
    opts.write_json("fig6_sensitivity", &JsonValue::Object(json));
}
