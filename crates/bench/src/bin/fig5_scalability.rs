//! Regenerates **Figure 5** — scalability: WIDEN training time on the
//! Yelp-like graph as the node proportion grows through
//! {0.2, 0.4, 0.6, 0.8, 1.0}, with a least-squares linearity check
//! (the paper concludes "approximately linear" dependence).
//!
//! Each point is the quietest of [`FITS`] identical fits: on a shared host
//! one fit scatters by ±10 %, which is noise, not shape. The fits run in
//! rounds over all five points, so a slow spell of the host costs one
//! round, not one point. The binary exits non-zero when the fit is less
//! linear than R² [`MIN_R2`], so the figure is a gate, not only a plot.

use widen_bench::parse_args;
use widen_bench::runners::{datasets, table_widen_config};
use widen_core::{Trainer, WidenModel};
use widen_data::subsample_nodes;
use widen_eval::timing::linear_fit;
use widen_obs::json::JsonValue;

const RATIOS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
/// Fits per point; the quietest (fastest) one is the point.
const FITS: usize = 5;
/// The linearity gate.
const MIN_R2: f64 = 0.98;

fn main() {
    let opts = parse_args();
    println!(
        "== Figure 5: training-time scalability on yelp-like ({:?} scale) ==\n",
        opts.scale
    );
    let seed = opts.seeds[0];
    let yelp = datasets(opts.scale, seed)
        .into_iter()
        .nth(2)
        .expect("yelp dataset");

    let cfg = table_widen_config(opts.scale).with_seed(seed);
    let points: Vec<_> = RATIOS
        .iter()
        .map(|&ratio| {
            let graph = subsample_nodes(&yelp.graph, ratio, seed ^ 0x5CA1E).graph;
            // Training nodes: same labelled fraction as the full protocol.
            let labeled = graph.labeled_nodes();
            let take = (labeled.len() as f64 * 0.2).round() as usize;
            let train: Vec<u32> = labeled.iter().copied().take(take).collect();
            (ratio, graph, train)
        })
        .collect();
    let mut fits = vec![Vec::with_capacity(FITS); points.len()];
    for _ in 0..FITS {
        for ((_, graph, train), secs) in points.iter().zip(&mut fits) {
            let model = WidenModel::for_graph(graph, cfg.clone());
            secs.push(Trainer::new(model, graph, train).fit(train).total_secs());
        }
    }

    println!(
        "{:>8} {:>10} {:>12} {:>14}",
        "ratio", "nodes", "train nodes", "train secs"
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut json_rows = Vec::new();
    for ((ratio, graph, train), fits) in points.iter().zip(&fits) {
        let secs = fits.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{:>8.1} {:>10} {:>12} {:>14.3}",
            ratio,
            graph.num_nodes(),
            train.len(),
            secs
        );
        xs.push(*ratio);
        ys.push(secs);
        json_rows.push(JsonValue::object([
            ("ratio", (*ratio).into()),
            ("nodes", graph.num_nodes().into()),
            ("train_nodes", train.len().into()),
            ("train_secs", secs.into()),
            ("fit_secs", fits.as_slice().into()),
        ]));
    }

    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    println!(
        "\nlinear fit: time ≈ {slope:.3}·ratio + {intercept:.3}   R² = {r2:.4} \
         (paper: \"approximately linear\")"
    );
    opts.write_json(
        "fig5_scalability",
        &JsonValue::object([
            ("points", JsonValue::Array(json_rows)),
            (
                "fit",
                JsonValue::object([
                    ("slope", slope.into()),
                    ("intercept", intercept.into()),
                    ("r2", r2.into()),
                ]),
            ),
            ("min_r2", MIN_R2.into()),
        ]),
    );
    if r2 < MIN_R2 {
        eprintln!("fig5_scalability: R² {r2:.4} is below the {MIN_R2} gate");
        std::process::exit(1);
    }
}
