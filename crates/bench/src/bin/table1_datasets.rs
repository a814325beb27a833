//! Regenerates **Table 1** — statistics of the three (synthetic) datasets.

use widen_bench::{parse_args, RunScale};
use widen_obs::json::JsonValue;

fn main() {
    let opts = parse_args();
    println!(
        "== Table 1: dataset statistics ({:?} scale) ==\n",
        opts.scale
    );
    let seed = opts.seeds[0];
    let mut rows = Vec::new();
    for dataset in widen_bench::runners::datasets(opts.scale, seed) {
        let stats = dataset.stats();
        println!("{}\n", stats.render());
        rows.push(JsonValue::object([
            ("dataset", stats.name.as_str().into()),
            ("nodes", stats.nodes.into()),
            ("node_types", stats.node_types.into()),
            ("edges", stats.edges.into()),
            ("edge_types", stats.edge_types.into()),
            ("features", stats.features.into()),
            ("class_labels", stats.class_labels.into()),
            ("transductive_train", stats.transductive.0.into()),
            ("transductive_val", stats.transductive.1.into()),
            ("transductive_test", stats.transductive.2.into()),
            ("inductive_train", stats.inductive.0.into()),
            ("inductive_test", stats.inductive.1.into()),
            ("mean_degree", stats.mean_degree.into()),
        ]));
    }
    if opts.scale == RunScale::Table {
        println!(
            "note: yelp-like is a scale-preserving stand-in (≈60k nodes) for the paper's 2.18M-node Yelp dump; see DESIGN.md."
        );
    }
    opts.write_json("table1_datasets", &JsonValue::Array(rows));
}
