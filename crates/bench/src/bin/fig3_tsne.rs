//! Regenerates **Figure 3** — t-SNE visualisation of inductively learned
//! node embeddings on the three datasets, plus silhouette scores that
//! quantify the paper's "clear boundaries between classes" claim. For the
//! Yelp-like graph, 1 000 inductive nodes are sampled for clarity, as in
//! the paper.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use widen_bench::parse_args;
use widen_bench::runners::{datasets, table_widen_config};
use widen_core::{Trainer, WidenModel};
use widen_eval::{silhouette_score, tsne, TsneConfig};
use widen_graph::NodeId;
use widen_obs::json::JsonValue;

fn main() {
    let opts = parse_args();
    println!(
        "== Figure 3: t-SNE of inductive embeddings ({:?} scale) ==\n",
        opts.scale
    );
    let seed = opts.seeds[0];
    let mut json = Vec::new();

    for dataset in datasets(opts.scale, seed) {
        // Inductive training: held-out nodes never seen.
        let reduced = dataset.graph.without_nodes(&dataset.inductive.test);
        let train_new: Vec<NodeId> = dataset
            .inductive
            .train
            .iter()
            .filter_map(|&v| reduced.mapping.to_new(v))
            .collect();
        let cfg = table_widen_config(opts.scale).with_seed(seed);
        let model = WidenModel::for_graph(&reduced.graph, cfg);
        let mut trainer = Trainer::new(model, &reduced.graph, &train_new);
        trainer.fit(&train_new);
        let model = trainer.into_model();

        // Sample up to 1000 inductive nodes (Figure 3 does this for Yelp).
        let mut nodes = dataset.inductive.test.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF16);
        nodes.shuffle(&mut rng);
        nodes.truncate(1000);

        let embeddings = model.embed_nodes(&dataset.graph, &nodes, 777);
        let labels: Vec<usize> = nodes
            .iter()
            .map(|&v| dataset.graph.label(v).expect("labelled") as usize)
            .collect();

        let coords = tsne(
            &embeddings,
            &TsneConfig {
                iterations: 300,
                seed,
                ..TsneConfig::default()
            },
        );
        let sil_embedding = silhouette_score(&embeddings, &labels);
        let sil_2d = silhouette_score(&coords, &labels);
        println!(
            "{:<12} {} inductive nodes  silhouette(embedding) = {:.3}  silhouette(t-SNE 2D) = {:.3}",
            dataset.name,
            nodes.len(),
            sil_embedding,
            sil_2d
        );

        let points = (0..coords.rows())
            .map(|i| {
                JsonValue::object([
                    ("x", coords.get(i, 0).into()),
                    ("y", coords.get(i, 1).into()),
                    ("class", labels[i].into()),
                ])
            })
            .collect();
        json.push((
            dataset.name.clone(),
            JsonValue::object([
                ("silhouette_embedding", sil_embedding.into()),
                ("silhouette_2d", sil_2d.into()),
                ("points", JsonValue::Array(points)),
            ]),
        ));
    }
    println!("\n(positive silhouettes = same-class nodes cluster; plot the JSON points to reproduce the figure)");
    opts.write_json("fig3_tsne", &JsonValue::Object(json));
}
