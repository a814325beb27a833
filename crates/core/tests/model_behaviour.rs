//! Behavioural tests of the WIDEN model against the paper's equations:
//! masked-attention causality, Φ-averaging, relay-edge semantics and
//! downsampling dynamics, exercised through the public API.

use widen_core::{DownsampleStrategy, Trainer, Variant, WidenConfig, WidenModel};
use widen_data::{acm_like, dblp_like, Scale};
use widen_graph::GraphBuilder;

fn tiny_config() -> WidenConfig {
    let mut c = WidenConfig::small();
    c.d = 16;
    c.n_w = 5;
    c.n_d = 5;
    c.phi = 2;
    c.epochs = 6;
    c
}

#[test]
fn phi_one_and_many_walks_both_work() {
    let d = acm_like(Scale::Smoke, 1);
    for phi in [1usize, 2, 5] {
        let mut cfg = tiny_config();
        cfg.phi = phi;
        let model = WidenModel::for_graph(&d.graph, cfg);
        let nodes = &d.transductive.train[..4];
        let emb = model.embed_nodes(&d.graph, nodes, 3);
        assert_eq!(emb.shape(), (4, 16), "phi = {phi}");
        assert!(emb.all_finite());
    }
}

#[test]
fn variants_produce_different_models() {
    // Each Table 4 variant must actually change behaviour: train briefly
    // and compare predictions.
    let d = acm_like(Scale::Smoke, 2);
    let train: Vec<u32> = d.transductive.train[..30].to_vec();
    let probe: Vec<u32> = d.transductive.test[..60].to_vec();
    let mut prediction_sets = Vec::new();
    for (name, variant) in Variant::table4_rows() {
        let mut cfg = tiny_config();
        cfg.variant = variant;
        cfg.epochs = 8;
        // Loose thresholds so downsampling variants actually diverge.
        cfg.r_wide = 0.5;
        cfg.r_deep = 0.5;
        cfg.k_wide = 2;
        cfg.k_deep = 2;
        let model = WidenModel::for_graph(&d.graph, cfg);
        let mut trainer = Trainer::new(model, &d.graph, &train);
        trainer.fit(&train);
        let preds = trainer.into_model().predict(&d.graph, &probe, 1);
        prediction_sets.push((name, preds));
    }
    // The full model must differ from the branch-removal variants.
    let default = &prediction_sets[0].1;
    for (name, preds) in &prediction_sets[2..4] {
        assert_ne!(
            default, preds,
            "variant `{name}` produced identical predictions to Default"
        );
    }
}

#[test]
fn deep_branch_alone_supports_isolated_wide_sets() {
    // A node whose only connectivity is via the walk start (degree 1):
    // both branches must cope with tiny neighbourhoods.
    let mut b = GraphBuilder::new(&["x", "y"], &["xy"]).with_classes(2);
    let x = b.node_type("x").unwrap();
    let y = b.node_type("y").unwrap();
    let e = b.edge_type("xy").unwrap();
    let n0 = b.add_node(x, vec![1.0, 0.0], Some(0));
    let n1 = b.add_node(y, vec![0.0, 1.0], None);
    let n2 = b.add_node(x, vec![0.9, 0.1], Some(1));
    b.add_edge(n0, n1, e);
    b.add_edge(n1, n2, e);
    let g = b.build();

    let mut cfg = tiny_config();
    cfg.epochs = 4;
    let model = WidenModel::for_graph(&g, cfg);
    let mut trainer = Trainer::new(model, &g, &[n0, n2]);
    let report = trainer.fit(&[n0, n2]);
    assert!(report.final_loss().is_finite());
    let preds = trainer.into_model().predict(&g, &[n0, n2], 1);
    assert_eq!(preds.len(), 2);
}

#[test]
fn random_downsampling_ignores_kl_threshold() {
    // With an impossible KL threshold, attentive downsampling never fires
    // but random downsampling still does — they must diverge.
    let d = dblp_like(Scale::Smoke, 3);
    let train: Vec<u32> = d.transductive.train[..20].to_vec();

    let run = |strategy: DownsampleStrategy| {
        let mut cfg = tiny_config();
        cfg.epochs = 6;
        cfg.r_wide = 0.0; // KL < 0 is impossible ⇒ attentive never triggers
        cfg.r_deep = 0.0;
        cfg.k_wide = 1;
        cfg.k_deep = 1;
        cfg.variant.wide_downsampling = strategy;
        cfg.variant.deep_downsampling = strategy;
        let model = WidenModel::for_graph(&d.graph, cfg);
        let mut trainer = Trainer::new(model, &d.graph, &train);
        let report = trainer.fit(&train);
        (report.wide_drops, report.deep_drops)
    };

    let (aw, ad) = run(DownsampleStrategy::Attentive);
    let (rw, rd) = run(DownsampleStrategy::Random);
    assert_eq!(
        (aw, ad),
        (0, 0),
        "impossible threshold must block attentive drops"
    );
    assert!(
        rw > 0 && rd > 0,
        "random downsampling must drop regardless of KL"
    );
}

#[test]
fn downsampling_reduces_epoch_time() {
    // What pruning buys, in the quantities that repeat exactly: with
    // aggressive pruning the fit ends on far fewer messages per node than
    // with none. The wall-clock side of §3.3 is measured where it can be —
    // the `train_prune` / `train_dense` pair in `benchmark/` — not by
    // comparing three ≈ 10 ms epochs here.
    let d = dblp_like(Scale::Smoke, 4);
    let train: Vec<u32> = d.transductive.train.clone();
    let run = |variant: Variant| {
        let mut cfg = tiny_config();
        cfg.n_w = 12;
        cfg.n_d = 12;
        cfg.phi = 3;
        cfg.epochs = 10;
        cfg.r_wide = f64::MAX;
        cfg.r_deep = f64::MAX;
        cfg.k_wide = 2;
        cfg.k_deep = 2;
        cfg.variant = variant;
        let model = WidenModel::for_graph(&d.graph, cfg);
        let mut trainer = Trainer::new(model, &d.graph, &train);
        let report = trainer.fit(&train);
        (trainer.neighbor_volume(), report)
    };
    let ((wide, deep), pruned) = run(Variant::full());
    let ((wide_full, deep_full), unpruned) = run(Variant::no_downsampling());
    assert!(
        10 * wide <= 6 * wide_full && 10 * deep <= 6 * deep_full,
        "pruned fit ends on ({wide}, {deep}) messages, unpruned on ({wide_full}, {deep_full})"
    );
    assert!(pruned.wide_drops > 0 && pruned.deep_drops > 0 && pruned.relay_edges > 0);
    assert_eq!(unpruned.wide_drops + unpruned.deep_drops, 0);
}

#[test]
fn embedding_dimension_follows_config() {
    let d = acm_like(Scale::Smoke, 5);
    for dim in [8usize, 24, 40] {
        let mut cfg = tiny_config();
        cfg.d = dim;
        let model = WidenModel::for_graph(&d.graph, cfg);
        let emb = model.embed_nodes(&d.graph, &d.transductive.train[..2], 1);
        assert_eq!(emb.cols(), dim);
    }
}
