//! Shared experiment runners: train/evaluate WIDEN and the baselines under
//! the transductive and inductive protocols.

use widen_baselines::{BaselineConfig, NodeClassifier};
use widen_core::{Trainer, WidenConfig, WidenModel};
use widen_data::Dataset;
use widen_eval::micro_f1;
use widen_graph::NodeId;

use crate::harness::RunScale;

/// Fixed neighbourhood-sampling seed used when scoring, so evaluation noise
/// comes only from training randomness.
pub const EVAL_SAMPLING_SEED: u64 = 0xE7A1;

/// WIDEN configuration for a harness scale: §4.4's unified setting
/// ([`WidenConfig::paper`]) at `Table`, and a small CPU budget at `Smoke`.
pub fn table_widen_config(scale: RunScale) -> WidenConfig {
    match scale {
        RunScale::Smoke => {
            let mut c = WidenConfig::small();
            c.n_w = 16;
            c.n_d = 12;
            c.phi = 4;
            c.epochs = 30;
            c.weight_decay = 0.01;
            c
        }
        RunScale::Table => WidenConfig::paper(),
    }
}

/// Baseline configuration matched to the WIDEN budget of the same scale.
pub fn table_baseline_config(scale: RunScale) -> BaselineConfig {
    let widen = table_widen_config(scale);
    BaselineConfig {
        hidden: widen.d,
        learning_rate: 1e-2,
        weight_decay: 1e-4,
        epochs: widen.epochs,
        sample_size: widen.n_w.max(5),
        batch_size: 64,
        seed: 0,
    }
}

/// Trains WIDEN transductively on `train` and returns test micro-F1.
pub fn run_widen_transductive(
    dataset: &Dataset,
    config: WidenConfig,
    train: &[NodeId],
    test: &[NodeId],
) -> f64 {
    let model = WidenModel::for_graph(&dataset.graph, config);
    let mut trainer = Trainer::new(model, &dataset.graph, train);
    trainer.fit(train);
    let model = trainer.into_model();
    score_widen(&model, dataset, test)
}

/// Trains WIDEN on the reduced graph (held-out nodes removed) and scores
/// the held-out nodes on the full graph — the paper's inductive protocol.
pub fn run_widen_inductive(dataset: &Dataset, config: WidenConfig) -> f64 {
    let reduced = dataset.graph.without_nodes(&dataset.inductive.test);
    let train_new: Vec<NodeId> = dataset
        .inductive
        .train
        .iter()
        .filter_map(|&v| reduced.mapping.to_new(v))
        .collect();
    let model = WidenModel::for_graph(&reduced.graph, config);
    let mut trainer = Trainer::new(model, &reduced.graph, &train_new);
    trainer.fit(&train_new);
    let model = trainer.into_model();
    score_widen(&model, dataset, &dataset.inductive.test)
}

fn score_widen(model: &WidenModel, dataset: &Dataset, test: &[NodeId]) -> f64 {
    // Logit averaging over 3 sampled neighbourhoods: the standard
    // variance-reduction step for sampling-based GNN inference.
    let preds = model.predict_ensemble(&dataset.graph, test, EVAL_SAMPLING_SEED, 3);
    let truth: Vec<usize> = test
        .iter()
        .map(|&v| dataset.graph.label(v).expect("labelled test node") as usize)
        .collect();
    micro_f1(&truth, &preds)
}

/// Fits a baseline transductively and returns test micro-F1.
pub fn run_baseline_transductive(
    model: &mut dyn NodeClassifier,
    dataset: &Dataset,
    train: &[NodeId],
    test: &[NodeId],
) -> f64 {
    model.fit(&dataset.graph, train);
    let preds = model.predict(&dataset.graph, test);
    let truth: Vec<usize> = test
        .iter()
        .map(|&v| dataset.graph.label(v).expect("labelled test node") as usize)
        .collect();
    micro_f1(&truth, &preds)
}

/// Fits a baseline on the reduced graph and scores the held-out nodes on
/// the full graph (§4.6's protocol for methods that support it).
pub fn run_baseline_inductive(model: &mut dyn NodeClassifier, dataset: &Dataset) -> f64 {
    assert!(model.supports_inductive(), "method is transductive-only");
    let reduced = dataset.graph.without_nodes(&dataset.inductive.test);
    let train_new: Vec<NodeId> = dataset
        .inductive
        .train
        .iter()
        .filter_map(|&v| reduced.mapping.to_new(v))
        .collect();
    model.fit(&reduced.graph, &train_new);
    let preds = model.predict(&dataset.graph, &dataset.inductive.test);
    let truth: Vec<usize> = dataset
        .inductive
        .test
        .iter()
        .map(|&v| dataset.graph.label(v).expect("labelled test node") as usize)
        .collect();
    micro_f1(&truth, &preds)
}

/// All three datasets at a scale with the given seed.
pub fn datasets(scale: RunScale, seed: u64) -> Vec<Dataset> {
    let s = scale.data_scale();
    vec![
        widen_data::acm_like(s, seed),
        widen_data::dblp_like(s, seed),
        widen_data::yelp_like(s, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use widen_data::{acm_like, Scale};

    #[test]
    fn table_config_scales() {
        let smoke = table_widen_config(RunScale::Smoke);
        let table = table_widen_config(RunScale::Table);
        assert!(table.d > smoke.d);
        table.validate();
        smoke.validate();
        let b = table_baseline_config(RunScale::Table);
        assert_eq!(b.hidden, table.d);
    }

    #[test]
    fn table_scale_is_the_papers_config() {
        assert_eq!(
            format!("{:?}", table_widen_config(RunScale::Table)),
            format!("{:?}", WidenConfig::paper())
        );
    }

    #[test]
    fn transductive_runner_beats_chance() {
        let d = acm_like(Scale::Smoke, 1);
        let f1 = run_widen_transductive(
            &d,
            table_widen_config(RunScale::Smoke),
            &d.transductive.train,
            &d.transductive.test,
        );
        assert!(f1 > 0.5, "WIDEN transductive F1 = {f1}");
    }

    #[test]
    fn inductive_runner_beats_chance() {
        let d = acm_like(Scale::Smoke, 2);
        let f1 = run_widen_inductive(&d, table_widen_config(RunScale::Smoke));
        assert!(f1 > 0.5, "WIDEN inductive F1 = {f1}");
    }
}
