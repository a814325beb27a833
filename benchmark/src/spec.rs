//! The one table of workload names, reasons, metric names, units,
//! directions and bounds. `BENCHMARK.json` is generated from it
//! (`benchmark spec`), a test fails when the committed file differs, and
//! `run` refuses to print a metric the table does not list — so the names
//! later issues cite cannot drift.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Relative worsening from `base` to `new`, positive when worse.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; end-to-end only.
    pub bound: Option<f64>,
}

/// What the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub const PATHS: &[&str] = &["benchmark"];

/// Length of a run's timed phase: serving runs its closed loop this long;
/// training runs one round per four of these seconds (five rounds, never
/// fewer than three).
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train_prune",
        why: "Paper schedule (Z=30, full variant): the only workload where active downsampling (Eq. 9 KL trigger, relay edges, ragged pruned spans) does work; Fig. 4's claim lives here.",
    },
    Workload {
        name: "train_dense",
        why: "Same fit with downsampling off: tensor kernels, tape, backward and Adam do all the work and downsample none, so a pruning change must not move it and a GEMM/tape/pool change moves both.",
    },
    Workload {
        name: "serve_cold",
        why: "Closed loop, 4 in flight, every key unique (zero cache hits): sampling, packaging, forward_batch and the per-batch tape do the work; cache, dedup and reactor almost none.",
    },
    Workload {
        name: "serve_hot_rw",
        why: "128 hot keys answered by reactor + protocol + cache with the model idle, plus one Ingest per second that invalidates every key and forces a refill: the serve layers with writes beside reads.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// A bound is three times the widest quartile spread ten runs of one
/// binary showed on the measuring box, over all four workloads (README.md,
/// "How steady it is"): 0.08 for the times, 0.05 for `peak_rss_mb`. The
/// set-up is timed once per run, spreads 0.30, and carries the ceiling.
/// Medians of ten runs agreed within 0.03 (set-up: 0.07).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("units_per_s", "1/s", Better::Higher, 0.25),
    e2e("unit_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

pub const PER_LAYER: &[Metric] = &[
    lo("sampling.sample_state_us", "us"),
    lo("sampling.packs_per_node", "count"),
    lo("core.packaging.pack_wide_ms", "ms"),
    lo("core.packaging.pack_deep_ms", "ms"),
    lo("core.packaging.pack_deep_pruned_ms", "ms"),
    lo("core.packaging.unique_pack_share", "ratio"),
    lo("core.model.forward_ms", "ms"),
    hi("core.model.embed_rows_per_s_b1", "1/s"),
    hi("core.model.embed_rows_per_s_b8", "1/s"),
    hi("core.model.embed_rows_per_s_b32", "1/s"),
    hi("core.model.micro_f1", "ratio"),
    lo("core.trainer.final_loss", "nats"),
    lo("tensor.tape.loss_ms", "ms"),
    lo("tensor.tape.backward_ms", "ms"),
    lo("tensor.optim.adam_step_ms", "ms"),
    hi("tensor.kernels.gemm_nn_gflops_hot", "GFLOP/s"),
    hi("tensor.kernels.gemm_tn_gflops_hot", "GFLOP/s"),
    lo("tensor.kernels.gemm_computed_mb_hot", "MB"),
    lo("tensor.profile.matmul_share", "ratio"),
    lo("tensor.profile.est_gflop_per_epoch", "GFLOP"),
    hi("tensor.pool.hit_ratio", "ratio"),
    lo("core.downsample.decide_us", "us"),
    lo("core.trainer.forward_share", "ratio"),
    lo("core.trainer.backward_share", "ratio"),
    lo("core.trainer.optim_share", "ratio"),
    lo("core.trainer.downsample_share", "ratio"),
    lo("core.trainer.packaging_share", "ratio"),
    lo("core.trainer.unattributed_share", "ratio"),
    lo("core.trainer.epoch_first_ms", "ms"),
    lo("core.trainer.epoch_last_ms", "ms"),
    hi("core.trainer.wide_drops", "count"),
    hi("core.trainer.deep_drops", "count"),
    hi("core.trainer.relay_edges", "count"),
    lo("core.trainer.neighbor_volume_wide", "count"),
    lo("core.trainer.neighbor_volume_deep", "count"),
    lo("core.trainer.nonfinite_batches", "count"),
    lo("serve.protocol.encode_request_us", "us"),
    lo("serve.protocol.decode_request_us", "us"),
    lo("serve.protocol.encode_response_us", "us"),
    lo("serve.protocol.decode_response_us", "us"),
    lo("serve.reactor.decode_us_p50", "us"),
    lo("serve.reactor.dispatch_us_p50", "us"),
    lo("serve.reactor.write_flush_us_p50", "us"),
    lo("serve.reactor.request_latency_us_p50", "us"),
    lo("serve.batcher.queue_wait_us_p50", "us"),
    lo("serve.batcher.coalesce_us_p50", "us"),
    lo("serve.batcher.forward_us_p50", "us"),
    hi("serve.batcher.mean_batch", "count"),
    hi("serve.batcher.dedup_share", "ratio"),
    lo("serve.client.outside_server_us_p50", "us"),
    hi("serve.cache.hit_ratio", "ratio"),
    lo("serve.cache.get_hit_ns", "ns"),
    lo("serve.cache.get_miss_ns", "ns"),
    lo("serve.cache.insert_ns", "ns"),
    lo("serve.registry.ingest_ms", "ms"),
    lo("serve.registry.ingest_wire_ms_p50", "ms"),
    lo("serve.registry.refill_ms", "ms"),
    lo("serve.registry.misses_per_ingest", "count"),
    lo("graph.add_node_with_edges_us", "us"),
    lo("serve.server.shed", "count"),
    lo("serve.server.deadline_drops", "count"),
    lo("run.unit_ms_p50", "ms"),
    lo("run.unit_ms_p99", "ms"),
    lo("run.noise_ratio", "ratio"),
    lo("run.minor_faults_per_unit", "count"),
    lo("run.sys_cpu_share", "ratio"),
    lo("run.cpu_ms_per_unit", "ms"),
    hi("gen.paced_rate_per_s", "1/s"),
    lo("gen.paced_p50_ms", "ms"),
    lo("gen.paced_p99_ms", "ms"),
    lo("gen.max_lag_ms", "ms"),
    lo("gen.late_share", "ratio"),
    lo("trace.overhead_share", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn metric_rows(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    rows.join(",\n")
}

/// The exact text of `BENCHMARK.json`. No string in the table needs JSON
/// escaping (a test checks that).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted_list(COMMAND),
        quoted_list(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        metric_rows(END_TO_END),
        metric_rows(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        assert!(benchmark_json().len() <= 64 * 1024);

        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(
            names.iter().all(|n| is_name(n)),
            "a name breaks the charset"
        );
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert!(
                !w.why.contains(['"', '\\', '\n']),
                "{}: why needs escaping",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }
}
