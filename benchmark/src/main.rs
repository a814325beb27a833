//! The WIDEN benchmark: four workloads, four end-to-end metrics, and a
//! traced run that reads every layer — all through the public API of the
//! crates under test. See `README.md` for what each number means.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark agree [--runs N]
//! benchmark spec
//! benchmark setup --workload <name> --seed <n>      (a run's own helper)
//! benchmark checkpoint --seed <n>                   (a set-up's own helper)
//! ```

mod probes;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use spec::Metric;

/// Metric values by name. `print` walks the spec table, so a value the
/// table does not list, or a listed one that is missing, is a bug that
/// stops the run rather than a silently renamed metric.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Takes from `other` the metrics this set does not hold yet.
    fn fill_from(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.0.entry(name).or_insert(value);
        }
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Human-readable lines printed above the result (ungated diagnostics).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds the `(attempted, failed)` units of a probe; a failed unit
    /// anywhere makes the run incorrect.
    fn absorb(&mut self, (attempted, failed): (usize, usize)) {
        self.attempted += attempted;
        self.failed += failed;
        self.correct &= failed == 0;
    }
}

struct Args(Vec<String>);

impl Args {
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.value(flag)?.ok_or_else(|| format!("missing {flag}"))
    }
}

fn is_train(workload: &str) -> bool {
    workload.starts_with("train_")
}

/// Fresh processes that repeat a run's set-up after its timed phase.
const SETUP_REPEATS: usize = 3;

/// `benchmark setup`: one set-up of `workload` in this process, from its
/// start to the moment the first timed unit could begin; prints the
/// seconds that took.
fn setup_only(args: &Args, started: Instant) -> Result<(), String> {
    let workload: String = args.required("--workload")?;
    let seed: u64 = args.required("--seed")?;
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    sys::confine_to_one_cpu();
    let setup_s = if is_train(&workload) {
        train::setup(seed, train::variant_of(&workload));
        started.elapsed().as_secs_f64()
    } else {
        let fixture = serve::setup(serve::Kind::of(&workload), seed);
        let setup_s = started.elapsed().as_secs_f64();
        fixture.shutdown();
        setup_s
    };
    println!("{setup_s}");
    Ok(())
}

/// The set-up times of a run whose own set-up took `own_s`: that, and
/// `SETUP_REPEATS` more, each in a fresh process (`benchmark setup`) so
/// that each pays everything a starting process pays. `setup_s` is the
/// quietest; a single sample follows the host — medians of ten runs, a
/// quarter of an hour apart, differed by 0.42 (README.md).
pub fn setup_samples(workload: &str, seed: u64, own_s: f64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut samples = vec![own_s];
    for _ in 0..SETUP_REPEATS {
        let out = Command::new(&exe)
            .args(["setup", "--workload", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn the set-up repeat");
        let printed = String::from_utf8_lossy(&out.stdout);
        samples.push(
            printed
                .trim()
                .parse()
                .expect("the repeat prints its seconds"),
        );
    }
    samples
}

/// The traced run: every workload reads every layer. Its own phases come
/// first, at full length and in the state the untraced run measures them
/// in (a serving workload's checkpoint is fitted in a child, so the server
/// starts on a fresh heap); the other layers follow by a short probe — a
/// 4-epoch profiled fit for the training layers, a 4 s `serve_hot_rw`
/// session for the serving ones — and only fill in what is still missing.
/// Last, every layer once more in isolation by the direct-call probes.
fn traced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut metrics = Metrics::default();
    let mut other_layers = Metrics::default();
    let mut spans = trace::Spans::default();

    let (ds, checkpoint, mut outcome) = if is_train(workload) {
        let (ds, checkpoint, mut outcome) = train::traced(workload, seed, &mut metrics, &mut spans);
        outcome.absorb(serve::probe(
            seed,
            &ds.graph,
            &checkpoint,
            &mut other_layers,
        ));
        (ds, checkpoint, outcome)
    } else {
        let ds = train::dataset(seed);
        let checkpoint = serve::fit_checkpoint_in_child(seed);
        let mut outcome = serve::traced(
            workload,
            seed,
            seconds,
            &ds.graph,
            &checkpoint,
            &mut metrics,
            &mut spans,
        );
        let fit = train::config(seed, widen_core::Variant::full(), train::WARMUP_EPOCHS);
        let mut unused = trace::Spans::default();
        train::traced_round(&ds, fit, &mut other_layers, &mut unused);
        if serve::Kind::of(workload) == serve::Kind::Cold {
            outcome.absorb(serve::probe(
                seed,
                &ds.graph,
                &checkpoint,
                &mut other_layers,
            ));
        }
        (ds, checkpoint, outcome)
    };
    metrics.fill_from(other_layers);

    let notes = probes::run(&ds, seed, &checkpoint, &mut metrics);
    match spans.write(workload, seed, &notes) {
        Ok(path) => outcome
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => outcome.notes.push(format!("span file not written: {e}")),
    }
    outcome.metrics = metrics;
    outcome
}

/// Prints the notes, every metric by name with its unit, and — as the
/// last line — the result object the driver reads.
fn print(outcome: &Outcome, listed: &[Metric]) -> Result<(), String> {
    if let Some(stray) = outcome
        .metrics
        .0
        .keys()
        .find(|k| !listed.iter().any(|m| m.name == k.as_str()))
    {
        return Err(format!("metric {stray} is not in the spec table"));
    }
    let mut fields = Vec::with_capacity(listed.len());
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in listed {
        let value = outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        println!("{:<44} {value:>16.6} {}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let workload: String = args.required("--workload")?;
    let seed: u64 = args.required("--seed")?;
    let seconds: u64 = args.required("--seconds")?;
    let trace: u8 = args.required("--trace")?;
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    // One CPU for the whole run, server threads and the checkpoint child
    // included: the machine the repo targets (its rayon stand-in runs
    // sequentially), the same chunking whatever the host's CPU count
    // (`available_parallelism` reads 1), and no wake-ups across vCPUs,
    // which made `serve_hot_rw` follow the host (README.md).
    let cpu = sys::confine_to_one_cpu();
    let (mut outcome, listed) = match (trace, is_train(&workload)) {
        (0, true) => (
            train::run(&workload, seed, seconds, started),
            spec::END_TO_END,
        ),
        (0, false) => (
            serve::run(&workload, seed, seconds, started),
            spec::END_TO_END,
        ),
        _ => (traced(&workload, seed, seconds), spec::PER_LAYER),
    };
    outcome.notes.push(match cpu {
        Some(cpu) => format!("confined to CPU {cpu}"),
        None => "NOT confined to one CPU".to_string(),
    });
    print(&outcome, listed)
}

/// Runs this executable's `run` once and reads the end-to-end metrics off
/// the last line it prints.
fn child_run(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &spec::RUN_SECONDS.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    if !out.status.success()
        || !last.contains("\"correct\": true")
        || !last.contains("\"failed\": 0,")
    {
        return Err(format!("{workload} seed {seed}: {} / {last}", out.status));
    }
    spec::END_TO_END
        .iter()
        .map(|m| {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            let rest = &last[last.find(&key).ok_or("metric missing")? + key.len()..];
            rest[..rest.find(',').ok_or("value unterminated")?]
                .parse::<f64>()
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Two interleaved sets of runs of the same code (A1 B1 A2 B2 …, so
/// minute-scale host drift hits both). Pair `i` runs seed `i` twice, so a
/// metric that is exact per seed compares exactly, and the seeds differ
/// within a set, as in the acceptance check. Fails when a pair of medians
/// differs by more than the metric's bound, and prints each set's
/// quartile spread — the acceptance check's two tests.
fn agree(args: &Args) -> Result<(), String> {
    let runs: usize = args.value("--runs")?.unwrap_or(5);
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let mut disagreements = 0;
    for w in spec::WORKLOADS {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for seed in 1..=runs as u64 {
            a.push(child_run(w.name, seed)?);
            b.push(child_run(w.name, seed)?);
            eprintln!("{}: pair {seed} of {runs} done", w.name);
        }
        for (k, m) in spec::END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let column = |set: &[Vec<f64>]| set.iter().map(|run| run[k]).collect::<Vec<_>>();
            let (qa, qb) = (
                stats::python_quartiles(&column(&a)),
                stats::python_quartiles(&column(&b)),
            );
            println!(
                "# {} {} A {:?} B {:?}",
                w.name,
                m.name,
                column(&a),
                column(&b)
            );
            let worse = m.better.worsening(qa.1, qb.1).abs();
            let verdict = if worse > bound {
                disagreements += 1;
                "DISAGREE"
            } else {
                "ok"
            };
            println!(
                "{:<13} {:<12} A {:>11.4} [{:.4} {:.4}] spread {:.4} | B {:>11.4} [{:.4} {:.4}] spread {:.4} | medians differ {:.4} of bound {bound} {verdict}",
                w.name, m.name,
                qa.1, qa.0, qa.2, (qa.2 - qa.0) / qa.1,
                qb.1, qb.0, qb.2, (qb.2 - qb.0) / qb.1,
                worse,
            );
            std::io::stdout().flush().map_err(|e| e.to_string())?;
        }
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} pairs of medians differ by more than their bound"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("run") => run(&args, started),
        Some("agree") => agree(&args),
        Some("setup") => setup_only(&args, started),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        // The serving fixture's checkpoint fit, run as a child so its
        // working set stays out of the parent's peak RSS and heap.
        Some("checkpoint") => args.required("--seed").and_then(|seed| {
            std::io::stdout()
                .write_all(&serve::fit_checkpoint(seed))
                .map_err(|e| e.to_string())
        }),
        _ => Err("usage: benchmark run|agree|spec (see README.md)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
