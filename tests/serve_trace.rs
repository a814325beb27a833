//! End-to-end trace propagation through the serve path: a traced request
//! must come back with a structurally sound server-side span summary
//! (root request span first, children nested inside it) drawn from the
//! same lifecycle stamps as its flight record, old-style untraced clients
//! must keep working against the same server, and a slow request must
//! land in the configured post-mortem as a flight record tagged `slow`,
//! counted once.

use std::path::{Path, PathBuf};

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::obs::json::{self, JsonValue};
use widen::serve::{Client, ModelRegistry, ServeConfig, Server, SpanSummary, WireSpan};

fn registry(seed: u64) -> ModelRegistry {
    let dataset = acm_like(Scale::Smoke, seed);
    let mut cfg = WidenConfig::small();
    cfg.d = 8;
    cfg.n_w = 4;
    cfg.n_d = 4;
    cfg.phi = 1;
    let model = WidenModel::for_graph(&dataset.graph, cfg);
    ModelRegistry::from_model(dataset.graph, model)
}

#[test]
fn traced_request_returns_nested_span_summary() {
    let handle = Server::bind(registry(11), ServeConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_tracing(true);

    // Single-node request: its pipeline spans (queue-wait → coalesce →
    // forward) are sequential, so they must fit inside the request span
    // both individually and summed.
    let rows = client.embed(&[3], 7).expect("traced embed");
    assert_eq!(rows.len(), 1);
    let summary = client.last_trace().expect("span summary returned").clone();

    let root = &summary.spans[0];
    assert_eq!(root.name, "serve.server.request");
    assert_eq!(root.parent, WireSpan::ROOT);
    assert_eq!(root.start_ns, 0);

    let children = &summary.spans[1..];
    let names: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"serve.batcher.queue_wait"),
        "missing queue-wait span in {names:?}"
    );
    assert!(
        names.contains(&"serve.batcher.forward_batch"),
        "missing forward span in {names:?}"
    );
    for child in children {
        assert_eq!(child.parent, 0, "children parent to the request root");
        assert!(
            child.start_ns + child.dur_ns <= root.dur_ns,
            "child {} [{}..{}] escapes the request span (dur {})",
            child.name,
            child.start_ns,
            child.start_ns + child.dur_ns,
            root.dur_ns
        );
    }
    let child_sum: u64 = children.iter().map(|s| s.dur_ns).sum();
    assert!(
        child_sum <= root.dur_ns,
        "sequential children ({child_sum}ns) exceed the request span ({}ns)",
        root.dur_ns
    );

    // A second traced call replaces the summary with a fresh trace id.
    let first_trace = summary.trace_id;
    client.classify(&[1, 2], 7, 2).expect("traced classify");
    let second = client.last_trace().expect("second summary");
    assert_ne!(second.trace_id, first_trace, "fresh trace id per request");

    // Tracing off again: no stale summary lingers.
    client.set_tracing(false);
    client.embed(&[3], 7).expect("untraced embed");
    assert!(client.last_trace().is_none());
    handle.shutdown();
}

#[test]
fn untraced_clients_interoperate_with_a_tracing_server() {
    let handle = Server::bind(registry(13), ServeConfig::default(), "127.0.0.1:0").expect("bind");

    // Plain version-1 client traffic against the same server, answers
    // bit-identical to the serial engine regardless of tracing support.
    let mut plain = Client::connect(handle.local_addr()).expect("connect plain");
    let rows = plain.embed(&[0, 4], 9).expect("plain embed");
    assert_eq!(rows.len(), 2);
    assert!(plain.last_trace().is_none());

    // A traced client on another connection does not disturb plain ones.
    let mut traced = Client::connect(handle.local_addr()).expect("connect traced");
    traced.set_tracing(true);
    let traced_rows = traced.embed(&[0, 4], 9).expect("traced embed");
    assert_eq!(rows, traced_rows, "tracing never changes answers");
    assert!(traced.last_trace().is_some());

    let rows_again = plain.embed(&[0, 4], 9).expect("plain embed again");
    assert_eq!(rows, rows_again);
    assert!(plain.last_trace().is_none());
    handle.shutdown();
}

/// A 10 ms coalescing window bounds every uncached embed from below (a
/// few jobs never fill a 32-job batch, so the window runs its full length),
/// which makes a 1 ms slow threshold deterministic.
fn slow_config(postmortem: &Path) -> ServeConfig {
    ServeConfig {
        slow_request_ms: 1,
        cache_capacity: 0,
        max_wait_us: 10_000,
        postmortem_path: Some(postmortem.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("widen_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn slow_requests_land_in_the_configured_log() {
    let dir = temp_dir("slow_postmortem");
    let path = dir.join("postmortem.jsonl");
    let handle = Server::bind(registry(17), slow_config(&path), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.embed(&[0, 1, 2, 3], 5).expect("embed");
    handle.shutdown();

    // The slow request fired the post-mortem dump: its flight record is in
    // the configured file, tagged `slow`, with the batcher's lifecycle
    // phases and the reactor's write.
    let dump = std::fs::read_to_string(&path).expect("post-mortem written");
    let line = dump
        .lines()
        .find(|l| l.contains("\"outcome\":\"slow\""))
        .unwrap_or_else(|| panic!("no slow record in {dump}"));
    assert!(line.contains("\"kind\":\"embed\""), "{line}");
    assert!(line.contains("\"nodes\":4"), "{line}");
    for phase in ["queue_wait", "coalesce", "forward", "write"] {
        assert!(
            line.contains(&format!("\"name\":\"{phase}\"")),
            "{phase}: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One slow decision: the counter and the flight record read the same
/// `total`, so they cannot disagree near the threshold — and the counter
/// does not depend on the recorder.
#[test]
fn slow_counter_matches_the_slow_flight_records() {
    let dir = temp_dir("slow_count");
    let path = dir.join("postmortem.jsonl");
    let handle = Server::bind(registry(19), slow_config(&path), "127.0.0.1:0").expect("bind");
    let slow = handle.metrics().counter("serve_slow_requests_total");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for seed in 0..6 {
        client.embed(&[0, 1], seed).expect("embed");
    }
    client.telemetry().expect("telemetry");
    handle.shutdown();
    let dump = std::fs::read_to_string(&path).expect("post-mortem written");
    let tagged = dump
        .lines()
        .filter(|l| l.contains("\"outcome\":\"slow\""))
        .count() as u64;
    assert!(tagged >= 6, "every windowed embed is slow: {dump}");
    assert_eq!(slow.get(), tagged);

    // With the recorder off the counter still counts, and nothing dumps.
    let off = dir.join("off.jsonl");
    let config = ServeConfig {
        flight_recorder_capacity: 0,
        ..slow_config(&off)
    };
    let handle = Server::bind(registry(19), config, "127.0.0.1:0").expect("bind");
    let slow = handle.metrics().counter("serve_slow_requests_total");
    let dumps = handle.metrics().counter("serve_postmortem_dumps_total");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.embed(&[0, 1], 1).expect("embed");
    assert!(handle.postmortem_dump().is_none());
    handle.shutdown();
    assert!(slow.get() >= 1);
    assert_eq!(dumps.get(), 0);
    assert!(!off.exists(), "a disabled recorder writes no post-mortem");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The span names of a summary, in order.
fn names(summary: &SpanSummary) -> Vec<&str> {
    summary.spans.iter().map(|s| s.name.as_str()).collect()
}

/// A field of a parsed JSON object.
fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    match value {
        JsonValue::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key} in {value:?}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn num(value: &JsonValue) -> u64 {
    match value {
        JsonValue::Num(n) => *n as u64,
        other => panic!("not a number: {other:?}"),
    }
}

/// One timeline: every traced request's wire summary is its flight
/// record, in nanoseconds — the root from the latency histogram's origin,
/// then the finishing slot's queue wait, coalesce and forward, the very
/// intervals the record's phases hold in microseconds.
#[test]
fn wire_spans_are_the_flight_record_phases() {
    let dir = temp_dir("one_timeline");
    let path = dir.join("postmortem.jsonl");
    let handle = Server::bind(registry(23), slow_config(&path), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_tracing(true);
    let nodes: Vec<u32> = (0..8).collect();
    let mut traced = Vec::new();
    for seed in 0..4 {
        let id = client.send_embed(&nodes, seed).expect("send");
        assert_eq!(client.recv_embed(id).expect("traced embed").len(), 8);
        traced.push((id, client.last_trace().expect("span summary").clone()));
    }
    handle.shutdown();

    // Every request is slow under `slow_config`, so the last dump holds
    // all of their records.
    let dump = std::fs::read_to_string(&path).expect("post-mortem written");
    let records: Vec<JsonValue> = dump
        .lines()
        .map(|line| json::parse(line).expect("record parses"))
        .collect();
    for (id, summary) in &traced {
        assert_eq!(
            names(summary),
            [
                "serve.server.request",
                "serve.batcher.queue_wait",
                "serve.batcher.coalesce",
                "serve.batcher.forward_batch",
            ]
        );
        let (root, children) = (&summary.spans[0], &summary.spans[1..]);
        assert_eq!((root.parent, root.start_ns), (WireSpan::ROOT, 0));
        let mut end = 0;
        for child in children {
            assert_eq!(child.parent, 0);
            assert!(
                child.start_ns >= end,
                "{} overlaps its predecessor",
                child.name
            );
            end = child.start_ns + child.dur_ns;
        }
        assert!(end <= root.dur_ns, "children escape the request span");

        let record = records
            .iter()
            .find(|r| num(field(r, "id")) == *id)
            .unwrap_or_else(|| panic!("no flight record for request {id} in {dump}"));
        let JsonValue::Array(phases) = field(record, "phases") else {
            panic!("phases is not an array: {record:?}");
        };
        for (span, phase) in children.iter().zip(["queue_wait", "coalesce", "forward"]) {
            let stamp = phases
                .iter()
                .find(|p| matches!(field(p, "name"), JsonValue::Str(n) if n == phase))
                .unwrap_or_else(|| panic!("no {phase} phase in {record:?}"));
            assert_eq!(
                span.start_ns / 1000,
                num(field(stamp, "start_us")),
                "{phase}"
            );
            assert_eq!(span.dur_ns / 1000, num(field(stamp, "dur_us")), "{phase}");
        }
        assert!(root.dur_ns <= num(field(record, "total_us")) * 1000 + 999);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request whose every key hits the cache never ran the model: its
/// timeline is the finishing slot's queue wait and coalesce, nothing more.
#[test]
fn an_all_hit_request_traces_root_queue_wait_and_coalesce() {
    let handle = Server::bind(registry(29), ServeConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_tracing(true);
    let nodes: Vec<u32> = (0..8).collect();
    let cold = client.embed(&nodes, 5).expect("cold embed");
    let cold_trace = client.last_trace().expect("cold summary");
    assert_eq!(
        names(cold_trace).last(),
        Some(&"serve.batcher.forward_batch")
    );
    let hits = handle.stats().cache_hits;
    let warm = client.embed(&nodes, 5).expect("warm embed");
    assert_eq!(cold, warm);
    assert_eq!(handle.stats().cache_hits, hits + 8, "every key hits");
    assert_eq!(
        names(client.last_trace().expect("warm summary")),
        [
            "serve.server.request",
            "serve.batcher.queue_wait",
            "serve.batcher.coalesce",
        ]
    );
    handle.shutdown();
}

/// Requests no window answers — an empty node list and `Telemetry`
/// (answered by the reactor), a bad node and an `Ingest` (answered by the
/// batcher outside a window) — carry the request root alone, from the
/// histogram's origin.
#[test]
fn inline_answers_carry_a_root_only_summary() {
    let handle = Server::bind(registry(31), ServeConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_tracing(true);
    let root_only = |client: &Client, what: &str| {
        let summary = client.last_trace().expect(what);
        assert_eq!(names(summary), ["serve.server.request"], "{what}");
        assert_eq!(summary.spans[0].start_ns, 0, "{what}");
    };
    assert!(client.embed(&[u32::MAX], 1).is_err());
    root_only(&client, "bad node");
    assert!(client.embed(&[], 1).expect("empty embed").is_empty());
    root_only(&client, "empty node list");
    client.telemetry().expect("telemetry");
    root_only(&client, "telemetry");
    let feat_dim = acm_like(Scale::Smoke, 31).graph.feature_dim();
    client
        .ingest(0, &vec![0.25; feat_dim], None, &[(0, 0), (1, 0)], 3)
        .expect("ingest");
    root_only(&client, "ingest");
    handle.shutdown();
}
