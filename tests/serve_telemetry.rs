//! Contracts of the serve observability layer: the `Telemetry` wire op
//! returns a merged SLO view with interpolated percentiles, anomalies
//! (shed, deadline drop) freeze the flight-recorder window into a
//! parseable JSONL post-mortem that contains the anomalous request's
//! timeline, and the open-connection gauge returns to zero after
//! arbitrary connection churn across every close path.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::obs::json::{self, JsonValue};
use widen::serve::{Client, ClientError, ModelRegistry, ServeConfig, ServeError, Server};

fn tiny_config() -> WidenConfig {
    let mut c = WidenConfig::small();
    c.d = 8;
    c.n_w = 4;
    c.n_d = 4;
    c.phi = 1;
    c
}

struct Fixture {
    model: WidenModel,
    graph: widen::graph::HeteroGraph,
}

fn fixture(seed: u64) -> Fixture {
    let dataset = acm_like(Scale::Smoke, seed);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    Fixture {
        model,
        graph: dataset.graph,
    }
}

fn registry_for(fx: &Fixture) -> ModelRegistry {
    let checkpoint = fx.model.save_weights();
    ModelRegistry::from_checkpoint(fx.graph.clone(), tiny_config(), &checkpoint)
        .expect("checkpoint loads")
}

/// Every dump line parses as one JSON object carrying, with the right
/// types, the fields a post-mortem reader keys on.
fn assert_parseable_jsonl(dump: &str) {
    assert!(!dump.is_empty(), "dump must not be empty");
    for line in dump.lines() {
        let record = match json::parse(line) {
            Ok(JsonValue::Object(fields)) => fields,
            other => panic!("not a JSON object line ({other:?}): {line}"),
        };
        let get = |key: &str| record.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        for field in ["seq", "id", "total_us"] {
            assert!(
                matches!(get(field), Some(JsonValue::Num(n)) if *n >= 0.0),
                "missing numeric {field} in {line}"
            );
        }
        for field in ["kind", "outcome"] {
            assert!(
                matches!(get(field), Some(JsonValue::Str(s)) if !s.is_empty()),
                "missing string {field} in {line}"
            );
        }
        assert!(
            matches!(get("phases"), Some(JsonValue::Array(_))),
            "missing phases array in {line}"
        );
    }
}

#[test]
fn telemetry_op_returns_merged_slo_view() {
    let fx = fixture(81);
    let handle = Server::bind(registry_for(&fx), ServeConfig::default(), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    for seed in 0..4 {
        client.embed(&[0, 1, 2], seed).unwrap();
    }
    let text = client.telemetry().unwrap();

    // Merged view: counters from the server registry, SLO reports for
    // every histogram, including the reactor's request-latency series.
    assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
    assert!(text.contains("\"counters\":"), "{text}");
    assert!(text.contains("\"gauges\":"), "{text}");
    assert!(text.contains("\"slo\":"), "{text}");
    assert!(text.contains("\"serve_requests_total\":"), "{text}");
    assert!(text.contains("\"serve_request_latency_us\":"), "{text}");
    assert!(text.contains("\"serve_reactor_tick_us\":"), "{text}");
    assert!(text.contains("\"serve_queue_wait_us\":"), "{text}");
    assert!(text.contains("\"p50\":"), "{text}");
    assert!(text.contains("\"p99\":"), "{text}");

    // The histogram behind the SLO report saw every request.
    let snap = handle.metrics().snapshot();
    let latency = snap.histogram("serve_request_latency_us").unwrap();
    assert!(latency.count >= 4, "latency count {}", latency.count);
    assert!(latency.quantile(0.99).is_some());
    handle.shutdown();
}

#[test]
fn shed_request_produces_parseable_postmortem_with_its_timeline() {
    let fx = fixture(82);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            // A queue this shallow sheds any multi-node request.
            queue_depth: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    // One successful single-node request seeds the recorder window.
    client.embed(&[0], 7).unwrap();
    let err = client.embed(&[0, 1, 2], 8).unwrap_err();
    assert!(matches!(err, ClientError::Server(ServeError::Overloaded)));

    // The dump is stored just after the response flushes; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let dump = loop {
        if let Some(dump) = handle.postmortem_dump() {
            break dump;
        }
        assert!(Instant::now() < deadline, "no post-mortem dump appeared");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_parseable_jsonl(&dump);
    // The shed request's own timeline is in the window.
    let shed_line = dump
        .lines()
        .find(|l| l.contains("\"outcome\":\"overloaded\""))
        .expect("shed request recorded");
    assert!(shed_line.contains("\"kind\":\"embed\""), "{shed_line}");
    assert!(shed_line.contains("\"nodes\":3"), "{shed_line}");
    // So is the healthy request that preceded it.
    assert!(
        dump.lines().any(|l| l.contains("\"outcome\":\"ok\"")),
        "{dump}"
    );
    let snap = handle.metrics().snapshot();
    let dumps = snap.counter("serve_postmortem_dumps_total").unwrap_or(0);
    assert!(dumps >= 1, "dump counter must be live, saw {dumps}");
    let stats = handle.shutdown();
    assert_eq!(stats.shed, 1);
}

#[test]
fn deadline_dropped_job_dumps_a_timeline_with_lifecycle_phases() {
    let fx = fixture(83);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            // The coalescing window dwarfs the deadline: the job expires
            // in the batcher and is answered `DeadlineExceeded`.
            request_timeout_ms: 1,
            max_wait_us: 200_000,
            max_batch: 64,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.embed(&[0, 1], 9).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server(ServeError::DeadlineExceeded)
    ));

    let deadline = Instant::now() + Duration::from_secs(5);
    let dump = loop {
        if let Some(dump) = handle.postmortem_dump() {
            break dump;
        }
        assert!(Instant::now() < deadline, "no post-mortem dump appeared");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_parseable_jsonl(&dump);
    let line = dump
        .lines()
        .find(|l| l.contains("\"outcome\":\"deadline\""))
        .expect("deadline drop recorded");
    // The batcher stamped the lifecycle up to the drop point.
    assert!(line.contains("\"queue_wait\""), "{line}");
    assert!(line.contains("\"coalesce\""), "{line}");
    handle.shutdown();
}

#[test]
fn zero_capacity_recorder_disables_postmortems() {
    let fx = fixture(84);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            flight_recorder_capacity: 0,
            queue_depth: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.embed(&[0, 1, 2], 8).unwrap_err();
    assert!(matches!(err, ClientError::Server(ServeError::Overloaded)));
    // An anomaly fired but nothing was recorded and nothing dumps.
    std::thread::sleep(Duration::from_millis(50));
    assert!(handle.postmortem_dump().is_none());
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.counter("serve_postmortem_dumps_total"), Some(0));
    handle.shutdown();
}

#[test]
fn open_connection_gauge_returns_to_zero_after_churn() {
    let fx = fixture(85);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            max_connections: 8,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.local_addr();

    // Path 1: well-behaved clients that request and disconnect cleanly.
    for round in 0..3 {
        let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.embed(&[i as u32], round * 10 + i as u64).unwrap();
        }
        drop(clients);
    }
    // Path 2: peers that die abruptly mid-frame (partial bytes, no FIN
    // handshake beyond the close).
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[7, 0, 0, 0, b'W']).unwrap();
        drop(s);
    }
    // Path 3: protocol offenders answered once and closed by the server.
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[4, 0, 0, 0, b'X', b'X', b'X', b'X']).unwrap();
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut s, &mut buf);
    }
    // Let the abrupt closers fully deregister before filling the cap, so
    // the admission phase below is deterministic.
    wait_for_open(&handle, 0);

    // Path 4: connections beyond the admission cap (rejected, closed by
    // the server, never registered).
    let held: Vec<Client> = (0..8).map(|_| Client::connect(addr).unwrap()).collect();
    wait_for_open(&handle, 8);
    for _ in 0..3 {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut s, &mut buf);
    }
    drop(held);

    // Every close path funnels through the same bookkeeping: the gauge
    // must land exactly on zero once the dust settles.
    wait_for_open(&handle, 0);
    let stats = handle.shutdown();
    // At least the three deliberate over-cap connects; earlier churn may
    // transiently brush the cap too (a poll tick dispatches new accepts
    // before the same tick's EOF events), which only adds rejections.
    assert!(
        stats.conns_rejected >= 3,
        "expected ≥ 3 rejections, saw {}",
        stats.conns_rejected
    );
}

/// Polls the open-connection gauge until it reaches `want` (the reactor
/// deregisters asynchronously) or a generous deadline passes.
fn wait_for_open(handle: &widen::serve::ServerHandle, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = handle
            .metrics()
            .snapshot()
            .gauge("serve_open_connections")
            .unwrap_or(0);
        if open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gauge stuck at {open}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
