//! Contracts of the event-driven serve front end: pipelined out-of-order
//! completion is bit-identical to sequential calls, admission control and
//! queue shedding answer typed `Overloaded` frames, a slow-loris peer cannot
//! starve its neighbours, and shutdown never depends on connecting to the
//! server's own address. (The idle-connection soak, which counts the
//! process's threads, has a test binary to itself: `serve_soak.rs`.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::serve::protocol::{decode_response, encode_request, FrameReader, Request, Response};
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

#[test]
fn pipelined_out_of_order_receive_is_bit_identical_to_sequential() {
    const REQUESTS: usize = 6;
    const ROUNDS: u32 = 2;

    let fx = fixture(80);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            max_batch: 16,
            max_wait_us: 2_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    // Oracle: the serial model answers for every request.
    let mut want_rows = Vec::new();
    let mut want_labels = Vec::new();
    for r in 0..REQUESTS {
        let nodes: Vec<u32> = (r as u32 * 3..r as u32 * 3 + 5).collect();
        let seed = 500 + r as u64;
        let emb = fx.model.embed_nodes(&fx.graph, &nodes, seed);
        want_rows.push(
            (0..nodes.len())
                .map(|i| emb.row(i).to_vec())
                .collect::<Vec<_>>(),
        );
        want_labels.push(
            fx.model
                .predict_ensemble(&fx.graph, &nodes, seed, ROUNDS as usize)
                .into_iter()
                .map(|l| l as u32)
                .collect::<Vec<u32>>(),
        );
    }

    // Pipeline everything on one socket, then receive in *reverse* order:
    // every response must still land on its own request, bit-identical to
    // the oracle, no matter in which order the server's batches finished.
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut embed_ids = Vec::new();
    let mut classify_ids = Vec::new();
    for r in 0..REQUESTS {
        let nodes: Vec<u32> = (r as u32 * 3..r as u32 * 3 + 5).collect();
        let seed = 500 + r as u64;
        embed_ids.push(client.send_embed(&nodes, seed).expect("send embed"));
        classify_ids.push(
            client
                .send_classify(&nodes, seed, ROUNDS)
                .expect("send classify"),
        );
    }
    for r in (0..REQUESTS).rev() {
        let labels = client
            .recv_classify(classify_ids[r])
            .expect("recv classify");
        assert_eq!(labels, want_labels[r], "request {r}: labels diverged");
        let rows = client.recv_embed(embed_ids[r]).expect("recv embed");
        for (got, want) in rows.iter().zip(&want_rows[r]) {
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "request {r}: rows not bit-identical");
        }
    }

    let stats = handle.shutdown();
    assert_eq!(stats.requests, (REQUESTS * 2) as u64);
    assert_eq!(stats.shed, 0);
}

#[test]
fn admission_cap_rejects_extra_connections_with_overloaded() {
    let fx = fixture(81);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    // First connection is admitted and served.
    let mut admitted = Client::connect(handle.local_addr()).expect("connect");
    admitted.embed(&[0, 1], 7).expect("admitted client served");

    // Second connection is over the cap: accepted, told Overloaded (wire
    // id 0 — no request was ever read), closed.
    let mut rejected = Client::connect(handle.local_addr()).expect("connect");
    match rejected.embed(&[0, 1], 7) {
        Err(ClientError::Server(ServeError::Overloaded)) => {}
        other => panic!("expected Overloaded rejection, got {other:?}"),
    }

    // The admitted connection keeps working afterwards.
    admitted.embed(&[2, 3], 7).expect("still served");

    let stats = handle.shutdown();
    assert_eq!(stats.conns_rejected, 1, "exactly one admission rejection");
    assert_eq!(stats.shed, 0, "admission is not queue shedding");
}

#[test]
fn queue_overflow_sheds_before_enqueue_with_typed_overloaded() {
    let fx = fixture(82);
    let handle = Server::bind(
        registry_for(&fx),
        ServeConfig {
            queue_depth: 8,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    // Jobs enqueued and not yet pulled: every job of an answered request
    // has been pulled, so between requests the live count reads 0.
    let queued = || handle.metrics().snapshot().gauge("serve_queue_depth");
    let shed = |client: &mut Client, nodes: &[u32]| match client.embed(nodes, 3) {
        Err(ClientError::Server(ServeError::Overloaded)) => {}
        other => panic!("expected shed, got {other:?}"),
    };

    // The admission boundary: on an idle server a request of exactly the
    // queue's depth is served, one node more is shed whole.
    let full: Vec<u32> = (0..8).collect();
    client
        .embed(&full, 3)
        .expect("an 8-node embed fits an idle 8-deep queue");
    assert_eq!(queued(), Some(0));
    let jobs = handle.stats().jobs;
    assert_eq!(jobs, 8);
    let over: Vec<u32> = (0..9).collect();
    shed(&mut client, &over);
    assert_eq!(
        handle.stats().jobs,
        jobs,
        "no job of a shed request enqueues"
    );
    assert_eq!(queued(), Some(0));

    // 64 jobs can never fit an 8-deep queue: shed deterministically,
    // before any job enqueues (no partial work, no deadline wait).
    let nodes: Vec<u32> = (0..8).cycle().take(64).collect();
    let started = Instant::now();
    shed(&mut client, &nodes);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shedding must answer immediately, not ride out the deadline"
    );
    assert_eq!(queued(), Some(0));

    // A request that fits is served on the same connection right after,
    // and so is a full one again: a leaked count would shed it.
    client.embed(&[0, 1, 2], 3).expect("small request served");
    assert_eq!(queued(), Some(0));
    client
        .embed(&full, 3)
        .expect("the queue's depth is served again");
    assert_eq!(queued(), Some(0));

    let stats = handle.shutdown();
    assert_eq!(stats.shed, 2, "shed counter must record both rejections");
    assert_eq!(
        stats.jobs, 19,
        "no job of a shed request may reach the batcher"
    );
}

#[test]
fn slow_loris_partial_frames_do_not_starve_other_connections() {
    let fx = fixture(84);
    let handle = Server::bind(registry_for(&fx), ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // The loris: a valid embed frame dribbled a few bytes at a time with
    // long pauses. It holds its connection mid-frame the whole time.
    let frame = encode_request(&Request::Embed {
        id: 77,
        seed: 5,
        nodes: vec![1, 2, 3],
    });
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(&frame[..7]).expect("partial write");

    // While the loris stalls, a well-behaved client gets prompt answers.
    let mut client = Client::connect(addr).expect("connect");
    let want = fx.model.embed_nodes(&fx.graph, &[10, 11], 6);
    for _ in 0..5 {
        let started = Instant::now();
        let rows = client.embed(&[10, 11], 6).expect("served despite loris");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "victim request stalled behind a slow-loris peer"
        );
        assert_eq!(
            rows[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // The loris eventually completes its frame and is served too — a slow
    // peer is deprioritised, never disconnected or corrupted.
    loris.write_all(&frame[7..]).expect("rest of frame");
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    let body = loop {
        if let Some(body) = reader.next_frame().expect("clean frame") {
            break body;
        }
        let n = loris.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed the loris before answering");
        reader.push(&buf[..n]);
    };
    match decode_response(&body).expect("decodes") {
        Response::Embeddings { id, .. } => assert_eq!(id, 77),
        other => panic!("expected embeddings, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn shutdown_with_idle_connections_is_prompt_and_needs_no_self_connect() {
    let fx = fixture(85);
    let handle = Server::bind(registry_for(&fx), ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // A mix of idle raw connections and one that completed a request.
    let idle: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    client.embed(&[0], 4).expect("served");

    // Shutdown is driven by the self-pipe wake token, not by connecting
    // to our own listening address, so it must complete promptly even
    // with nothing else touching the socket.
    let started = Instant::now();
    let stats = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not hang waiting for a wake"
    );
    assert_eq!(stats.requests, 1);
    drop(idle);
}
