//! Integration: the streaming-serve loop. A client ships a node the model
//! has never seen — features, label, typed edges — over the wire and gets
//! its embedding back in one round trip, bit-identical to an offline
//! forward pass on a locally mutated graph. Checkpoint hot-swap flips the
//! serving generation in place and flushes the embedding cache, so a row
//! computed under the old digest is never served again.

use std::io::{Read, Write};
use std::net::TcpStream;

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::graph::{EdgeTypeId, NodeTypeId};
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

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn wire_ingest_matches_offline_forward_bit_for_bit() {
    let dataset = acm_like(Scale::Smoke, 70);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let checkpoint = model.save_weights();
    let registry =
        ModelRegistry::from_checkpoint(dataset.graph.clone(), tiny_config(), &checkpoint)
            .expect("checkpoint loads");

    // Offline oracle: the same two-node arrival applied to a local clone
    // of the graph, embedded with the same frozen weights and seeds. The
    // second arrival attaches to the first — a node that itself did not
    // exist when the server started — which changes the first node's
    // neighbourhood, so its embedding is captured both at ingest time and
    // after the graph grew further.
    let feat_dim = dataset.graph.feature_dim();
    let first_edges = [(0u32, 0u16), (1, 0)];
    let mut oracle_graph = dataset.graph.clone();
    let first_typed: Vec<(u32, EdgeTypeId)> = first_edges
        .iter()
        .map(|&(p, t)| (p, EdgeTypeId(t)))
        .collect();
    let first_id = oracle_graph
        .add_node_with_edges(NodeTypeId(0), vec![0.25; feat_dim], Some(1), &first_typed)
        .expect("valid node");
    let want_first_at_ingest = model.embed_requests(&oracle_graph, &[(first_id, 41)]);
    let second_edges = [(first_id, 0u16), (2, 0)];
    let second_typed: Vec<(u32, EdgeTypeId)> = second_edges
        .iter()
        .map(|&(p, t)| (p, EdgeTypeId(t)))
        .collect();
    let second_id = oracle_graph
        .add_node_with_edges(NodeTypeId(1), vec![-0.5; feat_dim], None, &second_typed)
        .expect("valid node");
    let want_first_final = model.embed_requests(&oracle_graph, &[(first_id, 41)]);
    let want_second = model.embed_requests(&oracle_graph, &[(second_id, 42)]);

    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Embedding a node that does not exist yet is a BadRequest…
    match client.embed(&[first_id], 41) {
        Err(ClientError::Server(_)) => {}
        other => panic!("embedding an absent node must fail, got {other:?}"),
    }

    // …until it arrives over the wire: one round trip returns both the
    // assigned id and the embedding.
    let (got_first, row_first) = client
        .ingest(0, &vec![0.25; feat_dim], Some(1), &first_edges, 41)
        .expect("ingest succeeds");
    assert_eq!(got_first, first_id);
    assert_eq!(bits(&row_first), bits(want_first_at_ingest.row(0)));

    let (got_second, row_second) = client
        .ingest(1, &vec![-0.5; feat_dim], None, &second_edges, 42)
        .expect("chained ingest succeeds");
    assert_eq!(got_second, second_id);
    assert_eq!(bits(&row_second), bits(want_second.row(0)));

    // The second ingest bumped the graph version, so the first node's
    // cached at-ingest row is unreachable: a follow-up Embed recomputes
    // on the *current* graph and must match the post-growth oracle.
    let rows = client.embed(&[first_id], 41).expect("embed now succeeds");
    assert_eq!(bits(&rows[0]), bits(want_first_final.row(0)));

    // The second node's neighbourhood is untouched since its ingest, so
    // its warmed cache row is served as-is and stays bit-identical.
    let rows = client.embed(&[second_id], 42).expect("embed succeeds");
    assert_eq!(bits(&rows[0]), bits(want_second.row(0)));

    // Bad ingests are typed errors and do not grow the graph.
    match client.ingest(0, &vec![0.0; feat_dim], None, &[(u32::MAX, 0)], 1) {
        Err(ClientError::Server(_)) => {}
        other => panic!("out-of-range peer must fail, got {other:?}"),
    }
    match client.ingest(0, &[0.0], None, &[], 1) {
        Err(ClientError::Server(_)) => {}
        other => panic!("feature-dim mismatch must fail, got {other:?}"),
    }
    match client.embed(&[second_id + 1], 1) {
        Err(ClientError::Server(_)) => {}
        other => panic!("failed ingests must not assign ids, got {other:?}"),
    }

    let stats = handle.shutdown();
    assert_eq!(stats.ingests, 2, "only successful ingests are counted");
    assert!(
        stats.cache_hits >= 1,
        "ingest must warm the embedding cache"
    );
}

#[test]
fn non_finite_features_are_rejected_before_the_graph_is_touched() {
    let dataset = acm_like(Scale::Smoke, 72);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let registry = ModelRegistry::from_model(dataset.graph.clone(), model);
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let feat_dim = dataset.graph.feature_dim();
    let next_id = dataset.graph.num_nodes() as u32;

    let warm = client.embed(&[0], 5).expect("embed succeeds");
    let hits = handle.stats().cache_hits;
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut features = vec![0.25; feat_dim];
        features[feat_dim / 2] = bad;
        match client.ingest(0, &features, None, &[(0, 0), (1, 0)], 5) {
            Err(ClientError::Server(ServeError::BadRequest(_))) => {}
            other => panic!("a {bad} feature must be a BadRequest, got {other:?}"),
        }
    }

    // No node was added, and `graph_version` did not move: the row warmed
    // above is still reachable under its cache key.
    match client.embed(&[next_id], 5) {
        Err(ClientError::Server(_)) => {}
        other => panic!("rejected ingests must not assign ids, got {other:?}"),
    }
    let again = client.embed(&[0], 5).expect("embed succeeds");
    assert_eq!(bits(&again[0]), bits(&warm[0]));
    assert_eq!(handle.stats().cache_hits, hits + 1);

    // The batcher is still alive: the next clean arrival gets the
    // id the poisoned ones did not, and a unit-norm row.
    let (node, row) = client
        .ingest(0, &vec![0.25; feat_dim], None, &[(0, 0), (1, 0)], 5)
        .expect("clean ingest succeeds");
    assert_eq!(node, next_id);
    let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
    assert!((norm - 1.0).abs() < 1e-4, "norm = {norm}");

    assert_eq!(handle.shutdown().ingests, 1);
}

#[test]
fn ingest_recomputes_cached_rows_beyond_the_direct_peers() {
    // The deep-walk receptive field: attaching edges to peer `p` changes
    // the sampling stream of any node whose walks can traverse `p` — not
    // just `p` itself. A row cached for such a second-hop node before the
    // ingest must never be served afterwards (this is exactly what
    // graph-version cache keys guarantee; per-peer invalidation would
    // miss it).
    let dataset = acm_like(Scale::Smoke, 72);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let checkpoint = model.save_weights();
    let registry =
        ModelRegistry::from_checkpoint(dataset.graph.clone(), tiny_config(), &checkpoint)
            .expect("checkpoint loads");

    let feat_dim = dataset.graph.feature_dim();
    let peer = 0u32;
    let mut mutated = dataset.graph.clone();
    mutated
        .add_node_with_edges(
            NodeTypeId(0),
            vec![0.5; feat_dim],
            None,
            &[(peer, EdgeTypeId(0))],
        )
        .expect("valid node");

    // Pick a neighbour of the peer (two hops from the new node, so never
    // an edge endpoint of the ingest) and a seed where the mutation
    // really changes its embedding — skipping vacuous combinations.
    let mut target = None;
    'search: for &t in dataset.graph.neighbors(peer) {
        if t == peer {
            continue;
        }
        for seed in 0..32u64 {
            let before = model.embed_requests(&dataset.graph, &[(t, seed)]);
            let after = model.embed_requests(&mutated, &[(t, seed)]);
            if before.row(0) != after.row(0) {
                target = Some((t, seed, after.row(0).to_vec()));
                break 'search;
            }
        }
    }
    let (t, seed, want) = target.expect("some second-hop node must feel the mutation");

    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Cache the pre-mutation row…
    let pre = client.embed(&[t], seed).expect("embed succeeds");
    // …mutate the graph through a node attached only to `peer`…
    client
        .ingest(0, &vec![0.5; feat_dim], None, &[(peer, 0)], 7)
        .expect("ingest succeeds");
    // …and the follow-up embed must recompute on the mutated graph, never
    // serve the cached pre-mutation row.
    let post = client.embed(&[t], seed).expect("embed succeeds");
    assert_ne!(
        bits(&pre[0]),
        bits(&post[0]),
        "stale pre-mutation row was served for a non-peer node"
    );
    assert_eq!(bits(&post[0]), bits(&want));

    handle.shutdown();
}

#[test]
fn hot_swap_invalidates_cache_and_serves_the_new_generation() {
    let dataset = acm_like(Scale::Smoke, 71);
    let model_a = WidenModel::for_graph(&dataset.graph, tiny_config());
    let ckpt_a = model_a.save_weights();
    let mut cfg_b = tiny_config();
    cfg_b.seed = 4242; // different init → genuinely different weights
    let model_b = WidenModel::for_graph(&dataset.graph, cfg_b);
    let ckpt_b = model_b.save_weights();

    let registry = ModelRegistry::from_checkpoint(dataset.graph.clone(), tiny_config(), &ckpt_a)
        .expect("checkpoint loads");
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let nodes: Vec<u32> = (0..4).collect();
    let seed = 9;
    let before = client.embed(&nodes, seed).expect("embed succeeds");
    // Repeat to populate + hit the cache under generation A.
    let again = client.embed(&nodes, seed).expect("cached embed succeeds");
    for (a, b) in before.iter().zip(&again) {
        assert_eq!(bits(a), bits(b));
    }
    let hits_before_swap = handle.stats().cache_hits;
    assert!(hits_before_swap >= nodes.len() as u64);

    // A corrupt checkpoint is rejected and generation A keeps serving.
    let mut bad = ckpt_b.to_vec();
    bad[12] ^= 0xFF;
    assert!(handle.hot_swap(&bad).is_err());
    let still = client.embed(&nodes, seed).expect("embed succeeds");
    for (a, b) in before.iter().zip(&still) {
        assert_eq!(bits(a), bits(b), "failed swap must not change serving");
    }

    // The real swap: new digest, flushed cache, and the very same
    // (nodes, seed) request now answers with generation B's rows — never
    // the stale cached generation-A rows.
    let digest = handle.hot_swap(&ckpt_b).expect("valid checkpoint");
    assert_eq!(digest, widen::tensor::digest64(&ckpt_b));
    let after = client.embed(&nodes, seed).expect("embed succeeds");
    let want: Vec<Vec<f32>> = {
        let emb = model_b.embed_nodes(&dataset.graph, &nodes, seed);
        (0..nodes.len()).map(|i| emb.row(i).to_vec()).collect()
    };
    for ((got, want), old) in after.iter().zip(&want).zip(&before) {
        assert_eq!(bits(got), bits(want), "post-swap rows must be generation B");
        assert_ne!(bits(got), bits(old), "stale generation-A row was served");
    }

    // Ingest after the swap embeds under generation B as well.
    let feat_dim = dataset.graph.feature_dim();
    let (node, row) = client
        .ingest(0, &vec![0.125; feat_dim], None, &[(0, 0), (1, 0)], 77)
        .expect("ingest succeeds");
    let mut mutated = dataset.graph.clone();
    let oracle_id = mutated
        .add_node_with_edges(
            NodeTypeId(0),
            vec![0.125; feat_dim],
            None,
            &[(0, EdgeTypeId(0)), (1, EdgeTypeId(0))],
        )
        .expect("valid node");
    assert_eq!(node, oracle_id);
    let want_row = model_b.embed_requests(&mutated, &[(node, 77)]);
    assert_eq!(bits(&row), bits(want_row.row(0)));

    handle.shutdown();
}

/// The next response frame on a raw connection.
fn next_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(body) = reader.next_frame().expect("clean frame") {
            return decode_response(&body).expect("decodes");
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed the connection");
        reader.push(&buf[..n]);
    }
}

#[test]
fn an_embed_pipelined_behind_an_ingest_reads_the_grown_graph() {
    // One queue, in order: an `Embed` sent right behind an `Ingest` on the
    // same socket, before the ack is read, names the node the ingest adds
    // and one of its peers — and is answered on the post-ingest graph.
    const ROUNDS: u32 = 20;
    let dataset = acm_like(Scale::Smoke, 73);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let checkpoint = model.save_weights();
    let registry =
        ModelRegistry::from_checkpoint(dataset.graph.clone(), tiny_config(), &checkpoint)
            .expect("checkpoint loads");
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = FrameReader::new();

    let mut replayed = dataset.graph.clone();
    let feat_dim = replayed.feature_dim();
    for round in 0..ROUNDS {
        let (peer, seed) = (round, 500 + u64::from(round));
        let features = vec![0.125 * (round + 1) as f32; feat_dim];
        let edges = vec![(peer, 0u16), (peer + 1, 0)];
        let typed: Vec<(u32, EdgeTypeId)> =
            edges.iter().map(|&(p, t)| (p, EdgeTypeId(t))).collect();
        let new = replayed
            .add_node_with_edges(NodeTypeId(0), features.clone(), None, &typed)
            .expect("valid node");
        let want = model.embed_requests(&replayed, &[(new, seed), (peer, seed)]);

        let (ingest_id, embed_id) = (2 * u64::from(round), 2 * u64::from(round) + 1);
        let mut frames = encode_request(&Request::Ingest {
            id: ingest_id,
            seed,
            node_type: 0,
            label: None,
            features,
            edges,
        });
        frames.extend(encode_request(&Request::Embed {
            id: embed_id,
            seed,
            nodes: vec![new, peer],
        }));
        stream.write_all(&frames).expect("send both frames");

        let (mut acked, mut embedded) = (false, false);
        for _ in 0..2 {
            match next_response(&mut stream, &mut reader) {
                Response::Ingested { id, node, .. } => {
                    assert_eq!((id, node), (ingest_id, new), "round {round}");
                    acked = true;
                }
                Response::Embeddings { id, values, .. } => {
                    assert_eq!(id, embed_id, "round {round}");
                    assert_eq!(bits(&values), bits(want.as_slice()), "round {round}");
                    embedded = true;
                }
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
        assert!(acked && embedded, "round {round}");
    }

    assert_eq!(handle.shutdown().ingests, u64::from(ROUNDS));
}
