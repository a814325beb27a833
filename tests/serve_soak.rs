//! The idle-connection soak: a server is two threads, reactor and batcher,
//! and 1024 open connections cost it poll entries, not threads. It asserts
//! on the process-wide `Threads:` count of `/proc/self/status`, so it is
//! the only test in this binary — any sibling test starting or stopping a
//! server in the same process would move the count under it.

use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use widen::core::{WidenConfig, WidenModel};
use widen::data::{acm_like, Scale};
use widen::serve::{Client, ModelRegistry, ServeConfig, Server};

fn tiny_config() -> WidenConfig {
    let mut c = WidenConfig::small();
    c.d = 8;
    c.n_w = 4;
    c.n_d = 4;
    c.phi = 1;
    c
}

/// Current thread count of this process, from /proc/self/status.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn soak_1024_idle_connections_leave_thread_count_flat() {
    const CONNS: usize = 1024;

    let dataset = acm_like(Scale::Smoke, 83);
    let model = WidenModel::for_graph(&dataset.graph, tiny_config());
    let registry =
        ModelRegistry::from_checkpoint(dataset.graph, tiny_config(), &model.save_weights())
            .expect("checkpoint loads");
    let threads_unbound = process_threads();
    let handle = Server::bind(registry, ServeConfig::default(), "127.0.0.1:0").unwrap();
    assert_eq!(
        process_threads(),
        threads_unbound + 2,
        "a server runs exactly two threads: reactor and batcher"
    );
    let addr = handle.local_addr();

    // Warm up one real request, then measure the thread baseline.
    let mut probe = Client::connect(addr).expect("connect");
    probe.embed(&[0, 1], 9).expect("probe served");
    let threads_before = process_threads();

    // Open the fleet. Chunked, syncing on the server's own connection
    // gauge, so the kernel backlog never overflows.
    let mut fleet: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for chunk in 0..(CONNS / 64) {
        for _ in 0..64 {
            fleet.push(TcpStream::connect(addr).expect("connect"));
        }
        let want = ((chunk + 1) * 64 + 1) as i64; // +1 for the probe
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let open = handle
                .metrics()
                .snapshot()
                .gauge("serve_open_connections")
                .unwrap_or(0);
            if open >= want {
                break;
            }
            assert!(Instant::now() < deadline, "server stopped accepting");
            thread::sleep(Duration::from_millis(5));
        }
    }

    let threads_after = process_threads();
    assert_eq!(
        threads_after, threads_before,
        "thread count must be independent of connection count \
         ({CONNS} idle connections held open)"
    );

    // The server still serves real work while all of them sit open.
    probe.embed(&[4, 5, 6], 9).expect("served under soak");

    drop(fleet);
    let stats = handle.shutdown();
    assert_eq!(stats.conns_rejected, 0);
    assert!(stats.requests >= 2);
}
