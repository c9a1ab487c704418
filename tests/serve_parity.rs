//! The serving gate: answers over the wire must be *bit-identical* to
//! in-process answers on the same index — for every backend, for
//! coalesced batches under concurrent clients, and across overload and
//! graceful shutdown. Plus the protocol fuzz seatbelt: hostile frames get
//! typed error responses, never a panic, and the worker pool survives.

use mmdr_core::{Mmdr, MmdrParams, ReductionResult};
use mmdr_idistance::Backend;
use mmdr_index::VectorIndex;
use mmdr_linalg::Matrix;
use mmdr_persist::{build_index, open, save};
use mmdr_serve::{wire, Client, Request, Response, ServeError, Server, ServerConfig};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unique snapshot path per call, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        TempFile(std::env::temp_dir().join(format!(
            "mmdr-serve-parity-{}-{tag}-{seq}.snapshot",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Two elongated clusters plus off-plane outliers, deterministic.
fn dataset(n_per_cluster: usize) -> Matrix {
    let mut rows = Vec::new();
    let jit = |i: usize, s: f64| ((i as f64 * 0.618_033_988 + s).fract() - 0.5) * 0.02;
    for i in 0..n_per_cluster {
        let t = i as f64 / n_per_cluster.max(2) as f64;
        rows.push(vec![t, 0.3 * t, jit(i, 0.5), jit(i, 0.7)]);
        rows.push(vec![
            5.0 + jit(i, 0.1),
            5.0 + jit(i, 0.9),
            5.0 + t,
            5.0 - 0.5 * t,
        ]);
        if i % 17 == 0 {
            rows.push(vec![-3.0 - t, 8.0 + t, -5.0, 9.0 - t]);
        }
    }
    Matrix::from_rows(&rows).unwrap()
}

fn fit(data: &Matrix) -> ReductionResult {
    Mmdr::new(MmdrParams {
        max_ec: 4,
        ..Default::default()
    })
    .fit(data)
    .unwrap()
}

/// Serves `backend` from a freshly written snapshot (the rebuild-free
/// production path) and returns the shared index for in-process parity.
fn serve_backend(
    backend: Backend,
    data: &Matrix,
    model: &ReductionResult,
    config: ServerConfig,
) -> (Arc<dyn VectorIndex>, mmdr_serve::ServerHandle) {
    let file = TempFile::new(backend.name());
    let built = build_index(backend, data, model, 64).unwrap();
    save(&file.0, &built, model).unwrap();
    let opened = open(&file.0).unwrap();
    let index: Arc<dyn VectorIndex> = Arc::from(opened.index.into_boxed());
    let handle = Server::start_static(Arc::clone(&index), ("127.0.0.1", 0), config).unwrap();
    (index, handle)
}

fn assert_bit_identical(local: &[(f64, u64)], wire: &[(f64, u64)], what: &str) {
    assert_eq!(local.len(), wire.len(), "{what}: answer lengths differ");
    for (rank, (a, b)) in local.iter().zip(wire).enumerate() {
        assert_eq!(a.1, b.1, "{what}: id differs at rank {rank}");
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "{what}: distance not bit-identical at rank {rank} ({} vs {})",
            a.0,
            b.0
        );
    }
}

/// Polls the server until `queue_len` reaches `want` (deterministic setup
/// for the paused-queue tests below).
fn wait_for_queue(handle: &mmdr_serve::ServerHandle, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().queue_len < want {
        assert!(
            Instant::now() < deadline,
            "queue never reached {want} jobs (at {})",
            handle.stats().queue_len
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_backend_answers_bit_identically_over_the_wire() {
    let data = dataset(60);
    let model = fit(&data);
    let step = (data.rows() / 7).max(1);
    let queries: Vec<Vec<f64>> = (0..7).map(|i| data.row(i * step).to_vec()).collect();
    for backend in Backend::all() {
        let (index, handle) = serve_backend(backend, &data, &model, ServerConfig::default());
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1usize, 5, 12] {
                let local = index.knn(q, k).unwrap();
                let remote = client.knn(q, k).unwrap();
                assert_bit_identical(
                    &local,
                    &remote,
                    &format!("{} knn q{qi} k{k}", backend.name()),
                );
            }
            let local = index.range_search(q, 0.8).unwrap();
            let remote = client.range(q, 0.8).unwrap();
            assert_bit_identical(&local, &remote, &format!("{} range q{qi}", backend.name()));
        }
        // Client-side batch op too.
        let local: Vec<_> = queries.iter().map(|q| index.knn(q, 6).unwrap()).collect();
        let remote = client.batch_knn(&queries, 6).unwrap();
        for (qi, (l, r)) in local.iter().zip(&remote).enumerate() {
            assert_bit_identical(l, r, &format!("{} batch q{qi}", backend.name()));
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.backend, index.name());
        assert_eq!(stats.len, index.len() as u64);
        assert_eq!(stats.dim, index.dim() as u32);
        // One STATS frame, one ledger: the cost line is the pools summed.
        let touched: u64 = stats.pools.iter().map(|p| p.pages_touched()).sum();
        let misses: u64 = stats.pools.iter().map(|p| p.misses()).sum();
        assert_eq!(
            (stats.query.pages_touched, stats.query.page_reads),
            (touched, misses),
            "{}: pages touched and read",
            backend.name()
        );
        handle.shutdown();
    }
}

/// `k` is outside input: a well-formed frame may carry `u32::MAX`, and an
/// in-process caller `usize::MAX`. Both mean "everything reachable" and
/// must cost memory in proportion to the rows there are, not to `k`.
#[test]
fn an_unbounded_k_returns_every_row_in_process_and_over_the_wire() {
    let data = dataset(291);
    assert_eq!(data.rows(), 600);
    let model = fit(&data);
    let q = data.row(17).to_vec();
    for backend in Backend::all() {
        let (index, handle) = serve_backend(backend, &data, &model, ServerConfig::default());
        let local = index.knn(&q, usize::MAX).unwrap();
        assert_eq!(local.len(), 600, "{}: in-process", backend.name());
        assert!(
            local.windows(2).all(|w| w[0] <= w[1]),
            "{}: not ascending",
            backend.name()
        );
        // Past `u32::MAX` the client saturates: the frame carries u32::MAX.
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for k in [u32::MAX as usize, 1 << 32, usize::MAX] {
            let remote = client.knn(&q, k).unwrap();
            assert_bit_identical(&local, &remote, &format!("{} k = {k}", backend.name()));
        }
        let batch = client.batch_knn(std::slice::from_ref(&q), 1 << 32).unwrap();
        assert_bit_identical(&local, &batch[0], &format!("{} batch", backend.name()));
        handle.shutdown();
    }
}

#[test]
fn stats_echo_the_open_configuration_for_homogeneity_checks() {
    let data = dataset(40);
    let model = fit(&data);
    // What an operator compares across servers — backend, dimensionality,
    // row count, the first line `remote-query --op stats` prints — must
    // come back exactly as served.
    for backend in [Backend::IDistance, Backend::SeqScan] {
        let (index, handle) = serve_backend(backend, &data, &model, ServerConfig::default());
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.backend, index.name());
        assert_eq!(stats.dim as usize, index.dim());
        assert_eq!(stats.len as usize, index.len());
        handle.shutdown();
    }
}

#[test]
fn coalesced_batches_stay_bit_identical_under_eight_clients() {
    let data = dataset(60);
    let model = fit(&data);
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    let config = ServerConfig {
        workers: 2,
        coalesce: 32,
        start_paused: true,
        ..ServerConfig::default()
    };
    let (index, handle) = serve_backend(Backend::IDistance, &data, &model, config);
    let addr = handle.local_addr();
    let step = (data.rows() / (CLIENTS * PER_CLIENT)).max(1);
    /// One client's pipelined queries paired with their wire answers.
    type ClientAnswers = Vec<(Vec<f64>, Vec<(f64, u64)>)>;
    let results: Vec<ClientAnswers> = std::thread::scope(|s| {
        let data = &data;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Pipeline every request first: the paused queue piles
                    // them up so workers must coalesce across clients.
                    let queries: Vec<Vec<f64>> = (0..PER_CLIENT)
                        .map(|i| data.row((c * PER_CLIENT + i) * step).to_vec())
                        .collect();
                    let ids: Vec<u64> = queries
                        .iter()
                        .map(|q| {
                            client
                                .send(&Request::Knn {
                                    query: q.clone(),
                                    k: 9,
                                })
                                .unwrap()
                        })
                        .collect();
                    let mut answers = vec![None; queries.len()];
                    for _ in 0..queries.len() {
                        let (rid, resp) = client.recv().unwrap();
                        let slot = ids.iter().position(|&id| id == rid).unwrap();
                        let Response::Neighbors(hits) = resp else {
                            panic!("client {c}: unexpected response {resp:?}");
                        };
                        answers[slot] = Some(hits);
                    }
                    queries
                        .into_iter()
                        .zip(answers.into_iter().map(Option::unwrap))
                        .collect()
                })
            })
            .collect();
        // All 32 singleton KNNs must be queued before any worker runs.
        wait_for_queue(&handle, (CLIENTS * PER_CLIENT) as u64);
        handle.resume();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (c, per_client) in results.iter().enumerate() {
        for (qi, (query, wire_answer)) in per_client.iter().enumerate() {
            let local = index.knn(query, 9).unwrap();
            assert_bit_identical(&local, wire_answer, &format!("client {c} query {qi}"));
        }
    }
    let counters = handle.shutdown();
    assert!(
        counters.coalesced_batches >= 1,
        "backlog of 32 equal-k KNNs produced no coalesced batch"
    );
    assert!(
        counters.coalesced_queries >= 2,
        "coalescing folded fewer than 2 queries"
    );
    assert_eq!(counters.knn_requests, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn overload_is_a_typed_rejection_not_a_hang() {
    let data = dataset(40);
    let model = fit(&data);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 2,
        max_inflight: 100,
        start_paused: true,
        ..ServerConfig::default()
    };
    let (_index, handle) = serve_backend(Backend::SeqScan, &data, &model, config);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    const SENT: usize = 10;
    for _ in 0..SENT {
        client
            .send(&Request::Knn {
                query: data.row(0).to_vec(),
                k: 3,
            })
            .unwrap();
    }
    // The paused queue holds 2 jobs; the other 8 must come back as typed
    // OVERLOADED immediately — before any worker has run a single query.
    let mut overloaded = 0;
    let mut answered = 0;
    let mut resumed = false;
    for _ in 0..SENT {
        match client.recv().unwrap() {
            (_, Response::Overloaded) => overloaded += 1,
            (_, Response::Neighbors(hits)) => {
                assert!(!hits.is_empty());
                answered += 1;
            }
            (_, other) => panic!("unexpected response {other:?}"),
        }
        if !resumed && overloaded == SENT - 2 {
            // All rejections arrived while the queue was still paused:
            // rejection does not depend on worker progress. Now drain.
            handle.resume();
            resumed = true;
        }
    }
    assert_eq!(overloaded, SENT - 2, "queue depth 2 must reject the rest");
    assert_eq!(answered, 2);
    let counters = handle.shutdown();
    assert_eq!(counters.overloaded, (SENT - 2) as u64);

    // The client helper surfaces the same thing as a typed error.
    assert!(ServeError::Overloaded.to_string().contains("overloaded"));
}

#[test]
fn per_connection_inflight_cap_rejects_typed() {
    let data = dataset(40);
    let model = fit(&data);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1024,
        max_inflight: 3,
        start_paused: true,
        ..ServerConfig::default()
    };
    let (_index, handle) = serve_backend(Backend::SeqScan, &data, &model, config);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..8 {
        client
            .send(&Request::Knn {
                query: data.row(1).to_vec(),
                k: 2,
            })
            .unwrap();
    }
    let mut overloaded = 0;
    let mut answered = 0;
    let mut resumed = false;
    for _ in 0..8 {
        match client.recv().unwrap() {
            (_, Response::Overloaded) => overloaded += 1,
            (_, Response::Neighbors(_)) => answered += 1,
            (_, other) => panic!("unexpected response {other:?}"),
        }
        if !resumed && overloaded == 5 {
            handle.resume();
            resumed = true;
        }
    }
    assert_eq!(overloaded, 5, "in-flight cap 3 must reject the rest");
    assert_eq!(answered, 3);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let data = dataset(50);
    let model = fit(&data);
    let config = ServerConfig {
        workers: 2,
        start_paused: true,
        ..ServerConfig::default()
    };
    let (index, handle) = serve_backend(Backend::Gldr, &data, &model, config);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    const IN_FLIGHT: usize = 5;
    let queries: Vec<Vec<f64>> = (0..IN_FLIGHT).map(|i| data.row(i * 3).to_vec()).collect();
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| {
            client
                .send(&Request::Knn {
                    query: q.clone(),
                    k: 4,
                })
                .unwrap()
        })
        .collect();
    wait_for_queue(&handle, IN_FLIGHT as u64);
    // Shutdown with five requests accepted but unanswered: the drain
    // contract says every one of them still gets its (correct) answer.
    handle.trigger_shutdown();
    for _ in 0..IN_FLIGHT {
        let (rid, resp) = client.recv().unwrap();
        let slot = ids.iter().position(|&id| id == rid).unwrap();
        let Response::Neighbors(hits) = resp else {
            panic!("drained request got {resp:?}");
        };
        let local = index.knn(&queries[slot], 4).unwrap();
        assert_bit_identical(&local, &hits, &format!("drained request {slot}"));
    }
    let counters = handle.shutdown();
    assert_eq!(counters.knn_requests, IN_FLIGHT as u64);
    assert_eq!(counters.queue_len, 0, "shutdown left jobs in the queue");
}

#[test]
fn fuzz_seatbelt_hostile_frames_get_typed_errors_and_pool_survives() {
    let data = dataset(40);
    let model = fit(&data);
    let config = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let (index, handle) = serve_backend(Backend::Gldr, &data, &model, config);
    let addr = handle.local_addr();

    // 1. Garbage payload under a valid length prefix → typed ERROR frame.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        wire::write_frame(&mut sock, &[0xDE; 32]).unwrap();
        let payload = wire::read_frame(&mut sock).unwrap().expect("error reply");
        let (_, resp) = wire::decode_response(&payload).unwrap();
        let Response::Error(msg) = resp else {
            panic!("garbage frame got {resp:?}");
        };
        assert!(msg.contains("bad request"), "unhelpful error: {msg}");
    }

    // 2. Oversized length prefix → typed ERROR frame, connection closed.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::Write as _;
        sock.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let payload = wire::read_frame(&mut sock).unwrap().expect("error reply");
        let (_, resp) = wire::decode_response(&payload).unwrap();
        assert!(matches!(resp, Response::Error(m) if m.contains("exceeds")));
        // And the server hangs up rather than trying to resync.
        assert!(wire::read_frame(&mut sock).unwrap().is_none());
    }

    // 3. Truncated frame (header promises more than ever arrives): the
    //    read deadline reclaims the connection without wedging a reader.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::Write as _;
        sock.write_all(&100u32.to_le_bytes()).unwrap();
        sock.write_all(&[0xAB; 10]).unwrap();
        // Server drops the connection at the deadline; EOF here, no reply.
        assert!(wire::read_frame(&mut sock).unwrap().is_none());
    }

    // 4. A corrupted-but-parseable header: flip the opcode in a real
    //    request; the id must come back on the typed error.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut payload = wire::encode_request(77, &Request::Ping);
        payload[14] = 0xEE; // opcode byte
        wire::write_frame(&mut sock, &payload).unwrap();
        let reply = wire::read_frame(&mut sock).unwrap().expect("error reply");
        let (rid, resp) = wire::decode_response(&reply).unwrap();
        assert_eq!(rid, 77, "request id must survive a bad opcode");
        assert!(matches!(resp, Response::Error(m) if m.contains("opcode")));
    }

    // 5. A 28-byte BATCH_KNN frame claiming 4 194 304 zero-width queries:
    //    nothing in the frame backs that count, so it must be refused
    //    before anything is allocated for it.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut payload = wire::encode_request(78, &Request::Ping);
        payload[14] = wire::opcode::BATCH_KNN;
        for word in [5u32, 1 << 22, 0] {
            payload.extend_from_slice(&word.to_le_bytes()); // k, nq, dim
        }
        wire::write_frame(&mut sock, &payload).unwrap();
        let reply = wire::read_frame(&mut sock).unwrap().expect("error reply");
        let (rid, resp) = wire::decode_response(&reply).unwrap();
        assert_eq!(rid, 78);
        assert!(matches!(resp, Response::Error(m) if m.contains("zero-width")));
    }

    // After all that abuse: the worker pool is alive, answers are still
    // bit-identical, and every hostile frame was counted.
    let mut client = Client::connect(addr).unwrap();
    let q = data.row(5);
    let local = index.knn(q, 5).unwrap();
    let remote = client.knn(q, 5).unwrap();
    assert_bit_identical(&local, &remote, "post-fuzz query");
    let stats = client.stats().unwrap();
    assert!(
        stats.server.protocol_errors >= 4,
        "expected ≥4 protocol errors, saw {}",
        stats.server.protocol_errors
    );
    let counters = handle.shutdown();
    assert_eq!(counters.queue_len, 0);
}
