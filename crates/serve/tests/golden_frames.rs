//! Wire v8, pinned byte for byte: one fixed frame per opcode and
//! direction, each with the bytes the encoder produced at the commit
//! before the codec became one schema per message, re-pinned where a
//! version bump changed them. Round-trip tests cannot see a field-order
//! swap made on both sides at once; these can. A frame here changes only
//! together with `PROTOCOL_VERSION`.

use mmdr_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, opcode, RemoteStats, Request,
    Response,
};
use mmdr_storage::{PoolStats, ShardCounters};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn stats() -> RemoteStats {
    let mut s = RemoteStats {
        backend: "idistance".into(),
        len: 1000,
        dim: 16,
        pools: vec![
            PoolStats {
                per_shard: vec![
                    ShardCounters {
                        hits: 5,
                        misses: 6,
                        evictions: 7,
                    },
                    ShardCounters {
                        hits: 8,
                        misses: 9,
                        evictions: 10,
                    },
                ],
            },
            PoolStats::default(),
        ],
        ..RemoteStats::default()
    };
    s.query.dist_computations = 101;
    s.query.pages_touched = 102;
    s.query.page_reads = 103;
    s.query.candidates_refined = 104;
    s.query.physical_reads = 105;
    s.query.readahead_hits = 106;
    s.query.read_errors = 107;
    s.query.planner_post_filter = 108;
    s.query.planner_pushdown = 109;
    s.query.planner_prefilter_rank = 110;
    s.server.connections = 201;
    s.server.requests = 202;
    s.server.knn_requests = 203;
    s.server.range_requests = 204;
    s.server.batch_requests = 205;
    s.server.insert_requests = 206;
    s.server.delete_requests = 207;
    s.server.coalesced_batches = 208;
    s.server.coalesced_queries = 209;
    s.server.max_coalesce = 210;
    s.server.overloaded = 211;
    s.server.protocol_errors = 212;
    s.server.queue_len = 213;
    s.ingest.epoch = 301;
    s.ingest.delta_rows = 302;
    s.ingest.tombstones = 303;
    s.ingest.wal_bytes = 304;
    s.ingest.merges = 305;
    s.ingest.next_id = 306;
    s.ingest.model_epoch = 307;
    s.ingest.refits = 308;
    s
}

fn requests() -> Vec<(&'static str, Request)> {
    let query = vec![1.5, -2.25];
    let filter = String::from("label = \"news\" && score >= 10");
    vec![
        ("ping", Request::Ping),
        (
            "knn",
            Request::Knn {
                query: query.clone(),
                k: 10,
            },
        ),
        (
            "range",
            Request::Range {
                query: query.clone(),
                radius: 0.75,
            },
        ),
        (
            "batch_knn",
            Request::BatchKnn {
                queries: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![-0.0, 5.5]],
                k: 3,
            },
        ),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
        (
            "insert",
            Request::Insert {
                vector: vec![0.5, -1.5, f64::MAX],
            },
        ),
        (
            "delete",
            Request::Delete {
                id: 0x0102_0304_0506_0708,
            },
        ),
        ("flush", Request::Flush),
        (
            "filtered_knn",
            Request::FilteredKnn {
                query: query.clone(),
                k: 5,
                filter: filter.clone(),
            },
        ),
        (
            "filtered_range",
            Request::FilteredRange {
                query,
                radius: 0.5,
                filter,
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, u8, Response)> {
    let hits = vec![(0.125, 3), (2.5, 11)];
    vec![
        ("pong", opcode::PING, Response::Pong),
        ("neighbors", opcode::KNN, Response::Neighbors(hits.clone())),
        (
            "batch",
            opcode::BATCH_KNN,
            Response::Batch(vec![hits, vec![], vec![(1.0, 2)]]),
        ),
        (
            "stats_plain",
            opcode::STATS,
            Response::Stats(Box::new(stats())),
        ),
        (
            "shutdown_started",
            opcode::SHUTDOWN,
            Response::ShutdownStarted,
        ),
        ("inserted", opcode::INSERT, Response::Inserted(12_345)),
        ("deleted", opcode::DELETE, Response::Deleted(true)),
        ("flushed", opcode::FLUSH, Response::Flushed(7)),
        ("overloaded", opcode::RANGE, Response::Overloaded),
        (
            "error",
            opcode::FILTERED_KNN,
            Response::Error("boom: no attribute store".into()),
        ),
    ]
}

const REQUEST_ID: u64 = 0x1122_3344_5566_7788;

#[test]
fn every_request_frame_is_the_v8_bytes() {
    let frames = requests();
    assert_eq!(frames.len(), GOLDEN_REQUESTS.len());
    for ((name, req), (golden_name, golden)) in frames.iter().zip(GOLDEN_REQUESTS) {
        assert_eq!(name, golden_name);
        let bytes = encode_request(REQUEST_ID, req);
        assert_eq!(hex(&bytes), *golden, "request `{name}` changed on the wire");
        assert_eq!(decode_request(&bytes), Ok((REQUEST_ID, req.clone())));
    }
}

#[test]
fn every_response_frame_is_the_v8_bytes() {
    let frames = responses();
    assert_eq!(frames.len(), GOLDEN_RESPONSES.len());
    for ((name, op, resp), (golden_name, golden)) in frames.iter().zip(GOLDEN_RESPONSES) {
        assert_eq!(name, golden_name);
        let bytes = encode_response(REQUEST_ID, *op, resp);
        assert_eq!(
            hex(&bytes),
            *golden,
            "response `{name}` changed on the wire"
        );
        assert_eq!(decode_response(&bytes), Ok((REQUEST_ID, resp.clone())));
    }
}

const GOLDEN_REQUESTS: &[(&str, &str)] = &[
    ("ping", "52444d4d080088776655443322110100"),
    (
        "knn",
        "52444d4d0800887766554433221102000a00000002000000000000000000f83f00000000000002c0",
    ),
    (
        "range",
        "52444d4d080088776655443322110300000000000000e83f02000000000000000000f83f00000000\
         000002c0",
    ),
    (
        "batch_knn",
        "52444d4d080088776655443322110400030000000300000002000000000000000000f03f00000000\
         000000400000000000000840000000000000104000000000000000800000000000001640",
    ),
    ("stats", "52444d4d080088776655443322110500"),
    ("shutdown", "52444d4d080088776655443322110600"),
    (
        "insert",
        "52444d4d08008877665544332211070003000000000000000000e03f000000000000f8bfffffffff\
         ffffef7f",
    ),
    ("delete", "52444d4d0800887766554433221108000807060504030201"),
    ("flush", "52444d4d080088776655443322110900"),
    (
        "filtered_knn",
        "52444d4d080088776655443322110a00050000001d0000006c6162656c203d20226e657773222026\
         262073636f7265203e3d20313002000000000000000000f83f00000000000002c0",
    ),
    (
        "filtered_range",
        "52444d4d080088776655443322110b00000000000000e03f1d0000006c6162656c203d20226e6577\
         73222026262073636f7265203e3d20313002000000000000000000f83f00000000000002c0",
    ),
];

const GOLDEN_RESPONSES: &[(&str, &str)] = &[
    ("pong", "52444d4d080088776655443322110101"),
    (
        "neighbors",
        "52444d4d08008877665544332211020102000000000000000000c03f030000000000000000000000\
         000004400b00000000000000",
    ),
    (
        "batch",
        "52444d4d0800887766554433221104010300000002000000000000000000c03f0300000000000000\
         00000000000004400b000000000000000000000001000000000000000000f03f0200000000000000",
    ),
    (
        "stats_plain",
        "52444d4d080088776655443322110501090000006964697374616e6365e803000000000000100000\
         00650000000000000066000000000000006700000000000000680000000000000069000000000000\
         006a000000000000006b000000000000006c000000000000006d000000000000006e000000000000\
         00020000000200000005000000000000000600000000000000070000000000000008000000000000\
         0009000000000000000a0000000000000000000000c900000000000000ca00000000000000cb0000\
         0000000000cc00000000000000cd00000000000000ce00000000000000cf00000000000000d00000\
         0000000000d100000000000000d200000000000000d300000000000000d400000000000000d50000\
         00000000002d010000000000002e010000000000002f010000000000003001000000000000310100\
         0000000000320100000000000033010000000000003401000000000000",
    ),
    ("shutdown_started", "52444d4d080088776655443322110601"),
    (
        "inserted",
        "52444d4d0800887766554433221107013930000000000000",
    ),
    ("deleted", "52444d4d08008877665544332211080101"),
    (
        "flushed",
        "52444d4d0800887766554433221109010700000000000000",
    ),
    ("overloaded", "52444d4d080088776655443322110302"),
    (
        "error",
        "52444d4d080088776655443322110a0318000000626f6f6d3a206e6f206174747269627574652073\
         746f7265",
    ),
];
