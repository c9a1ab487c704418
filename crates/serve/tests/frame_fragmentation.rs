//! Fragmentation coverage for the wire protocol: valid frames split at
//! arbitrary byte boundaries across many small reads must decode exactly
//! like a single contiguous read. Any TCP peer sees this: a stream
//! delivers frames in whatever segments the kernel felt like — and the
//! existing fuzz seatbelt only covers *corrupt* frames, not fragmented
//! valid ones.

use mmdr_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, opcode, read_frame,
    write_frame, RemoteStats, Request, Response, WireError,
};
use mmdr_storage::{PoolStats, ShardCounters};
use proptest::prelude::*;
use std::io::Read;

/// An `io::Read` that hands back at most the next scheduled chunk size per
/// call, cycling through `chunks` — the adversarial fragmentation source.
struct Fragmented {
    bytes: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl Fragmented {
    fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> Self {
        Self {
            bytes,
            pos: 0,
            chunks,
            next: 0,
        }
    }
}

impl Read for Fragmented {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.bytes.len() {
            return Ok(0);
        }
        let chunk = self.chunks[self.next % self.chunks.len()].max(1);
        self.next += 1;
        let n = chunk.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Every request variant, its contents drawn from `floats` and `k`.
fn request_from(sel: u8, floats: Vec<f64>, k: u32) -> Request {
    let filter = format!("score >= {k} && label != \"é{k}\"");
    match sel % 11 {
        0 => Request::Ping,
        1 => Request::Knn { query: floats, k },
        2 => Request::Range {
            query: floats,
            radius: 0.5 + k as f64,
        },
        3 => Request::BatchKnn {
            queries: vec![floats.clone(), floats],
            k,
        },
        4 => Request::Stats,
        5 => Request::Insert { vector: floats },
        6 => Request::Delete {
            id: floats[0].to_bits(),
        },
        7 => Request::Flush,
        8 => Request::Shutdown,
        9 => Request::FilteredKnn {
            query: floats,
            k,
            filter,
        },
        _ => Request::FilteredRange {
            query: floats,
            radius: 0.5 + k as f64,
            filter,
        },
    }
}

/// A `STATS` body with every field set from `floats` and `k`: as many
/// pools as floats (of 0, 1, 2, … shards).
fn stats_from(floats: &[f64], k: u32) -> RemoteStats {
    let n = k as u64;
    let mut s = RemoteStats {
        backend: format!("backend-{k}"),
        len: floats[0].to_bits(),
        dim: k,
        pools: (0..floats.len())
            .map(|shards| PoolStats {
                per_shard: (0..shards as u64)
                    .map(|i| ShardCounters {
                        hits: n + i,
                        misses: n * i,
                        evictions: i,
                    })
                    .collect(),
            })
            .collect(),
        ..RemoteStats::default()
    };
    s.query.dist_computations = n + 10;
    s.query.candidates_refined = n + 11;
    s.query.planner_prefilter_rank = n + 12;
    s.server.connections = n + 20;
    s.server.max_coalesce = n + 21;
    s.server.queue_len = n + 22;
    s.ingest.epoch = n + 30;
    s.ingest.next_id = n + 31;
    s.ingest.refits = n + 32;
    s
}

/// Every response variant, under an opcode that can carry it.
fn response_from(sel: u8, floats: Vec<f64>, k: u32) -> (u8, Response) {
    let hits: Vec<(f64, u64)> = floats
        .iter()
        .enumerate()
        .map(|(i, &d)| (d.abs(), i as u64))
        .collect();
    match sel % 10 {
        0 => (opcode::PING, Response::Pong),
        1 => (opcode::KNN, Response::Neighbors(hits)),
        2 => (
            opcode::BATCH_KNN,
            Response::Batch(vec![hits.clone(), Vec::new(), hits]),
        ),
        3 => (opcode::KNN, Response::Overloaded),
        4 => (opcode::INSERT, Response::Inserted(k as u64)),
        5 => (
            opcode::STATS,
            Response::Stats(Box::new(stats_from(&floats, k))),
        ),
        6 => (opcode::DELETE, Response::Deleted(k % 2 == 1)),
        7 => (opcode::FLUSH, Response::Flushed(k as u64)),
        8 => (opcode::SHUTDOWN, Response::ShutdownStarted),
        _ => (opcode::FILTERED_RANGE, Response::Error(format!("err-{k}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream of encoded request frames, re-read through arbitrary
    /// fragment boundaries, yields byte-identical payloads that decode to
    /// the original requests (ids included).
    #[test]
    fn fragmented_request_streams_decode_identically(
        msgs in proptest::collection::vec(
            (0u8..=255, proptest::collection::vec(-1e6f64..1e6, 1..9), 1u32..32),
            1..5,
        ),
        chunks in proptest::collection::vec(1usize..13, 1..8),
    ) {
        let reqs: Vec<(u64, Request)> = msgs
            .into_iter()
            .enumerate()
            .map(|(i, (sel, floats, k))| (i as u64 ^ 0x00C0_FFEE, request_from(sel, floats, k)))
            .collect();
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (id, req) in &reqs {
            let payload = encode_request(*id, req);
            write_frame(&mut stream, &payload).unwrap();
            payloads.push(payload);
        }
        let mut reader = Fragmented::new(stream, chunks);
        for ((id, req), payload) in reqs.iter().zip(&payloads) {
            let got = read_frame(&mut reader).unwrap().expect("frame present");
            prop_assert_eq!(&got, payload);
            let (got_id, got_req) = decode_request(&got).unwrap();
            prop_assert_eq!(got_id, *id);
            prop_assert_eq!(&got_req, req);
        }
        prop_assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF after last frame");
    }

    /// Same property for response frames, including bit-exact f64
    /// distances across the fragmented trip.
    #[test]
    fn fragmented_response_streams_decode_identically(
        msgs in proptest::collection::vec(
            (0u8..=255, proptest::collection::vec(-1e6f64..1e6, 1..9), 1u32..32),
            1..5,
        ),
        chunks in proptest::collection::vec(1usize..13, 1..8),
    ) {
        let resps: Vec<(u64, u8, Response)> = msgs
            .into_iter()
            .enumerate()
            .map(|(i, (sel, floats, k))| {
                let (op, resp) = response_from(sel, floats, k);
                (i as u64 + 7, op, resp)
            })
            .collect();
        let mut stream = Vec::new();
        for (id, op, resp) in &resps {
            let payload = encode_response(*id, *op, resp);
            write_frame(&mut stream, &payload).unwrap();
        }
        let mut reader = Fragmented::new(stream, chunks);
        for (id, _, resp) in &resps {
            let got = read_frame(&mut reader).unwrap().expect("frame present");
            let (got_id, got_resp) = decode_response(&got).unwrap();
            prop_assert_eq!(got_id, *id);
            if let (Response::Neighbors(a), Response::Neighbors(b)) = (resp, &got_resp) {
                for ((d1, i1), (d2, i2)) in a.iter().zip(b) {
                    prop_assert_eq!(d1.to_bits(), d2.to_bits());
                    prop_assert_eq!(i1, i2);
                }
            }
            prop_assert_eq!(&got_resp, resp);
        }
        prop_assert!(read_frame(&mut reader).unwrap().is_none());
    }

    /// Whatever the message, no proper prefix of its frame decodes — every
    /// cut is a typed error, never a short success and never a panic — and
    /// one byte past its end is malformed, not ignored.
    #[test]
    fn every_cut_of_any_frame_is_a_typed_error_and_a_trailing_byte_is_malformed(
        sel in 0u8..=255,
        floats in proptest::collection::vec(-1e6f64..1e6, 1..9),
        k in 1u32..32,
    ) {
        let mut frame = encode_request(9, &request_from(sel, floats.clone(), k));
        for cut in 0..frame.len() {
            prop_assert!(decode_request(&frame[..cut]).is_err(), "request cut at {}", cut);
        }
        frame.push(0);
        prop_assert!(matches!(
            decode_request(&frame),
            Err((Some(9), WireError::Malformed(_)))
        ));

        let (op, resp) = response_from(sel, floats, k);
        let mut frame = encode_response(9, op, &resp);
        for cut in 0..frame.len() {
            prop_assert!(decode_response(&frame[..cut]).is_err(), "response cut at {}", cut);
        }
        frame.push(0);
        prop_assert!(matches!(decode_response(&frame), Err(WireError::Malformed(_))));
    }

    /// A frame truncated mid-payload is an error, never a short success —
    /// whatever fragment boundary the cut lands on.
    #[test]
    fn truncated_fragmented_frames_error(
        floats in proptest::collection::vec(-1e3f64..1e3, 1..9),
        chunks in proptest::collection::vec(1usize..7, 1..5),
        cut_frac in 0.0f64..1.0,
    ) {
        let payload = encode_request(3, &Request::Knn { query: floats, k: 5 });
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        // Cut strictly inside the frame (keep at least the first byte).
        let cut = 1 + ((stream.len() - 2) as f64 * cut_frac) as usize;
        stream.truncate(cut);
        let mut reader = Fragmented::new(stream, chunks);
        prop_assert!(read_frame(&mut reader).is_err(), "mid-frame EOF must error");
    }
}
