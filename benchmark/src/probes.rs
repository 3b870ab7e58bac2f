//! Layer probes that need no workload: fixed synthetic inputs timed through
//! each crate's public functions. They run in every traced run, after the
//! window, so they never share a core with a measured pass.

use crate::data::{customer_name, region_name};
use crate::host::{median, ratio};
use crate::run::{put, Metrics, Window};
use bytes::BytesMut;
use cods_bitmap::{ValueStreamBuilder, Wah};
use cods_server::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use cods_server::proto::{decode_reply, encode_reply};
use cods_server::Reply;
use cods_storage::{persist, Table, Value};
use std::hint::black_box;
use std::time::Instant;

const BITS: u64 = 1 << 20;
const REPS: usize = 9;

/// Median seconds of `REPS` runs of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// A fixed pseudo-random bitmap of `BITS` bits with about `per_mille`
/// thousandths of them set.
fn synthetic_wah(per_mille: u64, salt: u64) -> Wah {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    Wah::from_bits((0..BITS).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1000 < per_mille
    }))
}

/// `bitmap.*` and the frame codec of `server`.
pub fn universal(out: &mut Metrics) {
    let sparse = synthetic_wah(10, 1);
    let dense = synthetic_wah(300, 2);
    let other = synthetic_wah(300, 3);

    let words = (dense.physical_words() + other.physical_words()) as f64;
    let s = timed(|| {
        black_box(black_box(&dense).and(black_box(&other)));
        black_box(black_box(&sparse).and(black_box(&dense)));
    });
    let all_words = words + (sparse.physical_words() + dense.physical_words()) as f64;
    put(out, "bitmap.and_mwords_per_s", all_words / s / 1e6, REPS);

    let positions: Vec<u64> = (0..BITS).step_by(3).collect();
    let s = timed(|| {
        black_box(black_box(&dense).filter_positions(black_box(&positions)));
    });
    put(
        out,
        "bitmap.filter_positions_mbits_per_s",
        BITS as f64 / s / 1e6,
        REPS,
    );

    let s = timed(|| {
        let mut b = ValueStreamBuilder::new(1000);
        for row in 0..BITS {
            b.push_row((row.wrapping_mul(2_654_435_761) % 1000) as usize);
        }
        black_box(b.finish());
    });
    put(out, "bitmap.build_mrows_per_s", BITS as f64 / s / 1e6, REPS);

    let mut encoded = BytesMut::new();
    dense.encode(&mut encoded);
    let encoded = encoded.freeze();
    let s = timed(|| {
        let mut buf = encoded.clone();
        black_box(Wah::decode(&mut buf).expect("round trip"));
    });
    put(
        out,
        "bitmap.codec_decode_mb_per_s",
        encoded.len() as f64 / s / 1e6,
        REPS,
    );

    // One 16 Ki-row `Rows` reply in the shape of a `sales_wide` scan.
    let rows: Vec<Vec<Value>> = (0..16_384u64)
        .map(|i| {
            let cust = i.wrapping_mul(7919) % 10_000;
            vec![
                Value::int(i as i64),
                Value::int(cust as i64),
                Value::str(customer_name(cust)),
                Value::str(region_name(cust, 50)),
                Value::int((i % 999 + 1) as i64),
            ]
        })
        .collect();
    let reply = Reply::Rows { rows };
    let mut frame = Vec::new();
    let s = timed(|| {
        frame.clear();
        write_frame(&mut frame, reply.kind(), &encode_reply(black_box(&reply))).expect("to memory");
    });
    put(
        out,
        "server.frame_encode_mb_per_s",
        frame.len() as f64 / s / 1e6,
        REPS,
    );
    let s = timed(|| {
        let (kind, payload) =
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("own frame");
        black_box(decode_reply(kind, &payload).expect("own reply"));
    });
    put(
        out,
        "server.frame_decode_mb_per_s",
        frame.len() as f64 / s / 1e6,
        REPS,
    );
}

/// `storage.encode_table_mb_per_s`: the image a commit writes for `t`.
pub fn encode_table(t: &Table, out: &mut Metrics) {
    let mut bytes = 0usize;
    let s = timed(|| bytes = black_box(persist::encode_table(black_box(t))).len());
    put(
        out,
        "storage.encode_table_mb_per_s",
        bytes as f64 / s / 1e6,
        REPS,
    );
}

/// The buffer cache, commit log and wire counters as deltas over the
/// window. Idle layers read 0.
pub fn window_counters(win: &Window, out: &mut Metrics) {
    let ops = win.total_ops() as f64;
    let n = win.wall_s.len();
    let touches = (win.cache_hits + win.cache_misses) as f64;
    put(
        out,
        "storage.cache_hit_ratio",
        ratio(win.cache_hits as f64, touches),
        n,
    );
    put(
        out,
        "storage.cache_evictions_per_op",
        ratio(win.cache_evictions as f64, ops),
        n,
    );
    put(
        out,
        "storage.decoded_mb_per_op",
        ratio(win.decoded_bytes as f64 / 1e6, ops),
        n,
    );
    put(
        out,
        "storage.resident_mb",
        win.resident_bytes as f64 / 1e6,
        1,
    );
    let l = &win.layers;
    put(
        out,
        "storage.fsyncs_per_commit",
        ratio(l.fsyncs as f64, l.commits as f64),
        n,
    );
    put(
        out,
        "storage.fsync_ms_mean",
        ratio(l.fsync_micros as f64 / 1e3, l.fsyncs as f64),
        n,
    );
    put(
        out,
        "storage.written_mb_per_s",
        ratio(win.written_bytes as f64 / 1e6, win.seconds),
        n,
    );
    put(
        out,
        "server.bytes_streamed_per_op",
        ratio(l.bytes_streamed as f64, ops),
        n,
    );
    put(out, "server.rejected", l.rejected as f64, n);
}
