//! The benchmark's definition as data: workload names with their
//! rationale, the end-to-end metrics with unit, direction and bound, and
//! the per-layer metric names. `BENCHMARK.json` is this module printed by
//! the `manifest` sub-command, so the file and the harness cannot drift.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "evolve_resident",
        "the paper's experiment: DECOMPOSE/MERGE/PARTITION/UNION scripts on resident sweep tables, \
         outputs read back; core and bitmap do all the work, server and disk none",
    ),
    (
        "serve_hot",
        "warehouse reads and small durable evolutions over loopback TCP, working set resident: \
         server, query kernels and bitmap work, the buffer cache does not",
    ),
    (
        "serve_cold",
        "the serve_hot op list under a buffer-cache budget of an eighth of the working set: \
         fault-in, decode and zone pruning dominate, isolating cache changes from wire changes",
    ),
];

/// `(name, unit, better, bound)`.
///
/// The issue asked for 0.10 on every timing metric. On the shared 2-core
/// host this was sized on, identical code moved every timing by 10-25 %
/// within the hour as the neighbours came and went (see README, hazards 4
/// and 5), and the driver refuses a benchmark whose run-to-run spread
/// exceeds a bound. The timing bounds are therefore the contract's
/// ceiling; memory and space, which repeat to within 2 % and 0.05 %, keep
/// the issue's bounds. `cpu_ms_per_op`, the issue's seventh metric, moved
/// most of all and is the per-layer `host.cpu_ms_per_op`.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("read_p10_ms", "ms", "lower", 0.25),
    ("evolve_p10_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
];

/// `(name, unit, better)`. A traced run prints every one of these; a
/// metric whose layer the workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("bitmap.and_mwords_per_s", "Mwords/s", "higher"),
    ("bitmap.filter_positions_mbits_per_s", "Mbits/s", "higher"),
    ("bitmap.build_mrows_per_s", "Mrows/s", "higher"),
    ("bitmap.codec_decode_mb_per_s", "MB/s", "higher"),
    ("storage.cache_hit_ratio", "ratio", "higher"),
    ("storage.cache_evictions_per_op", "count", "lower"),
    ("storage.decoded_mb_per_op", "MB", "lower"),
    ("storage.resident_mb", "MB", "lower"),
    ("storage.fault_in_mb_per_s", "MB/s", "higher"),
    ("storage.save_catalog_s", "s", "lower"),
    ("storage.open_s", "s", "lower"),
    ("storage.encode_table_mb_per_s", "MB/s", "higher"),
    ("storage.commit_bytes_per_script", "bytes", "lower"),
    ("storage.fsyncs_per_commit", "ratio", "lower"),
    ("storage.fsync_ms_mean", "ms", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.replay_ms", "ms", "lower"),
    ("storage.vacuum_ms", "ms", "lower"),
    ("storage.vacuum_reclaimed_mb", "MB", "higher"),
    ("storage.written_mb_per_s", "MB/s", "lower"),
    ("query.point_mask_ms", "ms", "lower"),
    ("query.range_mask_ms", "ms", "lower"),
    ("query.scan_stream_mrows_per_s", "Mrows/s", "higher"),
    ("query.group_by_ms", "ms", "lower"),
    ("query.join_ms", "ms", "lower"),
    ("query.segments_faulted_per_range_scan", "count", "lower"),
    ("core.decompose_ms.d100", "ms", "lower"),
    ("core.decompose_ms.d10k", "ms", "lower"),
    ("core.decompose_ms.d100k", "ms", "lower"),
    ("core.merge_ms.d100", "ms", "lower"),
    ("core.merge_ms.d10k", "ms", "lower"),
    ("core.merge_ms.d100k", "ms", "lower"),
    ("core.reshape_ms", "ms", "lower"),
    ("core.parse_plan_us", "us", "lower"),
    ("core.exec_overhead_ms.d10k", "ms", "lower"),
    ("core.fig3a_speedup_vs_m.d10k", "ratio", "higher"),
    ("core.fig3b_speedup_vs_m.d10k", "ratio", "higher"),
    ("server.ping_us", "us", "lower"),
    ("server.frame_encode_mb_per_s", "MB/s", "higher"),
    ("server.frame_decode_mb_per_s", "MB/s", "higher"),
    ("server.wire_overhead_ms.point", "ms", "lower"),
    ("server.wire_overhead_ms.scan", "ms", "lower"),
    ("server.wire_overhead_ms.group_by", "ms", "lower"),
    ("server.wire_overhead_ms.join", "ms", "lower"),
    ("server.scan_p50_ms", "ms", "lower"),
    ("server.scan_p95_ms", "ms", "lower"),
    ("server.group_by_p50_ms", "ms", "lower"),
    ("server.join_p50_ms", "ms", "lower"),
    ("server.point_p99_ms", "ms", "lower"),
    ("server.script_p95_ms", "ms", "lower"),
    ("server.bytes_streamed_per_op", "bytes", "lower"),
    ("server.rejected", "count", "lower"),
    ("host.cores", "count", "higher"),
    ("host.cpu_ms_per_op", "ms", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
    ("host.pass_iqr_ratio", "ratio", "lower"),
    ("host.footprint_growth_mb", "MB", "lower"),
    ("host.steal_ms_per_s", "ms/s", "lower"),
    ("host.trace_overhead_ratio", "ratio", "lower"),
];

/// `BENCHMARK.json`, in the shape the builder's contract prescribes.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}
