//! One run of one workload: set-up, warm-up and a measured window of
//! identical passes, three times over, and the numbers drawn from the three
//! windows together.

use crate::data::Scale;
use crate::host::{self, median, quantile, ratio};
use crate::probes;
use crate::record::Recorder;
use crate::spec;
use cods_storage::segment_cache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Unmeasured passes after every set-up. Two cover each periodic phase a
/// pass contains: cache fill on the first, the first checkpoint's effects
/// on the second.
pub const WARMUP_PASSES: usize = 2;
/// Set-ups per run, each followed by its own window. `setup_s` is put
/// together from all of them (`setup_seconds`), and the measured passes
/// are spread over the whole life of the process instead of one stretch of
/// it, so a neighbour that is busy for ten seconds spoils one window, not
/// the run.
const SETUP_REPS: usize = 3;
const MIN_PASSES_PER_WINDOW: usize = 3;
const SMOKE_PASSES: usize = 3;

/// The quantile every timing is read at, over the passes (or the samples
/// of one op class) of all windows. Each pass does the same work, and on a
/// shared host interference only ever adds time, so the fast end of the
/// distribution is the program and the rest is the program plus the host.
/// Measured over eight runs of `evolve_resident`, every second one beside a
/// process that was busy in random bursts of 0.3-3 s: the quartile distance
/// of the runs' median pass time was 14.7 % of its median, of their lower
/// quartile 7.0 %, of their lowest decile 3.0 % (`cycle_d10k` latency:
/// 8.4 %, 3.3 %, 1.9 %). A change to the program moves the whole
/// distribution, the lowest decile with it.
pub const LOW_QUANTILE: f64 = 0.10;

/// Measured passes per second of `--seconds`, sized on a 2-core host so
/// the windows together last about `--seconds`. The count is fixed before
/// a window opens — a run is fixed work, never a time box — so every count
/// the windows produce (bytes, fsyncs, cache misses) repeats.
fn passes_per_second(workload: &str) -> f64 {
    match workload {
        "evolve_resident" => 1.8,
        "serve_hot" => 1.8,
        _ => 0.6,
    }
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans; defaults to the data root.
    pub trace_file: Option<PathBuf>,
    pub smoke: bool,
    pub json: bool,
}

/// Cumulative counters of the layers a workload hosts, read at the window's
/// edges. A resident workload leaves them zero.
#[derive(Clone, Copy, Default)]
pub struct LayerCounters {
    pub commits: u64,
    pub fsyncs: u64,
    pub fsync_micros: u64,
    pub bytes_streamed: u64,
    pub rejected: u64,
}

/// What the driver needs from a workload. `set_up` builds everything from
/// the seed; `pass` replays the same op list every time it is called.
pub trait Workload: Sized {
    fn set_up(name: &str, seed: u64, scale: &Scale, root: &Path) -> Self;
    /// Runs one pass, returning the ops it attempted.
    fn pass(&mut self, rec: &mut Recorder) -> u64;
    /// Releases what `set_up` took (server, files) so the next set-up
    /// starts from nothing.
    fn tear_down(self);
    /// The op class `evolve_p10_ms` is the lowest decile of.
    fn evolve_class(&self) -> &'static str;
    /// Digest of the op list, so two runs can show they replayed the same
    /// one.
    fn op_digest(&self) -> u64;
    fn data_dir(&self) -> Option<&Path>;
    fn counters(&mut self) -> LayerCounters;
    /// `(save_catalog seconds, open seconds)` of this set-up, if it saved.
    fn persist_times(&self) -> (f64, f64);
    /// After the window: bytes stored and bytes of user data, plus the
    /// checks that need the window over (reopen and compare). Failures go
    /// to `rec`.
    fn finish(self, rec: &mut Recorder, out: &mut Metrics) -> (u64, u64);
}

/// Name → (value, samples). Names are those of [`spec`].
pub type Metrics = BTreeMap<String, (f64, u64)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, samples: usize) {
    m.insert(name.to_string(), (value, samples as u64));
}

/// Per-pass measurements and the counter deltas of one block of passes, or
/// of several blocks added together.
#[derive(Default)]
pub struct Window {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub ops: Vec<u64>,
    pub ref_ms: Vec<f64>,
    /// Seconds the hypervisor withheld a core that had work, per pass.
    pub steal_s: Vec<f64>,
    pub seconds: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub decoded_bytes: u64,
    pub resident_bytes: u64,
    pub layers: LayerCounters,
    pub written_bytes: u64,
    pub footprint_growth_mb: f64,
}

impl Window {
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Each pass's wall time net of steal: what the pass would have taken
    /// had the hypervisor not run another guest on a core that had work.
    /// Within one run of `evolve_resident` with a tenth of its time stolen,
    /// passes with no steal took 750-900 ms and passes with 100-300 ms of
    /// steal took 850-1070 ms, 750-810 ms net.
    pub fn net_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.steal_s)
            .map(|(w, s)| w - s)
            .collect()
    }

    /// `(ops per second, CPU ms per op)`: ops of a pass over the low
    /// quantile of the passes' net times, and the low quantile of their
    /// CPU times over the ops of a pass. Every pass attempts the same ops.
    fn rates(&self) -> (f64, f64) {
        let ops = self.ops.first().copied().unwrap_or(0) as f64;
        (
            ratio(ops, quantile(&self.net_s(), LOW_QUANTILE)),
            ratio(quantile(&self.cpu_s, LOW_QUANTILE) * 1e3, ops),
        )
    }

    /// Adds the passes and counters of `other`, a later window of the same
    /// run.
    fn absorb(&mut self, other: Window) {
        self.wall_s.extend(other.wall_s);
        self.cpu_s.extend(other.cpu_s);
        self.ops.extend(other.ops);
        self.ref_ms.extend(other.ref_ms);
        self.seconds += other.seconds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.decoded_bytes += other.decoded_bytes;
        self.resident_bytes = other.resident_bytes;
        self.layers.commits += other.layers.commits;
        self.layers.fsyncs += other.layers.fsyncs;
        self.layers.fsync_micros += other.layers.fsync_micros;
        self.layers.bytes_streamed += other.layers.bytes_streamed;
        self.layers.rejected += other.layers.rejected;
        self.written_bytes += other.written_bytes;
        self.footprint_growth_mb += other.footprint_growth_mb;
        self.steal_s.extend(other.steal_s);
    }
}

fn run_window<W: Workload>(w: &mut W, rec: &mut Recorder, passes: usize, buf: &[u64]) -> Window {
    let footprint = |w: &W| {
        host::status_mib("VmRSS") * 1.048_576 + w.data_dir().map_or(0, host::dir_bytes) as f64 / 1e6
    };
    let mut win = Window::default();
    let (cache0, layers0, written0, footprint0) = (
        segment_cache().stats(),
        w.counters(),
        host::written_bytes(),
        footprint(w),
    );
    let start = Instant::now();
    for _ in 0..passes {
        win.ref_ms.push(host::ref_loop_ms(buf));
        let (steal0, cpu0, t0) = (host::steal_seconds(), host::cpu_seconds(), Instant::now());
        rec.begin_pass();
        let ops = w.pass(rec);
        rec.end_pass(&[("ops", ops)]);
        win.wall_s.push(t0.elapsed().as_secs_f64());
        win.cpu_s.push(host::cpu_seconds() - cpu0);
        win.steal_s.push(host::steal_seconds() - steal0);
        win.ops.push(ops);
    }
    win.seconds = start.elapsed().as_secs_f64();
    let (cache1, layers1) = (segment_cache().stats(), w.counters());
    win.cache_hits = cache1.hits - cache0.hits;
    win.cache_misses = cache1.misses - cache0.misses;
    win.cache_evictions = cache1.evictions - cache0.evictions;
    win.decoded_bytes = cache1.decoded_bytes - cache0.decoded_bytes;
    win.resident_bytes = cache1.resident_bytes;
    win.layers = LayerCounters {
        commits: layers1.commits - layers0.commits,
        fsyncs: layers1.fsyncs - layers0.fsyncs,
        fsync_micros: layers1.fsync_micros - layers0.fsync_micros,
        bytes_streamed: layers1.bytes_streamed - layers0.bytes_streamed,
        rejected: layers1.rejected - layers0.rejected,
    };
    win.written_bytes = host::written_bytes() - written0;
    win.footprint_growth_mb = footprint(w) - footprint0;
    win
}

/// Everything one run reports.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub passes: usize,
    pub op_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub first_failure: Option<String>,
    pub traced: bool,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Wall time of every measured pass, so drift or two regimes inside a
    /// run can be seen, not only summarised.
    pub pass_wall_ms: Vec<f64>,
    pub pass_cpu_ms: Vec<f64>,
    pub pass_steal_ms: Vec<f64>,
    /// Minimum, 5th, 10th, 25th and 50th percentile of the four
    /// distributions the timing metrics are read from, so how far the
    /// reported decile sits from the floor and from the median shows.
    pub low_quantiles: [(&'static str, [f64; 5]); 4],
    pub span_summary: BTreeMap<&'static str, (u64, f64, f64)>,
}

pub fn run<W: Workload>(opts: &Options, root: &Path) -> Report {
    let scale = if opts.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let passes = if opts.smoke {
        SMOKE_PASSES
    } else {
        let per_run = opts.seconds * passes_per_second(&opts.workload);
        MIN_PASSES_PER_WINDOW.max((per_run / reps as f64).round() as usize)
    };
    let epoch = Instant::now();
    let ref_buf: Vec<u64> = (0..host::REF_LOOP_WORDS as u64).collect();

    // Set up `reps` times; each set-up, warm-up included, is followed by its
    // own window on what it built, and the last one is kept for `finish`.
    // A traced run measures the first half of every window with tracing
    // off, so the cost of tracing is a number; its own metrics come from
    // the traced halves.
    let mut quiet = Recorder::new(epoch, false);
    let mut rec = Recorder::new(epoch, opts.trace);
    let (mut setup_phases, mut save_s, mut open_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut win, mut untraced) = (Window::default(), Window::default());
    let measured = if opts.trace {
        passes.div_ceil(2)
    } else {
        passes
    };
    let mut kept = None;
    for rep in 0..reps {
        let t = Instant::now();
        let mut w = W::set_up(&opts.workload, opts.seed, &scale, root);
        let built = t.elapsed().as_secs_f64();
        let (save, open) = w.persist_times();
        let mut phases = vec![built - save - open, save, open];
        for _ in 0..WARMUP_PASSES {
            let t = Instant::now();
            w.pass(&mut quiet);
            phases.push(t.elapsed().as_secs_f64());
        }
        setup_phases.push(phases);
        save_s.push(save);
        open_s.push(open);
        if opts.trace {
            untraced.absorb(run_window(&mut w, &mut quiet, measured, &ref_buf));
        }
        win.absorb(run_window(&mut w, &mut rec, measured, &ref_buf));
        if rep + 1 == reps {
            kept = Some(w);
        } else {
            w.tear_down();
        }
    }
    let w = kept.expect("at least one set-up");
    let peak_rss = host::status_mib("VmHWM");

    let mut layer = Metrics::new();
    if opts.trace {
        probes::universal(&mut layer);
        probes::window_counters(&win, &mut layer);
        put(
            &mut layer,
            "storage.save_catalog_s",
            median(&save_s),
            save_s.len(),
        );
        put(&mut layer, "storage.open_s", median(&open_s), open_s.len());
    }
    put(&mut layer, "host.cores", cores() as f64, 1);
    put(
        &mut layer,
        "host.ref_loop_ms",
        median(&win.ref_ms),
        win.ref_ms.len(),
    );
    put(
        &mut layer,
        "host.pass_iqr_ratio",
        ratio(quantile(&win.wall_s, 0.75), quantile(&win.wall_s, 0.25)),
        win.wall_s.len(),
    );
    put(
        &mut layer,
        "host.footprint_growth_mb",
        win.footprint_growth_mb,
        reps,
    );
    put(
        &mut layer,
        "host.steal_ms_per_s",
        ratio(win.steal_s.iter().sum::<f64>() * 1e3, win.seconds),
        reps,
    );
    if opts.trace {
        put(
            &mut layer,
            "host.trace_overhead_ratio",
            ratio(untraced.rates().0, win.rates().0),
            untraced.wall_s.len() + win.wall_s.len(),
        );
    }

    let (evolve_class, op_digest) = (w.evolve_class(), w.op_digest());
    let (stored, user) = w.finish(&mut rec, &mut layer);

    let (ops_per_s, cpu_ms_per_op) = win.rates();
    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", setup_seconds(&setup_phases), reps);
    put(&mut e2e, "ops_per_s", ops_per_s, win.wall_s.len());
    let reads = rec.samples("point");
    put(
        &mut e2e,
        "read_p10_ms",
        quantile(reads, LOW_QUANTILE),
        reads.len(),
    );
    let evolves = rec.samples(evolve_class);
    put(
        &mut e2e,
        "evolve_p10_ms",
        quantile(evolves, LOW_QUANTILE),
        evolves.len(),
    );
    put(
        &mut layer,
        "host.cpu_ms_per_op",
        cpu_ms_per_op,
        win.cpu_s.len(),
    );
    put(&mut e2e, "peak_rss_mb", peak_rss, 1);
    put(
        &mut e2e,
        "stored_bytes_per_user_byte",
        ratio(stored as f64, user as f64),
        1,
    );

    if opts.trace {
        let path = opts.trace_file.clone().unwrap_or_else(|| {
            root.join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed))
        });
        match rec.write_spans(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let first_failure = quiet
        .first_failure
        .map(|f| format!("unmeasured pass: {f}"))
        .or(rec.first_failure.clone());
    let shape = |v: &[f64]| [0.0, 0.05, 0.10, 0.25, 0.50].map(|q| quantile(v, q));
    Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        passes: win.wall_s.len(),
        op_digest,
        attempted: rec.attempted,
        failed: rec.failed,
        correct: first_failure.is_none(),
        first_failure,
        traced: opts.trace,
        end_to_end: e2e,
        per_layer: layer,
        pass_wall_ms: win.wall_s.iter().map(|s| s * 1e3).collect(),
        pass_cpu_ms: win.cpu_s.iter().map(|s| s * 1e3).collect(),
        pass_steal_ms: win.steal_s.iter().map(|s| s * 1e3).collect(),
        low_quantiles: [
            ("pass_net_s", shape(&win.net_s())),
            ("pass_cpu_s", shape(&win.cpu_s)),
            ("read_ms", shape(reads)),
            ("evolve_ms", shape(evolves)),
        ],
        span_summary: rec.span_summary(),
    }
}

/// Set-up time from the phase times of every set-up of the run (generate,
/// load, bind, connect and build the oracle; `save_catalog`; `open_durable`;
/// first and second warm-up pass): the sum of each phase's fastest time. A whole set-up lasts
/// seconds, long enough that on a busy host none of three escapes
/// interference somewhere; a phase is short enough that one of three
/// usually does. Over twenty quiet runs of `serve_hot` the median set-up
/// ranged over 35 % of its median, the fastest set-up over 29 %, this sum
/// over 23 %; and the first set-up of a process, which pays for
/// never-touched pages, is the slowest in every phase and decides nothing.
fn setup_seconds(phases: &[Vec<f64>]) -> f64 {
    (0..phases[0].len())
        .map(|k| phases.iter().map(|p| p[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Report {
    /// The contract's result line: end-to-end metrics from an untraced run,
    /// every per-layer metric from a traced one.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            spec::PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    let v = self.per_layer.get(*name).map_or(0.0, |m| m.0);
                    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .map(|(name, unit, _, _)| {
                    let v = self.end_to_end[*name].0;
                    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every number of the run on one JSON line, for `repeat`, `run all`
    /// and `--json`.
    pub fn detail_line(&self) -> String {
        let fmt = |m: &Metrics| -> String {
            m.iter()
                .map(|(k, (v, n))| format!("\"{k}\": [{v}, {n}]"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"passes\": {}, \"op_digest\": \"{:016x}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"pass_wall_ms\": {:.1?}, \
             \"pass_cpu_ms\": {:.1?}, \"pass_steal_ms\": {:.0?}, \
             \"min_p05_p10_p25_p50\": {{{}}}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            self.workload,
            self.seed,
            self.passes,
            self.op_digest,
            self.correct,
            self.attempted,
            self.failed,
            self.pass_wall_ms,
            self.pass_cpu_ms,
            self.pass_steal_ms,
            self.low_quantiles
                .iter()
                .map(|(k, q)| format!("\"{k}\": {q:?}"))
                .collect::<Vec<_>>()
                .join(", "),
            fmt(&self.end_to_end),
            fmt(&self.per_layer)
        )
    }

    /// The table a person reads: every metric by name with unit, sample
    /// count and bound.
    pub fn print_table(&self) {
        println!(
            "== {} seed {} — {} measured passes, op list {:016x}, {} ops attempted, {} failed",
            self.workload, self.seed, self.passes, self.op_digest, self.attempted, self.failed
        );
        if let Some(why) = &self.first_failure {
            println!("   FIRST FAILURE: {why}");
        }
        println!(
            "{:<40} {:>16} {:<9} {:>8} {:>6}",
            "metric", "value", "unit", "samples", "bound"
        );
        for (name, unit, _, bound) in spec::END_TO_END {
            let (v, n) = self.end_to_end[*name];
            println!("{name:<40} {v:>16.4} {unit:<9} {n:>8} {bound:>6}");
        }
        for (name, unit, _) in spec::PER_LAYER {
            if let Some((v, n)) = self.per_layer.get(*name) {
                println!("{name:<40} {v:>16.4} {unit:<9} {n:>8} {:>6}", "-");
            }
        }
        if !self.span_summary.is_empty() {
            println!(
                "{:<40} {:>8} {:>14} {:>14}",
                "span", "count", "total ms", "self ms"
            );
            for (name, (count, total, own)) in &self.span_summary {
                println!("{name:<40} {count:>8} {total:>14.2} {own:>14.2}");
            }
        }
    }
}
