//! What a run records: one latency sample per op (always) and, in a traced
//! run, one span per call the harness makes into a layer. Spans stay in
//! memory and are written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the same recorder's span list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// An op in flight: created by [`Recorder::begin_op`], closed by
/// [`Recorder::end_op`].
pub struct OpToken {
    class: &'static str,
    id: u64,
    t0: Instant,
    span: Option<usize>,
}

/// The run's recorder. Every workload drives its ops from one thread, so
/// one recorder holds every sample and span of a run.
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    /// Latency samples in milliseconds, per op class.
    samples: BTreeMap<&'static str, Vec<f64>>,
    pass_span: Option<usize>,
    next_op: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Recorder {
    pub fn new(epoch: Instant, tracing: bool) -> Recorder {
        Recorder {
            epoch,
            tracing,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            pass_span: None,
            next_op: 0,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> Option<usize> {
        if !self.tracing {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            counts: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens the span every op of the coming pass hangs under.
    pub fn begin_pass(&mut self) {
        self.pass_span = self.open("pass", None, 0);
    }

    pub fn end_pass(&mut self, counts: &[(&'static str, u64)]) {
        let span = self.pass_span.take();
        self.end_span(span, counts);
    }

    /// Starts one op of `class`: stamps its start and opens its span.
    pub fn begin_op(&mut self, class: &'static str) -> OpToken {
        self.next_op += 1;
        let id = self.next_op;
        let span = self.open(class, self.pass_span, id);
        OpToken {
            class,
            id,
            t0: Instant::now(),
            span,
        }
    }

    /// Opens a span around one call into a layer, under `op`.
    pub fn begin_span(&mut self, name: &'static str, op: &OpToken) -> Option<usize> {
        self.open(name, op.span, op.id)
    }

    pub fn end_span(&mut self, span: Option<usize>, counts: &[(&'static str, u64)]) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
            self.spans[i].counts.extend_from_slice(counts);
        }
    }

    /// Closes `op`: its latency (start to now, or `latency_ms` when the op
    /// is timed from a schedule) becomes one sample of its class, and a
    /// failed verdict counts against the attempt.
    pub fn end_op(&mut self, op: OpToken, latency_ms: Option<f64>, verdict: Result<(), String>) {
        let ms = latency_ms.unwrap_or_else(|| op.t0.elapsed().as_secs_f64() * 1e3);
        self.end_span(op.span, &[]);
        self.samples.entry(op.class).or_default().push(ms);
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{}: {why}", op.class));
        }
    }

    /// Latency samples of `class` in milliseconds (empty when the workload
    /// has no such op).
    pub fn samples(&self, class: &str) -> &[f64] {
        self.samples.get(class).map_or(&[], Vec::as_slice)
    }

    /// Writes the spans as JSON lines: `id, parent, op_id, name, start_ns,
    /// end_ns, counts`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op_id\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns,
                counts.join(",")
            );
        }
        std::fs::write(path, out)
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is the
    /// span's duration minus what its child spans cover.
    pub fn span_summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur(s);
            e.2 += dur(s) - child_ms[i];
        }
        out
    }
}
