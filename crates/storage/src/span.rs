//! Named spans inside the engine: a fixed registry of timed sites, each
//! with a call count, total nanoseconds, an items counter (rows or bytes,
//! as the site says) and a log2-bucketed latency histogram.
//!
//! Recording is off by default, and then a site costs one relaxed load:
//! [`enter`] hands back an inert [`Timer`] without reading the clock. It is
//! switched by [`set_recording`] alone — no environment variable, flag or
//! configuration field turns it on. The registry is process-wide, so a
//! test that reads it runs in a binary of its own.
//!
//! The sites cover the payload layers: the seal, the selection walker's
//! decode and the fault-in's payload decode, each per encoding (the seal
//! and the walker count range segments apart from packed ones), and the
//! open's per-column dictionary and segment-metadata decode; and the
//! dictionary layer: deriving a value order, per outcome, building a value
//! → id map, and reconciling two dictionaries' ids, per path.

use crate::encoded::Encoding;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Latency buckets: bucket `b` counts spans of `[2^b, 2^(b+1))` ns (the
/// first also takes 0 ns), the last everything from about nine minutes.
pub const BUCKETS: usize = 40;

/// One timed site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `SegmentEnc::seal` writing a bitmap payload (items: rows).
    SealBitmap,
    /// `SegmentEnc::seal` keeping an RLE payload (items: rows).
    SealRle,
    /// `SegmentEnc::seal` packing a payload (items: rows).
    SealPacked,
    /// `SegmentEnc::seal` recording a range segment by its bounds (items:
    /// rows).
    SealRange,
    /// The selection walker reading a bitmap segment (items: rows read).
    WalkBitmap,
    /// The selection walker reading an RLE segment (items: rows read).
    WalkRle,
    /// The selection walker reading a packed segment (items: rows read).
    WalkPacked,
    /// The selection walker deriving a range segment's ids from its rows
    /// (items: rows read).
    WalkRange,
    /// `decode_payload` of a bitmap payload (items: payload bytes).
    FaultBitmap,
    /// `decode_payload` of an RLE payload (items: payload bytes).
    FaultRle,
    /// `decode_payload` of a packed payload (items: payload bytes).
    FaultPacked,
    /// The open decoding one column's dictionary (items: values read; none
    /// for a dense run, recorded by its bounds).
    OpenDict,
    /// The open decoding one column's segment records (items: present-id
    /// entries read; none for a range).
    OpenSegMeta,
    /// Deriving a dictionary's value order that found the values ascending
    /// in id order: one pass, no vectors (items: values).
    OrderIdentity,
    /// Deriving a dictionary's value order by sorting (items: values).
    OrderSorted,
    /// Interning building a dictionary's value → id map, the first time a
    /// new value does not extend a dense int run (items: values hashed).
    InternMap,
    /// `Dictionary::remap_to` between two handles of one dictionary (items:
    /// values).
    RemapSame,
    /// `Dictionary::remap_to` between two dense int ranges: an offset
    /// (items: values).
    RemapOffset,
    /// `Dictionary::remap_to` walking two identity orders (items: values
    /// of both sides).
    RemapWalk,
    /// `Dictionary::remap_to` merging two value orders (items: values of
    /// both sides).
    RemapMerge,
}

impl Span {
    /// Every span, in registry order.
    pub const ALL: [Span; 20] = [
        Span::SealBitmap,
        Span::SealRle,
        Span::SealPacked,
        Span::SealRange,
        Span::WalkBitmap,
        Span::WalkRle,
        Span::WalkPacked,
        Span::WalkRange,
        Span::FaultBitmap,
        Span::FaultRle,
        Span::FaultPacked,
        Span::OpenDict,
        Span::OpenSegMeta,
        Span::OrderIdentity,
        Span::OrderSorted,
        Span::InternMap,
        Span::RemapSame,
        Span::RemapOffset,
        Span::RemapWalk,
        Span::RemapMerge,
    ];

    /// The span's printed name.
    pub fn name(self) -> &'static str {
        match self {
            Span::SealBitmap => "seal.bitmap",
            Span::SealRle => "seal.rle",
            Span::SealPacked => "seal.packed",
            Span::SealRange => "seal.range",
            Span::WalkBitmap => "walk.bitmap",
            Span::WalkRle => "walk.rle",
            Span::WalkPacked => "walk.packed",
            Span::WalkRange => "walk.range",
            Span::FaultBitmap => "fault.bitmap",
            Span::FaultRle => "fault.rle",
            Span::FaultPacked => "fault.packed",
            Span::OpenDict => "open.dict",
            Span::OpenSegMeta => "open.segmeta",
            Span::OrderIdentity => "dict.order.identity",
            Span::OrderSorted => "dict.order.sorted",
            Span::InternMap => "dict.intern.map",
            Span::RemapSame => "dict.remap.same",
            Span::RemapOffset => "dict.remap.offset",
            Span::RemapWalk => "dict.remap.walk",
            Span::RemapMerge => "dict.remap.merge",
        }
    }

    /// The seal's span for a segment in `encoding`.
    pub fn seal(encoding: Encoding) -> Span {
        [Span::SealBitmap, Span::SealRle, Span::SealPacked][encoding as usize]
    }

    /// The walker's span for a segment in `encoding`.
    pub fn walk(encoding: Encoding) -> Span {
        [Span::WalkBitmap, Span::WalkRle, Span::WalkPacked][encoding as usize]
    }

    /// The payload decode's span for a segment in `encoding`.
    pub fn fault(encoding: Encoding) -> Span {
        [Span::FaultBitmap, Span::FaultRle, Span::FaultPacked][encoding as usize]
    }
}

/// One site's counters.
struct Site {
    count: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

impl Site {
    const fn new() -> Site {
        Site {
            count: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            items: AtomicU64::new(0),
            hist: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static REGISTRY: [Site; Span::ALL.len()] = [const { Site::new() }; Span::ALL.len()];

/// Turns recording on or off for every site.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether sites record (one relaxed load).
#[inline]
fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Starts timing `span`; the time is recorded when the timer drops. Off,
/// the timer is inert and the clock is not read.
#[inline]
pub fn enter(span: Span) -> Timer {
    Timer {
        span,
        start: recording().then(Instant::now),
        items: 0,
    }
}

/// A running span ([`enter`]).
#[must_use = "a span is recorded when its timer drops"]
pub struct Timer {
    span: Span,
    start: Option<Instant>,
    items: u64,
}

impl Timer {
    /// Adds what `n` counts to the span's items counter; `n` runs only
    /// while recording.
    #[inline]
    pub fn items(&mut self, n: impl FnOnce() -> u64) {
        if self.start.is_some() {
            self.items += n();
        }
    }

    /// Records this timer under `span` instead, for a site that learns its
    /// outcome while it runs.
    #[inline]
    pub fn relabel(&mut self, span: Span) {
        self.span = span;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let site = &REGISTRY[self.span as usize];
        site.count.fetch_add(1, Ordering::Relaxed);
        site.ns.fetch_add(ns, Ordering::Relaxed);
        site.items.fetch_add(self.items, Ordering::Relaxed);
        let bucket = (u64::BITS - ns.leading_zeros()).saturating_sub(1) as usize;
        site.hist[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }
}

/// What one site recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStats {
    /// The site.
    pub span: Span,
    /// Spans recorded.
    pub count: u64,
    /// Their total duration.
    pub total_ns: u64,
    /// Their items counter.
    pub items: u64,
    /// Spans per log2 latency bucket ([`BUCKETS`]).
    pub hist: [u64; BUCKETS],
}

impl SpanStats {
    /// The upper bound, in ns, of the bucket holding the `q`-quantile span
    /// (0 when nothing was recorded).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let want = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= want && n > 0 {
                return 1u64 << (b + 1);
            }
        }
        0
    }
}

/// Every site's counters, in registry order.
pub fn snapshot() -> Vec<SpanStats> {
    Span::ALL
        .iter()
        .zip(&REGISTRY)
        .map(|(&span, site)| SpanStats {
            span,
            count: site.count.load(Ordering::Relaxed),
            total_ns: site.ns.load(Ordering::Relaxed),
            items: site.items.load(Ordering::Relaxed),
            hist: std::array::from_fn(|b| site.hist[b].load(Ordering::Relaxed)),
        })
        .collect()
}

/// Zeroes every site's counters.
pub fn reset() {
    for site in &REGISTRY {
        site.count.store(0, Ordering::Relaxed);
        site.ns.store(0, Ordering::Relaxed);
        site.items.store(0, Ordering::Relaxed);
        for b in &site.hist {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The sites that recorded something, one line each: count, total and
/// mean time, the p50 and p99 bucket bounds, and the items counter.
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<19} {:>8} {:>11} {:>10} {:>9} {:>9} {:>12}",
        "span", "count", "total_ms", "mean_us", "p50<us", "p99<us", "items"
    );
    for s in snapshot().iter().filter(|s| s.count > 0) {
        let _ = writeln!(
            out,
            "{:<19} {:>8} {:>11.3} {:>10.2} {:>9.1} {:>9.1} {:>12}",
            s.span.name(),
            s.count,
            s.total_ns as f64 / 1e6,
            s.total_ns as f64 / 1e3 / s.count as f64,
            s.quantile_ns(0.5) as f64 / 1e3,
            s.quantile_ns(0.99) as f64 / 1e3,
            s.items
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_read_the_bucket_bounds() {
        let mut hist = [0; BUCKETS];
        hist[3] = 9; // [8, 16) ns
        hist[10] = 1; // [1024, 2048) ns
        let s = SpanStats {
            span: Span::OpenDict,
            count: 10,
            total_ns: 0,
            items: 0,
            hist,
        };
        assert_eq!(s.quantile_ns(0.5), 16);
        assert_eq!(s.quantile_ns(0.99), 2048);
        let none = SpanStats {
            count: 0,
            hist: [0; BUCKETS],
            ..s
        };
        assert_eq!(none.quantile_ns(0.5), 0);
    }

    #[test]
    fn an_inert_timer_records_nothing() {
        // Recording is never switched on in this binary's unit tests.
        let before = snapshot();
        let mut t = enter(Span::OpenSegMeta);
        t.items(|| 5);
        drop(t);
        assert_eq!(snapshot(), before);
    }
}
