//! Server-wide counters, updated lock-free by connection threads and
//! snapshotted into a [`MetricsReply`] on demand.

use crate::proto::MetricsReply;
use cods_storage::{segment_cache, CommitLog};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic (and two gauge) counters shared by every connection thread.
/// All updates are `Relaxed`: the metrics command reads a statistically
/// consistent snapshot, not a linearized one.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections currently open (gauge).
    pub connections_open: AtomicU64,
    /// Connections accepted since start.
    pub connections_total: AtomicU64,
    /// Data-plane requests admitted since start.
    pub admitted_total: AtomicU64,
    /// Data-plane requests rejected with `Overloaded` since start.
    pub rejected_total: AtomicU64,
    /// Payload bytes streamed to clients since start.
    pub bytes_streamed: AtomicU64,
    /// Result rows streamed to clients since start.
    pub rows_streamed: AtomicU64,
    /// Connections evicted for idling past the server's deadline.
    pub idle_evicted: AtomicU64,
}

impl ServerMetrics {
    /// Builds the wire reply, folding in the admission gate's live gauges,
    /// the process-wide segment buffer cache counters, and — when the
    /// server runs durably — the commit log's own counters.
    pub fn snapshot(&self, in_flight: u64, queued: u64, log: Option<&CommitLog>) -> MetricsReply {
        MetricsReply {
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            in_flight,
            queued,
            admitted_total: self.admitted_total.load(Ordering::Relaxed),
            rejected_total: self.rejected_total.load(Ordering::Relaxed),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            rows_streamed: self.rows_streamed.load(Ordering::Relaxed),
            idle_evicted: self.idle_evicted.load(Ordering::Relaxed),
            cache: segment_cache().stats(),
            log: log.map(CommitLog::stats),
        }
    }

    /// Bumps a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements a gauge by one.
    pub fn dec(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }
}
