//! # cods-server
//!
//! The network serving layer of the CODS reproduction: the SMO-script and
//! query surface (scans, predicate masks, aggregation, statistics) over a
//! length-prefixed, checksummed binary TCP protocol.
//!
//! * [`frame`] — WAL-idiom wire framing: `kind, len, payload, check`, the
//!   check being the storage frame checksum (`cods_storage::wal::checksum`),
//!   with torn- and corrupt-frame detection ([`FrameError`]).
//! * [`proto`] — typed [`Command`]s and [`Reply`]s plus their codec.
//! * [`session`] — per-connection [`Session`]: a pinned copy-on-write
//!   catalog snapshot, so long streaming scans stay consistent while
//!   evolution plans commit concurrently.
//! * [`admission`] — the [`Gate`]: semaphore-bounded execution slots, a
//!   bounded wait queue, and typed `Overloaded` rejection past the cap.
//! * [`metrics`] — server-wide counters surfaced by the `metrics`
//!   command, buffer-cache statistics included.
//! * [`server`] — [`Server::bind`], thread-per-connection dispatch,
//!   segment-batched result streaming through one 64 KiB reply window
//!   per connection, flushed once per reply (`TCP_NODELAY` on both ends;
//!   the blocking socket write is the per-connection backpressure).
//! * [`client`] — the blocking [`Client`] used by the CLI `connect` REPL
//!   and the integration suite.
//!
//! ```no_run
//! use cods_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let cods = Arc::new(cods::Cods::new());
//! let handle = Server::bind("127.0.0.1:0", cods, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.ping().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod session;

pub use admission::{Gate, Permit, Rejected};
pub use client::{Client, ClientError, QueryReply, ScanSummary};
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES, PROTO_VERSION};
pub use metrics::ServerMetrics;
pub use proto::{error_code, Command, DurabilityReply, MetricsReply, Reply, StatsReply, WireError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::Session;
