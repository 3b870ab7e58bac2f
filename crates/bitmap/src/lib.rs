//! # cods-bitmap
//!
//! Compressed bitmap kernel for the CODS reproduction (Liu et al., *CODS:
//! Evolving Data Efficiently and Scalably in Column Oriented Databases*,
//! VLDB 2010).
//!
//! The centerpiece is [`Wah`], a 64-bit Word-Aligned Hybrid compressed bitmap
//! (Wu, Otoo & Shoshani, TODS 2006 — reference \[9\] of the paper). Every
//! column of the CODS column store is a dictionary plus one WAH bitmap per
//! distinct value, and every data-level evolution operator is expressed in
//! the algebra provided here. Each read algorithm is written once, on
//! [`WahRef`], the borrowed view a storage segment hands out over the one
//! word arena its bitmaps share; `Wah`'s read methods delegate to it:
//!
//! * **logical ops on compressed form** — [`Wah::and`], [`Wah::or`],
//!   [`Wah::not`], [`Wah::union_many`] ([`ops`]);
//! * **bitmap filtering** (the decomposition gather) —
//!   [`Wah::filter_positions`], [`Wah::filter_bitmap`], [`Wah::slice`]
//!   ([`filter`]);
//! * **run encoding** (how a segment seal writes each value's bitmap
//!   straight into its arena) — [`encode_runs`], and run appends,
//!   [`Wah::append_run`];
//! * **single-pass construction** — [`OneStreamBuilder`],
//!   [`ValueStreamBuilder`] ([`builder`]);
//! * **concatenation** for UNION TABLES — [`Wah::append_bitmap`],
//!   [`Wah::concat`].
//!
//! [`PlainBitmap`] (uncompressed) and [`RleSeq`] (run-length encoded value
//! sequences, for sorted columns) complete the encoding menu; the former is
//! also the oracle for the property-test suite.
//!
//! ## Example
//!
//! ```
//! use cods_bitmap::Wah;
//!
//! // A sparse column bitmap over ten million rows…
//! let hits = Wah::from_sorted_positions((0..100u64).map(|i| i * 99_991), 10_000_000);
//! // …occupies a few hundred bytes, not 1.25 MB.
//! assert!(hits.size_bytes() < 4096);
//!
//! // Evolution never decompresses: filtering to 1000 sampled rows stays
//! // in compressed space.
//! let sampled: Vec<u64> = (0..1000u64).map(|i| i * 9973).collect();
//! let shrunk = hits.filter_positions(&sampled);
//! assert_eq!(shrunk.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod codec;
pub mod filter;
pub mod iter;
pub mod ops;
pub mod plain;
pub mod rle;
pub mod wah;
pub mod word;

pub use builder::{OneStreamBuilder, ValueStreamBuilder};
pub use codec::{scan_body, words_of, CodecError, DecodedStream, Reader};
pub use iter::{IntervalIter, OnesIter, Run, RunIter};
pub use ops::BinOp;
pub use plain::PlainBitmap;
pub use rle::RleSeq;
pub use wah::{encode_runs, Wah, WahRef};
