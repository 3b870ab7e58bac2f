//! # cods-bitmap
//!
//! Compressed bitmap kernel for the CODS reproduction (Liu et al., *CODS:
//! Evolving Data Efficiently and Scalably in Column Oriented Databases*,
//! VLDB 2010).
//!
//! The centerpiece is [`Wah`], a 64-bit Word-Aligned Hybrid compressed bitmap
//! (Wu, Otoo & Shoshani, TODS 2006 — reference \[9\] of the paper). Every
//! bitmap segment of the CODS column store is one WAH bitmap per present
//! value id, their words sharing one arena. Each read algorithm is written
//! once, on [`WahRef`], the borrowed view a segment hands out over that
//! arena; `Wah`'s read methods delegate to it. What the engine runs:
//!
//! * **logical ops on compressed form**, for predicate masks — [`Wah::and`],
//!   [`Wah::or`], [`Wah::not`], [`Wah::union_many`] ([`ops`]);
//! * **iterators**, for the storage layer's selection walker —
//!   [`WahRef::iter_ones`], [`WahRef::iter_intervals`],
//!   [`WahRef::count_intervals`], [`WahRef::scatter`] ([`iter`]);
//! * **run encoding**, how a segment seal writes each value's bitmap
//!   straight into its arena — [`encode_runs`];
//! * **splices**, how a mask or a value bitmap grows a segment at a time —
//!   [`Wah::append_run`], [`Wah::push_bits`], [`Wah::append_bitmap`];
//! * **the codec**, for payloads read off the disk — [`scan_body`],
//!   [`words_of`] and the checked [`Reader`] every decoder is written on
//!   ([`codec`]).
//!
//! [`Wah::filter_positions`] ([`filter`]), [`ValueStreamBuilder`] and the
//! stream codec ([`Wah::encode`], [`Wah::decode`]) remain only for the
//! benchmark's layer-1 probes and `fig3`'s ablation.
//!
//! [`PlainBitmap`] (uncompressed) and [`RleSeq`] (run-length encoded value
//! sequences, the form every segment is sealed from) complete the encoding
//! menu; the former is also the oracle for the property-test suite.
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
//! // A predicate mask is built and combined in compressed space.
//! let mut half = Wah::ones(5_000_000);
//! half.append_run(false, 5_000_000);
//! assert_eq!(hits.and(&half).count_ones(), 51);
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
