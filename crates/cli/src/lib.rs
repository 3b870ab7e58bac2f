//! # cods-cli
//!
//! The interactive CODS shells (library part). `commands` implements the
//! statements both shells share, the local back end and the local shell's
//! meta commands; `remote` hosts `cods serve` and the `cods connect` back
//! end. Exposing them as a library makes the whole demo workflow
//! scriptable and testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commands;
pub mod remote;

pub use commands::{repl, run_command, run_statement, Backend, Outcome, HELP};
pub use remote::{connect_command, connect_repl, serve, ServeOptions};
