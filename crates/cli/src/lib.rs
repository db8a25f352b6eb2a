//! Library backing the `agreements` command-line tool.
//!
//! The CLI wraps the workspace crates for operators of a sharing
//! federation:
//!
//! - `agreements economy …` — create, inspect, and value ticket/currency
//!   economies stored as JSON.
//! - `agreements allocate …` — one-shot allocation decisions (with
//!   `--explain` for the per-owner breakdown and shadow prices).
//! - `agreements trace …` — generate, inspect, and convert workload
//!   traces.
//! - `agreements simulate …` — run the cooperating-proxy case study from
//!   a JSON spec.
//!
//! Everything is exposed as a library (`run(args) -> Result<String>`)
//! so commands are unit-testable without spawning processes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod commands;
pub mod spec;

pub use args::{ArgError, Parsed};
pub use commands::{run, CliError};
