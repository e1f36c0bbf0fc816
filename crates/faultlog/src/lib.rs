//! # uc-faultlog — the scanner's log records, text format and stores
//!
//! The paper's dataset is a set of per-node log files produced by the memory
//! scanner: START entries (timestamp, allocated bytes, host, temperature),
//! ERROR entries (timestamp, host, virtual address, expected and actual
//! value, temperature, physical page), END entries, and a separate
//! allocation-failure log. This crate reproduces that data model:
//!
//! - [`record`]: the typed records;
//! - [`codec`]: a line-oriented plain-text format (writer + strict parser)
//!   mirroring the paper's log files — no serde, the format *is* the
//!   artifact;
//! - [`store`]: per-node logs with run-length compression for the
//!   pathological flood node (98% of the paper's 25M raw entries came from
//!   a single faulty node — we keep those as compact runs and expand them
//!   lazily), plus a k-way time-ordered merge across nodes;
//! - [`files`]: one-text-file-per-node persistence, the paper's on-disk
//!   layout;
//! - [`ingest`]: the one log reader — recovering (lossy) ingestion that
//!   skips and counts damage instead of aborting, with per-category
//!   [`ingest::IngestStats`] accounting;
//! - [`chaos`]: a deterministic log corrupter for chaos testing the
//!   ingestion and extraction paths;
//! - [`durable`]: crash-consistent storage — length-framed CRC-checksummed
//!   segments with flush boundaries and atomic sealing, an injectable I/O
//!   layer with bounded-retry backoff, per-directory manifests, and the
//!   `uc fsck` salvage engine with its conservation-law accounting.

pub mod chaos;
pub mod codec;
pub mod durable;
pub mod files;
pub mod ingest;
pub mod record;
pub mod store;

pub use codec::{format_record, parse_line, write_entry_into, write_record_into, ParseError};
pub use durable::{fsck_dir, DurabilityError, FsckReport};
pub use files::write_cluster_log;
pub use ingest::{read_cluster_log_recovering, IngestError, IngestStats, Recovered};
pub use record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
pub use store::{ClusterLog, LogEntry, NodeLog};
