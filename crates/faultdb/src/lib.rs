//! faultdb — columnar fault database with a concurrent query and
//! serving layer.
//!
//! Re-analyzing the campaign's text logs means re-paying ingest,
//! recovery, and extraction on every question. This crate seals the
//! *output* of that pipeline — independent faults plus the provenance
//! the analyze report needs — into a compact binary columnar file, then
//! answers typed queries over it orders of magnitude faster, locally or
//! over TCP.
//!
//! The layers, bottom-up:
//!
//! * [`mod@format`] — the on-disk layout: fixed-size row-group blocks,
//!   column-major, each with a CRC-32 and a zone map, behind a
//!   CRC-protected footer; sealed with tmp + fsync + rename.
//! * [`snapshot`] — what a database stores: faults + report provenance,
//!   with [`snapshot::Snapshot::report_text`] as the single rendering
//!   path for both `uc analyze` and `uc analyze --db`.
//! * [`query`] — the predicate AST, the `action where expr` grammar,
//!   and conservative zone-map pruning.
//! * [`encoding`] — per-block column codecs: the v1 fixed layout and the
//!   v2 compressed encodings (delta timestamps, frame-of-reference
//!   bit-packing), chosen per block by a cost rule.
//! * [`cache`] — the sharded LRU over decoded blocks.
//! * [`kernel`] — branch-free scan kernels: predicate → selection
//!   bitmap, then count/top-k/group/hist over the bitmap.
//! * [`db`] — the engine: open/validate, prune, parallel block scans,
//!   deterministic merge, aggregation kernels.
//! * [`shard`] — the root catalog: (time window × rack) shards behind a
//!   `UCFDBROOT` index with shard-level zone maps, fan-out queries, and
//!   the [`shard::Engine`] abstraction over both database shapes.
//! * [`days`] — the replay feed for the mitigation policy engine
//!   (`uc policy`): the sealed stream of either shape, read once and
//!   split by simulated day, empty days included, over a span of at
//!   most [`days::MAX_DAY_SPAN`] days.
//! * [`build`] — `uc build-db`: log directory in, sealed database out.
//! * [`direct`] — `uc campaign --db`: recovered node logs folded in
//!   memory and sealed, byte-identical to the text path's `build-db`.
//! * `listener` (crate-private) — the connection runtime both servers
//!   run on: bind, acceptor, bounded admission shedding with a typed
//!   `ERR overloaded`, worker pool, read deadlines, prompt shutdown.
//! * [`server`] — `uc serve`: the query line protocol and its client.
//! * [`wal`] — the streaming write-ahead log: CRC-framed durable
//!   segments holding every accepted record, replayable after any crash.
//! * [`catalog`] — the live database: WAL replay, generation sealing
//!   from per-node carry states that fold each line as it arrives
//!   through the batch pipeline's own accumulators (so live answers are
//!   byte-identical to batch answers), and the generation catalog.
//! * [`lock`] — the PID-stamped `LOCK` that keeps a live directory
//!   single-writer.
//! * [`ingest_server`] — `uc serve --ingest` / `uc stream`: the framed
//!   TCP push protocol with sequence-numbered idempotent replay.
//! * [`repl`] — WAL-shipping replicas over the ingest port, and
//!   epoch-fenced failover.
//! * [`mod@fsck`] — `uc fsck` for every directory kind: live, sharded
//!   root, or durable logs and checkpoints, under one conservation
//!   ledger, with the generation check the scrubber shares.
//! * [`scrub`] — `uc scrub`: the rate-limited CRC scrubber that reseals
//!   damaged generations from the WAL.
//!
//! Corruption is a first-class outcome, never a wrong answer: every
//! read path validates CRCs outside-in and surfaces damage as a typed
//! [`DbError`].

pub mod build;
pub mod cache;
mod carry;
pub mod catalog;
pub mod days;
pub mod db;
pub mod direct;
pub mod encoding;
pub mod error;
pub mod format;
pub mod fsck;
pub mod ingest_server;
pub mod kernel;
mod listener;
pub mod lock;
pub mod query;
pub mod repl;
pub mod scrub;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod wal;

pub use build::{build_db, build_sharded_db};
pub use cache::CacheStats;
pub use catalog::{
    gen_file_name, is_live_dir, Catalog, GenEntry, IngestOutcome, LiveDb, LiveStatus, OpenReport,
};
pub use days::DayFaults;
pub use db::{BlockPlan, DbHandle, DbOptions, FaultDb, QueryOptions, QueryResult};
pub use direct::{seal_recovered, DirectFold};
pub use encoding::BlockEncoding;
pub use error::{BlockDamage, DbError};
pub use format::{FileEncoding, WriteOptions, WriteSummary};
pub use fsck::{fsck, fsck_live_dir, DirFsckReport};
pub use ingest_server::{
    stream_lines, IngestConfig, IngestServer, IngestServerStats, StreamOptions, StreamReport,
};
pub use lock::LiveLock;
pub use query::{parse_query, Query};
pub use repl::{NodeAdmin, ReplicaConfig, Replication, ReplicationStats, Role};
pub use scrub::{scrub_live_dir, ScrubConfig, ScrubReport, Scrubber};
pub use server::{
    Client, Response, ServeConfig, Server, ServerAdmin, ShutdownHandle, MAX_REQUEST_LINE,
};
pub use shard::{
    is_root_dir, write_sharded, Engine, RootCatalog, RootDb, RootWriteSummary, ShardEntry,
    ROOT_FILE,
};
pub use snapshot::Snapshot;
pub use wal::{Wal, WalRecord, WalRecovery};
