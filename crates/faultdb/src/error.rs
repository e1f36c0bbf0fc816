//! Typed errors for every way a fault database can fail.
//!
//! The corruption-safety contract is: damage is *detected and named*,
//! never silently folded into query results. Any truncation or bit flip
//! in a database file surfaces as one of these variants — either at
//! [`crate::FaultDb::open`] (magic, trailer, footer) or at block-decode
//! time (payload CRC) — and the engine propagates it instead of
//! answering from a corrupt block.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a block failed its integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDamage {
    /// Stored CRC-32 does not match the payload bytes.
    ChecksumMismatch,
    /// The footer's (offset, length) points outside the block region.
    OutOfBounds,
    /// Payload length disagrees with the row count's column layout.
    LayoutMismatch,
    /// A decoded column value is not representable (e.g. bad node id).
    BadValue,
}

impl fmt::Display for BlockDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockDamage::ChecksumMismatch => write!(f, "checksum mismatch"),
            BlockDamage::OutOfBounds => write!(f, "offset/length out of bounds"),
            BlockDamage::LayoutMismatch => write!(f, "payload length disagrees with layout"),
            BlockDamage::BadValue => write!(f, "column value out of range"),
        }
    }
}

/// Database open/decode/query failure.
#[derive(Debug)]
pub enum DbError {
    /// I/O error touching the database file.
    Io { path: PathBuf, source: io::Error },
    /// File too short to even hold magic + trailer.
    TooShort { len: u64 },
    /// Leading magic bytes are not a faultdb's.
    BadMagic,
    /// Trailer or footer failed validation (bounds or CRC); the index
    /// cannot be trusted, so nothing can.
    BadFooter(String),
    /// Unsupported format version.
    BadVersion(u32),
    /// Block `index` failed its integrity check.
    BlockCorrupt { index: u32, damage: BlockDamage },
    /// Query text failed to parse.
    Query(String),
    /// The per-request deadline passed before the scan finished.
    Timeout,
    /// A live-db durability operation (WAL append/flush/seal) failed.
    Durable(uc_faultlog::DurabilityError),
    /// The live directory's generation catalog is damaged or inconsistent.
    Catalog(String),
    /// A request line exceeded the server's cap; the connection is closed
    /// rather than growing an unbounded buffer.
    LineTooLong { limit: usize },
    /// Another process owns the live directory (its PID is stamped in the
    /// lock file); concurrent serve/fsck/scrub would race the catalog.
    Locked { path: PathBuf, pid: u32 },
    /// A replication peer from a superseded epoch tried to push or serve
    /// history that conflicts with the promoted timeline.
    Fenced {
        local_epoch: u64,
        peer_epoch: u64,
        detail: String,
    },
    /// Two nodes disagree about the record stream at the same cursor —
    /// one of them holds forked history that must not be merged silently.
    Diverged(String),
    /// This node is a syncing replica; writes must go to the primary.
    ReadOnly { upstream: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            DbError::TooShort { len } => {
                write!(f, "file of {len} bytes is too short to be a faultdb")
            }
            DbError::BadMagic => write!(f, "not a faultdb file (bad magic)"),
            DbError::BadFooter(why) => write!(f, "corrupt footer: {why}"),
            DbError::BadVersion(v) => write!(f, "unsupported faultdb format version {v}"),
            DbError::BlockCorrupt { index, damage } => {
                write!(f, "block {index} corrupt: {damage}")
            }
            DbError::Query(why) => write!(f, "bad query: {why}"),
            DbError::Timeout => write!(f, "query deadline exceeded"),
            DbError::Durable(e) => write!(f, "durability failure: {e}"),
            DbError::Catalog(why) => write!(f, "catalog: {why}"),
            DbError::LineTooLong { limit } => {
                write!(f, "request exceeds the {limit}-byte line cap")
            }
            DbError::Locked { path, pid } => {
                write!(f, "{} is locked by live pid {pid}", path.display())
            }
            DbError::Fenced {
                local_epoch,
                peer_epoch,
                detail,
            } => write!(
                f,
                "fenced: peer epoch {peer_epoch} vs local epoch {local_epoch}: {detail}"
            ),
            DbError::Diverged(why) => write!(f, "history diverged: {why}"),
            DbError::ReadOnly { upstream } => {
                write!(f, "replica of {upstream} is read-only; push to the primary")
            }
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io { source, .. } => Some(source),
            DbError::Durable(source) => Some(source),
            _ => None,
        }
    }
}

impl From<uc_faultlog::DurabilityError> for DbError {
    fn from(e: uc_faultlog::DurabilityError) -> DbError {
        DbError::Durable(e)
    }
}

impl DbError {
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> DbError {
        DbError::Io {
            path: path.into(),
            source,
        }
    }

    /// Short machine-readable category, used as the wire error kind by the
    /// server (`ERR <kind>: <detail>`).
    pub fn kind(&self) -> &'static str {
        match self {
            DbError::Io { .. } => "io",
            DbError::TooShort { .. } | DbError::BadMagic => "notadb",
            DbError::BadFooter(_) | DbError::BadVersion(_) => "corrupt",
            DbError::BlockCorrupt { .. } => "corrupt",
            DbError::Query(_) => "parse",
            DbError::Timeout => "timeout",
            DbError::Durable(_) => "io",
            DbError::Catalog(_) => "corrupt",
            DbError::LineTooLong { .. } => "line-too-long",
            DbError::Locked { .. } => "locked",
            DbError::Fenced { .. } => "fenced",
            DbError::Diverged(_) => "diverged",
            DbError::ReadOnly { .. } => "readonly",
        }
    }
}

/// The one retry rule for a peer's `ERR <kind>`: a shed or a transient
/// server-side failure may pass on a retry; any other kind means the
/// session itself is wrong (gap, bad node, fenced …).
pub(crate) fn retryable(kind: &str) -> bool {
    matches!(kind, "overloaded" | "io" | "timeout")
}
