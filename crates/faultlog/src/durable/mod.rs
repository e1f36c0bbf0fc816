//! Crash-consistent durable storage for logs and checkpoints.
//!
//! The paper's raw dataset survived node crashes, hard reboots, and a
//! flaky parallel filesystem; this module gives the reproduction the same
//! property. It layers, bottom up:
//!
//! - [`crc`]: CRC-32 (from scratch, per DESIGN.md §5) for frame checksums
//!   and whole-file digests;
//! - [`io`]: the injectable I/O trait ([`io::StdIo`] in production,
//!   [`io::FlakyIo`] in tests) plus [`io::with_retry`] — bounded
//!   exponential backoff degrading to a typed [`DurabilityError`];
//! - [`segment`]: length-framed, CRC-checksummed append-only segments
//!   with explicit flush boundaries and temp-then-atomic-rename sealing;
//! - [`manifest`]: the per-directory index of sealed segments and their
//!   digests;
//! - [`fsck`]: verification and salvage (`uc fsck`), governed by the
//!   conservation law `bytes_in == bytes_salvaged + bytes_quarantined`,
//!   with the byte ledger and the quarantine move every repair shares.
//!
//! This file adds the log-level glue: durable node-log file naming
//! (`node-BB-SS.dlog`) and cluster-wide durable writers that keep going
//! when a single node's storage fails (degraded, never panicking).
//! Ingestion reads the segments back frame by frame
//! (`ingest::read_node_log_recovering`).

pub mod crc;
pub mod fsck;
pub mod io;
pub mod manifest;
pub mod segment;

use std::fmt;
use std::io as stdio;
use std::path::{Path, PathBuf};

use uc_cluster::NodeId;

use crate::codec::{write_entry_into, write_record_into};
use crate::store::{ClusterLog, NodeLog};

pub use fsck::{
    fsck_dir, fsck_dir_with, quarantine_file, quarantine_file_with, read_fsck_report, ByteLedger,
    FsckReport, FSCK_REPORT_NAME, LOST_AND_FOUND,
};
pub use io::{with_retry, FlakyIo, Io, RetryPolicy, StdIo};
pub use manifest::{read_manifest, write_manifest, Manifest, ManifestEntry, MANIFEST_NAME};
pub use segment::{
    encode_frame, frame_at, push_frame, scan_segment_bytes, scan_segment_slices, write_frame,
    FrameDamage, FrameEvent, FrameReader, SealedSegment, SegmentScan, SegmentScanRef,
    SegmentWriter, FRAME_HEADER_LEN, MAGIC, MAX_FRAME_LEN,
};

/// A durability failure: typed, recoverable, and never a panic. Campaigns
/// treat these as "this node's storage is degraded" and keep running.
#[derive(Debug)]
pub enum DurabilityError {
    /// An I/O operation still failed after `attempts` tries.
    Io {
        path: PathBuf,
        attempts: u32,
        source: stdio::Error,
    },
    /// A durable directory that should exist does not.
    Missing(PathBuf),
    /// The durable path exists but is not a directory.
    NotADirectory(PathBuf),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io {
                path,
                attempts,
                source,
            } => write!(
                f,
                "I/O failure on {} after {attempts} attempt(s): {source}",
                path.display()
            ),
            DurabilityError::Missing(p) => write!(f, "missing durable directory: {}", p.display()),
            DurabilityError::NotADirectory(p) => write!(f, "not a directory: {}", p.display()),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// File name for a node's durable log segment.
pub fn durable_file_name(node: NodeId) -> String {
    format!("node-{node}.dlog")
}

/// Parse a node id back out of a durable log file name.
pub fn node_of_durable_file_name(name: &str) -> Option<NodeId> {
    let stem = name.strip_prefix("node-")?.strip_suffix(".dlog")?;
    NodeId::from_name(stem)
}

/// Records buffered in memory between flushes never exceed this, no
/// matter how large the log: a flood node's run-length store expands to
/// tens of millions of raw lines, and neither those lines nor their
/// frames are ever held in memory all at once.
const MAX_FLUSH_STRIDE: usize = 1 << 16;

/// How many records accumulate between flush boundaries when writing a
/// whole log: ⌈n/4⌉, capping any *small* log at a handful of boundaries
/// so the crash-matrix suite (one crash per boundary) stays bounded,
/// while [`MAX_FLUSH_STRIDE`] bounds the buffered chunk for huge logs.
fn flush_stride(total: usize) -> usize {
    total.div_ceil(4).clamp(1, MAX_FLUSH_STRIDE)
}

/// Stream `total` items into a durable segment, flushing every
/// [`flush_stride`] records. Items are consumed lazily and rendered into
/// one reusable line buffer — a run-length-expanded flood log never
/// materializes as a `Vec` of lines, and no `String` is allocated per
/// record.
fn write_lines_durable<T>(
    dir: &Path,
    file_name: &str,
    total: usize,
    items: impl Iterator<Item = T>,
    render: impl Fn(&mut String, &T),
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<SealedSegment, DurabilityError> {
    let mut w = SegmentWriter::create(dir, file_name, io, policy)?;
    let stride = flush_stride(total);
    let mut line = String::with_capacity(128);
    for (i, item) in items.enumerate() {
        line.clear();
        render(&mut line, &item);
        w.append(line.as_bytes());
        if (i + 1) % stride == 0 {
            w.flush()?;
        }
    }
    w.seal()
}

/// Write one node's log as a durable segment, one raw record line per
/// frame (compressed runs expanded, like [`crate::files::write_node_log`]).
pub fn write_node_log_durable_with(
    dir: &Path,
    log: &NodeLog,
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<SealedSegment, DurabilityError> {
    let node = log
        .node
        .ok_or_else(|| DurabilityError::Missing(dir.join("<no node id>")))?;
    let total = log.raw_record_count() as usize;
    write_lines_durable(
        dir,
        &durable_file_name(node),
        total,
        log.iter(),
        write_record_into,
        io,
        policy,
    )
}

/// Write one node's log as a durable segment in the compact format, one
/// entry line per frame (runs stay single `ERRORRUN` frames).
pub fn write_node_log_durable_compact_with(
    dir: &Path,
    log: &NodeLog,
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<SealedSegment, DurabilityError> {
    let node = log
        .node
        .ok_or_else(|| DurabilityError::Missing(dir.join("<no node id>")))?;
    let total = log.entries().len();
    write_lines_durable(
        dir,
        &durable_file_name(node),
        total,
        log.entries().iter(),
        |buf, e| write_entry_into(buf, e),
        io,
        policy,
    )
}

/// What a cluster-wide durable write accomplished. A node whose storage
/// failed permanently lands in `failures`; the rest of the cluster is
/// still durably on disk — degraded operation, not an abort.
#[derive(Debug, Default)]
pub struct DurableWriteOutcome {
    /// Segments sealed successfully, in node order.
    pub sealed: Vec<SealedSegment>,
    /// Nodes whose segment could not be written, with the typed error.
    pub failures: Vec<(NodeId, DurabilityError)>,
    /// Set when the final manifest write itself failed.
    pub manifest_error: Option<DurabilityError>,
}

impl DurableWriteOutcome {
    /// Everything (segments and manifest) reached disk.
    pub fn is_fully_durable(&self) -> bool {
        self.failures.is_empty() && self.manifest_error.is_none()
    }
}

fn write_cluster_durable_inner(
    dir: &Path,
    cluster: &ClusterLog,
    io: &dyn Io,
    policy: RetryPolicy,
    compact: bool,
) -> DurableWriteOutcome {
    let mut out = DurableWriteOutcome::default();
    let mut manifest = read_manifest(dir, io).unwrap_or_default();
    for log in cluster.node_logs() {
        let Some(node) = log.node else { continue };
        let result = if compact {
            write_node_log_durable_compact_with(dir, log, io, policy)
        } else {
            write_node_log_durable_with(dir, log, io, policy)
        };
        match result {
            Ok(sealed) => {
                manifest.upsert(ManifestEntry {
                    file: sealed.file_name.clone(),
                    bytes: sealed.bytes,
                    crc: sealed.digest,
                });
                out.sealed.push(sealed);
            }
            Err(e) => out.failures.push((node, e)),
        }
    }
    if let Err(e) = write_manifest(dir, &manifest, io, &policy) {
        out.manifest_error = Some(e);
    }
    out
}

/// Write a whole cluster durably (raw record frames), then the manifest.
/// Never fails as a whole: per-node failures are collected in the outcome.
pub fn write_cluster_log_durable_with(
    dir: &Path,
    cluster: &ClusterLog,
    io: &dyn Io,
    policy: RetryPolicy,
) -> DurableWriteOutcome {
    write_cluster_durable_inner(dir, cluster, io, policy, false)
}

/// Compact-format variant of [`write_cluster_log_durable_with`].
pub fn write_cluster_log_durable_compact_with(
    dir: &Path,
    cluster: &ClusterLog,
    io: &dyn Io,
    policy: RetryPolicy,
) -> DurableWriteOutcome {
    write_cluster_durable_inner(dir, cluster, io, policy, true)
}

/// [`write_cluster_log_durable_with`] against the real filesystem.
pub fn write_cluster_log_durable(dir: &Path, cluster: &ClusterLog) -> DurableWriteOutcome {
    write_cluster_log_durable_with(dir, cluster, &StdIo, RetryPolicy::default())
}

/// Compact-format variant of [`write_cluster_log_durable`].
pub fn write_cluster_log_durable_compact(dir: &Path, cluster: &ClusterLog) -> DurableWriteOutcome {
    write_cluster_log_durable_compact_with(dir, cluster, &StdIo, RetryPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::format_record;
    use crate::record::{EndRecord, ErrorRecord, LogRecord, StartRecord};
    use std::fs;
    use uc_simclock::{SimDuration, SimTime};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-durable-mod-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_log(node: u32) -> NodeLog {
        let id = NodeId(node);
        let mut log = NodeLog::new(id);
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node: id,
            alloc_bytes: 3 << 30,
            temp: None,
        }));
        log.push_run(
            ErrorRecord {
                time: SimTime::from_secs(40),
                node: id,
                vaddr: 0x1000,
                phys_page: 1,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFFE,
                temp: None,
            },
            3,
            SimDuration::from_secs(40),
        );
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(500),
            node: id,
            temp: None,
        }));
        log
    }

    #[test]
    fn durable_file_names_roundtrip() {
        let id = NodeId::from_name("02-04").unwrap();
        assert_eq!(durable_file_name(id), "node-02-04.dlog");
        assert_eq!(node_of_durable_file_name("node-02-04.dlog"), Some(id));
        assert_eq!(node_of_durable_file_name("node-02-04.log"), None);
        assert_eq!(node_of_durable_file_name("MANIFEST"), None);
    }

    #[test]
    fn cluster_roundtrips_through_durable_segments() {
        let dir = tmpdir("roundtrip");
        let cluster = ClusterLog::new(vec![sample_log(10), sample_log(77)]);
        let out = write_cluster_log_durable(&dir, &cluster);
        assert!(out.is_fully_durable());
        assert_eq!(out.sealed.len(), 2);
        let m = read_manifest(&dir, &StdIo).unwrap();
        assert_eq!(m.entries.len(), 2);
        for sealed in &out.sealed {
            let scan = scan_segment_bytes(&fs::read(&sealed.path).unwrap());
            assert!(scan.damage.is_none());
            let node = node_of_durable_file_name(&sealed.file_name).unwrap();
            let expect = cluster
                .node_logs()
                .iter()
                .find(|l| l.node == Some(node))
                .unwrap();
            // One frame per raw record line, byte for byte.
            let expect_frames: Vec<Vec<u8>> = expect
                .iter()
                .map(|r| format_record(&r).into_bytes())
                .collect();
            assert_eq!(scan.payloads, expect_frames);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_cluster_keeps_runs_as_single_frames() {
        let dir = tmpdir("compact");
        let cluster = ClusterLog::new(vec![sample_log(9)]);
        let out = write_cluster_log_durable_compact(&dir, &cluster);
        assert!(out.is_fully_durable());
        let scan = scan_segment_bytes(&fs::read(&out.sealed[0].path).unwrap());
        assert!(scan.damage.is_none());
        assert_eq!(scan.payloads.len(), 3, "START + ERRORRUN + END");
        assert!(scan.payloads[1].starts_with(b"ERRORRUN"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_poisoned_node_degrades_without_stopping_the_cluster() {
        let dir = tmpdir("degraded");
        let cluster = ClusterLog::new(vec![sample_log(10), sample_log(77)]);
        // Node 77 maps to "01-17"; poison its durable file specifically.
        let poisoned = cluster.node_logs()[1].node.unwrap();
        let io = FlakyIo::poisoning(&durable_file_name(poisoned));
        let out = write_cluster_log_durable_with(&dir, &cluster, &io, RetryPolicy::immediate(2));
        assert!(!out.is_fully_durable());
        assert_eq!(out.sealed.len(), 1);
        assert_eq!(out.failures.len(), 1);
        let (node, err) = &out.failures[0];
        assert_eq!(*node, poisoned);
        assert!(matches!(err, DurabilityError::Io { attempts: 2, .. }));
        // The healthy node's segment and the manifest still landed.
        assert!(out.manifest_error.is_none());
        let m = read_manifest(&dir, &StdIo).unwrap();
        assert_eq!(m.entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_durable_log_loses_only_the_unflushed_tail() {
        let dir = tmpdir("torn-text");
        let out = write_cluster_log_durable(&dir, &ClusterLog::new(vec![sample_log(3)]));
        let sealed = &out.sealed[0];
        let bytes = fs::read(&sealed.path).unwrap();
        // Crash mid-way: cut inside the frame after the first boundary.
        let cut = sealed.flush_boundaries[0] as usize + 4;
        fs::write(&sealed.path, &bytes[..cut]).unwrap();
        let scan = scan_segment_bytes(&fs::read(&sealed.path).unwrap());
        assert!(scan.damage.is_some());
        assert!(scan.valid_bytes >= sealed.flush_boundaries[0]);
        assert!(!scan.payloads.is_empty(), "flushed prefix survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_error_display_carries_context() {
        let e = DurabilityError::Io {
            path: PathBuf::from("/x/node-01-01.dlog"),
            attempts: 5,
            source: stdio::Error::other("disk on fire"),
        };
        let s = e.to_string();
        assert!(s.contains("node-01-01.dlog"));
        assert!(s.contains("5 attempt(s)"));
        assert!(s.contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(DurabilityError::Missing(PathBuf::from("/y"))
            .to_string()
            .contains("/y"));
    }
}
