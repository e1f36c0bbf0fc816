//! Direct campaign→db sealing: per-node recovered logs in, sealed
//! database out, **no text corpus in between**.
//!
//! The text path the campaign has always taken is
//!
//! ```text
//! simulate → write node-*.log → read_cluster_log_recovering → Snapshot → write_db
//! ```
//!
//! This module is the same spine with the two disk trips removed. Each
//! completed node simulation is recovered *in memory*
//! ([`uc_faultlog::ingest::recover_log`] — proven byte-equivalent to
//! writing and re-reading the node's text file, with each scan-error run
//! kept as one entry), streamed into a fold, and the fold's product goes
//! through the identical [`Snapshot::from_cluster`] → [`write_db`] tail.
//! Runs are expanded only on the nodes that survive the flood filter,
//! where extraction must see them record by record as the text path
//! does; the flood node, which holds nearly every raw record, stays
//! compact and is only counted. The text path stays
//! around as the differential oracle: for the same seed,
//! campaign→text→`uc build-db` and campaign→`--db` must produce
//! byte-identical files, at any thread count, degraded or not
//! (`tests/direct_path.rs` at the workspace root proves it).
//!
//! Determinism argument (DESIGN.md §6): contributions arrive in
//! nondeterministic completion order, so the fold is order-insensitive —
//! a bag of per-node [`Recovered`]s plus an additive (commutative,
//! associative) [`IngestStats`] merge — and [`seal_recovered`] imposes
//! the directory reader's total order (sort by node id) before the
//! snapshot is built. From there the inputs to `Snapshot::from_cluster`
//! are bit-identical to the text path's, so the sealed bytes are too.

use std::path::Path;

use uc_analysis::extract::is_flood_node;
use uc_faultlog::ingest::{IngestStats, Recovered};
use uc_faultlog::store::{ClusterLog, NodeLog};

use crate::error::DbError;
use crate::format::{write_db, WriteOptions, WriteSummary};
use crate::snapshot::{Snapshot, FLOOD_SHARE};

/// The streaming fold: accumulate per-node [`Recovered`] contributions
/// in any order. This is the consumer-side accumulator of the campaign's
/// fault channel (`uc_parallel::pipeline::stage_shared`): per-worker
/// bags merge associatively, so the merged result is independent of both
/// arrival order and worker count.
#[derive(Debug, Default)]
pub struct DirectFold {
    parts: Vec<Recovered>,
}

impl DirectFold {
    pub fn new() -> DirectFold {
        DirectFold::default()
    }

    /// Add one node's recovered log. A log that names no node is
    /// dropped *with its stats*: the text layout cannot write a file
    /// for it ([`uc_faultlog::files::write_cluster_log`] skips such
    /// logs), so the oracle would never read or count it.
    pub fn add(&mut self, rec: Recovered) {
        if rec.log.node.is_some() {
            self.parts.push(rec);
        }
    }

    /// Merge another fold into this one (associative, order-insensitive
    /// up to the final sort in [`DirectFold::into_cluster`]).
    pub fn merge(&mut self, mut other: DirectFold) {
        self.parts.append(&mut other.parts);
    }

    /// Number of node logs accumulated so far.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Impose the directory reader's total order and produce what
    /// [`uc_faultlog::ingest::read_cluster_log_recovering`] returns for
    /// the equivalent plain-text directory, as far as
    /// [`Snapshot::from_cluster`] can tell: node logs sorted by node id,
    /// stats merged additively. (A freshly written campaign directory
    /// has no fsck salvage history, so no fsck counters fold in.)
    ///
    /// Runs arrive compact. A node that survives the flood filter (the
    /// [`is_flood_node`] rule extraction applies, at [`FLOOD_SHARE`]) is
    /// expanded into the records the text path reads
    /// ([`NodeLog::into_expanded`]): extraction merges a run into one
    /// fault but separate records only within its merge window. A flood
    /// node stays compact: extraction skips it, and the snapshot only
    /// counts its records and pairs its session markers, which no run
    /// holds. So the snapshot, and the sealed bytes, are the text path's
    /// while memory stays O(entries) on the node that holds nearly every
    /// raw record.
    pub fn into_cluster(self) -> (ClusterLog, IngestStats) {
        let mut stats = IngestStats::default();
        let mut logs: Vec<NodeLog> = Vec::with_capacity(self.parts.len());
        for rec in self.parts {
            stats.merge(&rec.stats);
            logs.push(rec.log);
        }
        logs.sort_by_key(|l| l.node.map(|n| n.0));
        let total_errors = logs.iter().map(NodeLog::raw_error_count).sum();
        let logs = logs
            .into_iter()
            .map(|log| {
                if is_flood_node(log.raw_error_count(), total_errors, FLOOD_SHARE) {
                    log
                } else {
                    log.into_expanded()
                }
            })
            .collect();
        (ClusterLog::new(logs), stats)
    }
}

/// Seal a database from streamed per-node contributions: the direct
/// path's replacement for [`crate::build::build_db`], sharing its whole
/// tail ([`Snapshot::from_cluster`] → [`write_db`], including the
/// `.tmp` + fsync + atomic-rename crash discipline — a crash mid-seal
/// leaves only a `*.tmp`, which [`crate::fsck::fsck`] moves to
/// `.lost+found` through the durable layer's one quarantine move).
pub fn seal_recovered(
    fold: DirectFold,
    out: &Path,
    opts: &WriteOptions,
) -> Result<(WriteSummary, IngestStats), DbError> {
    let (cluster, stats) = fold.into_cluster();
    let snapshot = Snapshot::from_cluster(&cluster, stats);
    let summary = write_db(&snapshot, out, opts)?;
    Ok((summary, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_cluster::NodeId;
    use uc_faultlog::files::write_cluster_log;
    use uc_faultlog::ingest::recover_log;
    use uc_faultlog::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
    use uc_faultlog::store::NodeLog;
    use uc_simclock::{SimDuration, SimTime};

    fn node_log(name: &str, errors: usize) -> NodeLog {
        let node = NodeId::from_name(name).unwrap();
        let mut log = NodeLog::new(node);
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node,
            alloc_bytes: 3 << 30,
            temp: Some(TempC(30.0)),
        }));
        for k in 0..errors {
            log.push(LogRecord::Error(ErrorRecord {
                time: SimTime::from_secs(60 + 600 * k as i64),
                node,
                vaddr: 0x400 + 0x100 * k as u64,
                phys_page: (0x400 + 0x100 * k as u64) >> 12,
                expected: 0xffff_ffff,
                actual: 0xffff_fffe,
                temp: Some(TempC(33.0)),
            }));
        }
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(90_000),
            node,
            temp: Some(TempC(31.0)),
        }));
        log
    }

    /// `node_log`'s session with the simulator's compact runs inside:
    /// runs of `count` records every `period` seconds, the first at
    /// `first_t`, at the given addresses. With `single`, an ERROR at the
    /// first run's address and pattern at that time too.
    fn run_log(
        name: &str,
        first_t: i64,
        vaddrs: &[u64],
        count: u64,
        period: i64,
        single: Option<i64>,
    ) -> NodeLog {
        let node = NodeId::from_name(name).unwrap();
        let error = |t: i64, vaddr: u64| ErrorRecord {
            time: SimTime::from_secs(t),
            node,
            vaddr,
            phys_page: vaddr >> 12,
            expected: 0xffff_ffff,
            actual: 0xffff_7fff,
            temp: Some(TempC(41.0)),
        };
        let mut log = NodeLog::new(node);
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node,
            alloc_bytes: 3 << 30,
            temp: Some(TempC(30.0)),
        }));
        for (k, &vaddr) in vaddrs.iter().enumerate() {
            let first = error(first_t + 7 * k as i64, vaddr);
            log.push_run(first, count, SimDuration::from_secs(period));
        }
        if let Some(t) = single {
            log.push(LogRecord::Error(error(t, vaddrs[0])));
        }
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(90_000),
            node,
            temp: Some(TempC(31.0)),
        }));
        log
    }

    #[test]
    fn direct_seal_is_byte_identical_to_text_build_and_order_insensitive() {
        let base = std::env::temp_dir().join(format!("uc-direct-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let logs_dir = base.join("logs");
        std::fs::create_dir_all(&logs_dir).unwrap();

        let mut logs: Vec<NodeLog> = ["01-02", "02-05", "01-01"]
            .iter()
            .map(|n| node_log(n, 12))
            .collect();
        // A flood node made of runs that overlap in time: 600 of the
        // 642 raw errors, so it stays compact on the direct side.
        logs.push(run_log(
            "03-04",
            100,
            &[0x9000, 0x9040, 0x9080],
            200,
            40,
            None,
        ));
        // A kept node with a run whose 100 s period exceeds the 45 s merge
        // window, and an ERROR at its address and pattern inside its span:
        // the text path reads six records 50–100 s apart, six faults.
        logs.push(run_log("02-01", 1_000, &[0x500], 5, 100, Some(1_150)));
        write_cluster_log(&logs_dir, &ClusterLog::new(logs.clone())).unwrap();
        let oracle = base.join("oracle.ucfdb");
        crate::build::build_db(&logs_dir, &oracle, &WriteOptions::default()).unwrap();

        // Reversed arrival order: the fold must not care.
        let mut fold = DirectFold::new();
        for log in logs.iter().rev() {
            fold.add(recover_log(log));
        }
        let direct = base.join("direct.ucfdb");
        let (summary, stats) = seal_recovered(fold, &direct, &WriteOptions::default()).unwrap();
        assert_eq!(summary.rows, 3 * 12 + 6, "one fault per kept-node record");
        assert_eq!(stats.files_read, 5);

        assert_eq!(
            std::fs::read(&oracle).unwrap(),
            std::fs::read(&direct).unwrap(),
            "direct seal diverged from the text oracle"
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
