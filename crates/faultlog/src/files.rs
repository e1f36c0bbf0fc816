//! File-backed log storage: one plain-text log file per node, the way the
//! paper's scanner wrote them ("log entries are stored in log files with
//! each node having a separate log file").
//!
//! Layout: `<dir>/node-BB-SS.log`, lines in the [`crate::codec`] format.
//! There is one reader for a log directory, plain or durable:
//! [`crate::ingest::read_cluster_log_recovering`], which skips foreign
//! files and counts damaged lines instead of aborting the load.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use uc_cluster::NodeId;

use crate::codec::{write_entry_into, write_record_into};
use crate::ingest::IngestError;
use crate::store::{ClusterLog, NodeLog};

/// File name for a node's log.
pub fn node_file_name(node: NodeId) -> String {
    format!("node-{node}.log")
}

/// Parse a node id back out of a log file name.
pub fn node_of_file_name(name: &str) -> Option<NodeId> {
    let stem = name.strip_prefix("node-")?.strip_suffix(".log")?;
    NodeId::from_name(stem)
}

/// Write lines to `<dir>/<name>` atomically: stream into `<name>.tmp`,
/// fsync, then rename into place. A crash mid-write leaves either the old
/// file or none — never a torn one masquerading as a complete log. The
/// `.tmp` name does not match the node-log convention, so readers skip
/// any leftover from a crash.
///
/// Public because every report-shaped artifact (campaign `report.txt`,
/// CSV series) must follow the same discipline as the logs they sit next
/// to: a torn half-report is worse than none.
pub fn write_lines_atomic<T>(
    dir: &Path,
    name: &str,
    items: impl Iterator<Item = T>,
    render: impl Fn(&mut String, &T),
) -> Result<PathBuf, IngestError> {
    fs::create_dir_all(dir).map_err(|e| IngestError::io(dir, e))?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    let write_all = || -> io::Result<()> {
        let mut w = BufWriter::new(fs::File::create(&tmp)?);
        // One reusable line buffer for the whole file: a flood node's
        // expanded log is tens of millions of lines, none of which should
        // cost an allocation.
        let mut line = String::with_capacity(128);
        for item in items {
            line.clear();
            render(&mut line, &item);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        w.flush()?;
        w.into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?
            .sync_all()
    };
    write_all().map_err(|e| IngestError::io(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| IngestError::io(&path, e))?;
    Ok(path)
}

/// Write an already-rendered text blob to `<dir>/<name>` atomically
/// (tmp + fsync + rename), same contract as [`write_lines_atomic`].
pub fn write_text_atomic(dir: &Path, name: &str, text: &str) -> Result<PathBuf, IngestError> {
    fs::create_dir_all(dir).map_err(|e| IngestError::io(dir, e))?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    let write_all = || -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()
    };
    write_all().map_err(|e| IngestError::io(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| IngestError::io(&path, e))?;
    Ok(path)
}

/// Write one node's log to `<dir>/node-BB-SS.log` (directory created if
/// missing), atomically via temp file + rename. Compressed runs are
/// expanded to raw lines, as the real scanner would have written them.
pub fn write_node_log(dir: &Path, log: &NodeLog) -> Result<PathBuf, IngestError> {
    let node = log.node.ok_or(IngestError::NoNodeId)?;
    write_lines_atomic(dir, &node_file_name(node), log.iter(), |buf, rec| {
        write_record_into(buf, rec)
    })
}

/// Write one node's log in the compact format, atomically: compressed runs
/// persist as single `ERRORRUN` lines (the flood node shrinks from tens of
/// millions of lines to about one per scan session).
pub fn write_node_log_compact(dir: &Path, log: &NodeLog) -> Result<PathBuf, IngestError> {
    let node = log.node.ok_or(IngestError::NoNodeId)?;
    write_lines_atomic(
        dir,
        &node_file_name(node),
        log.entries().iter(),
        |buf, e| write_entry_into(buf, e),
    )
}

/// Write a whole cluster compactly; returns files written.
pub fn write_cluster_log_compact(dir: &Path, cluster: &ClusterLog) -> Result<usize, IngestError> {
    let mut n = 0;
    for log in cluster.node_logs() {
        if log.node.is_some() {
            write_node_log_compact(dir, log)?;
            n += 1;
        }
    }
    Ok(n)
}

/// Write a whole cluster's logs, one file per node. Returns the number of
/// files written.
pub fn write_cluster_log(dir: &Path, cluster: &ClusterLog) -> Result<usize, IngestError> {
    let mut n = 0;
    for log in cluster.node_logs() {
        if log.node.is_some() {
            write_node_log(dir, log)?;
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::read_cluster_log_recovering;
    use crate::record::{EndRecord, ErrorRecord, LogRecord, StartRecord};
    use uc_simclock::{SimDuration, SimTime};

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uc-faultlog-test-{tag}-{}", std::process::id()));
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
    fn file_names_roundtrip() {
        let id = NodeId::from_name("02-04").unwrap();
        assert_eq!(node_file_name(id), "node-02-04.log");
        assert_eq!(node_of_file_name("node-02-04.log"), Some(id));
        assert_eq!(node_of_file_name("README.md"), None);
        assert_eq!(node_of_file_name("node-xx-yy.log"), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempdir("roundtrip");
        let cluster = ClusterLog::new(vec![sample_log(10), sample_log(77)]);
        let written = write_cluster_log(&dir, &cluster).unwrap();
        assert_eq!(written, 2);
        let (loaded, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.records_kept, cluster.raw_record_count());
        assert_eq!(loaded.node_logs().len(), 2);
        assert_eq!(loaded.raw_record_count(), cluster.raw_record_count());
        // Records identical once runs are expanded.
        let orig: Vec<LogRecord> = cluster.merged().collect();
        let back: Vec<LogRecord> = loaded.merged().collect();
        assert_eq!(orig, back);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn logs_sorted_by_node() {
        let dir = tempdir("sorted");
        let cluster = ClusterLog::new(vec![sample_log(500), sample_log(3), sample_log(77)]);
        write_cluster_log(&dir, &cluster).unwrap();
        let (loaded, _) = read_cluster_log_recovering(&dir).unwrap();
        let ids: Vec<u32> = loaded
            .node_logs()
            .iter()
            .filter_map(|l| l.node.map(|n| n.0))
            .collect();
        assert_eq!(ids, vec![3, 77, 500]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_roundtrip_preserves_entries_exactly() {
        let dir = tempdir("compact");
        let cluster = ClusterLog::new(vec![sample_log(10), sample_log(77)]);
        write_cluster_log_compact(&dir, &cluster).unwrap();
        // A run of 3 stays one line: 1 START + 1 ERRORRUN + 1 END.
        let text = fs::read_to_string(dir.join("node-01-11.log")).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("ERRORRUN"));
        assert!(text.contains("count=3"));
        let (loaded, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(stats.dropped(), 0);
        for (a, b) in loaded.node_logs().iter().zip(cluster.node_logs()) {
            assert_eq!(a.entries(), b.entries(), "entry-exact roundtrip");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_is_much_smaller_for_runs() {
        let id = NodeId(9);
        let mut log = NodeLog::new(id);
        log.push_run(
            ErrorRecord {
                time: SimTime::from_secs(0),
                node: id,
                vaddr: 0x40,
                phys_page: 0,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFF7,
                temp: None,
            },
            100_000,
            SimDuration::from_secs(40),
        );
        let plain = log.to_text();
        let compact = log.to_text_compact();
        assert!(plain.len() > compact.len() * 10_000);
        let (back, errs) = NodeLog::from_text_compact(&compact);
        assert!(errs.is_empty());
        assert_eq!(back.raw_error_count(), 100_000);
    }

    #[test]
    fn writes_are_atomic_no_tmp_left_behind() {
        let dir = tempdir("atomic");
        let path = write_node_log(&dir, &sample_log(4)).unwrap();
        assert!(path.exists());
        assert!(!dir.join("node-01-04.log.tmp").exists());
        let path = write_node_log_compact(&dir, &sample_log(4)).unwrap();
        assert!(path.exists());
        assert!(!dir.join("node-01-04.log.tmp").exists());
        // A stale tmp from a crashed writer is invisible to readers and
        // replaced by the next successful write.
        fs::write(dir.join("node-01-04.log.tmp"), "half a line").unwrap();
        let (loaded, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(loaded.node_logs().len(), 1);
        assert_eq!(stats.files_read, 1, "tmp skipped, not parsed");
        write_node_log(&dir, &sample_log(4)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_without_node_id_is_typed_error() {
        let log = NodeLog::default();
        let dir = tempdir("no-node-id");
        assert!(matches!(
            write_node_log(&dir, &log),
            Err(IngestError::NoNodeId)
        ));
    }
}
