//! `uc build-db`: text log directory → sealed columnar database.
//!
//! The build path is deliberately the analyze path with a different
//! sink: the same recovering ingest, the same extraction, the same
//! provenance capture ([`Snapshot::from_cluster`]) — then [`write_db`]
//! instead of a printed report. That shared spine is what makes
//! `uc analyze --db` byte-identical to `uc analyze` on the raw logs.

use std::io;
use std::path::Path;

use uc_faultlog::ingest::read_cluster_log_recovering;

use crate::error::DbError;
use crate::format::{write_db, WriteOptions, WriteSummary};
use crate::shard::{write_sharded, RootWriteSummary};
use crate::snapshot::Snapshot;

/// Ingest a log directory (with recovery) and seal it as a database.
pub fn build_db(logdir: &Path, out: &Path, opts: &WriteOptions) -> Result<WriteSummary, DbError> {
    let (cluster, stats) = read_cluster_log_recovering(logdir)
        .map_err(|e| DbError::io(logdir, io::Error::other(e.to_string())))?;
    let snapshot = Snapshot::from_cluster(&cluster, stats);
    write_db(&snapshot, out, opts)
}

/// `uc build-db --shard N`: the same ingest-and-extract spine, sealed as
/// a (time window × rack) sharded root directory instead of one file.
pub fn build_sharded_db(
    logdir: &Path,
    out: &Path,
    windows: usize,
    opts: &WriteOptions,
) -> Result<RootWriteSummary, DbError> {
    let (cluster, stats) = read_cluster_log_recovering(logdir)
        .map_err(|e| DbError::io(logdir, io::Error::other(e.to_string())))?;
    let snapshot = Snapshot::from_cluster(&cluster, stats);
    write_sharded(&snapshot, out, windows, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FaultDb;
    use std::fs;

    #[test]
    fn build_from_logs_roundtrips_the_snapshot() {
        let dir = std::env::temp_dir().join(format!("uc-faultdb-build-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        for name in ["01-01", "01-02"] {
            let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
            for k in 0..10 {
                let t = 50 + 600 * k;
                let vaddr = 0x80u64 * (k as u64 + 1);
                text.push_str(&format!(
                    "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                     expected=0xffffffff actual=0xfffffffe temp=33.0\n",
                    page = vaddr >> 12
                ));
            }
            text.push_str(&format!("END t=90000 node={name} temp=31.0\n"));
            fs::write(logs.join(format!("node-{name}.log")), text).unwrap();
        }

        let out = dir.join("faults.fdb");
        let summary = build_db(&logs, &out, &WriteOptions::default()).unwrap();
        assert!(summary.rows > 0);

        // The database snapshot must render the same report as a fresh
        // ingest-and-extract over the same logs.
        let (cluster, stats) = read_cluster_log_recovering(&logs).unwrap();
        let direct = Snapshot::from_cluster(&cluster, stats);
        let db = FaultDb::open(&out).unwrap();
        let roundtripped = db.snapshot().unwrap();
        assert_eq!(roundtripped, direct);
        assert_eq!(roundtripped.report_text(), direct.report_text());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_directory_is_an_io_error() {
        let out = std::env::temp_dir().join("uc-faultdb-build-missing.fdb");
        let err = build_db(
            Path::new("/nonexistent/uc-logs"),
            &out,
            &WriteOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Io { .. }));
    }
}
