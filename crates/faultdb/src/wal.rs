//! Crash-consistent write-ahead log for live streaming ingest.
//!
//! The WAL is a sequence of durable segments (`wal-000001.dlog`,
//! `wal-000002.dlog`, …) in the live directory, written with the same
//! framed, CRC-per-record format as every other durable file in the repo
//! — so `uc fsck` salvages a torn WAL under the existing conservation
//! law with zero new code. Each frame payload is one accepted record:
//!
//! ```text
//! payload := <node> SP <seq> SP <line>
//! ```
//!
//! where `<seq>` is the per-node sequence number the client attached.
//! Replaying the payloads in segment order therefore rebuilds both the
//! full record corpus *and* every node's next-expected sequence number,
//! which is what makes reconnect-with-replay idempotent across server
//! restarts: a client that resends records the WAL already holds is
//! answered from the rebuilt cursor, not re-appended.
//!
//! The active segment lives under its `.tmp` name and is appended to at
//! explicit flush boundaries ([`Wal::flush`] — the server acks a batch
//! only after this returns). Sealing a generation rotates the WAL: the
//! active segment is fsynced and renamed into place, and a fresh one
//! starts. Segments are never deleted — extraction (merge windows,
//! flood shares) is a *global* function of the whole record set, so a
//! generation file cannot serve as a re-ingest source; the WAL is the
//! database of record and generations are sealed indexes over it.

use std::path::{Path, PathBuf};

use uc_cluster::NodeId;
use uc_faultlog::durable::{scan_segment_slices, RetryPolicy, SegmentWriter, StdIo, MAX_FRAME_LEN};

use crate::error::DbError;

/// `SegmentWriter` borrows its I/O backend; a `'static` instance lets
/// [`Wal`] own the writer without a self-referential struct.
static STD_IO: StdIo = StdIo;

/// One record as stored in (or recovered from) the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Node the stream belongs to.
    pub node: NodeId,
    /// Client-assigned per-node sequence number.
    pub seq: u64,
    /// The raw record line, exactly as the node would have written it to
    /// its text log.
    pub line: String,
}

/// Canonical frame payload for one record. Recovery decodes with
/// [`decode_wal_payload`]; the two are exact inverses for every payload
/// this encoder produced, so the running stream digest computed at
/// append time and at recovery time agree byte-for-byte.
pub fn encode_wal_payload(node: NodeId, seq: u64, line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(line.len() + 24);
    out.extend_from_slice(node.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(seq.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(line.as_bytes());
    out
}

/// Parse a WAL frame payload. `None` for anything the canonical encoder
/// could not have produced (corrupt-but-checksummed bytes, foreign
/// frames); callers count these rather than trusting them.
pub fn decode_wal_payload(payload: &[u8]) -> Option<WalRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    let (node_s, rest) = text.split_once(' ')?;
    let (seq_s, line) = rest.split_once(' ')?;
    let node = NodeId::from_name(node_s)?;
    let seq: u64 = seq_s.parse().ok()?;
    Some(WalRecord {
        node,
        seq,
        line: line.to_string(),
    })
}

pub(crate) fn wal_file_name(index: u64) -> String {
    format!("wal-{index:06}.dlog")
}

/// The WAL segment files in `dir`, in replay order. A `.tmp` with a
/// sealed sibling is a duplicate from a crash during the seal rename;
/// the sealed copy wins (fsck quarantines the tmp). Orphan tmps are
/// listed in place — promotion is fsck's job. Shared by [`Wal::open`]'s
/// recovery scan, the replication shipper (which re-reads the same
/// bytes a replica's recovery would), and the scrubber.
pub(crate) fn list_wal_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DbError> {
    let mut sealed: Vec<(u64, PathBuf)> = Vec::new();
    let mut tmps: Vec<(u64, PathBuf)> = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| DbError::io(dir, e))?;
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(index) = wal_index_of_name(name) else {
            continue;
        };
        if name.ends_with(".tmp") {
            tmps.push((index, path));
        } else {
            sealed.push((index, path));
        }
    }
    let sealed_indices: std::collections::BTreeSet<u64> = sealed.iter().map(|(i, _)| *i).collect();
    tmps.retain(|(i, _)| !sealed_indices.contains(i));
    let mut all = sealed;
    all.extend(tmps);
    all.sort();
    Ok(all)
}

/// Parse the index out of `wal-NNNNNN.dlog` or `wal-NNNNNN.dlog.tmp`.
pub fn wal_index_of_name(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".dlog.tmp")
        .or_else(|| name.strip_suffix(".dlog"))?;
    stem.strip_prefix("wal-")?.parse().ok()
}

/// What a recovery scan of the on-disk WAL found.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Every decodable record, in append order across all segments.
    pub records: Vec<WalRecord>,
    /// Segments read (sealed + orphan tmps).
    pub segments: u64,
    /// Bytes past the last valid frame of any segment (torn writes a
    /// crash left behind; `uc fsck` quarantines them).
    pub torn_bytes: u64,
    /// Checksummed frames whose payload did not decode as a WAL record.
    pub undecodable: u64,
}

/// The write-ahead log: an owned, append-only segment chain.
pub struct Wal {
    dir: PathBuf,
    /// Index of the active (still-`.tmp`) segment.
    index: u64,
    writer: Option<SegmentWriter<'static>>,
    /// Records appended (durable + pending) since open.
    appended: u64,
}

impl Wal {
    /// Scan the WAL already on disk (sealed segments in index order,
    /// then orphan tmps a crash left unsealed), then open a *fresh*
    /// active segment after the highest index seen. The previous active
    /// segment is never reopened for append — its flushed prefix is
    /// immutable evidence; new records go to a new file.
    pub fn open(dir: &Path) -> Result<(Wal, WalRecovery), DbError> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
        let all = list_wal_segments(dir)?;
        let mut recovery = WalRecovery::default();
        for (_, path) in &all {
            let bytes = std::fs::read(path).map_err(|e| DbError::io(path, e))?;
            let scan = scan_segment_slices(&bytes);
            recovery.segments += 1;
            recovery.torn_bytes += scan.torn_bytes();
            for payload in &scan.payloads {
                match decode_wal_payload(payload) {
                    Some(rec) => recovery.records.push(rec),
                    None => recovery.undecodable += 1,
                }
            }
        }

        let next = all.last().map(|(i, _)| i + 1).unwrap_or(1);
        let writer =
            SegmentWriter::create(dir, &wal_file_name(next), &STD_IO, RetryPolicy::default())?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                index: next,
                writer: Some(writer),
                appended: 0,
            },
            recovery,
        ))
    }

    /// Buffer one accepted record; durable only after [`Wal::flush`].
    /// Returns the canonical payload bytes so the caller can fold them
    /// into its running stream digest.
    pub fn append(&mut self, node: NodeId, seq: u64, line: &str) -> Result<Vec<u8>, DbError> {
        let payload = encode_wal_payload(node, seq, line);
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(DbError::Catalog(format!(
                "record of {} bytes exceeds the frame cap",
                payload.len()
            )));
        }
        self.writer
            .as_mut()
            .expect("writer present between rotations")
            .append(&payload);
        self.appended += 1;
        Ok(payload)
    }

    /// Write everything buffered to the active segment file — the
    /// boundary the server acks behind. Written to the WAL, it survives a
    /// process crash; it is fsynced at the next seal
    /// ([`Wal::rotate`]).
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.writer
            .as_mut()
            .expect("writer present between rotations")
            .flush()?;
        Ok(())
    }

    /// Seal the active segment (fsync + rename) and start the next one.
    /// Called at generation-seal boundaries so each sealed generation
    /// maps to a closed chain of WAL segments.
    pub fn rotate(&mut self) -> Result<(), DbError> {
        let writer = self
            .writer
            .take()
            .expect("writer present between rotations");
        writer.seal()?;
        self.index += 1;
        let writer = SegmentWriter::create(
            &self.dir,
            &wal_file_name(self.index),
            &STD_IO,
            RetryPolicy::default(),
        )?;
        self.writer = Some(writer);
        Ok(())
    }

    /// Records appended through this handle since open.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Index of the active segment.
    pub fn active_index(&self) -> u64 {
        self.index
    }

    /// Let an injected I/O backend see the directory (tests only need
    /// the path; production I/O is `StdIo`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Names `uc fsck`'s durable pass already understands: the WAL is just
/// `.dlog` segments, so this is a documentation-grade predicate used by
/// the live-directory fsck to report what it delegates.
pub fn is_wal_name(name: &str) -> bool {
    wal_index_of_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    #[test]
    fn payload_roundtrip_is_exact() {
        let line = "ERROR t=60 node=01-01 vaddr=0x00000400 page=0x000000 \
                    expected=0xffffffff actual=0xfffffffe temp=33.0";
        let p = encode_wal_payload(n("01-01"), 7, line);
        let rec = decode_wal_payload(&p).unwrap();
        assert_eq!(rec.node, n("01-01"));
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.line, line);
        assert_eq!(encode_wal_payload(rec.node, rec.seq, &rec.line), p);
    }

    #[test]
    fn hostile_payloads_decode_to_none() {
        assert!(decode_wal_payload(b"").is_none());
        assert!(decode_wal_payload(b"no-spaces-here").is_none());
        assert!(decode_wal_payload(b"99-99 1 line").is_none(), "bad node");
        assert!(decode_wal_payload(b"01-01 x line").is_none(), "bad seq");
        assert!(decode_wal_payload(&[0xFF, 0xFE, b' ', b'1', b' ', b'x']).is_none());
    }

    #[test]
    fn wal_survives_reopen_with_all_flushed_records() {
        let dir = tmpdir("reopen");
        let (mut wal, rec) = Wal::open(&dir).unwrap();
        assert!(rec.records.is_empty());
        wal.append(n("01-01"), 0, "line zero").unwrap();
        wal.append(n("01-02"), 0, "other node").unwrap();
        wal.flush().unwrap();
        wal.append(n("01-01"), 1, "never flushed").unwrap();
        drop(wal); // crash: pending record lost, flushed prefix survives

        let (wal2, rec2) = Wal::open(&dir).unwrap();
        assert_eq!(rec2.records.len(), 2);
        assert_eq!(rec2.records[0].line, "line zero");
        assert_eq!(rec2.records[1].node, n("01-02"));
        assert_eq!(rec2.segments, 1);
        assert!(wal2.active_index() > 1, "new segment after reopen");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_recovery_orders_them() {
        let dir = tmpdir("rotate");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(n("01-01"), 0, "gen one").unwrap();
        wal.flush().unwrap();
        wal.rotate().unwrap();
        wal.append(n("01-01"), 1, "gen two").unwrap();
        wal.flush().unwrap();
        drop(wal);
        assert!(dir.join("wal-000001.dlog").exists(), "sealed");
        assert!(dir.join("wal-000002.dlog.tmp").exists(), "active tmp");
        let (_, rec) = Wal::open(&dir).unwrap();
        let lines: Vec<&str> = rec.records.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(lines, vec!["gen one", "gen two"]);
        assert_eq!(rec.segments, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_trimmed_and_counted() {
        let dir = tmpdir("torn");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(n("01-01"), 0, "kept").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let tmp = dir.join("wal-000001.dlog.tmp");
        let mut bytes = fs::read(&tmp).unwrap();
        bytes.extend_from_slice(&[0x13, 0x37, 0x00]); // torn in-flight append
        fs::write(&tmp, &bytes).unwrap();
        let (_, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.torn_bytes, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
