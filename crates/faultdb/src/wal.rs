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
//!
//! `WalReader` is the one way back from frames to records, for crash
//! recovery, scrub repair and the replication shipper alike.

use std::collections::BTreeMap;
use std::io::{self, Read, Seek};
use std::path::{Path, PathBuf};

use uc_cluster::NodeId;
use uc_faultlog::durable::{
    frame_at, FrameDamage, RetryPolicy, SegmentWriter, StdIo, FRAME_HEADER_LEN, MAGIC,
    MAX_FRAME_LEN,
};

use crate::catalog::Sequencer;
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
/// listed in place — promotion is fsck's job. [`WalReader`] reads in
/// this order, and [`Wal::open`] starts after its last index.
pub(crate) fn list_wal_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DbError> {
    let mut segments: BTreeMap<u64, PathBuf> = BTreeMap::new();
    let rd = std::fs::read_dir(dir).map_err(|e| DbError::io(dir, e))?;
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(index) = wal_index_of_name(name) else {
            continue;
        };
        if !name.ends_with(".tmp") || !segments.contains_key(&index) {
            segments.insert(index, path);
        }
    }
    Ok(segments.into_iter().collect())
}

/// Parse the index out of `wal-NNNNNN.dlog` or `wal-NNNNNN.dlog.tmp`.
pub fn wal_index_of_name(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".dlog.tmp")
        .or_else(|| name.strip_suffix(".dlog"))?;
    stem.strip_prefix("wal-")?.parse().ok()
}

/// What a `WalReader` has found: the counters recovery reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Segments read (sealed + orphan tmps).
    pub segments: u64,
    /// Checksummed frames read, whatever their payload.
    pub frames: u64,
    /// Bytes read from segment files.
    pub bytes: u64,
    /// Bytes past the last valid frame of any segment (torn writes a
    /// crash left behind; `uc fsck` quarantines them).
    pub torn_bytes: u64,
    /// Checksummed frames whose payload did not decode as a WAL record.
    pub undecodable: u64,
}

/// Streaming reader over a directory's WAL. It visits the segments in
/// [`list_wal_segments`] order, checks each segment's magic and each
/// frame's CRC once, runs each decoded record through the shared
/// sequence discipline ([`Sequencer`]) and hands the accepted ones to a
/// sink. Between calls it keeps its offset and the bytes read past it,
/// so a caller polling a growing WAL reads each byte once, and no reader
/// holds more than one segment's bytes.
#[derive(Default)]
pub(crate) struct WalReader {
    dir: PathBuf,
    /// The accepted prefix read so far.
    pub(crate) seq: Sequencer,
    /// Segment currently being consumed.
    pub(crate) seg: u64,
    /// File offset of `buf[0]` within `seg`.
    buf_start: u64,
    /// Bytes of `seg` read from `buf_start` on; `buf[..pos]` is consumed
    /// (the magic and whole frames), `buf[pos..]` waits to be — frames
    /// past a `pump`'s limit, or one its writer has not finished.
    buf: Vec<u8>,
    pos: usize,
    /// `seg` holds damage no later write can mend (bad magic, length or
    /// checksum): its valid prefix is all it yields.
    seg_dead: bool,
    /// Counters so far; `torn_bytes` covers the segments left behind.
    found: WalRecovery,
}

impl WalReader {
    pub(crate) fn new(dir: &Path) -> WalReader {
        WalReader {
            dir: dir.to_path_buf(),
            ..WalReader::default()
        }
    }

    /// Valid bytes (magic + consumed frames) of the segment being read.
    pub(crate) fn offset(&self) -> u64 {
        self.buf_start + self.pos as u64
    }

    /// What the reader has found so far. The current segment's unconsumed
    /// tail counts as torn: it is, once nothing appends to it.
    pub(crate) fn recovery(&self) -> WalRecovery {
        WalRecovery {
            torn_bytes: self.found.torn_bytes + (self.buf.len() - self.pos) as u64,
            ..self.found
        }
    }

    /// Read on until `limit` more records are accepted or the WAL runs
    /// out, handing each accepted record and its canonical payload to
    /// `sink`; the records accepted.
    pub(crate) fn pump(
        &mut self,
        limit: u64,
        mut sink: impl FnMut(&WalRecord, Vec<u8>),
    ) -> Result<u64, DbError> {
        let mut taken = 0u64;
        let mut segments = list_wal_segments(&self.dir)?.into_iter();
        'segments: while let Some((idx, path)) = segments.next() {
            if idx < self.seg {
                continue;
            }
            if taken >= limit {
                break;
            }
            if idx > self.seg || self.found.segments == 0 {
                // A later segment exists only once the writer has rotated
                // away from this one, so this one has been read to its
                // end: what follows its last whole frame is torn.
                self.found = self.recovery();
                self.found.segments += 1;
                self.seg = idx;
                self.buf_start = 0;
                self.buf.clear();
                self.pos = 0;
                self.seg_dead = false;
            }
            while !self.seg_dead && taken < limit {
                taken += self.consume(limit - taken, &mut sink);
                if self.seg_dead || taken >= limit {
                    break;
                }
                // Out of whole frames: keep the unfinished one, read on.
                self.buf.drain(..self.pos);
                self.buf_start += self.pos as u64;
                self.pos = 0;
                match read_from(&path, self.buf_start + self.buf.len() as u64, &mut self.buf) {
                    Ok(0) => break,
                    Ok(n) => self.found.bytes += n as u64,
                    // Sealed by a rotation since the listing: list again
                    // and read on under the sealed name. Stopping here
                    // would make a cursor check see a short history.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        segments = list_wal_segments(&self.dir)?.into_iter();
                        continue 'segments;
                    }
                    Err(e) => return Err(DbError::io(&path, e)),
                }
            }
        }
        Ok(taken)
    }

    /// Consume whole frames from `buf[pos..]` until `limit` records are
    /// accepted or the buffered bytes run out; the records accepted.
    fn consume(&mut self, limit: u64, sink: &mut impl FnMut(&WalRecord, Vec<u8>)) -> u64 {
        let mut taken = 0;
        if self.offset() == 0 {
            match self.buf.get(..MAGIC.len()) {
                None => return 0,
                Some(magic) if magic == MAGIC => self.pos = MAGIC.len(),
                Some(_) => {
                    self.seg_dead = true;
                    return 0;
                }
            }
        }
        while taken < limit {
            let payload = match frame_at(&self.buf[self.pos..]) {
                Ok(payload) => payload,
                Err(FrameDamage::TornHeader | FrameDamage::TornPayload) => break,
                Err(_) => {
                    self.seg_dead = true;
                    break;
                }
            };
            self.pos += FRAME_HEADER_LEN + payload.len();
            self.found.frames += 1;
            let Some(rec) = decode_wal_payload(payload) else {
                self.found.undecodable += 1;
                continue;
            };
            if let Some(canonical) = self.seq.apply(&rec) {
                taken += 1;
                sink(&rec, canonical);
            }
        }
        taken
    }
}

/// Append `path`'s bytes from `offset` on to `buf`; how many.
fn read_from(path: &Path, offset: u64, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut file = std::fs::File::open(path)?;
    file.seek(io::SeekFrom::Start(offset))?;
    file.read_to_end(buf)
}

/// The write-ahead log: an owned, append-only segment chain.
pub struct Wal {
    dir: PathBuf,
    /// Index of the active (still-`.tmp`) segment.
    index: u64,
    writer: Option<SegmentWriter<'static>>,
}

impl Wal {
    /// Open a *fresh* active segment after the highest index on disk
    /// (read what is already there with a `WalReader` first). The
    /// previous active segment is never reopened for append — its flushed
    /// prefix is immutable evidence; new records go to a new file.
    pub fn open(dir: &Path) -> Result<Wal, DbError> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
        let next = list_wal_segments(dir)?.last().map_or(1, |(i, _)| i + 1);
        let writer =
            SegmentWriter::create(dir, &wal_file_name(next), &STD_IO, RetryPolicy::default())?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            index: next,
            writer: Some(writer),
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write;
    use uc_faultlog::durable::{encode_frame, scan_segment_slices};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    /// Every record a fresh reader accepts, and what it found.
    fn read_all(dir: &Path) -> (Vec<WalRecord>, WalRecovery) {
        let mut reader = WalReader::new(dir);
        let mut records = Vec::new();
        reader
            .pump(u64::MAX, |rec, _| records.push(rec.clone()))
            .unwrap();
        (records, reader.recovery())
    }

    /// Frame bytes of one record, as the WAL writes it.
    fn frame(node: &str, seq: u64, line: &str) -> Vec<u8> {
        encode_frame(&encode_wal_payload(n(node), seq, line))
    }

    /// Frame bytes of record `seq` of node 01-01.
    fn wal_frame(seq: u64) -> Vec<u8> {
        frame("01-01", seq, &format!("line {seq}"))
    }

    fn segment(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for f in frames {
            bytes.extend_from_slice(f);
        }
        bytes
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    /// Pump everything there is; the sequence numbers read.
    fn pump_all(reader: &mut WalReader) -> Vec<u64> {
        let mut read = Vec::new();
        reader.pump(u64::MAX, |rec, _| read.push(rec.seq)).unwrap();
        read
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
        let mut wal = Wal::open(&dir).unwrap();
        assert!(read_all(&dir).0.is_empty());
        wal.append(n("01-01"), 0, "line zero").unwrap();
        wal.append(n("01-02"), 0, "other node").unwrap();
        wal.flush().unwrap();
        wal.append(n("01-01"), 1, "never flushed").unwrap();
        drop(wal); // crash: pending record lost, flushed prefix survives

        let (records, found) = read_all(&dir);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].line, "line zero");
        assert_eq!(records[1].node, n("01-02"));
        assert_eq!(found.segments, 1);
        Wal::open(&dir).unwrap().flush().unwrap();
        assert!(
            dir.join("wal-000002.dlog.tmp").exists(),
            "new segment after reopen"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_recovery_orders_them() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(n("01-01"), 0, "gen one").unwrap();
        wal.flush().unwrap();
        wal.rotate().unwrap();
        wal.append(n("01-01"), 1, "gen two").unwrap();
        wal.flush().unwrap();
        drop(wal);
        assert!(dir.join("wal-000001.dlog").exists(), "sealed");
        assert!(dir.join("wal-000002.dlog.tmp").exists(), "active tmp");
        let (records, found) = read_all(&dir);
        let lines: Vec<&str> = records.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(lines, vec!["gen one", "gen two"]);
        assert_eq!(found.segments, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_trimmed_and_counted() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(n("01-01"), 0, "kept").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let tmp = dir.join("wal-000001.dlog.tmp");
        append(&tmp, &[0x13, 0x37, 0x00]); // torn in-flight append
        let (records, found) = read_all(&dir);
        assert_eq!(records.len(), 1);
        assert_eq!(found.torn_bytes, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_yields_what_the_segment_scanner_keeps_through_the_sequencer() {
        let dir = tmpdir("damage");
        fs::create_dir_all(&dir).unwrap();
        // 1, sealed: a duplicate and a checksummed frame that is no record.
        let one = segment(&[
            frame("01-01", 0, "a0"),
            frame("01-01", 1, "a1"),
            frame("01-01", 1, "a1 again"),
            encode_frame(b"not a wal record"),
            frame("01-02", 0, "b0"),
        ]);
        fs::write(dir.join("wal-000001.dlog"), one).unwrap();
        // 2, sealed: a CRC flip in its second frame hides the third.
        let first = frame("01-01", 2, "a2");
        let mut two = segment(&[
            first.clone(),
            frame("01-01", 3, "a3"),
            frame("01-01", 4, "a4"),
        ]);
        two[MAGIC.len() + first.len() + FRAME_HEADER_LEN] ^= 0x01;
        fs::write(dir.join("wal-000002.dlog"), two).unwrap();
        // A tmp a crash left beside its sealed copy: the sealed one wins.
        let shadow = segment(&[frame("01-03", 0, "never read")]);
        fs::write(dir.join("wal-000002.dlog.tmp"), shadow).unwrap();
        // 3, sealed: bad magic.
        fs::write(dir.join("wal-000003.dlog"), b"UCSEG0\n garbage").unwrap();
        // 4, sealed: a gap (a3 was lost to the flip), then a record.
        let four = segment(&[frame("01-01", 4, "a4 gap"), frame("01-02", 1, "b1")]);
        fs::write(dir.join("wal-000004.dlog"), four).unwrap();
        // 5, an orphan tmp with a torn tail.
        let mut five = segment(&[frame("01-02", 2, "b2")]);
        five.extend_from_slice(&frame("01-02", 3, "b3")[..6]);
        fs::write(dir.join("wal-000005.dlog.tmp"), five).unwrap();

        // The oracle: each listed segment's scanned payloads, decoded and
        // run through the sequence discipline.
        let mut seq = Sequencer::default();
        let mut want = WalRecovery::default();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for (_, path) in list_wal_segments(&dir).unwrap() {
            let bytes = fs::read(&path).unwrap();
            let scan = scan_segment_slices(&bytes);
            want.segments += 1;
            want.frames += scan.payloads.len() as u64;
            want.bytes += bytes.len() as u64;
            want.torn_bytes += scan.torn_bytes();
            for payload in &scan.payloads {
                match decode_wal_payload(payload) {
                    Some(rec) => payloads.extend(seq.apply(&rec)),
                    None => want.undecodable += 1,
                }
            }
        }
        let lines: Vec<String> = payloads
            .iter()
            .map(|p| decode_wal_payload(p).unwrap().line)
            .collect();
        assert_eq!(lines, ["a0", "a1", "b0", "a2", "b1", "b2"]);
        // What the whole-WAL recovery scan counted here before the reader.
        let torn = (frame("01-01", 3, "a3").len() + frame("01-01", 4, "a4").len() + 15 + 6) as u64;
        assert_eq!(
            (want.segments, want.torn_bytes, want.undecodable),
            (5, torn, 1)
        );

        let mut reader = WalReader::new(&dir);
        let mut got = Vec::new();
        reader.pump(u64::MAX, |_, p| got.push(p)).unwrap();
        assert_eq!(got, payloads);
        assert_eq!(reader.recovery(), want);
        assert_eq!(reader.seq.records, seq.records);
        assert_eq!(reader.seq.crc.finish(), seq.crc.finish());

        // A record cap stops exactly at the cap.
        for cap in 0..=payloads.len() {
            let mut reader = WalReader::new(&dir);
            let mut got = Vec::new();
            let taken = reader.pump(cap as u64, |_, p| got.push(p)).unwrap();
            assert_eq!((taken, reader.seq.records), (cap as u64, cap as u64));
            assert_eq!(got, payloads[..cap]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_frame_torn_at_the_active_tail_is_read_once_when_complete() {
        let dir = tmpdir("active-torn");
        fs::create_dir_all(&dir).unwrap();
        let active = dir.join("wal-000001.dlog.tmp");
        let (f0, f1) = (wal_frame(0), wal_frame(1));
        let mut reader = WalReader::new(&dir);
        // Not even the whole magic yet.
        append(&active, &MAGIC[..3]);
        assert!(pump_all(&mut reader).is_empty());
        append(&active, &MAGIC[3..]);
        append(&active, &f0);
        append(&active, &f1[..5]);
        assert_eq!(pump_all(&mut reader), vec![0]);
        append(&active, &f1[5..20]);
        assert!(pump_all(&mut reader).is_empty(), "still torn");
        append(&active, &f1[20..]);
        assert_eq!(pump_all(&mut reader), vec![1]);
        assert!(pump_all(&mut reader).is_empty(), "read exactly once");
        let len = fs::metadata(&active).unwrap().len();
        assert_eq!(reader.offset(), len);
        assert_eq!(reader.seq.records, 2);
        assert_eq!(reader.recovery().bytes, len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_rotated_between_pumps_is_read_to_its_end_first() {
        let dir = tmpdir("rotate-between");
        fs::create_dir_all(&dir).unwrap();
        let first = dir.join("wal-000001.dlog.tmp");
        append(&first, MAGIC);
        append(&first, &wal_frame(0));
        append(&first, &wal_frame(1));
        let mut reader = WalReader::new(&dir);
        let mut read = Vec::new();
        // A limit stops mid-segment; the rest waits in the reader.
        reader.pump(1, |rec, _| read.push(rec.seq)).unwrap();
        assert_eq!(read, vec![0]);
        // The writer finishes the segment, seals it and starts the next.
        append(&first, &wal_frame(2));
        fs::rename(&first, dir.join("wal-000001.dlog")).unwrap();
        let second = dir.join("wal-000002.dlog.tmp");
        append(&second, MAGIC);
        append(&second, &wal_frame(3));
        assert_eq!(pump_all(&mut reader), vec![1, 2, 3]);
        assert_eq!(reader.seg, 2);
        assert!(pump_all(&mut reader).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_sealed_mid_pump_is_read_on_under_its_sealed_name() {
        let dir = tmpdir("sealed-mid-pump");
        fs::create_dir_all(&dir).unwrap();
        let active = dir.join("wal-000001.dlog.tmp");
        append(&active, MAGIC);
        append(&active, &wal_frame(0));
        let mut reader = WalReader::new(&dir);
        let mut read = Vec::new();
        // While the pump takes the first frame, the writer appends a
        // second and seals the segment: the pump's next read of the
        // listed name finds nothing there.
        reader
            .pump(u64::MAX, |rec, _| {
                if read.is_empty() {
                    append(&active, &wal_frame(1));
                    fs::rename(&active, dir.join("wal-000001.dlog")).unwrap();
                }
                read.push(rec.seq);
            })
            .unwrap();
        assert_eq!(read, vec![0, 1], "one pump reads the whole history");
        fs::remove_dir_all(&dir).unwrap();
    }
}
