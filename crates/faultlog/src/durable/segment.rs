//! The durable segment format: length-framed, CRC-checksummed records in
//! an append-only file.
//!
//! ```text
//! file   := MAGIC frame*
//! MAGIC  := "UCSEG1\n"                      (7 bytes)
//! frame  := len:u32le crc:u32le payload     (crc over payload only)
//! ```
//!
//! A segment is written as `<name>.tmp`, appended to at explicit *flush
//! boundaries*, and sealed by fsync + atomic rename to `<name>`. The
//! writer records every flush boundary's byte offset: a crash at any
//! moment leaves on disk a prefix of the stream that is at least the last
//! flushed boundary, and the scanner below recovers the longest valid
//! frame prefix from whatever survived — torn header, torn payload, or a
//! checksum-corrupt frame all stop the scan *without* discarding the
//! records before them.

use std::path::{Path, PathBuf};

use super::crc::{crc32, Crc32};
use super::io::{with_retry, Io, RetryPolicy};
use super::DurabilityError;

/// Leading magic of every durable segment file.
pub const MAGIC: &[u8; 7] = b"UCSEG1\n";

/// Bytes of frame header preceding each payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload; anything larger in a length
/// field is treated as damage, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Encode one payload as a frame (header + bytes).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    push_frame(&mut out, payload);
    out
}

/// Append one payload, encoded as a frame, to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() as u64 <= MAX_FRAME_LEN as u64,
        "frame payload exceeds MAX_FRAME_LEN"
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload of the frame `bytes` begins with; the frame spans
/// [`FRAME_HEADER_LEN`] more bytes than the payload. A frame cut short
/// ([`FrameDamage::TornHeader`], [`FrameDamage::TornPayload`]) may still
/// be completed by a writer appending to the file; the other kinds of
/// damage are final.
pub fn frame_at(bytes: &[u8]) -> Result<&[u8], FrameDamage> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameDamage::TornHeader);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(FrameDamage::BadLength);
    }
    let Some(payload) = bytes[FRAME_HEADER_LEN..].get(..len as usize) else {
        return Err(FrameDamage::TornPayload);
    };
    if crc32(payload) != crc {
        return Err(FrameDamage::BadChecksum);
    }
    Ok(payload)
}

/// Why a scan stopped before the end of the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameDamage {
    /// The file does not begin with [`MAGIC`]; nothing is salvageable.
    BadMagic,
    /// The file ends inside a frame header (torn write).
    TornHeader,
    /// The file ends inside a frame payload (torn write).
    TornPayload,
    /// A length field exceeds [`MAX_FRAME_LEN`] (corrupt header).
    BadLength,
    /// A payload failed its CRC (bit rot or mid-file corruption).
    BadChecksum,
}

impl std::fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameDamage::BadMagic => "bad magic",
            FrameDamage::TornHeader => "torn frame header",
            FrameDamage::TornPayload => "torn frame payload",
            FrameDamage::BadLength => "implausible frame length",
            FrameDamage::BadChecksum => "frame checksum mismatch",
        };
        f.write_str(s)
    }
}

/// The result of scanning a segment's bytes: the longest valid prefix,
/// decoded into owned payload copies. Pure and panic-free on arbitrary
/// input. Readers that only need to *look at* the payloads (ingestion,
/// checkpoint decode) should use [`scan_segment_slices`] instead, which
/// borrows from the scanned buffer and copies nothing.
#[derive(Clone, Debug, Default)]
pub struct SegmentScan {
    /// Payloads of every valid frame, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte length of the longest valid prefix (magic + whole frames).
    pub valid_bytes: u64,
    /// Total bytes scanned.
    pub total_bytes: u64,
    /// Why the scan stopped early, if it did. `None` means the whole file
    /// is intact.
    pub damage: Option<FrameDamage>,
}

impl SegmentScan {
    /// Bytes past the valid prefix (0 for an intact segment).
    pub fn torn_bytes(&self) -> u64 {
        self.total_bytes - self.valid_bytes
    }
}

/// Borrowing twin of [`SegmentScan`]: payload slices point into the
/// scanned buffer, so salvaging a segment costs one pass and no copies.
#[derive(Clone, Debug, Default)]
pub struct SegmentScanRef<'a> {
    /// Payload of every valid frame, in order, borrowed from the input.
    pub payloads: Vec<&'a [u8]>,
    /// Byte length of the longest valid prefix (magic + whole frames).
    pub valid_bytes: u64,
    /// Total bytes scanned.
    pub total_bytes: u64,
    /// Why the scan stopped early, if it did. `None` means the whole file
    /// is intact.
    pub damage: Option<FrameDamage>,
}

impl SegmentScanRef<'_> {
    /// Bytes past the valid prefix (0 for an intact segment).
    pub fn torn_bytes(&self) -> u64 {
        self.total_bytes - self.valid_bytes
    }

    /// Copy the payloads out into an owned [`SegmentScan`].
    pub fn to_owned_scan(&self) -> SegmentScan {
        SegmentScan {
            payloads: self.payloads.iter().map(|p| p.to_vec()).collect(),
            valid_bytes: self.valid_bytes,
            total_bytes: self.total_bytes,
            damage: self.damage,
        }
    }
}

/// Scan raw segment bytes for the longest valid frame prefix, borrowing
/// each payload from `bytes`.
pub fn scan_segment_slices(bytes: &[u8]) -> SegmentScanRef<'_> {
    let total_bytes = bytes.len() as u64;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return SegmentScanRef {
            payloads: Vec::new(),
            valid_bytes: 0,
            total_bytes,
            damage: Some(FrameDamage::BadMagic),
        };
    }
    let mut payloads = Vec::new();
    let mut pos = MAGIC.len();
    let damage = loop {
        if pos == bytes.len() {
            break None;
        }
        match frame_at(&bytes[pos..]) {
            Ok(payload) => {
                payloads.push(payload);
                pos += FRAME_HEADER_LEN + payload.len();
            }
            Err(damage) => break Some(damage),
        }
    };
    SegmentScanRef {
        payloads,
        valid_bytes: pos as u64,
        total_bytes,
        damage,
    }
}

/// Scan raw segment bytes for the longest valid frame prefix, copying the
/// payloads out (see [`scan_segment_slices`] for the borrowing form).
pub fn scan_segment_bytes(bytes: &[u8]) -> SegmentScan {
    scan_segment_slices(bytes).to_owned_scan()
}

/// A sealed segment's identity, as recorded in the directory manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedSegment {
    /// Final (post-rename) path.
    pub path: PathBuf,
    /// File name component.
    pub file_name: String,
    /// Total bytes in the sealed file.
    pub bytes: u64,
    /// CRC-32 of the entire file contents.
    pub digest: u32,
    /// Byte offsets at which the writer flushed: a crash at flush
    /// boundary `b` leaves at least the first `b` bytes on disk, and
    /// those bytes are always whole frames.
    pub flush_boundaries: Vec<u64>,
}

/// Append-only segment writer with explicit flush boundaries and
/// write-temp-then-atomic-rename sealing. All I/O goes through the
/// injected [`Io`] under [`with_retry`], so transient failures back off
/// and permanent ones surface as typed [`DurabilityError`]s.
pub struct SegmentWriter<'a> {
    io: &'a dyn Io,
    policy: RetryPolicy,
    tmp_path: PathBuf,
    final_path: PathBuf,
    file_name: String,
    /// Frames appended since the last flush.
    pending: Vec<u8>,
    /// Bytes durably appended to the tmp file so far.
    written: u64,
    digest: Crc32,
    boundaries: Vec<u64>,
}

impl<'a> SegmentWriter<'a> {
    /// Start a new segment `<dir>/<file_name>` (written as
    /// `<file_name>.tmp` until sealed). Any stale tmp from an earlier
    /// crash is removed first.
    pub fn create(
        dir: &Path,
        file_name: &str,
        io: &'a dyn Io,
        policy: RetryPolicy,
    ) -> Result<SegmentWriter<'a>, DurabilityError> {
        with_retry(&policy, dir, || io.create_dir_all(dir))?;
        let final_path = dir.join(file_name);
        let tmp_path = dir.join(format!("{file_name}.tmp"));
        if tmp_path.exists() {
            with_retry(&policy, &tmp_path, || io.remove_file(&tmp_path))?;
        }
        let mut w = SegmentWriter {
            io,
            policy,
            tmp_path,
            final_path,
            file_name: file_name.to_string(),
            pending: Vec::new(),
            written: 0,
            digest: Crc32::new(),
            boundaries: Vec::new(),
        };
        w.pending.extend_from_slice(MAGIC);
        Ok(w)
    }

    /// Buffer one record. Nothing reaches disk until [`Self::flush`].
    /// Frames straight into the pending buffer — a flood node appends
    /// tens of millions of records, so no per-record allocation.
    pub fn append(&mut self, payload: &[u8]) {
        assert!(
            payload.len() as u64 <= MAX_FRAME_LEN as u64,
            "frame payload exceeds MAX_FRAME_LEN"
        );
        self.pending.reserve(FRAME_HEADER_LEN + payload.len());
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
    }

    /// Push everything buffered to the tmp file and record a flush
    /// boundary. A crash after this call preserves at least this prefix.
    pub fn flush(&mut self) -> Result<(), DurabilityError> {
        if !self.pending.is_empty() {
            let (io, tmp, pending) = (self.io, &self.tmp_path, &self.pending);
            with_retry(&self.policy, tmp, || io.append(tmp, pending))?;
            self.digest.update(pending);
            self.written += pending.len() as u64;
            self.pending.clear();
        }
        if self.boundaries.last() != Some(&self.written) {
            self.boundaries.push(self.written);
        }
        Ok(())
    }

    /// Flush, fsync, and atomically rename the tmp file into place.
    pub fn seal(mut self) -> Result<SealedSegment, DurabilityError> {
        self.flush()?;
        let (io, tmp, fin) = (self.io, &self.tmp_path, &self.final_path);
        with_retry(&self.policy, tmp, || io.sync(tmp))?;
        with_retry(&self.policy, tmp, || io.rename(tmp, fin))?;
        Ok(SealedSegment {
            path: self.final_path,
            file_name: self.file_name,
            bytes: self.written,
            digest: self.digest.finish(),
            flush_boundaries: self.boundaries,
        })
    }
}

// ------------------------------------------------------------ wire reader

/// One event from an incremental frame stream.
///
/// Transport-level failures (reset, timeout) surface as `io::Error` from
/// [`FrameReader::next_frame`]; *content*-level failures — a frame that
/// arrived but is not a valid frame — are a [`FrameEvent::Damaged`] value,
/// because the bytes are evidence the reader may want to report, not an
/// I/O condition to retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, checksum-valid payload.
    Frame(Vec<u8>),
    /// The stream ended cleanly at a frame boundary.
    Eof,
    /// The stream produced bytes that are not a valid frame (torn write,
    /// corrupt header, checksum mismatch). The stream is unusable past
    /// this point.
    Damaged(FrameDamage),
}

/// Incremental reader for the segment format over any byte stream — the
/// same `MAGIC frame*` layout the on-disk scanner validates, consumed
/// frame-by-frame so it can serve as a TCP wire protocol. Hostile input
/// never panics and never allocates more than [`MAX_FRAME_LEN`].
pub struct FrameReader<R> {
    inner: R,
}

impl<R: std::io::Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner }
    }

    /// Fill `buf` from the stream. `Ok(true)` on success, `Ok(false)` on
    /// EOF before the first byte; EOF mid-buffer is reported via `torn`.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> std::io::Result<Option<bool>> {
        let mut got = 0usize;
        while got < buf.len() {
            match self.inner.read(&mut buf[got..]) {
                Ok(0) => return Ok(if got == 0 { Some(false) } else { None }),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(Some(true))
    }

    /// Read and verify the leading [`MAGIC`]. Call once per stream;
    /// `Ok(false)` means the peer is not speaking this protocol.
    pub fn expect_magic(&mut self) -> std::io::Result<bool> {
        let mut buf = [0u8; 7];
        match self.read_exact_or_eof(&mut buf)? {
            Some(true) => Ok(&buf == MAGIC),
            _ => Ok(false),
        }
    }

    /// Read the next frame, blocking until one arrives or the stream ends.
    pub fn next_frame(&mut self) -> std::io::Result<FrameEvent> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        match self.read_exact_or_eof(&mut header)? {
            Some(true) => {}
            Some(false) => return Ok(FrameEvent::Eof),
            None => return Ok(FrameEvent::Damaged(FrameDamage::TornHeader)),
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Ok(FrameEvent::Damaged(FrameDamage::BadLength));
        }
        let mut payload = vec![0u8; len as usize];
        match self.read_exact_or_eof(&mut payload)? {
            Some(true) => {}
            _ => return Ok(FrameEvent::Damaged(FrameDamage::TornPayload)),
        }
        if crc32(&payload) != crc {
            return Ok(FrameEvent::Damaged(FrameDamage::BadChecksum));
        }
        Ok(FrameEvent::Frame(payload))
    }
}

/// Write one frame (header + payload) to a stream. The caller owns
/// buffering and flushing.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::io::{FlakyIo, StdIo};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-durable-seg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn write_segment(dir: &Path, records: &[&[u8]], flush_every: usize) -> SealedSegment {
        let io = StdIo;
        let mut w = SegmentWriter::create(dir, "probe.dlog", &io, RetryPolicy::no_retry()).unwrap();
        for (i, r) in records.iter().enumerate() {
            w.append(r);
            if (i + 1) % flush_every == 0 {
                w.flush().unwrap();
            }
        }
        w.seal().unwrap()
    }

    #[test]
    fn roundtrip_preserves_records_exactly() {
        let dir = tmpdir("roundtrip");
        let records: Vec<&[u8]> = vec![b"alpha", b"", b"gamma with spaces", b"\xFF\x00binary"];
        let sealed = write_segment(&dir, &records, 2);
        assert!(sealed.path.exists());
        assert!(!sealed.path.with_extension("dlog.tmp").exists());
        let bytes = fs::read(&sealed.path).unwrap();
        assert_eq!(bytes.len() as u64, sealed.bytes);
        assert_eq!(crc32(&bytes), sealed.digest);
        let scan = scan_segment_bytes(&bytes);
        assert!(scan.damage.is_none());
        assert_eq!(scan.payloads, records);
        assert_eq!(scan.valid_bytes, scan.total_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_boundaries_are_frame_aligned_prefixes() {
        let dir = tmpdir("boundaries");
        let records: Vec<&[u8]> = vec![b"one", b"two", b"three", b"four", b"five"];
        let sealed = write_segment(&dir, &records, 1);
        let bytes = fs::read(&sealed.path).unwrap();
        assert_eq!(*sealed.flush_boundaries.last().unwrap(), sealed.bytes);
        for (i, &b) in sealed.flush_boundaries.iter().enumerate() {
            let scan = scan_segment_bytes(&bytes[..b as usize]);
            assert!(scan.damage.is_none(), "boundary {b} cuts a frame");
            assert_eq!(scan.payloads.len(), i + 1, "boundary {b}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_between_boundaries_salvages_the_flushed_prefix() {
        let dir = tmpdir("torn");
        let records: Vec<&[u8]> = vec![b"aaaa", b"bbbb", b"cccc"];
        let sealed = write_segment(&dir, &records, 1);
        let bytes = fs::read(&sealed.path).unwrap();
        // Cut in the middle of the last frame's payload.
        let cut = sealed.flush_boundaries[1] as usize + FRAME_HEADER_LEN + 2;
        let scan = scan_segment_bytes(&bytes[..cut]);
        assert_eq!(scan.damage, Some(FrameDamage::TornPayload));
        assert_eq!(scan.payloads, vec![b"aaaa".to_vec(), b"bbbb".to_vec()]);
        assert_eq!(scan.valid_bytes, sealed.flush_boundaries[1]);
        assert_eq!(scan.torn_bytes(), (cut as u64) - sealed.flush_boundaries[1]);
        // Cut inside a frame header.
        let cut = sealed.flush_boundaries[0] as usize + 3;
        let scan = scan_segment_bytes(&bytes[..cut]);
        assert_eq!(scan.damage, Some(FrameDamage::TornHeader));
        assert_eq!(scan.payloads.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_is_caught_by_frame_crc() {
        let dir = tmpdir("bitrot");
        let records: Vec<&[u8]> = vec![b"first", b"second", b"third"];
        let sealed = write_segment(&dir, &records, 1);
        let clean = fs::read(&sealed.path).unwrap();
        // Flip one bit in the middle frame's payload.
        let off = sealed.flush_boundaries[0] as usize + FRAME_HEADER_LEN + 1;
        let mut rotten = clean.clone();
        rotten[off] ^= 0x10;
        let scan = scan_segment_bytes(&rotten);
        assert_eq!(scan.damage, Some(FrameDamage::BadChecksum));
        assert_eq!(scan.payloads, vec![b"first".to_vec()]);
        // A corrupted length field is damage, not an allocation.
        let mut huge = clean.clone();
        huge[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_segment_bytes(&huge);
        assert_eq!(scan.damage, Some(FrameDamage::BadLength));
        assert!(scan.payloads.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_salvages_nothing() {
        let scan = scan_segment_bytes(b"README: not a segment\n");
        assert_eq!(scan.damage, Some(FrameDamage::BadMagic));
        assert_eq!(scan.valid_bytes, 0);
        let scan = scan_segment_bytes(b"");
        assert_eq!(scan.damage, Some(FrameDamage::BadMagic));
        let scan = scan_segment_bytes(&MAGIC[..3]);
        assert_eq!(scan.damage, Some(FrameDamage::BadMagic));
    }

    #[test]
    fn empty_sealed_segment_is_valid() {
        let dir = tmpdir("empty");
        let sealed = write_segment(&dir, &[], 1);
        let bytes = fs::read(&sealed.path).unwrap();
        assert_eq!(bytes, MAGIC);
        let scan = scan_segment_bytes(&bytes);
        assert!(scan.damage.is_none());
        assert!(scan.payloads.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_failures_are_retried_through_the_injected_io() {
        let dir = tmpdir("flaky-ok");
        let io = FlakyIo::failing_first(4);
        let mut w = SegmentWriter::create(&dir, "n.dlog", &io, RetryPolicy::immediate(5)).unwrap();
        w.append(b"payload");
        w.flush().unwrap();
        let sealed = w.seal().unwrap();
        assert!(io.injected_failures() >= 4);
        let scan = scan_segment_bytes(&fs::read(&sealed.path).unwrap());
        assert!(scan.damage.is_none());
        assert_eq!(scan.payloads, vec![b"payload".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retries_degrade_to_typed_error_not_panic() {
        let dir = tmpdir("flaky-dead");
        let io = FlakyIo::poisoning("n.dlog");
        let mut w = match SegmentWriter::create(&dir, "n.dlog", &io, RetryPolicy::immediate(2)) {
            Ok(w) => w,
            Err(DurabilityError::Io { .. }) => return, // create itself may trip
            Err(other) => panic!("unexpected error {other:?}"),
        };
        w.append(b"payload");
        let err = w.flush().unwrap_err();
        assert!(matches!(err, DurabilityError::Io { attempts: 2, .. }));
        assert!(err.to_string().contains("n.dlog"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_reader_replays_a_segment_stream() {
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&encode_frame(b"alpha"));
        wire.extend_from_slice(&encode_frame(b""));
        wire.extend_from_slice(&encode_frame(b"\x00\xFFbinary"));
        let mut r = FrameReader::new(&wire[..]);
        assert!(r.expect_magic().unwrap());
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Frame(b"alpha".to_vec())
        );
        assert_eq!(r.next_frame().unwrap(), FrameEvent::Frame(Vec::new()));
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Frame(b"\x00\xFFbinary".to_vec())
        );
        assert_eq!(r.next_frame().unwrap(), FrameEvent::Eof);
    }

    #[test]
    fn frame_reader_rejects_hostile_bytes_without_panic() {
        // Wrong magic.
        let mut r = FrameReader::new(&b"GET / HTTP/1.1\r\n"[..]);
        assert!(!r.expect_magic().unwrap());
        // Truncated magic.
        let mut r = FrameReader::new(&MAGIC[..3]);
        assert!(!r.expect_magic().unwrap());
        // Torn header.
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        let mut r = FrameReader::new(&wire[..]);
        assert!(r.expect_magic().unwrap());
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Damaged(FrameDamage::TornHeader)
        );
        // Implausible length is damage, not an allocation request.
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut r = FrameReader::new(&wire[..]);
        assert!(r.expect_magic().unwrap());
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Damaged(FrameDamage::BadLength)
        );
        // Torn payload.
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&encode_frame(b"whole frame")[..12]);
        let mut r = FrameReader::new(&wire[..]);
        assert!(r.expect_magic().unwrap());
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Damaged(FrameDamage::TornPayload)
        );
        // Flipped payload bit.
        let mut wire = MAGIC.to_vec();
        let mut frame = encode_frame(b"checksummed");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        wire.extend_from_slice(&frame);
        let mut r = FrameReader::new(&wire[..]);
        assert!(r.expect_magic().unwrap());
        assert_eq!(
            r.next_frame().unwrap(),
            FrameEvent::Damaged(FrameDamage::BadChecksum)
        );
    }

    #[test]
    fn stale_tmp_from_earlier_crash_is_replaced() {
        let dir = tmpdir("stale-tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("n.dlog.tmp"), b"half-written garbage").unwrap();
        let io = StdIo;
        let mut w = SegmentWriter::create(&dir, "n.dlog", &io, RetryPolicy::no_retry()).unwrap();
        w.append(b"fresh");
        let sealed = w.seal().unwrap();
        let scan = scan_segment_bytes(&fs::read(&sealed.path).unwrap());
        assert_eq!(scan.payloads, vec![b"fresh".to_vec()]);
        assert!(!dir.join("n.dlog.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
