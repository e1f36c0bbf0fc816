//! The on-disk faultdb format: columnar row-group blocks behind a
//! CRC-protected footer.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "UCFDB1\n" (7 bytes)                                   |
//! | block 0 payload | block 1 payload | ...                      |
//! | footer (index + zone maps + provenance)                      |
//! | trailer: footer_off u64le | footer_len u32le | footer_crc    |
//! +--------------------------------------------------------------+
//! ```
//!
//! Each block holds up to `rows_per_block` faults stored column-major.
//! Format version 1 stores every column fixed-width little-endian;
//! version 2 additionally allows per-block compressed payloads
//! (delta-encoded timestamps, frame-of-reference bit-packed columns —
//! see [`crate::encoding`]), chosen per block by a pure cost rule and
//! recorded as one encoding byte in that block's footer entry. Version 1
//! files remain fully readable: a version 1 footer simply has no
//! encoding byte and every block decodes as fixed-width.
//!
//! The footer records, per block, the byte extent, row count, payload
//! CRC-32 (the same from-scratch CRC as the durable log segments), the
//! encoding byte (version ≥ 2), and a zone map: min/max time, min/max
//! node id, min/max vaddr, a bit-class bitmap, and a flip-direction
//! bitmap. The trailer carries the footer's own extent and CRC, so
//! validation is outside-in: magic → trailer → footer CRC → per-block
//! CRC on decode. Any truncation or bit flip is caught by one of those
//! checks and surfaces as a typed [`DbError`] — never as
//! silently wrong rows.
//!
//! Files are sealed with the same tmp + fsync + rename discipline as
//! every other artifact in this repo: a crash mid-build leaves the old
//! database or none, never a torn one.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use uc_analysis::daily::DayVolume;
#[cfg(test)]
use uc_analysis::fault::BitClass;
use uc_analysis::fault::Fault;
use uc_cluster::NodeId;
use uc_faultlog::durable::crc::crc32;
use uc_faultlog::ingest::IngestStats;

use crate::encoding::{self, BlockEncoding, Columns};
use crate::error::{BlockDamage, DbError};
use crate::query::FlipDir;
use crate::snapshot::Snapshot;

/// Leading magic bytes.
pub const MAGIC: &[u8; 7] = b"UCFDB1\n";
/// Fixed trailer size: footer offset + length + CRC.
pub const TRAILER_LEN: usize = 16;
/// Current format version (2 = per-block compressed encodings).
pub const FORMAT_VERSION: u32 = 2;
/// Oldest version this reader still decodes.
pub const MIN_FORMAT_VERSION: u32 = 1;
/// Default rows per block: small enough that zone maps prune usefully on
/// a ~50k-fault study, large enough that per-block overhead vanishes.
pub const DEFAULT_ROWS_PER_BLOCK: usize = 4096;

/// Per-block footer entry size by format version (version 2 adds the
/// encoding byte).
fn block_meta_len(version: u32) -> usize {
    if version >= 2 {
        59
    } else {
        58
    }
}

/// Per-block zone map: conservative bounds the planner prunes against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    pub min_time: i64,
    pub max_time: i64,
    pub min_node: u32,
    pub max_node: u32,
    pub min_vaddr: u64,
    pub max_vaddr: u64,
    /// Bit `c` set iff some row has `BitClass::ALL[c]`.
    pub class_map: u8,
    /// Bit `d` set iff some row has flip direction `d` (see [`FlipDir`]).
    pub dir_map: u8,
}

impl ZoneMap {
    /// The identity under [`ZoneMap::absorb`]: bounds no row satisfies.
    pub fn empty() -> ZoneMap {
        ZoneMap {
            min_time: i64::MAX,
            max_time: i64::MIN,
            min_node: u32::MAX,
            max_node: 0,
            min_vaddr: u64::MAX,
            max_vaddr: 0,
            class_map: 0,
            dir_map: 0,
        }
    }

    /// Widen to cover one fault.
    pub fn add(&mut self, f: &Fault) {
        self.min_time = self.min_time.min(f.time.as_secs());
        self.max_time = self.max_time.max(f.time.as_secs());
        self.min_node = self.min_node.min(f.node.0);
        self.max_node = self.max_node.max(f.node.0);
        self.min_vaddr = self.min_vaddr.min(f.vaddr);
        self.max_vaddr = self.max_vaddr.max(f.vaddr);
        self.class_map |= 1 << f.bit_class() as u8;
        self.dir_map |= 1 << FlipDir::of(f) as u8;
    }

    /// Widen to cover everything another zone map covers.
    pub fn absorb(&mut self, z: &ZoneMap) {
        self.min_time = self.min_time.min(z.min_time);
        self.max_time = self.max_time.max(z.max_time);
        self.min_node = self.min_node.min(z.min_node);
        self.max_node = self.max_node.max(z.max_node);
        self.min_vaddr = self.min_vaddr.min(z.min_vaddr);
        self.max_vaddr = self.max_vaddr.max(z.max_vaddr);
        self.class_map |= z.class_map;
        self.dir_map |= z.dir_map;
    }

    /// The zone map covering exactly these faults.
    pub fn of(faults: &[Fault]) -> ZoneMap {
        let mut z = ZoneMap::empty();
        for f in faults {
            z.add(f);
        }
        z
    }
}

/// Footer entry for one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Absolute byte offset of the payload in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Row count.
    pub rows: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
    /// How the payload is encoded (always `Fixed` in version 1 files).
    pub encoding: BlockEncoding,
    pub zone: ZoneMap,
}

/// Everything the footer stores besides the block index: the report
/// provenance a [`Snapshot`] needs (see that type's docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    pub node_logs: u64,
    pub raw_records: u64,
    pub raw_errors: u64,
    pub stats: IngestStats,
    pub flood_nodes: Vec<NodeId>,
    /// (day index, f64 bits) pairs — exact-bit day volume.
    pub day_volume: Vec<(i64, u64)>,
}

/// Decoded footer.
#[derive(Clone, Debug, PartialEq)]
pub struct Footer {
    pub version: u32,
    pub rows_per_block: u32,
    pub total_rows: u64,
    pub blocks: Vec<BlockMeta>,
    pub provenance: Provenance,
}

/// Which format version to write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileEncoding {
    /// Version 1: fixed-width blocks, byte-identical to the historical
    /// writer. Kept as the differential oracle.
    V1,
    /// Version 2: per-block cost-ruled compressed encodings.
    V2,
}

/// Build options.
#[derive(Clone, Copy, Debug)]
pub struct WriteOptions {
    pub rows_per_block: usize,
    pub encoding: FileEncoding,
}

impl Default for WriteOptions {
    fn default() -> WriteOptions {
        WriteOptions {
            rows_per_block: DEFAULT_ROWS_PER_BLOCK,
            encoding: FileEncoding::V2,
        }
    }
}

/// What a successful build produced.
#[derive(Clone, Debug)]
pub struct WriteSummary {
    pub path: PathBuf,
    pub rows: u64,
    pub blocks: usize,
    pub bytes: u64,
}

// ---------------------------------------------------------------- encode

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode one chunk of faults under the chosen file encoding.
fn encode_block(faults: &[Fault], file_enc: FileEncoding) -> (Vec<u8>, ZoneMap, BlockEncoding) {
    debug_assert!(!faults.is_empty());
    let zone = ZoneMap::of(faults);
    let (payload, enc) = match file_enc {
        FileEncoding::V1 => (encoding::encode_fixed(faults), BlockEncoding::Fixed),
        FileEncoding::V2 => encoding::encode_block_choose(faults),
    };
    (payload, zone, enc)
}

fn encode_footer(footer: &Footer) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + footer.blocks.len() * block_meta_len(footer.version));
    push_u32(&mut out, footer.version);
    push_u32(&mut out, footer.rows_per_block);
    push_u64(&mut out, footer.total_rows);
    push_u32(&mut out, footer.blocks.len() as u32);
    for b in &footer.blocks {
        push_u64(&mut out, b.offset);
        push_u32(&mut out, b.len);
        push_u32(&mut out, b.rows);
        push_u32(&mut out, b.crc);
        push_i64(&mut out, b.zone.min_time);
        push_i64(&mut out, b.zone.max_time);
        push_u32(&mut out, b.zone.min_node);
        push_u32(&mut out, b.zone.max_node);
        push_u64(&mut out, b.zone.min_vaddr);
        push_u64(&mut out, b.zone.max_vaddr);
        out.push(b.zone.class_map);
        out.push(b.zone.dir_map);
        if footer.version >= 2 {
            out.push(b.encoding as u8);
        }
    }
    encode_provenance(&mut out, &footer.provenance);
    out
}

/// Append a [`Provenance`] in the footer wire layout. Shared with the
/// root catalog, which stores the campaign's provenance once at the root
/// instead of in every shard.
pub(crate) fn encode_provenance(out: &mut Vec<u8>, p: &Provenance) {
    push_u64(out, p.node_logs);
    push_u64(out, p.raw_records);
    push_u64(out, p.raw_errors);
    for v in stats_fields(&p.stats) {
        push_u64(out, v);
    }
    push_u32(out, p.flood_nodes.len() as u32);
    for n in &p.flood_nodes {
        push_u32(out, n.0);
    }
    push_u32(out, p.day_volume.len() as u32);
    for &(day, bits) in &p.day_volume {
        push_i64(out, day);
        push_u64(out, bits);
    }
}

/// Decode a [`Provenance`] from the cursor (inverse of
/// [`encode_provenance`]).
pub(crate) fn decode_provenance(r: &mut Reader<'_>) -> Result<Provenance, DbError> {
    let node_logs = r.u64()?;
    let raw_records = r.u64()?;
    let raw_errors = r.u64()?;
    let mut fields = [0u64; 17];
    for f in &mut fields {
        *f = r.u64()?;
    }
    let flood_count = r.u32()?;
    if (flood_count as usize).saturating_mul(4) > r.remaining() {
        return Err(DbError::BadFooter("flood list larger than footer".into()));
    }
    let mut flood_nodes = Vec::with_capacity(flood_count as usize);
    for _ in 0..flood_count {
        flood_nodes.push(NodeId(r.u32()?));
    }
    let day_count = r.u32()?;
    if (day_count as usize).saturating_mul(16) > r.remaining() {
        return Err(DbError::BadFooter("day volume larger than footer".into()));
    }
    let mut day_volume = Vec::with_capacity(day_count as usize);
    for _ in 0..day_count {
        let day = r.i64()?;
        let bits = r.u64()?;
        day_volume.push((day, bits));
    }
    Ok(Provenance {
        node_logs,
        raw_records,
        raw_errors,
        stats: stats_from_fields(fields),
        flood_nodes,
        day_volume,
    })
}

/// The 17 ingest counters in declaration order; the reader rebuilds the
/// struct from the same order, so this is the serialization contract.
fn stats_fields(s: &IngestStats) -> [u64; 17] {
    [
        s.files_read,
        s.files_unreadable,
        s.invalid_utf8_files,
        s.lines_read,
        s.records_kept,
        s.blank_lines,
        s.torn_final_lines,
        s.duplicate_lines,
        s.bad_kind,
        s.bad_field,
        s.bad_number,
        s.bad_node,
        s.out_of_order,
        s.session_gaps,
        s.fsck_files_salvaged,
        s.fsck_bytes_salvaged,
        s.fsck_bytes_quarantined,
    ]
}

fn stats_from_fields(v: [u64; 17]) -> IngestStats {
    IngestStats {
        files_read: v[0],
        files_unreadable: v[1],
        invalid_utf8_files: v[2],
        lines_read: v[3],
        records_kept: v[4],
        blank_lines: v[5],
        torn_final_lines: v[6],
        duplicate_lines: v[7],
        bad_kind: v[8],
        bad_field: v[9],
        bad_number: v[10],
        bad_node: v[11],
        out_of_order: v[12],
        session_gaps: v[13],
        fsck_files_salvaged: v[14],
        fsck_bytes_salvaged: v[15],
        fsck_bytes_quarantined: v[16],
    }
}

/// Serialize a snapshot to `path` atomically (`<path>.tmp` + fsync +
/// rename). Block encoding fans out over the worker pool; the byte
/// stream is identical at any thread count (chunks are concatenated in
/// order, and the per-block cost rule is pure).
pub fn write_db(
    snapshot: &Snapshot,
    path: &Path,
    opts: &WriteOptions,
) -> Result<WriteSummary, DbError> {
    let rows_per_block = opts.rows_per_block.clamp(1, 1 << 20);
    let chunks: Vec<&[Fault]> = snapshot.faults.chunks(rows_per_block).collect();
    let encoded = uc_parallel::par_map(&chunks, |_, chunk| encode_block(chunk, opts.encoding));

    let mut blocks = Vec::with_capacity(encoded.len());
    let mut offset = MAGIC.len() as u64;
    for (chunk, (payload, zone, enc)) in chunks.iter().zip(&encoded) {
        blocks.push(BlockMeta {
            offset,
            len: payload.len() as u32,
            rows: chunk.len() as u32,
            crc: crc32(payload),
            encoding: *enc,
            zone: *zone,
        });
        offset += payload.len() as u64;
    }

    let footer = Footer {
        version: match opts.encoding {
            FileEncoding::V1 => 1,
            FileEncoding::V2 => FORMAT_VERSION,
        },
        rows_per_block: rows_per_block as u32,
        total_rows: snapshot.faults.len() as u64,
        blocks,
        provenance: Provenance {
            node_logs: snapshot.node_logs,
            raw_records: snapshot.raw_records,
            raw_errors: snapshot.raw_errors,
            stats: snapshot.stats,
            flood_nodes: snapshot.flood_nodes.clone(),
            day_volume: snapshot
                .day_volume
                .iter()
                .map(|(d, v)| (d, v.to_bits()))
                .collect(),
        },
    };
    let footer_bytes = encode_footer(&footer);
    let footer_off = offset;

    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| DbError::io(path, io::Error::other("path has no file name")))?;
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
    let tmp = dir.join(format!("{file_name}.tmp"));
    let write_all = || -> io::Result<u64> {
        let mut w = io::BufWriter::new(fs::File::create(&tmp)?);
        w.write_all(MAGIC)?;
        for (payload, _, _) in &encoded {
            w.write_all(payload)?;
        }
        w.write_all(&footer_bytes)?;
        w.write_all(&footer_off.to_le_bytes())?;
        w.write_all(&(footer_bytes.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(&footer_bytes).to_le_bytes())?;
        w.flush()?;
        let f = w
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        f.sync_all()?;
        Ok(footer_off + footer_bytes.len() as u64 + TRAILER_LEN as u64)
    };
    let bytes = write_all().map_err(|e| DbError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| DbError::io(path, e))?;
    Ok(WriteSummary {
        path: path.to_path_buf(),
        rows: footer.total_rows,
        blocks: footer.blocks.len(),
        bytes,
    })
}

// ---------------------------------------------------------------- decode

/// Bounds-checked little-endian cursor; every shortfall is a typed
/// footer-corruption error rather than a panic. Shared with the root
/// catalog decoder.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| DbError::BadFooter("footer shorter than its structure".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, DbError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bytes left unread.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode and validate a footer slice (CRC already checked by the
/// caller against the trailer). Accepts versions 1 and 2.
pub fn decode_footer(bytes: &[u8], blocks_end: u64) -> Result<Footer, DbError> {
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(DbError::BadVersion(version));
    }
    let rows_per_block = r.u32()?;
    let total_rows = r.u64()?;
    let block_count = r.u32()?;
    // An absurd count would make us allocate before the take() fails;
    // bound it by what the footer could possibly hold.
    if (block_count as usize).saturating_mul(block_meta_len(version)) > bytes.len() {
        return Err(DbError::BadFooter(format!(
            "block count {block_count} larger than the footer"
        )));
    }
    let mut blocks = Vec::with_capacity(block_count as usize);
    let mut expect_off = MAGIC.len() as u64;
    let mut rows_sum = 0u64;
    for i in 0..block_count {
        let b = BlockMeta {
            offset: r.u64()?,
            len: r.u32()?,
            rows: r.u32()?,
            crc: r.u32()?,
            encoding: BlockEncoding::Fixed,
            zone: ZoneMap {
                min_time: r.i64()?,
                max_time: r.i64()?,
                min_node: r.u32()?,
                max_node: r.u32()?,
                min_vaddr: r.u64()?,
                max_vaddr: r.u64()?,
                class_map: r.u8()?,
                dir_map: r.u8()?,
            },
        };
        let b = if version >= 2 {
            let enc = BlockEncoding::from_byte(r.u8()?)
                .ok_or_else(|| DbError::BadFooter(format!("block {i} unknown encoding")))?;
            BlockMeta { encoding: enc, ..b }
        } else {
            b
        };
        if b.offset != expect_off || b.rows == 0 {
            return Err(DbError::BadFooter(format!("block {i} index inconsistent")));
        }
        expect_off += b.len as u64;
        if expect_off > blocks_end {
            return Err(DbError::BlockCorrupt {
                index: i,
                damage: BlockDamage::OutOfBounds,
            });
        }
        rows_sum += b.rows as u64;
        blocks.push(b);
    }
    if expect_off != blocks_end {
        return Err(DbError::BadFooter(
            "block region does not meet the footer".into(),
        ));
    }
    if rows_sum != total_rows {
        return Err(DbError::BadFooter(format!(
            "row counts disagree: blocks hold {rows_sum}, footer claims {total_rows}"
        )));
    }
    let provenance = decode_provenance(&mut r)?;
    if !r.done() {
        return Err(DbError::BadFooter("trailing bytes after footer".into()));
    }
    Ok(Footer {
        version,
        rows_per_block,
        total_rows,
        blocks,
        provenance,
    })
}

/// Decode one block payload into columnar form. The caller has already
/// sliced `payload` per the footer; this verifies the CRC before
/// trusting a byte, then the exact column layout and every value.
pub fn decode_block_columns(payload: &[u8], meta: &BlockMeta) -> Result<Columns, BlockDamage> {
    if crc32(payload) != meta.crc {
        return Err(BlockDamage::ChecksumMismatch);
    }
    encoding::decode_columns(payload, meta.rows as usize, meta.encoding)
}

/// Decode one block payload back into faults (row form).
pub fn decode_block(payload: &[u8], meta: &BlockMeta) -> Result<Vec<Fault>, BlockDamage> {
    Ok(decode_block_columns(payload, meta)?.to_faults())
}

/// Rebuild the [`Snapshot`] provenance side (everything but the faults).
pub fn snapshot_from_parts(provenance: &Provenance, faults: Vec<Fault>) -> Snapshot {
    Snapshot {
        faults,
        flood_nodes: provenance.flood_nodes.clone(),
        stats: provenance.stats,
        node_logs: provenance.node_logs,
        raw_records: provenance.raw_records,
        raw_errors: provenance.raw_errors,
        day_volume: DayVolume::from_pairs(
            provenance
                .day_volume
                .iter()
                .map(|&(d, bits)| (d, f64::from_bits(bits))),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_simclock::SimTime;

    fn fault(t: i64, node: u32, vaddr: u64, actual: u32, temp: Option<f32>) -> Fault {
        Fault {
            node: NodeId(node),
            time: SimTime::from_secs(t),
            vaddr,
            expected: 0xFFFF_FFFF,
            actual,
            temp,
            raw_logs: 3,
        }
    }

    #[test]
    fn block_roundtrip_with_and_without_temps() {
        let faults = vec![
            fault(10, 1, 0x100, 0xFFFF_FFFE, Some(35.5)),
            fault(20, 2, 0x200, 0x7FFF_FFFF, None),
            fault(30, 900, 0x300, 0x0000_0000, Some(-3.25)),
        ];
        for file_enc in [FileEncoding::V1, FileEncoding::V2] {
            let (payload, zone, enc) = encode_block(&faults, file_enc);
            let meta = BlockMeta {
                offset: 7,
                len: payload.len() as u32,
                rows: 3,
                crc: crc32(&payload),
                encoding: enc,
                zone,
            };
            let back = decode_block(&payload, &meta).unwrap();
            assert_eq!(back, faults, "{file_enc:?}");
            assert_eq!(zone.min_time, 10);
            assert_eq!(zone.max_time, 30);
            assert_eq!(zone.min_node, 1);
            assert_eq!(zone.max_node, 900);
            assert_eq!(zone.min_vaddr, 0x100);
            assert_eq!(zone.max_vaddr, 0x300);
            // 1-bit, 1-bit, 32-bit corruptions.
            assert_eq!(
                zone.class_map,
                (1 << BitClass::One as u8) | (1 << BitClass::SixPlus as u8)
            );
        }
    }

    #[test]
    fn v1_blocks_are_byte_identical_to_the_historical_writer() {
        // The version-1 encoder must keep producing exactly the layout
        // documented at the top of this file — spot-check the column
        // offsets by hand.
        let faults = vec![
            fault(10, 1, 0x100, 0xFFFF_FFFE, None),
            fault(20, 2, 0x200, 0xFFFF_FFFD, None),
        ];
        let (payload, _, enc) = encode_block(&faults, FileEncoding::V1);
        assert_eq!(enc, BlockEncoding::Fixed);
        assert_eq!(payload.len(), 2 * 36 + 1); // two rows + bitmap, no temps
        assert_eq!(&payload[0..8], &10i64.to_le_bytes());
        assert_eq!(&payload[8..16], &20i64.to_le_bytes());
        assert_eq!(&payload[16..20], &1u32.to_le_bytes());
        assert_eq!(&payload[20..24], &2u32.to_le_bytes());
    }

    #[test]
    fn payload_bit_flip_is_checksum_mismatch_in_both_encodings() {
        let faults = vec![fault(10, 1, 0x100, 0xFFFF_FFFE, None)];
        for file_enc in [FileEncoding::V1, FileEncoding::V2] {
            let (mut payload, zone, enc) = encode_block(&faults, file_enc);
            let meta = BlockMeta {
                offset: 7,
                len: payload.len() as u32,
                rows: 1,
                crc: crc32(&payload),
                encoding: enc,
                zone,
            };
            payload[5] ^= 0x10;
            assert_eq!(
                decode_block(&payload, &meta),
                Err(BlockDamage::ChecksumMismatch),
                "{file_enc:?}"
            );
        }
    }

    #[test]
    fn footer_roundtrips_both_versions() {
        let zone = ZoneMap::of(&[fault(5, 3, 0x40, 0xFFFF_FFFE, None)]);
        for (version, enc) in [(1, BlockEncoding::Fixed), (2, BlockEncoding::Packed)] {
            let footer = Footer {
                version,
                rows_per_block: 4096,
                total_rows: 1,
                blocks: vec![BlockMeta {
                    offset: MAGIC.len() as u64,
                    len: 40,
                    rows: 1,
                    crc: 0xDEAD_BEEF,
                    encoding: enc,
                    zone,
                }],
                provenance: Provenance {
                    node_logs: 1,
                    raw_records: 2,
                    raw_errors: 3,
                    stats: IngestStats::default(),
                    flood_nodes: vec![NodeId(7)],
                    day_volume: vec![(0, 1.5f64.to_bits())],
                },
            };
            let bytes = encode_footer(&footer);
            let back = decode_footer(&bytes, MAGIC.len() as u64 + 40).unwrap();
            assert_eq!(back, footer, "version {version}");
        }
    }

    #[test]
    fn unknown_footer_version_is_typed() {
        let mut bytes = vec![0u8; 20];
        bytes[0..4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_footer(&bytes, 7),
            Err(DbError::BadVersion(99))
        ));
    }
}
