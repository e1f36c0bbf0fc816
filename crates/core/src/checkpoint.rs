//! Incremental per-node campaign checkpointing.
//!
//! A full-scale campaign simulates ~900 nodes; an interruption (OOM kill,
//! Ctrl-C, node crash) should not force recomputation of finished nodes.
//! Each node's completed simulation is persisted as one small file the
//! moment it finishes; [`run_campaign_checkpointed`] reads the surviving
//! files on restart and only simulates the remainder.
//!
//! The determinism contract (DESIGN.md §6) must hold across a resume: a
//! resumed campaign's output is byte-identical to an uninterrupted run,
//! and resuming `--out` rewrites each node's full log from its
//! checkpoint. So a checkpoint holds the whole [`NodeLog`], losslessly,
//! in a compact binary form (`CKPT v2`):
//!
//! - the first frame is a text header, `CKPT v2 seed=… node=… mh=…
//!   tbh=… entries=…`, with the monitored/terabyte hours as raw `f64`
//!   bit patterns;
//! - every further frame holds whole entries, each a tag byte (the
//!   entry kind, plus flags for "a node id follows" and "a temperature
//!   follows"), the time as a zigzag varint delta from the previous
//!   entry's (wrapping), the node id only when it differs from the
//!   previous entry's, the kind's integer fields as varints (an error's
//!   `actual` as its XOR with `expected`, a run's period zigzagged), and
//!   the temperature as its raw `f32` bits, so NaN payloads, ±0 and
//!   `None` survive. Entries keep their order; nothing is re-sorted;
//! - an entry frame holds at most 64 KiB and decodes on its own: the
//!   time and node state restart at each frame, from time 0 and the
//!   header's node. The entries are cut into at least
//!   `min(entries, 4)` frames, so the writer's flush boundaries (after
//!   every ⌈n/4⌉ of the n frames) fall inside every checkpoint.
//!
//! Faults are *not* stored: extraction is deterministic, so they are
//! recomputed from the restored log on load (and the checkpoint stays
//! small). Checkpoints are advisory — any unreadable, stale-seed or
//! malformed file is ignored and the node recomputed. That includes a
//! `CKPT v1` file (one text line per entry, from older builds): no v1
//! reader is kept, so such a node simply simulates again.
//!
//! Checkpoints are durable segments (`uc_faultlog::durable`): each frame
//! is CRC-checksummed, the file is written as `.ckpt.tmp` with flush
//! boundaries and sealed by atomic rename, and writes go through the
//! injectable I/O layer with bounded-retry backoff. A checkpoint damaged
//! in any way — torn at a byte offset, bit-flipped, truncated — fails
//! its frame checksums, its entry decode or its entry count and reads as
//! `None`: the node is recomputed, never resumed wrong. `uc fsck`
//! verifies and salvages checkpoint directories like any other durable
//! directory.

use std::fs;
use std::path::{Path, PathBuf};

use uc_analysis::extract::{extract_node_faults, ExtractConfig};
use uc_cluster::NodeId;
use uc_faultlog::durable::{
    scan_segment_slices, DurabilityError, Io, RetryPolicy, SealedSegment, SegmentWriter, StdIo,
};
use uc_faultlog::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
use uc_faultlog::store::{LogEntry, NodeLog, MAX_RUN_COUNT};
use uc_parallel::par_map_supervised;
use uc_simclock::{SimDuration, SimTime};

use crate::campaign::CampaignResult;
use crate::campaign::{campaign_nodes, simulate_node, supervised_to_outcome, NodeSim};
use crate::config::CampaignConfig;

const MAGIC: &str = "CKPT v2";

/// Largest entry frame payload.
const FRAME_BYTES: usize = 64 * 1024;
/// Longest encoded entry: a tag, a time and a node, a run's six integer
/// fields at their widest varints, and a temperature.
const MAX_ENTRY_BYTES: usize = 1 + 10 + 5 + (10 + 10 + 5 + 5 + 10 + 10) + 4;
/// Shortest encoded entry: a tag and a one-byte time delta.
const MIN_ENTRY_BYTES: usize = 2;

// Entry tags: the kind in the low three bits, then two flags.
const START: u8 = 0;
const ERROR: u8 = 1;
const END: u8 = 2;
const ALLOCFAIL: u8 = 3;
const RUN: u8 = 4;
const KIND: u8 = 0b111;
/// A node id follows the time: the entry names another node than the
/// previous entry of its frame (or, for a frame's first entry, than the
/// header).
const NEW_NODE: u8 = 0b1000;
/// The entry ends with a temperature's raw `f32` bits.
const HAS_TEMP: u8 = 0b1_0000;

/// Checkpoint file name for one node.
fn ckpt_path(dir: &Path, node: NodeId) -> PathBuf {
    dir.join(format!("node-{node}.ckpt"))
}

/// Render the checkpoint header line into `out` (appending).
fn write_header_into(out: &mut String, seed: u64, sim: &NodeSim) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{MAGIC} seed={seed} node={} mh={:016x} tbh={:016x} entries={}",
        sim.node,
        sim.monitored_hours.to_bits(),
        sim.terabyte_hours.to_bits(),
        sim.log.entries().len()
    );
}

/// The time and node an entry is encoded against: the previous entry's,
/// restarting at time 0 and the checkpoint's node at every frame.
struct FrameState {
    time: i64,
    node: NodeId,
}

impl FrameState {
    fn start(node: NodeId) -> FrameState {
        FrameState { time: 0, node }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

fn put_error_fields(out: &mut Vec<u8>, r: &ErrorRecord) {
    put_varint(out, r.vaddr);
    put_varint(out, r.phys_page);
    put_varint(out, u64::from(r.expected));
    put_varint(out, u64::from(r.expected ^ r.actual));
}

/// Append one entry's encoding to `out`.
fn encode_entry(out: &mut Vec<u8>, entry: &LogEntry, state: &mut FrameState) {
    let (kind, temp) = match entry {
        LogEntry::One(LogRecord::Start(r)) => (START, r.temp),
        LogEntry::One(LogRecord::Error(r)) => (ERROR, r.temp),
        LogEntry::One(LogRecord::End(r)) => (END, r.temp),
        LogEntry::One(LogRecord::AllocFail { .. }) => (ALLOCFAIL, None),
        LogEntry::ErrorRun { first, .. } => (RUN, first.temp),
    };
    let node = entry.node();
    let new_node = node != state.node;
    let mut tag = kind;
    if new_node {
        tag |= NEW_NODE;
    }
    if temp.is_some() {
        tag |= HAS_TEMP;
    }
    out.push(tag);
    let time = entry.first_time().as_secs();
    put_varint(out, zigzag(time.wrapping_sub(state.time)));
    state.time = time;
    if new_node {
        put_varint(out, u64::from(node.0));
        state.node = node;
    }
    match entry {
        LogEntry::One(LogRecord::Start(r)) => put_varint(out, r.alloc_bytes),
        LogEntry::One(LogRecord::Error(r)) => put_error_fields(out, r),
        LogEntry::One(LogRecord::End(_) | LogRecord::AllocFail { .. }) => {}
        LogEntry::ErrorRun {
            first,
            count,
            period,
        } => {
            put_error_fields(out, first);
            put_varint(out, *count);
            put_varint(out, zigzag(period.as_secs()));
        }
    }
    if let Some(t) = temp {
        out.extend_from_slice(&t.0.to_bits().to_le_bytes());
    }
}

/// The log's entries as entry-frame payloads. A frame is cut where the
/// entry index enters its next quarter of the log — so a log of `n`
/// entries spans at least `min(n, 4)` frames — and before an entry that
/// could push it past [`FRAME_BYTES`].
fn encode_frames(sim: &NodeSim) -> Vec<Vec<u8>> {
    let entries = sim.log.entries();
    let mut frames = Vec::new();
    let mut frame = Vec::new();
    let mut state = FrameState::start(sim.node);
    let mut quarter = 0;
    for (i, entry) in entries.iter().enumerate() {
        let q = i * 4 / entries.len();
        if q != quarter || frame.len() > FRAME_BYTES - MAX_ENTRY_BYTES {
            frames.push(std::mem::take(&mut frame));
            state = FrameState::start(sim.node);
        }
        quarter = q;
        encode_entry(&mut frame, entry, &mut state);
    }
    if !frame.is_empty() {
        frames.push(frame);
    }
    frames
}

/// A cursor over one entry frame. Every read is `None` past the end.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(b)
    }

    /// A LEB128 `u64` in its shortest form: a truncated one, one with a
    /// trailing zero group, and one past 64 bits all read as `None`.
    fn varint(&mut self) -> Option<u64> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return None;
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return (b != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    fn varint_u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    fn temp(&mut self, tag: u8) -> Option<Option<TempC>> {
        if tag & HAS_TEMP == 0 {
            return Some(None);
        }
        let (bits, rest) = self.bytes.split_first_chunk::<4>()?;
        self.bytes = rest;
        Some(Some(TempC(f32::from_bits(u32::from_le_bytes(*bits)))))
    }

    fn error(&mut self, time: SimTime, node: NodeId) -> Option<ErrorRecord> {
        let vaddr = self.varint()?;
        let phys_page = self.varint()?;
        let expected = self.varint_u32()?;
        let actual = expected ^ self.varint_u32()?;
        Some(ErrorRecord {
            time,
            node,
            vaddr,
            phys_page,
            expected,
            actual,
            temp: None,
        })
    }

    /// Decode one entry; `None` on an unknown tag, a short field or a run
    /// count above [`MAX_RUN_COUNT`], which the text parsers and
    /// `NodeLog::push_run` refuse too, so no restored log can overflow the
    /// `u64` sums of its raw record counts.
    fn entry(&mut self, state: &mut FrameState) -> Option<LogEntry> {
        let tag = self.byte()?;
        let kind = tag & KIND;
        if tag & !(KIND | NEW_NODE | HAS_TEMP) != 0
            || kind > RUN
            || (kind == ALLOCFAIL && tag & HAS_TEMP != 0)
        {
            return None;
        }
        state.time = state.time.wrapping_add(unzigzag(self.varint()?));
        if tag & NEW_NODE != 0 {
            state.node = NodeId(self.varint_u32()?);
        }
        let (time, node) = (SimTime::from_secs(state.time), state.node);
        Some(match kind {
            START => {
                let alloc_bytes = self.varint()?;
                LogEntry::One(LogRecord::Start(StartRecord {
                    time,
                    node,
                    alloc_bytes,
                    temp: self.temp(tag)?,
                }))
            }
            ERROR => {
                let mut r = self.error(time, node)?;
                r.temp = self.temp(tag)?;
                LogEntry::One(LogRecord::Error(r))
            }
            END => LogEntry::One(LogRecord::End(EndRecord {
                time,
                node,
                temp: self.temp(tag)?,
            })),
            ALLOCFAIL => LogEntry::One(LogRecord::AllocFail { time, node }),
            _ => {
                let mut first = self.error(time, node)?;
                let count = self.varint().filter(|&c| c <= MAX_RUN_COUNT)?;
                let period = SimDuration::from_secs(unzigzag(self.varint()?));
                first.temp = self.temp(tag)?;
                LogEntry::ErrorRun {
                    first,
                    count,
                    period,
                }
            }
        })
    }
}

/// Decode a checkpoint's frame payloads: the header, then the entry
/// frames. Returns `None` on any mismatch — wrong magic (a `CKPT v1`
/// file included), wrong seed, wrong node, an undecodable or empty entry
/// frame (a run count above [`MAX_RUN_COUNT`] included), or an entry
/// count other than the header's. Callers recompute the node in that
/// case.
fn decode(payloads: &[&[u8]], seed: u64, node: NodeId) -> Option<NodeSim> {
    let (header, frames) = payloads.split_first()?;
    let rest = std::str::from_utf8(header)
        .ok()?
        .strip_prefix(MAGIC)?
        .strip_prefix(' ')?;
    let mut mh = None;
    let mut tbh = None;
    let mut count = None;
    for field in rest.split_whitespace() {
        let (k, v) = field.split_once('=')?;
        match k {
            "seed" => {
                if v.parse::<u64>().ok()? != seed {
                    return None;
                }
            }
            "node" => {
                if NodeId::from_name(v)? != node {
                    return None;
                }
            }
            "mh" => mh = Some(f64::from_bits(u64::from_str_radix(v, 16).ok()?)),
            "tbh" => tbh = Some(f64::from_bits(u64::from_str_radix(v, 16).ok()?)),
            "entries" => count = Some(v.parse::<usize>().ok()?),
            _ => return None,
        }
    }
    let (mh, tbh, count) = (mh?, tbh?, count?);
    // The header's count is only a claim: the bytes present bound the
    // allocation.
    let bytes: usize = frames.iter().map(|f| f.len()).sum();
    let mut entries = Vec::with_capacity(count.min(bytes / MIN_ENTRY_BYTES));
    for frame in frames {
        if frame.is_empty() {
            return None;
        }
        let mut r = Reader { bytes: frame };
        let mut state = FrameState::start(node);
        while !r.bytes.is_empty() {
            entries.push(r.entry(&mut state)?);
        }
    }
    if entries.len() != count {
        return None; // torn write
    }
    let log = NodeLog::from_entries_unsorted(Some(node), entries);
    let faults = extract_node_faults(&log, &ExtractConfig::default());
    Some(NodeSim {
        node,
        log,
        faults,
        monitored_hours: mh,
        terabyte_hours: tbh,
    })
}

/// Load one node's checkpoint if present and valid. The file is a durable
/// segment: any frame damage (torn write, bit flip, truncation) stops the
/// payload scan, the entry count no longer matches, and the checkpoint is
/// treated as missing — the node recomputes rather than resuming wrong.
pub fn read_node_checkpoint(dir: &Path, seed: u64, node: NodeId) -> Option<NodeSim> {
    let bytes = fs::read(ckpt_path(dir, node)).ok()?;
    let scan = scan_segment_slices(&bytes);
    if scan.damage.is_some() {
        return None;
    }
    decode(&scan.payloads, seed, node)
}

/// Write one node's checkpoint as a durable segment through an injected
/// I/O layer: a header frame and the encoded entry frames, each
/// CRC-checksummed; the writer flushes at bounded boundaries, and the
/// file is sealed tmp-then-atomic-rename. Transient write failures retry
/// with exponential backoff per `policy`; exhaustion degrades to a typed
/// [`DurabilityError`].
pub fn write_node_checkpoint_with(
    dir: &Path,
    seed: u64,
    sim: &NodeSim,
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<SealedSegment, DurabilityError> {
    let mut header = String::with_capacity(128);
    write_header_into(&mut header, seed, sim);
    let frames = encode_frames(sim);
    let file_name = format!("node-{}.ckpt", sim.node);
    let mut w = SegmentWriter::create(dir, &file_name, io, policy)?;
    // Flush after every ⌈n/4⌉ of the n frames: enough boundaries for a
    // crash to land between them, few enough that the crash-matrix suite
    // (one simulated crash per boundary) stays bounded.
    let stride = (1 + frames.len()).div_ceil(4);
    let payloads = std::iter::once(header.as_bytes()).chain(frames.iter().map(Vec::as_slice));
    for (i, payload) in payloads.enumerate() {
        w.append(payload);
        if (i + 1) % stride == 0 {
            w.flush()?;
        }
    }
    w.seal()
}

/// [`write_node_checkpoint_with`] against the real filesystem with the
/// default retry policy.
pub fn write_node_checkpoint(
    dir: &Path,
    seed: u64,
    sim: &NodeSim,
) -> Result<SealedSegment, DurabilityError> {
    write_node_checkpoint_with(dir, seed, sim, &StdIo, RetryPolicy::default())
}

/// Remove every checkpoint file in `dir` — plus the durable-directory
/// bookkeeping (`MANIFEST`, `.fsck.report`, `.lost+found`) that described
/// them — so stale state from an earlier campaign can't leak in.
pub fn clear_checkpoints(dir: &Path) -> std::io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_ckpt =
            name.starts_with("node-") && (name.ends_with(".ckpt") || name.ends_with(".ckpt.tmp"));
        let is_bookkeeping = name == uc_faultlog::durable::MANIFEST_NAME
            || name == uc_faultlog::durable::FSCK_REPORT_NAME;
        if is_ckpt || is_bookkeeping {
            fs::remove_file(&path)?;
        } else if name == uc_faultlog::durable::LOST_AND_FOUND && path.is_dir() {
            fs::remove_dir_all(&path)?;
        }
    }
    Ok(())
}

/// Like [`crate::campaign::run_campaign`], but with per-node checkpoints
/// in `ckpt_dir`: nodes with a valid checkpoint are restored instead of
/// recomputed, and every freshly simulated node is checkpointed as soon
/// as it completes. Checkpoint write failures are non-fatal (the
/// simulation result is still used); failed nodes are never checkpointed.
///
/// Resumed output is byte-identical to an uninterrupted run: restored
/// logs round-trip exactly (bit-exact temperatures, bit-exact hours) and
/// fault extraction is deterministic.
pub fn run_campaign_checkpointed(cfg: &CampaignConfig, ckpt_dir: &Path) -> CampaignResult {
    run_campaign_checkpointed_with(cfg, ckpt_dir, |_| {})
}

/// [`run_campaign_checkpointed`] with a per-node completion hook: the
/// direct campaign→db streaming path taps the simulation here.
///
/// `on_node` runs on the simulating worker thread the moment a node's
/// simulation is available — for freshly simulated *and* for
/// checkpoint-restored nodes alike (a resumed direct run must stream the
/// same nodes an uninterrupted one would). It is never called for a node
/// whose attempts all failed: `simulate_node` panics before any work on
/// an injected-failure node, so a failing node can never emit a partial
/// result, and a degraded direct run therefore streams exactly the nodes
/// a degraded text run would write log files for. The hook must be
/// `Sync` — completions arrive concurrently from the whole worker pool.
pub fn run_campaign_checkpointed_with(
    cfg: &CampaignConfig,
    ckpt_dir: &Path,
    on_node: impl Fn(&NodeSim) + Sync,
) -> CampaignResult {
    let (roles, nodes) = campaign_nodes(cfg);
    let attempts = cfg.node_attempts.max(1);
    let sims = par_map_supervised(&nodes, attempts, |_, &node| {
        if let Some(sim) = read_node_checkpoint(ckpt_dir, cfg.seed, node) {
            on_node(&sim);
            return sim;
        }
        let sim = simulate_node(cfg, node);
        // Best-effort: a full disk must not kill the campaign.
        let _ = write_node_checkpoint(ckpt_dir, cfg.seed, &sim);
        on_node(&sim);
        sim
    });
    let outcomes = nodes
        .iter()
        .zip(sims)
        .map(|(&node, s)| supervised_to_outcome(node, s))
        .collect();
    CampaignResult {
        config: cfg.clone(),
        roles,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("uc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpoint_roundtrips_a_node_sim_exactly() {
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let sim = r.completed().next().unwrap();
        let dir = tmpdir("roundtrip");
        write_node_checkpoint(&dir, cfg.seed, sim).unwrap();
        let back = read_node_checkpoint(&dir, cfg.seed, sim.node).unwrap();
        assert_eq!(back.log.entries(), sim.log.entries());
        assert_eq!(back.faults, sim.faults);
        assert_eq!(
            back.monitored_hours.to_bits(),
            sim.monitored_hours.to_bits()
        );
        assert_eq!(back.terabyte_hours.to_bits(), sim.terabyte_hours.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The flush contract `tests/crash_matrix.rs` mirrors: a boundary
    /// after every ⌈n/4⌉ of the file's n frames, plus the sealed end,
    /// and at least one inside every checkpoint of four or more entries.
    #[test]
    fn writer_flushes_after_every_quarter_of_its_frames() {
        use uc_faultlog::durable::{FRAME_HEADER_LEN, MAGIC as SEGMENT_MAGIC};
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let dir = tmpdir("flush");
        for sim in r.completed() {
            let sealed = write_node_checkpoint(&dir, cfg.seed, sim).unwrap();
            let bytes = fs::read(&sealed.path).unwrap();
            let frames = scan_segment_slices(&bytes).payloads;
            assert!(frames.len() > sim.log.entries().len().min(4));
            let stride = frames.len().div_ceil(4);
            let mut pos = SEGMENT_MAGIC.len() as u64;
            let mut want = Vec::new();
            for (i, frame) in frames.iter().enumerate() {
                pos += (FRAME_HEADER_LEN + frame.len()) as u64;
                if (i + 1) % stride == 0 {
                    want.push(pos);
                }
            }
            if want.last() != Some(&sealed.bytes) {
                want.push(sealed.bytes);
            }
            assert_eq!(sealed.flush_boundaries, want, "node {}", sim.node);
            if sim.log.entries().len() >= 4 {
                assert!(want[0] < sealed.bytes, "node {}", sim.node);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_seed_checkpoint_is_ignored() {
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let sim = r.completed().next().unwrap();
        let dir = tmpdir("stale");
        write_node_checkpoint(&dir, cfg.seed, sim).unwrap();
        assert!(read_node_checkpoint(&dir, cfg.seed + 1, sim.node).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_is_ignored() {
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let sim = r.completed().next().unwrap();
        let dir = tmpdir("torn");
        write_node_checkpoint(&dir, cfg.seed, sim).unwrap();
        let path = ckpt_path(&dir, sim.node);
        let bytes = fs::read(&path).unwrap();
        let cut = bytes.len() * 2 / 3;
        fs::write(&path, &bytes[..cut]).unwrap();
        assert!(read_node_checkpoint(&dir, cfg.seed, sim.node).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_checkpoint_is_ignored() {
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let sim = r.completed().next().unwrap();
        let dir = tmpdir("rot");
        write_node_checkpoint(&dir, cfg.seed, sim).unwrap();
        let path = ckpt_path(&dir, sim.node);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert!(
            read_node_checkpoint(&dir, cfg.seed, sim.node).is_none(),
            "a single flipped bit must fail the frame CRC, never resume wrong"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_writes_go_through_the_injected_io() {
        use uc_faultlog::durable::FlakyIo;
        let cfg = CampaignConfig::small(42, 8);
        let r = run_campaign(&cfg);
        let sim = r.completed().next().unwrap();
        let dir = tmpdir("flaky");
        // Transient failures recover through the retry budget.
        let io = FlakyIo::failing_first(3);
        write_node_checkpoint_with(&dir, cfg.seed, sim, &io, RetryPolicy::immediate(5)).unwrap();
        assert!(io.injected_failures() >= 3);
        assert!(read_node_checkpoint(&dir, cfg.seed, sim.node).is_some());
        // A permanently failing path degrades to a typed error, no panic.
        let io = FlakyIo::poisoning(".ckpt");
        let err = write_node_checkpoint_with(&dir, cfg.seed, sim, &io, RetryPolicy::immediate(2))
            .unwrap_err();
        assert!(matches!(err, DurabilityError::Io { attempts: 2, .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Header and entry frames of `sim`'s checkpoint, as the writer
    /// frames them.
    fn payloads(seed: u64, sim: &NodeSim) -> Vec<Vec<u8>> {
        let mut header = String::new();
        write_header_into(&mut header, seed, sim);
        std::iter::once(header.into_bytes())
            .chain(encode_frames(sim))
            .collect()
    }

    fn decode_owned(payloads: &[Vec<u8>], seed: u64, node: NodeId) -> Option<NodeSim> {
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        decode(&refs, seed, node)
    }

    fn sim_of(entries: Vec<LogEntry>) -> NodeSim {
        let node = NodeId::from_name("01-01").unwrap();
        NodeSim {
            node,
            log: NodeLog::from_entries_unsorted(Some(node), entries),
            faults: Vec::new(),
            monitored_hours: 1.0,
            terabyte_hours: 2.0,
        }
    }

    #[test]
    fn entry_codec_is_lossless_at_the_integer_extremes() {
        let node = NodeId(u32::MAX);
        let error = ErrorRecord {
            time: SimTime::from_secs(i64::MAX),
            node,
            vaddr: u64::MAX,
            phys_page: u64::MAX,
            expected: 0,
            actual: u32::MAX,
            temp: Some(TempC(f32::MIN)),
        };
        let entries = vec![
            LogEntry::One(LogRecord::Start(StartRecord {
                time: SimTime::from_secs(i64::MIN),
                node: NodeId(0),
                alloc_bytes: u64::MAX,
                temp: Some(TempC(-0.0)),
            })),
            LogEntry::One(LogRecord::Error(error)),
            // Another word than the error's: extraction adds the counts
            // of one word's runs.
            LogEntry::ErrorRun {
                first: ErrorRecord { vaddr: 0, ..error },
                count: MAX_RUN_COUNT,
                period: SimDuration::from_secs(i64::MIN),
            },
            LogEntry::ErrorRun {
                first: ErrorRecord {
                    time: SimTime::from_secs(i64::MIN),
                    ..error
                },
                count: 0,
                period: SimDuration::from_secs(i64::MAX),
            },
            LogEntry::One(LogRecord::End(EndRecord {
                time: SimTime::from_secs(0),
                node,
                temp: None,
            })),
            LogEntry::One(LogRecord::AllocFail {
                time: SimTime::from_secs(-1),
                node: NodeId(1),
            }),
        ];
        let sim = sim_of(entries);
        let back = decode_owned(&payloads(7, &sim), 7, sim.node).unwrap();
        assert_eq!(back.log.entries(), sim.log.entries());
        assert_eq!(back.log.node, Some(sim.node));
    }

    #[test]
    fn malformed_payloads_decode_as_missing() {
        let node = NodeId::from_name("01-01").unwrap();
        let end = LogEntry::One(LogRecord::End(EndRecord {
            time: SimTime::from_secs(1),
            node,
            temp: None,
        }));
        let sim = sim_of(vec![end; 4]);
        let good = payloads(7, &sim);
        assert_eq!(good.len(), 5, "one header and four entry frames");
        assert!(decode_owned(&good, 7, node).is_some());
        assert!(decode_owned(&good, 8, node).is_none(), "seed mismatch");
        let other = NodeId::from_name("01-02").unwrap();
        assert!(decode_owned(&good, 7, other).is_none(), "node mismatch");
        let with_frame = |i: usize, frame: &[u8]| {
            let mut p = good.clone();
            p[i] = frame.to_vec();
            decode_owned(&p, 7, node)
        };
        let v1 = String::from_utf8(good[0].clone())
            .unwrap()
            .replace("v2", "v1");
        assert!(with_frame(0, v1.as_bytes()).is_none(), "CKPT v1 magic");
        let entries5 = String::from_utf8(good[0].clone())
            .unwrap()
            .replace("entries=4", "entries=5");
        assert!(
            with_frame(0, entries5.as_bytes()).is_none(),
            "count mismatch"
        );
        // An entry frame is an END tag and a one-byte time delta (2).
        assert_eq!(good[1], [END, 2]);
        for (frame, why) in [
            (&[END | 0b10_0000, 2][..], "unknown flag"),
            (&[5, 2][..], "unknown kind"),
            (
                &[ALLOCFAIL | HAS_TEMP, 2, 0, 0, 0, 0][..],
                "temperature on ALLOCFAIL",
            ),
            (&[END, 0x82][..], "truncated varint"),
            (&[END, 0x82, 0x00][..], "overlong varint"),
            (
                &[
                    END, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
                ][..],
                "varint past 64 bits",
            ),
            (&[END, 2, 0][..], "trailing byte"),
            (&[END, 2, END, 2][..], "an extra entry"),
            (&[][..], "empty frame"),
        ] {
            assert!(with_frame(1, frame).is_none(), "{why}");
        }
    }

    #[test]
    fn run_count_above_the_cap_reads_as_missing() {
        let dir = tmpdir("run-cap");
        let node = NodeId::from_name("01-01").unwrap();
        let run = |count| LogEntry::ErrorRun {
            first: ErrorRecord {
                time: SimTime::from_secs(5),
                node,
                vaddr: 0x40,
                phys_page: 0,
                expected: 0,
                actual: 1,
                temp: None,
            },
            count,
            period: SimDuration::from_secs(1),
        };
        let sim = sim_of(vec![run(MAX_RUN_COUNT)]);
        write_node_checkpoint(&dir, 7, &sim).unwrap();
        let back = read_node_checkpoint(&dir, 7, node).unwrap();
        assert_eq!(back.log.entries(), sim.log.entries());
        // The files are CRC-valid; only the decoded count is refused, so
        // the node simulates again instead of overflowing the fold.
        for count in [MAX_RUN_COUNT + 1, u64::MAX] {
            write_node_checkpoint(&dir, 7, &sim_of(vec![run(count)])).unwrap();
            assert!(read_node_checkpoint(&dir, 7, node).is_none(), "{count}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_count_cannot_drive_the_allocation() {
        let node = NodeId::from_name("01-01").unwrap();
        let mut p = payloads(7, &sim_of(Vec::new()));
        p[0] = String::from_utf8(p[0].clone())
            .unwrap()
            .replace("entries=0", &format!("entries={}", usize::MAX))
            .into_bytes();
        p.push(vec![END, 2]);
        assert!(decode_owned(&p, 7, node).is_none());
    }

    #[test]
    fn clear_checkpoints_removes_only_checkpoint_files() {
        let dir = tmpdir("clear");
        fs::write(dir.join("node-01-01.ckpt"), "junk").unwrap();
        fs::write(dir.join("node-01-02.ckpt.tmp"), "junk").unwrap();
        fs::write(dir.join("MANIFEST"), "junk").unwrap();
        fs::write(dir.join(".fsck.report"), "junk").unwrap();
        fs::create_dir_all(dir.join(".lost+found")).unwrap();
        fs::write(dir.join("report.txt"), "keep me").unwrap();
        clear_checkpoints(&dir).unwrap();
        assert!(!dir.join("node-01-01.ckpt").exists());
        assert!(!dir.join("node-01-02.ckpt.tmp").exists());
        assert!(!dir.join("MANIFEST").exists());
        assert!(!dir.join(".fsck.report").exists());
        assert!(!dir.join(".lost+found").exists());
        assert!(dir.join("report.txt").exists());
        // Clearing a missing directory is fine.
        clear_checkpoints(&dir.join("nope")).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
