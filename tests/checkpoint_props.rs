//! Checkpoint codec properties (DESIGN.md §7.2): a written checkpoint
//! round-trips bit-exactly through the public API — simulator logs, and
//! synthetic logs the simulator never writes — and any damage —
//! truncation at an arbitrary byte offset, or a single flipped bit —
//! makes the checkpoint read as missing. Never a panic, never a
//! silently-wrong resume. A `CKPT v1` file from an older build reads as
//! missing too, and a resume over one recomputes the node.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use uc_analysis::extract::{extract_node_faults, ExtractConfig};
use uc_analysis::Fault;
use uc_cluster::NodeId;
use uc_faultlog::codec::write_entry_exact_into;
use uc_faultlog::durable::{push_frame, scan_segment_bytes, MAGIC};
use uc_faultlog::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
use uc_faultlog::store::{LogEntry, NodeLog, MAX_RUN_COUNT};
use uc_simclock::{SimDuration, SimTime};
use unprotected_core::checkpoint::{
    read_node_checkpoint, run_campaign_checkpointed, write_node_checkpoint,
};
use unprotected_core::{render, run_campaign, CampaignConfig, NodeSim, Report};

const SEED: u64 = 42;

/// One small campaign's completed sims, computed once and shared by
/// every proptest case (simulation is the expensive part, not I/O).
fn sims() -> &'static Vec<NodeSim> {
    static SIMS: OnceLock<Vec<NodeSim>> = OnceLock::new();
    SIMS.get_or_init(|| {
        let result = run_campaign(&CampaignConfig::small(SEED, 6));
        let sims: Vec<NodeSim> = result.completed().cloned().collect();
        assert!(sims.len() > 4, "campaign too small: {}", sims.len());
        sims
    })
}

/// A fresh scratch directory per case; `tag` keeps parallel tests apart.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-ckpt-props-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn ckpt_file(dir: &Path, sim: &NodeSim) -> PathBuf {
    dir.join(format!("node-{}.ckpt", sim.node))
}

/// Temperatures as raw bits: `None`, NaNs with payloads (either sign),
/// ±0, ±inf, subnormals, and one ordinary reading.
const TEMP_BITS: [Option<u32>; 10] = [
    None,
    Some(0x7fc0_0001),
    Some(0xff80_0001),
    Some(0x0000_0000),
    Some(0x8000_0000),
    Some(0x7f80_0000),
    Some(0xff80_0000),
    Some(0x0000_0001),
    Some(0x807f_ffff),
    Some(0x420e_0000),
];

/// Times at and near the `i64` extremes; drawn in any order, so a log's
/// times jump both ways across the whole range.
const TIMES: [i64; 6] = [i64::MIN, i64::MIN + 1, -1, 0, 1 << 40, i64::MAX];

/// Run counts from 0 to [`MAX_RUN_COUNT`], and periods of every sign.
const COUNTS: [u64; 4] = [0, 1, 2, MAX_RUN_COUNT];
const PERIODS: [i64; 5] = [i64::MIN, -1, 0, 60, i64::MAX];

/// The node every synthetic checkpoint is written for.
fn synthetic_node() -> NodeId {
    NodeId::from_name("02-03").unwrap()
}

/// One synthetic entry. `kind` picks among all five kinds; `node` among
/// the checkpoint's node, another one, and two outside the topology;
/// `time`, `temp`, `count` and `period` index the tables above (a
/// `time` past them takes `wide` as the time); `wide` and `word` fill
/// the address and data fields with full-range values.
fn hostile_entry(kind: u8, node: u8, time: u8, temp: u8, wide: u64, word: u64) -> LogEntry {
    let node = match node % 4 {
        0 => synthetic_node(),
        1 => NodeId::from_name("01-01").unwrap(),
        2 => NodeId(u32::MAX),
        _ => NodeId(1 << 20),
    };
    let time = SimTime::from_secs(TIMES.get(usize::from(time)).copied().unwrap_or(wide as i64));
    let temp = TEMP_BITS[usize::from(temp) % TEMP_BITS.len()].map(|b| TempC(f32::from_bits(b)));
    let error = ErrorRecord {
        time,
        node,
        vaddr: wide,
        phys_page: wide.rotate_left(17) >> (word % 64),
        expected: word as u32,
        actual: (word >> 32) as u32,
        temp,
    };
    match kind % 5 {
        0 => LogEntry::One(LogRecord::Start(StartRecord {
            time,
            node,
            alloc_bytes: wide.rotate_right(5),
            temp,
        })),
        1 => LogEntry::One(LogRecord::Error(error)),
        2 => LogEntry::One(LogRecord::End(EndRecord { time, node, temp })),
        3 => LogEntry::One(LogRecord::AllocFail { time, node }),
        _ => LogEntry::ErrorRun {
            first: error,
            count: COUNTS[(word % 4) as usize],
            period: SimDuration::from_secs(PERIODS[(wide % 5) as usize]),
        },
    }
}

fn arb_hostile_entry() -> impl Strategy<Value = LogEntry> {
    (0u8..5, 0u8..4, 0u8..8, 0u8..10, any::<u64>(), any::<u64>()).prop_map(
        |(kind, node, time, temp, wide, word)| hostile_entry(kind, node, time, temp, wide, word),
    )
}

/// A sim holding `entries` in the order given, with its faults extracted
/// as a fresh simulation's are, and NaN / negative-zero hour counters.
fn synthetic_sim(entries: Vec<LogEntry>) -> NodeSim {
    let node = synthetic_node();
    let log = NodeLog::from_entries_unsorted(Some(node), entries);
    let faults = extract_node_faults(&log, &ExtractConfig::default());
    NodeSim {
        node,
        log,
        faults,
        monitored_hours: f64::from_bits(0x7ff8_0000_0000_0001),
        terabyte_hours: -0.0,
    }
}

/// `n` synthetic entries from a fixed splitmix sequence.
fn long_log(n: usize) -> Vec<LogEntry> {
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let pick = next();
            let b = |shift: u32, m: u64| ((pick >> shift) % m) as u8;
            hostile_entry(b(0, 5), b(8, 4), b(16, 8), b(24, 10), next(), next())
        })
        .collect()
}

/// Every field of an entry, temperatures as raw bits, so NaNs compare.
type EntryBits = (u8, i64, u32, [u64; 6], Option<u32>);

fn entry_bits(e: &LogEntry) -> EntryBits {
    let temp = |t: Option<TempC>| t.map(|t| t.0.to_bits());
    let error = |r: &ErrorRecord| {
        [
            r.vaddr,
            r.phys_page,
            u64::from(r.expected),
            u64::from(r.actual),
        ]
    };
    match e {
        LogEntry::One(LogRecord::Start(r)) => (
            0,
            r.time.as_secs(),
            r.node.0,
            [r.alloc_bytes, 0, 0, 0, 0, 0],
            temp(r.temp),
        ),
        LogEntry::One(LogRecord::Error(r)) => {
            let [a, b, c, d] = error(r);
            (
                1,
                r.time.as_secs(),
                r.node.0,
                [a, b, c, d, 0, 0],
                temp(r.temp),
            )
        }
        LogEntry::One(LogRecord::End(r)) => (2, r.time.as_secs(), r.node.0, [0; 6], temp(r.temp)),
        LogEntry::One(LogRecord::AllocFail { time, node }) => {
            (3, time.as_secs(), node.0, [0; 6], None)
        }
        LogEntry::ErrorRun {
            first,
            count,
            period,
        } => {
            let [a, b, c, d] = error(first);
            let period = period.as_secs() as u64;
            (
                4,
                first.time.as_secs(),
                first.node.0,
                [a, b, c, d, *count, period],
                temp(first.temp),
            )
        }
    }
}

fn fault_bits(f: &Fault) -> (u32, i64, u64, u32, u32, Option<u32>, u64) {
    (
        f.node.0,
        f.time.as_secs(),
        f.vaddr,
        f.expected,
        f.actual,
        f.temp.map(f32::to_bits),
        f.raw_logs,
    )
}

/// The same sim, bit for bit: every float is compared by its bits, so
/// NaNs compare too.
fn assert_same_sim(a: &NodeSim, b: &NodeSim) {
    assert_eq!(a.node, b.node);
    assert_eq!(a.log.node, b.log.node);
    let entries = |s: &NodeSim| s.log.entries().iter().map(entry_bits).collect::<Vec<_>>();
    assert_eq!(entries(a), entries(b));
    let faults = |s: &NodeSim| s.faults.iter().map(fault_bits).collect::<Vec<_>>();
    assert_eq!(faults(a), faults(b));
    assert_eq!(a.monitored_hours.to_bits(), b.monitored_hours.to_bits());
    assert_eq!(a.terabyte_hours.to_bits(), b.terabyte_hours.to_bits());
}

/// The layout older builds wrote: a `CKPT v1` header frame, then one
/// exact-codec text line per entry, a frame each.
fn write_v1_checkpoint(dir: &Path, seed: u64, sim: &NodeSim) {
    let mut bytes = MAGIC.to_vec();
    let header = format!(
        "CKPT v1 seed={seed} node={} mh={:016x} tbh={:016x} entries={}",
        sim.node,
        sim.monitored_hours.to_bits(),
        sim.terabyte_hours.to_bits(),
        sim.log.entries().len()
    );
    push_frame(&mut bytes, header.as_bytes());
    let mut line = String::new();
    for e in sim.log.entries() {
        line.clear();
        write_entry_exact_into(&mut line, e);
        push_frame(&mut bytes, line.as_bytes());
    }
    fs::write(ckpt_file(dir, sim), bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write → read returns the simulation bit-for-bit: entries, faults,
    /// and the f64 hour counters compared by raw bits.
    #[test]
    fn checkpoint_roundtrips_bit_exact(idx in 0usize..64) {
        let sims = sims();
        let sim = &sims[idx % sims.len()];
        let dir = tempdir("roundtrip");
        write_node_checkpoint(&dir, SEED, sim).unwrap();
        let back = read_node_checkpoint(&dir, SEED, sim.node)
            .expect("clean checkpoint must read back");
        assert_same_sim(&back, sim);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncation at ANY byte offset: the full file reads back intact;
    /// any proper prefix is treated as missing (the frame scan or the
    /// entry-count check rejects it) — and reading never panics.
    #[test]
    fn truncated_checkpoint_is_treated_as_missing(
        idx in 0usize..64,
        cut_permille in 0u32..=1000,
    ) {
        let sims = sims();
        let sim = &sims[idx % sims.len()];
        let dir = tempdir("truncate");
        write_node_checkpoint(&dir, SEED, sim).unwrap();
        let path = ckpt_file(&dir, sim);
        let bytes = fs::read(&path).unwrap();
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        fs::write(&path, &bytes[..cut]).unwrap();

        match read_node_checkpoint(&dir, SEED, sim.node) {
            Some(back) => {
                prop_assert_eq!(cut, bytes.len(), "a proper prefix decoded");
                assert_same_sim(&back, sim);
            }
            None => prop_assert!(cut < bytes.len(), "the intact file must decode"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A single flipped bit anywhere in the file — magic, frame header,
    /// stored CRC, or payload — is always detected: the read returns
    /// `None` and the node recomputes instead of resuming wrong.
    #[test]
    fn bit_flipped_checkpoint_is_treated_as_missing(
        idx in 0usize..64,
        pos_permille in 0u32..1000,
        bit in 0u8..8,
    ) {
        let sims = sims();
        let sim = &sims[idx % sims.len()];
        let dir = tempdir("bitflip");
        write_node_checkpoint(&dir, SEED, sim).unwrap();
        let path = ckpt_file(&dir, sim);
        let mut bytes = fs::read(&path).unwrap();
        let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        fs::write(&path, &bytes).unwrap();

        prop_assert!(
            read_node_checkpoint(&dir, SEED, sim.node).is_none(),
            "flipped bit {bit} at byte {pos} went undetected"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Synthetic logs — any node per entry, NaN payloads, ±0, ±inf and
    /// subnormal temperatures, times at the `i64` extremes and going
    /// backwards, runs of count 0 to `MAX_RUN_COUNT` with periods of
    /// every sign, `ALLOCFAIL`s — round-trip bit for bit, in order.
    #[test]
    fn synthetic_logs_roundtrip_bit_exact(
        entries in prop::collection::vec(arb_hostile_entry(), 0..48),
    ) {
        let sim = synthetic_sim(entries);
        let dir = tempdir("synthetic");
        write_node_checkpoint(&dir, SEED, &sim).unwrap();
        let back = read_node_checkpoint(&dir, SEED, sim.node)
            .expect("clean checkpoint must read back");
        assert_same_sim(&back, &sim);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A log too long for one 64 KiB frame spans several, each within the
/// bound, and still round-trips bit for bit.
#[test]
fn long_synthetic_log_spans_bounded_frames() {
    let sim = synthetic_sim(long_log(12_000));
    let dir = tempdir("long");
    write_node_checkpoint(&dir, SEED, &sim).unwrap();
    let bytes = fs::read(ckpt_file(&dir, &sim)).unwrap();
    let scan = scan_segment_bytes(&bytes);
    assert!(scan.damage.is_none());
    let entry_frames = &scan.payloads[1..];
    let sizes: Vec<usize> = entry_frames.iter().map(|p| p.len()).collect();
    // Each quarter of the log outgrows one frame, so the byte bound cuts
    // frames as well as the quarters do.
    assert!(sizes.len() >= 8, "{sizes:?}");
    assert!(sizes.iter().any(|&n| n > 60 * 1024), "{sizes:?}");
    assert!(sizes.iter().all(|&n| n <= 64 * 1024), "{sizes:?}");
    let back = read_node_checkpoint(&dir, SEED, sim.node).expect("clean checkpoint");
    assert_same_sim(&back, &sim);
    fs::remove_dir_all(&dir).unwrap();
}

/// Every truncation offset and every single-bit flip of one multi-frame
/// synthetic checkpoint reads as missing or as the identical sim.
#[test]
fn every_cut_and_bit_flip_of_a_synthetic_checkpoint_is_caught() {
    let sim = synthetic_sim(long_log(24));
    let dir = tempdir("exhaustive");
    write_node_checkpoint(&dir, SEED, &sim).unwrap();
    let path = ckpt_file(&dir, &sim);
    let bytes = fs::read(&path).unwrap();
    assert!(
        scan_segment_bytes(&bytes).payloads.len() >= 5,
        "one header and four entry frames"
    );
    let check = |damaged: &[u8], what: &str| {
        fs::write(&path, damaged).unwrap();
        if let Some(back) = read_node_checkpoint(&dir, SEED, sim.node) {
            assert_eq!(damaged, &bytes[..], "{what} decoded");
            assert_same_sim(&back, &sim);
        }
    };
    for cut in 0..=bytes.len() {
        check(&bytes[..cut], &format!("a cut at byte {cut}"));
    }
    let mut flipped = bytes.clone();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            check(&flipped, &format!("bit {bit} of byte {pos} flipped"));
            flipped[pos] ^= 1 << bit;
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A `CKPT v1` checkpoint — one exact text line per entry, as older
/// builds wrote it — reads as missing, and a campaign resumed over a
/// directory of them recomputes every node: its report is the
/// uninterrupted run's, and the rewritten checkpoints read back.
#[test]
fn v1_checkpoints_read_as_missing_and_resume_byte_identical() {
    let cfg = CampaignConfig::small(SEED, 6);
    let fresh = run_campaign(&cfg);
    let dir = tempdir("v1");
    for sim in fresh.completed() {
        write_v1_checkpoint(&dir, SEED, sim);
        assert!(
            read_node_checkpoint(&dir, SEED, sim.node).is_none(),
            "node {}",
            sim.node
        );
    }
    let resumed = run_campaign_checkpointed(&cfg, &dir);
    assert_eq!(
        render::full_report(&Report::build(&resumed)),
        render::full_report(&Report::build(&fresh))
    );
    for sim in fresh.completed() {
        let back = read_node_checkpoint(&dir, SEED, sim.node).expect("rewritten as v2");
        assert_same_sim(&back, sim);
    }
    fs::remove_dir_all(&dir).unwrap();
}
