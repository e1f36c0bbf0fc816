//! Carry-state seals against the batch oracle (DESIGN.md §9): a live
//! database folds every accepted line into per-node carry states once and
//! seals from them, and each generation it seals must be byte-identical
//! to `build_db` over the same accepted prefix written as one text log
//! per node — after every seal, after a reopen that replays the WAL, and
//! on a replica sealing at the primary's marker.
//!
//! The seeded corpora mix everything a carry state must get right:
//! START/END sessions straddling seals, recurrences inside and outside
//! the 45 s merge window, `ERRORRUN` lines, lines timestamped below
//! their node's high-water mark, lines naming another node (a log whose
//! earliest entry names another node sorts under that node), blank and
//! unparseable lines, and a node whose raw-error share crosses the 50%
//! flood line while the stream runs.

mod common;

use std::fs;

use common::fresh_dir;
use uc_cluster::NodeId;
use uc_faultdb::{build_db, gen_file_name, LiveDb, WriteOptions};

/// Seeds run by the test.
const SEEDS: u64 = 24;

/// splitmix64: a deterministic corpus and schedule per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct` percent.
    fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

const POOL: [&str; 6] = ["01-01", "01-02", "02-01", "02-02", "02-03", "03-01"];

fn error_line(node: &str, t: i64, vaddr: u64, actual: u32, temp: &str) -> String {
    format!(
        "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
         expected=0xffffffff actual=0x{actual:08x} temp={temp}",
        page = vaddr >> 12
    )
}

/// One node's stream. The flood node writes long `ERRORRUN`s from its
/// middle on, so its share of the raw errors crosses 50% mid-stream.
fn node_lines(rng: &mut Rng, name: &str, flood: bool, len: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(len);
    let mut t: i64 = 1_000 + rng.below(5_000) as i64;
    let mut in_session = false;
    let cells: Vec<(u64, u32)> = (0..4)
        .map(|_| {
            (
                0x1000 + 0x40 * rng.below(64),
                0xffff_ffff ^ (1 << rng.below(32)),
            )
        })
        .collect();
    while lines.len() < len {
        // Mostly forward in time; a recurrence within the merge window
        // about half the time.
        t += if rng.pct(50) {
            5 + rng.below(40) as i64
        } else {
            60 + rng.below(20_000) as i64
        };
        let foreign = POOL[rng.below(POOL.len() as u64) as usize];
        let who = if rng.pct(3) { foreign } else { name };
        let (vaddr, actual) = cells[rng.below(cells.len() as u64) as usize];
        let temp = if rng.pct(20) { "NA" } else { "33.5" };
        let line = match rng.below(100) {
            0..=7 => {
                in_session = true;
                format!(
                    "START t={t} node={who} alloc={} temp=30.0",
                    (1 + rng.below(4)) << 30
                )
            }
            8..=15 if in_session || rng.pct(30) => {
                in_session = false;
                let end = format!("END t={t} node={who} temp=31.0");
                if rng.pct(20) {
                    // A log shipper's hiccup: the marker twice.
                    lines.push(end.clone());
                }
                end
            }
            16..=19 => {
                // Below the node's high-water mark.
                let back = 1 + rng.below(30_000) as i64;
                error_line(who, (t - back).max(0), vaddr, actual, temp)
            }
            20..=22 => String::new(),
            23 => "   ".to_string(),
            24 => "garbage that is not a record".to_string(),
            25 => format!("ERROR t=zz node={name} vaddr=0x1 page=0x0 expected=0x0 actual=0x1"),
            26..=29 => format!(
                "ERRORRUN t={t} node={who} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0x{actual:08x} temp=NA count={count} period=40",
                page = vaddr >> 12,
                count = 2 + rng.below(6),
            ),
            30..=39 if flood && lines.len() > len / 2 => format!(
                "ERRORRUN t={t} node={who} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0x{actual:08x} temp=NA count={count} period=40",
                page = vaddr >> 12,
                count = 200 + rng.below(400),
            ),
            _ => error_line(who, t, vaddr, actual, temp),
        };
        lines.push(line);
    }
    lines.truncate(len);
    lines
}

/// `build_db` over `prefix` lines of each stream, one text log per node.
fn oracle(tag: &str, streams: &[(NodeId, Vec<String>)], prefix: &[usize]) -> Vec<u8> {
    let logs = fresh_dir(tag);
    for ((node, lines), &n) in streams.iter().zip(prefix) {
        if n == 0 {
            continue;
        }
        let mut text = lines[..n].join("\n");
        text.push('\n');
        fs::write(logs.join(format!("node-{node}.log")), text).unwrap();
    }
    let out = logs.join("oracle.ucfdb");
    build_db(&logs, &out, &WriteOptions::default()).unwrap();
    let bytes = fs::read(&out).unwrap();
    fs::remove_dir_all(&logs).unwrap();
    bytes
}

fn current_gen(live: &LiveDb) -> Vec<u8> {
    fs::read(live.dir().join(gen_file_name(live.status().generation))).unwrap()
}

/// How often a seed reached the cases the corpora exist for.
#[derive(Default)]
struct Coverage {
    /// Lines timestamped below an earlier line of their stream.
    displaced: usize,
    /// Lines naming a node other than their stream's.
    foreign: usize,
    /// Seals with and without a node above the flood share.
    flood_seals: usize,
    calm_seals: usize,
}

fn line_time(line: &str) -> Option<i64> {
    line.split(" t=").nth(1)?.split(' ').next()?.parse().ok()
}

fn check_seed(seed: u64, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let count = 3 + rng.below(3) as usize;
    let mut names: Vec<&str> = POOL.to_vec();
    // A seeded pick of `count` stream nodes.
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i as u64 + 1) as usize);
    }
    names.truncate(count);
    let flood = rng.below(count as u64) as usize;
    let streams: Vec<(NodeId, Vec<String>)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let len = 40 + rng.below(60) as usize;
            let mut lines = node_lines(&mut rng, name, i == flood, len);
            if rng.pct(30) {
                // The node's earliest entry names another node.
                let other = POOL[rng.below(POOL.len() as u64) as usize];
                lines.insert(0, error_line(other, 10, 0x9000, 0xfffffffe, "NA"));
            }
            (NodeId::from_name(name).unwrap(), lines)
        })
        .collect();
    for (node, lines) in &streams {
        let own = format!("node={node} ");
        cov.foreign += lines
            .iter()
            .filter(|l| l.contains("node=") && !l.contains(&own))
            .count();
        let mut mark = i64::MIN;
        for t in lines.iter().filter_map(|l| line_time(l)) {
            cov.displaced += usize::from(t < mark);
            mark = mark.max(t);
        }
    }

    let pdir = fresh_dir(&format!("{seed}-primary"));
    let rdir = fresh_dir(&format!("{seed}-replica"));
    let (mut primary, _) = LiveDb::open(&pdir).unwrap();
    let (replica, _) = LiveDb::open(&rdir).unwrap();
    let mut pushed = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|(_, l)| l.len()).sum();
    let reopen_at = rng.below(total as u64) as usize;
    let mut seals = 0;

    let check = |primary: &LiveDb, pushed: &[usize], what: &str| {
        if pushed.iter().all(|&n| n == 0) {
            return;
        }
        let want = oracle(&format!("{seed}-oracle"), &streams, pushed);
        assert!(
            current_gen(primary) == want,
            "seed {seed}: {what} differs from build_db over {pushed:?} lines"
        );
    };

    for step in 0..total {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| pushed[i] < streams[i].1.len())
            .collect();
        let i = live[rng.below(live.len() as u64) as usize];
        let (node, lines) = &streams[i];
        let seq = pushed[i] as u64;
        primary.ingest(*node, seq, &lines[pushed[i]]).unwrap();
        replica.ingest(*node, seq, &lines[pushed[i]]).unwrap();
        pushed[i] += 1;

        if rng.pct(4) {
            let status = primary.seal().unwrap();
            seals += 1;
            check(&primary, &pushed, &format!("seal {seals}"));
            let flooded = !primary
                .handle()
                .current()
                .snapshot()
                .unwrap()
                .flood_nodes
                .is_empty();
            if flooded {
                cov.flood_seals += 1;
            } else {
                cov.calm_seals += 1;
            }
            replica
                .seal_replica(status.generation, status.records, status.stream_crc)
                .unwrap();
            assert!(
                current_gen(&replica) == current_gen(&primary),
                "seed {seed}: the replica's seal {seals} differs from the primary's"
            );
        }
        if step == reopen_at {
            // Reopen: the carry states come back from WAL replay, and a
            // generation sealed at open must match the oracle too.
            primary.flush().unwrap();
            drop(primary);
            let (again, _) = LiveDb::open(&pdir).unwrap();
            primary = again;
            check(&primary, &pushed, "the generation after reopen");
        }
    }
    primary.seal().unwrap();
    check(&primary, &pushed, "the final seal");

    // No catalog: open reseals from the whole WAL.
    primary.flush().unwrap();
    drop(primary);
    fs::remove_file(pdir.join("CATALOG")).unwrap();
    let (primary, report) = LiveDb::open(&pdir).unwrap();
    assert!(!report.served_existing);
    check(&primary, &pushed, "the reseal from the WAL");

    drop((primary, replica));
    fs::remove_dir_all(&pdir).unwrap();
    fs::remove_dir_all(&rdir).unwrap();
}

#[test]
fn carry_state_seals_are_byte_identical_to_build_db() {
    let mut cov = Coverage::default();
    for seed in 1..=SEEDS {
        check_seed(seed, &mut cov);
    }
    // The corpora must reach every case they exist for, or the
    // comparisons above prove less than they claim.
    assert!(
        cov.displaced > 0,
        "no line below its node's high-water mark"
    );
    assert!(cov.foreign > 0, "no line naming another node");
    assert!(
        cov.flood_seals > 0 && cov.calm_seals > 0,
        "the flood share was never crossed ({} flood, {} calm seals)",
        cov.flood_seals,
        cov.calm_seals
    );
}
