//! Crash matrix for the live streaming path (DESIGN.md §9): a live
//! database is driven through a deterministic schedule of ingest
//! batches, WAL flushes, and generation seals, and after EVERY flush
//! and seal boundary the whole directory is snapshotted byte-for-byte —
//! each snapshot IS a kill point, because a crash can only ever leave
//! the bytes that were durable at some boundary (plus a torn tail).
//! Every snapshot is restored into a fresh directory, optionally
//! damaged at the tail the way a real crash tears a page, fsck'd under
//! the conservation law, reopened, and the reopened database must
//! answer every query of the shared list exactly like a batch database
//! built from the records the WAL actually preserved — including
//! byte-identical generation files.
//!
//! Seed the damage schedule with `UC_CHAOS_SEED` (default 1); CI runs
//! several seeds.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use common::{answers, build_oracle, chaos_seed, fresh_dir, Rng};
use uc_cluster::NodeId;
use uc_faultdb::wal::{decode_wal_payload, wal_index_of_name, WalRecord};
use uc_faultdb::{fsck_live_dir, gen_file_name, Engine, FaultDb, LiveDb, QueryOptions};
use uc_faultlog::durable::scan_segment_slices;

/// A node's full corpus: a session frame around a burst of single-bit
/// errors, shaped like the campaign's real text logs.
fn corpus(node: &str, salt: u64, records: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(records + 2);
    lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
    for k in 0..records {
        let vaddr = 0x1000 + 0x180 * (k as u64) + (salt << 24);
        lines.push(format!(
            "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0xfffffffe temp=33.0",
            t = 120 + 5400 * (k as i64),
            page = vaddr >> 12
        ));
    }
    lines.push(format!(
        "END t={t} node={node} temp=31.0",
        t = 5400 * records as i64 + 300
    ));
    lines
}

/// Byte-for-byte image of a directory tree, keyed by relative path.
fn snapshot_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap().map(|e| e.unwrap()) {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .to_string();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn restore_dir(snapshot: &BTreeMap<String, Vec<u8>>, dir: &Path) {
    for (rel, bytes) in snapshot {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).unwrap();
        }
        fs::write(&path, bytes).unwrap();
    }
}

/// The unsealed WAL segment a crash would tear: highest-index `.dlog.tmp`.
fn active_wal_tmp(dir: &Path) -> Option<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".dlog.tmp"))
        })
        .max()
}

/// Every record the WAL segments in `dir` hold, in replay order, read
/// with the segment scanner itself rather than the live reader.
fn wal_records(dir: &Path) -> Vec<WalRecord> {
    let mut segments: BTreeMap<u64, PathBuf> = BTreeMap::new();
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(index) = wal_index_of_name(name) else {
            continue;
        };
        // A sealed copy wins over a tmp a crash left beside it.
        if !name.ends_with(".tmp") || !segments.contains_key(&index) {
            segments.insert(index, path.clone());
        }
    }
    let mut records = Vec::new();
    for path in segments.values() {
        let bytes = fs::read(path).unwrap();
        let scan = scan_segment_slices(&bytes);
        records.extend(scan.payloads.iter().filter_map(|p| decode_wal_payload(p)));
    }
    records
}

#[test]
fn crash_matrix_at_every_flush_and_seal_boundary() {
    let seed = chaos_seed();
    let dir = fresh_dir("matrix");
    let (live, _) = LiveDb::open(&dir).unwrap();

    let names = ["01-01", "01-02", "02-01"];
    let nodes: Vec<NodeId> = names
        .iter()
        .map(|n| NodeId::from_name(n).unwrap())
        .collect();
    let corpora: Vec<Vec<String>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| corpus(n, i as u64, 16))
        .collect();

    // What is *durable* (WAL-flushed) per node at each kill point:
    // the directory image plus the per-node flushed-line counts.
    type KillPoint = (BTreeMap<String, Vec<u8>>, Vec<usize>);
    let mut accepted = vec![0usize; names.len()];
    let mut flushed = vec![0usize; names.len()];
    let mut kill_points: Vec<KillPoint> = Vec::new();
    let mut rng = Rng::new(seed);

    while accepted.iter().zip(&corpora).any(|(&a, c)| a < c.len())
        || flushed != accepted
        || kill_points.is_empty()
    {
        match rng.below(10) {
            // Ingest a batch on one node (records are only durable at
            // the next flush — a kill before that legitimately loses
            // them, which the matrix verifies).
            0..=5 => {
                let i = rng.below(names.len() as u64) as usize;
                let n = (1 + rng.below(5)) as usize;
                for _ in 0..n {
                    if accepted[i] >= corpora[i].len() {
                        break;
                    }
                    let outcome = live
                        .ingest(nodes[i], accepted[i] as u64, &corpora[i][accepted[i]])
                        .unwrap();
                    assert_eq!(format!("{outcome:?}"), "Accepted");
                    accepted[i] += 1;
                }
            }
            6..=8 => {
                live.flush().unwrap();
                flushed.copy_from_slice(&accepted);
                kill_points.push((snapshot_dir(&dir), flushed.clone()));
            }
            _ => {
                live.seal().unwrap();
                flushed.copy_from_slice(&accepted);
                kill_points.push((snapshot_dir(&dir), flushed.clone()));
            }
        }
    }
    live.seal().unwrap();
    kill_points.push((snapshot_dir(&dir), flushed.clone()));
    drop(live);
    assert!(
        kill_points.len() >= 4,
        "schedule produced too few boundaries"
    );

    for (k, (snap, durable)) in kill_points.iter().enumerate() {
        let tag = format!("matrix-k{k}");
        let crashed = fresh_dir(&tag);
        restore_dir(snap, &crashed);

        // A real crash can also tear the page holding the WAL tail:
        // garbage appended past the last complete frame, or a clean
        // suffix sheared off. Neither may cost more than the tail.
        let torn = k % 3;
        if torn != 0 {
            if let Some(wal) = active_wal_tmp(&crashed) {
                let mut bytes = fs::read(&wal).unwrap();
                if torn == 1 {
                    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
                } else {
                    bytes.truncate(bytes.len().saturating_sub(3));
                }
                fs::write(&wal, bytes).unwrap();
            }
        }

        // Operators may fsck before restarting — or not. Both must work.
        if k % 2 == 1 {
            let report = fsck_live_dir(&crashed).unwrap();
            assert!(report.is_conserved(), "k={k}: {}", report.render());
        }

        let recovered = wal_records(&crashed);
        let (revived, _) = LiveDb::open(&crashed).unwrap();

        // Survivors per node must be a clean prefix of what was durably
        // flushed — never reordered, never invented, and a torn tail may
        // cost at most the final record.
        let mut survived: BTreeMap<String, Vec<String>> =
            names.iter().map(|n| (n.to_string(), Vec::new())).collect();
        for rec in &recovered {
            let lines = survived.get_mut(&rec.node.to_string()).unwrap();
            if rec.seq == lines.len() as u64 {
                lines.push(rec.line.clone());
            }
        }
        let mut total_survived = 0usize;
        let mut total_durable = 0usize;
        for (i, name) in names.iter().enumerate() {
            let got = &survived[*name];
            let want = &corpora[i][..durable[i]];
            assert!(
                got.len() <= want.len() && got[..] == want[..got.len()],
                "k={k} {name}: survivors are not a prefix of the flushed stream"
            );
            total_survived += got.len();
            total_durable += durable[i];
        }
        let floor = if torn == 2 {
            total_durable.saturating_sub(1)
        } else {
            total_durable
        };
        assert!(
            total_survived >= floor,
            "k={k}: lost {} records to a 3-byte tear",
            total_durable - total_survived
        );

        // The revived database must be indistinguishable from a batch
        // build over exactly the surviving records.
        match build_oracle(&tag, &survived) {
            None => {
                let db = revived.handle().current();
                let count = db.query("count", &QueryOptions::default()).unwrap().lines;
                assert_eq!(count, vec!["0".to_string()], "k={k}");
            }
            Some(oracle_path) => {
                let status = revived.seal().unwrap();
                let gen_path = crashed.join(gen_file_name(status.generation));
                assert_eq!(
                    fs::read(&gen_path).unwrap(),
                    fs::read(&oracle_path).unwrap(),
                    "k={k}: generation file is not byte-identical to the batch build"
                );
                let live_db = revived.handle().current();
                let oracle: Engine =
                    std::sync::Arc::new(FaultDb::open(&oracle_path).unwrap()).into();
                assert_eq!(answers(&live_db), answers(&oracle), "k={k}");
                let _ = fs::remove_file(&oracle_path);
            }
        }
        drop(revived);
        let _ = fs::remove_dir_all(&crashed);
    }

    // The matrix must not be vacuous: the final kill point carries the
    // full corpus and extracts real faults.
    let full = kill_points.last().unwrap().1.iter().sum::<usize>();
    assert_eq!(full, corpora.iter().map(Vec::len).sum::<usize>());
    let _ = fs::remove_dir_all(&dir);
}

/// Kills *inside* the seal itself: the generation file mid-rename, the
/// catalog not yet rewritten. fsck must promote complete work, discard
/// torn work, and conserve every byte either way.
#[test]
fn seal_boundary_crash_states_recover() {
    let base = fresh_dir("sealpoint");
    let (live, _) = LiveDb::open(&base).unwrap();
    let names = ["03-01", "03-02"];
    for (i, name) in names.iter().enumerate() {
        let node = NodeId::from_name(name).unwrap();
        for (seq, line) in corpus(name, i as u64, 8).iter().enumerate() {
            live.ingest(node, seq as u64, line).unwrap();
        }
    }
    let status = live.seal().unwrap();
    drop(live);
    let image = snapshot_dir(&base);
    let gen_name = gen_file_name(status.generation);
    let gen_bytes = image[&gen_name].clone();
    let expected = {
        let (reopened, _) = LiveDb::open(&base).unwrap();
        answers(&reopened.handle().current())
    };

    // (a) torn generation tmp — the seal died mid-write.
    // (b) complete generation tmp — the seal died just before rename.
    // (c) renamed generation, stale catalog — the seal died before the
    //     catalog rewrite landed.
    for (case, fabricate) in [("torn-tmp", 0u8), ("complete-tmp", 1), ("stale-catalog", 2)] {
        let dir = fresh_dir(&format!("sealpoint-{case}"));
        restore_dir(&image, &dir);
        let next = gen_file_name(status.generation + 1);
        match fabricate {
            0 => fs::write(
                dir.join(format!("{next}.tmp")),
                &gen_bytes[..gen_bytes.len() / 2],
            )
            .unwrap(),
            1 => fs::write(dir.join(format!("{next}.tmp")), &gen_bytes).unwrap(),
            _ => fs::write(dir.join(&next), &gen_bytes).unwrap(),
        }

        let report = fsck_live_dir(&dir).unwrap();
        assert!(report.is_conserved(), "{case}: {}", report.render());
        assert!(
            !dir.join(format!("{next}.tmp")).exists(),
            "{case}: tmp left behind"
        );
        // fsck is idempotent: a second pass finds nothing to do.
        let again = fsck_live_dir(&dir).unwrap();
        assert!(
            again.is_conserved(),
            "{case} second pass: {}",
            again.render()
        );
        assert_eq!(
            (
                again.gens_promoted,
                again.gens_quarantined,
                again.catalog_rollbacks
            ),
            (0, 0, 0),
            "{case}: second fsck pass still found work"
        );

        let (revived, open) = LiveDb::open(&dir).unwrap();
        assert_eq!(open.replayed, 2 * (8 + 2), "{case}");
        assert_eq!(answers(&revived.handle().current()), expected, "{case}");
        drop(revived);
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&base);
}
