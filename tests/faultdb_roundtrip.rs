//! faultdb integration: databases built from recovered cluster logs
//! round-trip exactly, queries agree with brute-force scans over the
//! original faults, pruning never changes an answer, and the decoded-
//! block cache stays invisible to results while its counters move.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{
    build_db, db::QueryOptions, DbOptions, FaultDb, Snapshot, WriteOptions,
};
use unprotected_computing::faultlog::ingest::{recover_text, IngestStats};
use unprotected_computing::faultlog::store::ClusterLog;
use unprotected_computing::parallel::with_thread_limit;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-fdb-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A cluster with enough variety to light up every query dimension:
/// several nodes across blades, multi-bit patterns, both flip
/// directions, and a spread of timestamps.
fn varied_snapshot() -> Snapshot {
    let mut stats = IngestStats::default();
    let mut logs = Vec::new();
    for (i, name) in ["01-01", "01-09", "05-03", "09-14", "33-07"]
        .iter()
        .enumerate()
    {
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for k in 0i64..40 {
            let t = 200 + 3_000 * k + 17 * i as i64;
            let vaddr = 0x1000 * (1 + (k as u64 % 9));
            // Vary the corruption: single-bit clears, single-bit sets,
            // double-bit, and a wide multi-bit word.
            let actual: u32 = match k % 4 {
                0 => 0xffff_fffe, // one bit 1→0
                1 => 0xffff_fffc, // two bits 1→0
                2 => 0x7fff_ffff, // high bit 1→0
                _ => 0x00ff_ffff, // 8 bits 1→0
            };
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0x{actual:08x} temp=3{i}.0\n",
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=200000 node={name} temp=31.0\n"));
        let rec = recover_text(&text);
        assert!(rec.stats.is_conserved());
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    Snapshot::from_cluster(&ClusterLog::new(logs), stats)
}

#[test]
fn snapshot_roundtrips_and_reports_identically() {
    let dir = tempdir("roundtrip");
    let snap = varied_snapshot();
    assert!(!snap.faults.is_empty());
    let path = dir.join("t.fdb");
    write_db(
        &snap,
        &path,
        &WriteOptions {
            rows_per_block: 16,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let db = FaultDb::open(&path).unwrap();
    let back = db.snapshot().unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.report_text(), snap.report_text());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queries_agree_with_brute_force_and_pruning_is_sound() {
    let dir = tempdir("brute");
    let snap = varied_snapshot();
    let path = dir.join("t.fdb");
    write_db(
        &snap,
        &path,
        &WriteOptions {
            rows_per_block: 8,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let db = FaultDb::open(&path).unwrap();
    let opts = QueryOptions::default();

    // count where multibit — brute force over the original faults.
    let expect = snap.faults.iter().filter(|f| f.is_multi_bit()).count();
    let got = db.query("count where multibit", &opts).unwrap();
    assert_eq!(got.lines, vec![expect.to_string()]);

    // A pruned time window: fewer blocks scanned, same exact rows.
    let (lo, hi) = (50_000i64, 110_000i64);
    let windowed = db
        .query(&format!("count where time>={lo} and time<{hi}"), &opts)
        .unwrap();
    let expect_window = snap
        .faults
        .iter()
        .filter(|f| (lo..hi).contains(&f.time.as_secs()))
        .count();
    assert_eq!(windowed.lines, vec![expect_window.to_string()]);
    assert!(
        windowed.blocks_scanned < windowed.blocks_total,
        "a narrow window over time-sorted rows must prune ({}/{} scanned)",
        windowed.blocks_scanned,
        windowed.blocks_total
    );

    // group node — brute force with a BTreeMap, rendered the same way.
    let grouped = db.query("group node", &opts).unwrap();
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for f in &snap.faults {
        *counts.entry(f.node.0).or_insert(0) += 1;
    }
    let expect_lines: Vec<String> = counts
        .iter()
        .map(|(&n, &c)| format!("{} {c}", unprotected_computing::cluster::NodeId(n)))
        .collect();
    assert_eq!(grouped.lines, expect_lines);

    // hist bits sums to the total fault count.
    let hist = db.query("hist bits", &opts).unwrap();
    let total: u64 = hist
        .lines
        .iter()
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, snap.faults.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_results_thread_invariant_through_the_public_api() {
    let dir = tempdir("threads");
    let snap = varied_snapshot();
    let path = dir.join("t.fdb");
    write_db(
        &snap,
        &path,
        &WriteOptions {
            rows_per_block: 8,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let db = FaultDb::open(&path).unwrap();
    for q in [
        "count",
        "group class",
        "group dir",
        "top 4 blade",
        "list limit 7 where class=2 or bits>=8",
        "hist bits where time>=10000",
    ] {
        let one = with_thread_limit(1, || db.query(q, &QueryOptions::default())).unwrap();
        let many = with_thread_limit(8, || db.query(q, &QueryOptions::default())).unwrap();
        assert_eq!(one, many, "{q}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_counters_move_but_results_do_not() {
    let dir = tempdir("cache");
    let snap = varied_snapshot();
    let path = dir.join("t.fdb");
    write_db(
        &snap,
        &path,
        &WriteOptions {
            rows_per_block: 8,
            ..WriteOptions::default()
        },
    )
    .unwrap();

    // Tiny cache: forced evictions on a full scan.
    let db = FaultDb::open_with(&path, &DbOptions { cache_blocks: 4 }).unwrap();
    let opts = QueryOptions::default();
    let first = db.query("group class", &opts).unwrap();
    let second = db.query("group class", &opts).unwrap();
    let third = db.query("group class", &opts).unwrap();
    assert_eq!(first, second);
    assert_eq!(first, third);
    let stats = db.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        3 * db.blocks() as u64,
        "every block lookup is either a hit or a miss: {stats:?}"
    );
    assert!(
        stats.evictions > 0,
        "4-block cache over {} blocks must evict",
        db.blocks()
    );

    // Same queries against an uncached-in-practice big-cache handle:
    // identical answers, proving the cache is invisible to results.
    let db_big = FaultDb::open(&path).unwrap();
    assert_eq!(db_big.query("group class", &opts).unwrap(), first);
    fs::remove_dir_all(&dir).unwrap();
}

/// A hostile `ERRORRUN` count must not hang the build (the day-volume fold
/// once expanded every run) nor wrap the raw-error sum into a wrong flood
/// verdict: the line is a `bad_number` drop, and the one real error on
/// each of the two other nodes seals as a fault. The build runs on a
/// thread with a bound, so a regression fails instead of hanging.
#[test]
fn hostile_errorrun_count_is_dropped_not_expanded_or_summed() {
    let dir = tempdir("hostile-count");
    let logs = dir.join("logs");
    fs::create_dir_all(&logs).unwrap();
    fs::write(
        logs.join("node-01-01.log"),
        format!(
            "ERRORRUN t=100 node=01-01 vaddr=0x00000100 page=0x000000 expected=0xffffffff \
             actual=0xfffffffe temp=NA count={} period=40\n",
            u64::MAX
        ),
    )
    .unwrap();
    for name in ["01-02", "01-03"] {
        fs::write(
            logs.join(format!("node-{name}.log")),
            format!(
                "ERROR t=200 node={name} vaddr=0x00000200 page=0x000000 expected=0xffffffff \
                 actual=0xffff7fff temp=35.0\n"
            ),
        )
        .unwrap();
    }
    let db = dir.join("hostile.ucfdb");
    let (tx, rx) = std::sync::mpsc::channel();
    let (from, to) = (logs.clone(), db.clone());
    std::thread::spawn(move || {
        let _ = tx.send(build_db(&from, &to, &WriteOptions::default()).map(|s| s.rows));
    });
    let rows = match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(built) => built.unwrap(),
        Err(e) => panic!("build_db did not return within 5 s: {e:?}"),
    };
    assert_eq!(rows, 2);
    let snap = FaultDb::open(&db).unwrap().snapshot().unwrap();
    assert_eq!(snap.faults.len(), 2);
    assert!(snap.flood_nodes.is_empty());
    assert_eq!(snap.stats.bad_number, 1);
    assert_eq!((snap.raw_records, snap.raw_errors), (2, 2));
    let _ = fs::remove_dir_all(&dir);
}
