//! The sharded engine's differential oracle: every query over every
//! combination of encoding (v1 fixed / v2 packed), shard count, and
//! thread limit must answer **byte-identically** to the single-file v1
//! engine scanned single-threaded. This is the acceptance bar for the
//! root catalog: sharding, compression, and fan-out parallelism are
//! performance features, never observable ones.
//!
//! The `uc analyze --db` path rides on the same snapshot merge, so the
//! full report text is compared too.

mod common;

use std::fs;
use std::path::PathBuf;

use common::fresh_dir;
use uc_analysis::extract::fault_sort_key;
use uc_analysis::fault::Fault;
use uc_cluster::NodeId;
use uc_faultdb::{
    format, write_sharded, CacheStats, Engine, FaultDb, FileEncoding, QueryOptions, QueryResult,
    RootDb, Snapshot, WriteOptions,
};
use uc_parallel::with_thread_limit;
use uc_simclock::SimTime;

/// A campaign-shaped snapshot: nodes across both racks, clustered and
/// scattered times, temp present on some rows, several flip shapes.
fn snapshot(n: usize) -> Snapshot {
    let mut faults: Vec<Fault> = (0..n)
        .map(|i| {
            let burst = i % 17 == 0;
            Fault {
                node: NodeId(((i * 131) % 1080) as u32),
                time: SimTime::from_secs(if burst {
                    250_000 + (i as i64 % 7)
                } else {
                    (i as i64 * 613) % 864_000
                }),
                vaddr: 0x4000 + (i as u64 % 251) * 0x40,
                expected: 0xFFFF_FFFF,
                actual: match i % 6 {
                    0 => 0xFFFF_FFFE, // single bit
                    1 => 0xFFFF_FFFC, // double bit
                    2 => 0x0000_FFFF, // many bits
                    3 => 0x7FFF_FFFF, // high bit
                    4 => 0xFFFF_0FFF, // nibble
                    _ => 0xFFFF_FFF0, // low nibble
                },
                temp: (i % 3 == 0).then_some(28.0 + (i % 40) as f32 / 2.0),
                raw_logs: 1 + (i as u64 % 6),
            }
        })
        .collect();
    faults.sort_by_key(fault_sort_key);
    Snapshot {
        faults,
        flood_nodes: vec![NodeId(3), NodeId(77)],
        stats: Default::default(),
        node_logs: 12,
        raw_records: n as u64 * 4,
        raw_errors: n as u64 + 9,
        day_volume: Default::default(),
    }
}

const QUERIES: &[&str] = &[
    "count",
    "count where multibit",
    "count where bits=1",
    "count where rack=1",
    "count where rack=2 and multibit",
    "count where blade=40",
    "count where time>=100000 and time<500000",
    "count where raw>=4",
    "count where dir=1to0 or dir=mixed",
    "count where not (bits>=4)",
    "group class",
    "group rack",
    "group day where multibit",
    "group hour where time<200000",
    "top 5 node",
    "top 3 blade where bits>=2",
    "hist bits",
    "hist bits where rack=2",
    "list limit 25",
    "list limit 10 where bits>=8",
    "list where class=2 and rack=1",
];

/// The single-file v1 engine at one thread is the oracle everything
/// else must match byte-for-byte.
#[test]
fn every_engine_shape_answers_byte_identically() {
    let dir = fresh_dir("matrix");
    let snap = snapshot(3000);

    // Oracle: v1 single file, single-threaded scan.
    let v1_path = dir.join("oracle-v1.ucfdb");
    format::write_db(
        &snap,
        &v1_path,
        &WriteOptions {
            rows_per_block: 128,
            encoding: FileEncoding::V1,
        },
    )
    .unwrap();
    let oracle_db = FaultDb::open(&v1_path).unwrap();
    let opts = QueryOptions::default();
    let oracle: Vec<(Vec<String>, u64)> = with_thread_limit(1, || {
        QUERIES
            .iter()
            .map(|q| {
                let r = oracle_db.query(q, &opts).unwrap();
                (r.lines, r.matched)
            })
            .collect()
    });
    let oracle_report = oracle_db.snapshot().unwrap().report_text();

    // Matrix: encoding × shard count × thread limit.
    for encoding in [FileEncoding::V1, FileEncoding::V2] {
        let enc_tag = match encoding {
            FileEncoding::V1 => "v1",
            FileEncoding::V2 => "v2",
        };
        let wopts = WriteOptions {
            rows_per_block: 128,
            encoding,
        };

        // Single file in this encoding.
        let single = dir.join(format!("single-{enc_tag}.ucfdb"));
        format::write_db(&snap, &single, &wopts).unwrap();

        // Sharded roots at several window counts (racks multiply these).
        let mut shapes: Vec<(String, PathBuf)> = vec![(format!("single/{enc_tag}"), single)];
        for windows in [1usize, 3, 8] {
            let root = dir.join(format!("root-{enc_tag}-w{windows}"));
            let summary = write_sharded(&snap, &root, windows, &wopts).unwrap();
            assert!(summary.shards >= windows, "both racks are occupied");
            shapes.push((format!("root/{enc_tag}/w{windows}"), root));
        }

        for (tag, path) in &shapes {
            // Each query runs cold on a freshly opened engine, then warm:
            // answers, scan accounting and cache counters must not depend
            // on the thread limit, and every answer is the oracle's.
            let mut at_one_thread = None;
            for threads in [1usize, 2, 8] {
                let runs: Vec<(QueryResult, CacheStats)> = with_thread_limit(threads, || {
                    let mut runs = Vec::new();
                    for q in QUERIES {
                        let engine = Engine::open_auto(path).unwrap();
                        for _ in 0..2 {
                            runs.push((engine.query(q, &opts).unwrap(), engine.cache_stats()));
                        }
                    }
                    runs
                });
                for (i, (r, _)) in runs.iter().enumerate() {
                    let got = (r.lines.clone(), r.matched);
                    assert_eq!(
                        got,
                        oracle[i / 2],
                        "{tag} at {threads} threads: {}",
                        QUERIES[i / 2]
                    );
                }
                match &at_one_thread {
                    None => at_one_thread = Some(runs),
                    Some(want) => assert_eq!(&runs, want, "{tag} at {threads} threads"),
                }
            }
            // The analyze path: byte-identical report text.
            assert_eq!(
                Engine::open_auto(path)
                    .unwrap()
                    .snapshot()
                    .unwrap()
                    .report_text(),
                oracle_report,
                "{tag} snapshot"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Shard pruning must never change an answer, only skip work: a window
/// predicate that prunes shards still counts exactly the oracle's rows.
#[test]
fn pruned_fanout_counts_match_unpruned() {
    let dir = fresh_dir("prune");
    let snap = snapshot(2000);
    let root = dir.join("root");
    write_sharded(
        &snap,
        &root,
        6,
        &WriteOptions {
            rows_per_block: 64,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let db = RootDb::open(&root).unwrap();
    let opts = QueryOptions::default();
    for q in [
        "count where time>=700000",
        "count where time<100000",
        "count where rack=1 and time>=400000",
    ] {
        let pruned = db.query(q, &opts).unwrap();
        assert!(
            pruned.shards_scanned < pruned.shards_total,
            "{q}: expected shard pruning ({}/{})",
            pruned.shards_scanned,
            pruned.shards_total
        );
        // Brute force over the raw faults.
        let want = snap
            .faults
            .iter()
            .filter(|f| uc_faultdb::parse_query(q).unwrap().pred.matches(f))
            .count() as u64;
        assert_eq!(pruned.matched, want, "{q}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `faults_all` over a root reassembles the exact global row order the
/// single file stores — the k-way merge leaves no permutation behind.
#[test]
fn root_faults_all_is_the_global_sort_order() {
    let dir = fresh_dir("order");
    let snap = snapshot(1500);
    let root = dir.join("root");
    write_sharded(&snap, &root, 5, &WriteOptions::default()).unwrap();
    let db = RootDb::open(&root).unwrap();
    assert_eq!(db.faults_all().unwrap(), snap.faults);
    let _ = fs::remove_dir_all(&dir);
}
