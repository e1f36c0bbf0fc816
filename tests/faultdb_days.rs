//! Day-feed contract: `Engine::collect_days` partitions the stored
//! fault stream exactly like a brute-force `SimTime::day_index` split —
//! every fault lands in exactly one day, a fault at the exact midnight
//! boundary lands in the *starting* day and no other, empty days inside
//! the span are yielded, and concatenating the per-day faults
//! reproduces the sealed stream byte for byte, at any thread count.
//! Proven against both database shapes (single sealed file and sharded
//! root) by a property test over arbitrary fault placements with a
//! deliberate bias toward exact-midnight timestamps. A stream sealed
//! out of sort order still splits by each fault's own day, and a span
//! above `MAX_DAY_SPAN` is refused promptly with a typed error.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;

use unprotected_computing::analysis::fault::Fault;
use unprotected_computing::cluster::NodeId;
use unprotected_computing::faultdb::days::MAX_DAY_SPAN;
use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{write_sharded, DbError, Engine, Snapshot, WriteOptions};
use unprotected_computing::faultlog::ingest::{recover_text, IngestStats};
use unprotected_computing::faultlog::store::ClusterLog;
use unprotected_computing::parallel::with_thread_limit;
use unprotected_computing::simclock::SimTime;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-fdb-days-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Seal a database from synthetic per-node log text built from (node
/// index, second, vaddr) placements. Distinct vaddr pages keep
/// extraction from folding placements into one independent fault.
fn snapshot_from_placements(placements: &[(usize, i64, u64)]) -> Snapshot {
    const NAMES: [&str; 4] = ["01-01", "01-09", "05-03", "09-14"];
    let mut per_node: BTreeMap<usize, Vec<(i64, u64)>> = BTreeMap::new();
    for &(n, t, v) in placements {
        per_node.entry(n % NAMES.len()).or_default().push((t, v));
    }
    let mut stats = IngestStats::default();
    let mut logs = Vec::new();
    for (n, mut faults) in per_node {
        let name = NAMES[n];
        faults.sort_unstable();
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for (t, vaddr) in faults {
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=33.0\n",
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=3000000 node={name} temp=31.0\n"));
        let rec = recover_text(&text);
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    Snapshot::from_cluster(&ClusterLog::new(logs), stats)
}

/// A snapshot holding `faults` exactly as given, sort order or not.
fn snapshot_of(faults: Vec<Fault>) -> Snapshot {
    Snapshot {
        raw_records: faults.len() as u64,
        raw_errors: faults.len() as u64,
        faults,
        flood_nodes: vec![],
        stats: IngestStats::default(),
        node_logs: 1,
        day_volume: Default::default(),
    }
}

fn fault_at(secs: i64, vaddr: u64) -> Fault {
    Fault {
        node: NodeId(3),
        time: SimTime::from_secs(secs),
        vaddr,
        expected: 0xffff_ffff,
        actual: 0xffff_fffe,
        temp: None,
        raw_logs: 1,
    }
}

/// The brute-force oracle: partition by `day_index`, one entry per day
/// from the first stored day through the last, empties included.
fn brute_force_days(faults: &[Fault]) -> Vec<(i64, Vec<Fault>)> {
    let Some(first) = faults.iter().map(|f| f.time.day_index()).min() else {
        return Vec::new();
    };
    let last = faults.iter().map(|f| f.time.day_index()).max().unwrap();
    (first..=last)
        .map(|day| {
            (
                day,
                faults
                    .iter()
                    .filter(|f| f.time.day_index() == day)
                    .cloned()
                    .collect(),
            )
        })
        .collect()
}

fn check_engine_days(db: &Engine, tag: &str) {
    let snap = db.snapshot().unwrap();
    let days = db.collect_days().unwrap();
    let oracle = brute_force_days(&snap.faults);

    assert_eq!(days.len(), oracle.len(), "{tag}: span mismatch");
    for (got, (day, want)) in days.iter().zip(&oracle) {
        assert_eq!(got.day, *day, "{tag}: day ordering diverged");
        assert_eq!(&got.faults, want, "{tag}: day {day} contents diverged");
        for f in &got.faults {
            assert_eq!(
                f.time.day_index(),
                *day,
                "{tag}: fault leaked across the day boundary"
            );
        }
    }
    // Concatenation reproduces the sealed stream exactly — so every
    // fault is in exactly one day.
    // The split does not depend on the worker pool (the sealed stream
    // is decoded on it).
    let one_thread = with_thread_limit(1, || db.collect_days().unwrap());
    assert_eq!(one_thread, days, "{tag}: 1-thread split diverged");
    let concat: Vec<Fault> = days.into_iter().flat_map(|d| d.faults).collect();
    assert_eq!(concat, snap.faults, "{tag}: concatenation diverged");
}

/// A placement strategy biased toward the exact-midnight boundary:
/// roughly a third of faults land at `day * 86_400` precisely.
fn placements() -> impl Strategy<Value = Vec<(usize, i64, u64)>> {
    let second = prop_oneof![
        // Exact midnight of days 0..=12.
        (0i64..13).prop_map(|d| d * 86_400),
        // Last second of a day.
        (1i64..13).prop_map(|d| d * 86_400 - 1),
        // Anywhere in the first ~12 days.
        0i64..1_000_000,
    ];
    proptest::collection::vec(
        (0usize..4, second, 0u64..64).prop_map(|(n, t, k)| {
            // Distinct pages per (node, slot) so extraction can't merge
            // two placements into one independent fault.
            (n, t, 0x1000 * (1 + k) + 0x100_000 * n as u64)
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn day_stream_matches_brute_force_partition(placements in placements()) {
        let dir = tempdir("prop");
        let snap = snapshot_from_placements(&placements);
        prop_assume!(!snap.faults.is_empty());

        // Single sealed file, small blocks so windows cross block edges.
        let path = dir.join("days.ucfdb");
        write_db(
            &snap,
            &path,
            &WriteOptions { rows_per_block: 8, ..WriteOptions::default() },
        )
        .unwrap();
        check_engine_days(&Engine::open_auto(&path).unwrap(), "single");

        // Sharded root: the fan-out path must partition identically.
        let root = dir.join("days-root");
        write_sharded(&snap, &root, 3, &WriteOptions::default()).unwrap();
        check_engine_days(&Engine::open_auto(&root).unwrap(), "root");

        let _ = fs::remove_dir_all(&dir);
    }
}

/// The pinned boundary case from the contract: a fault at exactly
/// midnight belongs to the starting day, its neighbor one second
/// earlier to the previous day.
#[test]
fn midnight_fault_lands_in_exactly_one_day() {
    let dir = tempdir("midnight");
    // Two faults per node: the flood filter excludes any node holding
    // more than half the raw errors, so volumes stay balanced.
    let snap = snapshot_from_placements(&[
        (0, 3 * 86_400 - 1, 0x4000),    // last second of day 2
        (0, 3 * 86_400, 0x8000),        // exactly midnight: day 3
        (1, 3 * 86_400, 0x200_000),     // another node, same boundary
        (1, 3 * 86_400 - 1, 0x204_000), // same node, last second of day 2
    ]);
    assert_eq!(snap.faults.len(), 4);
    let path = dir.join("midnight.ucfdb");
    write_db(&snap, &path, &WriteOptions::default()).unwrap();
    let db = Engine::open_auto(&path).unwrap();

    // Exactly days 2 and 3: nothing before the first fault day or
    // after the last.
    let days = db.collect_days().unwrap();
    assert_eq!(days.iter().map(|d| d.day).collect::<Vec<_>>(), vec![2, 3]);
    let (day2, day3) = (&days[0].faults, &days[1].faults);
    assert_eq!(day2.len(), 2);
    assert!(day2.iter().all(|f| f.time.as_secs() == 3 * 86_400 - 1));
    assert_eq!(day3.len(), 2);
    assert!(day3.iter().all(|f| f.time.as_secs() == 3 * 86_400));

    let _ = fs::remove_dir_all(&dir);
}

/// Empty days inside the span are yielded (the policy engine charges
/// daily costs whether or not faults landed).
#[test]
fn empty_days_inside_the_span_are_yielded() {
    let dir = tempdir("gaps");
    // One fault per node so the flood filter keeps both.
    let snap = snapshot_from_placements(&[(0, 86_400 + 5, 0x4000), (1, 5 * 86_400 + 5, 0x108_000)]);
    assert_eq!(snap.faults.len(), 2);
    let path = dir.join("gaps.ucfdb");
    write_db(&snap, &path, &WriteOptions::default()).unwrap();
    let db = Engine::open_auto(&path).unwrap();
    let days = db.collect_days().unwrap();
    assert_eq!(
        days.iter().map(|d| d.day).collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5]
    );
    assert_eq!(
        days.iter().map(|d| d.faults.len()).collect::<Vec<_>>(),
        vec![1, 0, 0, 0, 1]
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A stream sealed out of sort order: the first and last stored rows
/// are not the first and last days, so a span read off them would index
/// outside the feed. Every fault must still land under its own day.
#[test]
fn unsorted_stream_splits_by_each_faults_own_day() {
    let dir = tempdir("unsorted");
    let faults = vec![
        fault_at(5 * 86_400 + 7, 0x1000),
        fault_at(86_400 + 3, 0x2000),
        fault_at(9 * 86_400, 0x3000),
        fault_at(3 * 86_400 + 1, 0x4000),
        fault_at(2 * 86_400 - 1, 0x5000),
        fault_at(5 * 86_400 + 2, 0x6000),
    ];
    let path = dir.join("unsorted.ucfdb");
    write_db(
        &snapshot_of(faults.clone()),
        &path,
        &WriteOptions {
            rows_per_block: 2,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let days = Engine::open_auto(&path).unwrap().collect_days().unwrap();

    assert_eq!(
        days.iter().map(|d| d.day).collect::<Vec<_>>(),
        (1..=9).collect::<Vec<_>>()
    );
    for d in &days {
        assert!(d.faults.iter().all(|f| f.time.day_index() == d.day));
    }
    // Within a day, stored order is kept.
    assert_eq!(days[4].faults, vec![faults[0], faults[5]]);
    assert_eq!(days.iter().map(|d| d.faults.len()).sum::<usize>(), 6);
    let _ = fs::remove_dir_all(&dir);
}

/// `collect_days` on its own thread, bounded at 5 s: a feed that walks
/// a huge span day by day would still be running there.
fn collect_days_within_5s(db: Engine) -> Result<usize, DbError> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(db.collect_days().map(|days| days.len()));
    });
    let sent = rx.recv_timeout(Duration::from_secs(5));
    assert!(
        !matches!(sent, Err(RecvTimeoutError::Timeout)),
        "collect_days still running after 5 s"
    );
    worker.join().expect("collect_days panicked");
    sent.expect("the worker sends before it exits")
}

/// Two faults 10^13 s apart span ~116M days; the feed refuses the span
/// with a typed error instead of laying out one entry per day. A span of
/// exactly `MAX_DAY_SPAN` days is still served.
#[test]
fn span_above_the_bound_is_refused_promptly() {
    let dir = tempdir("wide");
    let snap = snapshot_from_placements(&[(0, 100, 0x4000), (1, 10_000_000_000_000, 0x108_000)]);
    assert_eq!(snap.faults.len(), 2);
    let path = dir.join("wide.ucfdb");
    write_db(&snap, &path, &WriteOptions::default()).unwrap();
    match collect_days_within_5s(Engine::open_auto(&path).unwrap()) {
        Err(DbError::DaySpan { first, last }) => {
            assert_eq!((first, last), (0, 10_000_000_000_000 / 86_400));
        }
        other => panic!("a ~116M-day span must be refused, got {other:?}"),
    }

    let widest = |last_day: i64| {
        snapshot_of(vec![
            fault_at(0, 0x1000),
            fault_at(last_day * 86_400, 0x2000),
        ])
    };
    let path = dir.join("widest.ucfdb");
    write_db(&widest(MAX_DAY_SPAN - 1), &path, &WriteOptions::default()).unwrap();
    let served = collect_days_within_5s(Engine::open_auto(&path).unwrap());
    assert_eq!(served.unwrap(), MAX_DAY_SPAN as usize);
    write_db(&widest(MAX_DAY_SPAN), &path, &WriteOptions::default()).unwrap();
    assert!(matches!(
        collect_days_within_5s(Engine::open_auto(&path).unwrap()),
        Err(DbError::DaySpan { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}
