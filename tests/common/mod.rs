//! Helpers shared by the integration tests that drive live directories,
//! replicas and the query wire. A test binary takes them with
//! `mod common;`; each binary uses only some of them.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uc_faultdb::{build_db, Engine, LiveDb, QueryOptions, WriteOptions};

/// Queries that cover every action, some with predicates: the list each
/// live database is held to against its batch oracle.
pub const QUERIES: &[&str] = &[
    "count",
    "count where multibit",
    "group class",
    "group blade",
    "group hour",
    "group day",
    "top 3 node",
    "top 3 node where time>=2d",
    "hist bits",
    "list limit 5",
    "count where dir=1to0 or dir=mixed",
];

/// The fault schedule's seed: `UC_CHAOS_SEED`, default 1. CI runs
/// several seeds.
pub fn chaos_seed() -> u64 {
    std::env::var("UC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// xorshift64* — deterministic schedules from a seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// An empty directory under the system temp dir, unique to this process.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Batch oracle over exactly `lines_by_node`: plain text node logs in a
/// fresh directory, through the standard `build-db` pipeline. `None`
/// when there is no line at all. The caller removes the file.
pub fn build_oracle(tag: &str, lines_by_node: &BTreeMap<String, Vec<String>>) -> Option<PathBuf> {
    if lines_by_node.values().all(|v| v.is_empty()) {
        return None;
    }
    let logdir = fresh_dir(&format!("{tag}-oracle-logs"));
    for (node, lines) in lines_by_node {
        if lines.is_empty() {
            continue;
        }
        let mut text = lines.join("\n");
        text.push('\n');
        fs::write(logdir.join(format!("node-{node}.log")), text).unwrap();
    }
    let out =
        std::env::temp_dir().join(format!("uc-test-{tag}-oracle-{}.ucfdb", std::process::id()));
    let _ = fs::remove_file(&out);
    build_db(&logdir, &out, &WriteOptions::default()).unwrap();
    let _ = fs::remove_dir_all(&logdir);
    Some(out)
}

/// Every query of [`QUERIES`], answered single-threaded for a stable
/// oracle.
pub fn answers(db: &Engine) -> Vec<Vec<String>> {
    uc_parallel::with_thread_limit(1, || {
        QUERIES
            .iter()
            .map(|q| db.query(q, &QueryOptions::default()).unwrap().lines)
            .collect()
    })
}

/// Wait until the replica stands where the primary stands now: the same
/// records, stream CRC, generation and epoch. A replica adopts its
/// upstream's epoch at a batch end, after the batch's records and seal
/// marker, so the epoch is waited for too.
pub fn await_convergence(primary: &LiveDb, replica: &LiveDb, what: &str) {
    let want = primary.status();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let got = replica.status();
        if (got.records, got.stream_crc, got.generation, got.epoch)
            == (want.records, want.stream_crc, want.generation, want.epoch)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: replica stuck at {}/{} records, gen {}/{}, epoch {}/{}",
            got.records,
            want.records,
            got.generation,
            want.generation,
            got.epoch,
            want.epoch
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Both directories hold the same generations, at least two, and each
/// is byte-equal across them.
pub fn assert_gens_byte_identical(a: &Path, b: &Path) {
    let gens = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
            .filter(|n| n.starts_with("gen-") && n.ends_with(".ucfdb"))
            .collect();
        names.sort();
        names
    };
    let names = gens(a);
    assert_eq!(
        names,
        gens(b),
        "{} and {} hold different generations",
        a.display(),
        b.display()
    );
    for name in &names {
        assert_eq!(
            fs::read(a.join(name)).unwrap(),
            fs::read(b.join(name)).unwrap(),
            "{name}: replica generation diverges from the primary's bytes"
        );
    }
    assert!(
        names.len() >= 2,
        "only {} generations compared",
        names.len()
    );
}
