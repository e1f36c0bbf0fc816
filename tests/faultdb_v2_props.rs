//! Property suite for the v2 compressed encodings and the branch-free
//! scan kernels, all through the public API:
//!
//! 1. a v2 (packed/delta) file decodes byte-identically to a v1 file of
//!    the same snapshot — the encoding is invisible to every reader;
//! 2. every query kernel agrees with a brute-force row-filter oracle on
//!    arbitrary predicate expressions, over both encodings;
//! 3. a single bit flip inside a v2 block payload surfaces as a typed
//!    `BlockCorrupt`, never as different rows.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use uc_analysis::extract::fault_sort_key;
use uc_analysis::fault::Fault;
use uc_cluster::NodeId;
use uc_faultdb::format::write_db;
use uc_faultdb::{
    parse_query, DbError, FaultDb, FileEncoding, QueryOptions, Snapshot, WriteOptions,
};
use uc_simclock::SimTime;

/// A scratch file straight in the temp dir: the three properties run on
/// parallel threads, each case removes the files it wrote, and no
/// directory is shared for one test to delete under another.
fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("uc-v2-props-{}-{name}", std::process::id()))
}

prop_compose! {
    fn fault_strategy()(
        node in 0u32..1080,
        t in 0i64..1_000_000_000,
        vaddr in 0u64..(1u64 << 40),
        expected in any::<u32>(),
        actual in any::<u32>(),
        temp in proptest::option::of(-50.0f32..120.0),
        raw_logs in 1u64..50,
    ) -> Fault {
        // A recorded fault always has expected != actual.
        let actual = if actual == expected { actual ^ 1 } else { actual };
        Fault {
            node: NodeId(node),
            time: SimTime::from_secs(t),
            vaddr,
            expected,
            actual,
            temp,
            raw_logs,
        }
    }
}

fn snapshot_of(mut faults: Vec<Fault>) -> Snapshot {
    faults.sort_by_key(fault_sort_key);
    let n = faults.len() as u64;
    Snapshot {
        faults,
        flood_nodes: vec![],
        stats: Default::default(),
        node_logs: 3,
        raw_records: n * 2,
        raw_errors: n,
        day_volume: Default::default(),
    }
}

/// One comparison atom the grammar accepts, with a value in (or near)
/// the generated data's range so predicates are rarely vacuous.
fn leaf() -> BoxedStrategy<String> {
    prop_oneof![
        Just("all".to_string()),
        Just("multibit".to_string()),
        (1u32..=72).prop_map(|b| format!("blade={b}")),
        (1u32..=2).prop_map(|r| format!("rack={r}")),
        (0u32..=33).prop_map(|b| format!("bits={b}")),
        (0u32..=33).prop_map(|b| format!("bits>={b}")),
        (0u32..=33).prop_map(|b| format!("bits<={b}")),
        (1u64..6).prop_map(|r| format!("raw>={r}")),
        (0i64..1_000_000_000).prop_map(|t| format!("time>={t}")),
        (0i64..1_000_000_000).prop_map(|t| format!("time<{t}")),
        Just("class=1".to_string()),
        Just("class=2".to_string()),
        Just("class=6+".to_string()),
        Just("dir=1to0".to_string()),
        Just("dir=0to1".to_string()),
        Just("dir=mixed".to_string()),
    ]
    .boxed()
}

/// Arbitrary boolean expression over the leaves: and/or/not/parens,
/// built by explicit recursion on a depth bound.
fn pred_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return leaf();
    }
    prop_oneof![
        leaf(),
        (pred_expr(depth - 1), pred_expr(depth - 1)).prop_map(|(a, b)| format!("( {a} and {b} )")),
        (pred_expr(depth - 1), pred_expr(depth - 1)).prop_map(|(a, b)| format!("( {a} or {b} )")),
        pred_expr(depth - 1).prop_map(|a| format!("not ( {a} )")),
    ]
    .boxed()
}

fn action() -> BoxedStrategy<String> {
    prop_oneof![
        Just("count".to_string()),
        Just("list limit 20".to_string()),
        Just("group class".to_string()),
        Just("group rack".to_string()),
        Just("top 4 node".to_string()),
        Just("hist bits".to_string()),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v1 and v2 files of the same snapshot are indistinguishable to
    /// every reader: same rows back, same snapshot.
    #[test]
    fn v2_decodes_byte_identically_to_v1(
        faults in proptest::collection::vec(fault_strategy(), 0..300),
        rows_per_block in 1usize..96,
    ) {
        let snap = snapshot_of(faults);
        let v1 = tmp_path("ident-v1.ucfdb");
        let v2 = tmp_path("ident-v2.ucfdb");
        write_db(&snap, &v1, &WriteOptions { rows_per_block, encoding: FileEncoding::V1 }).unwrap();
        write_db(&snap, &v2, &WriteOptions { rows_per_block, encoding: FileEncoding::V2 }).unwrap();
        let db1 = FaultDb::open(&v1).unwrap();
        let db2 = FaultDb::open(&v2).unwrap();
        prop_assert_eq!(db1.faults_all().unwrap(), db2.faults_all().unwrap());
        prop_assert_eq!(db1.snapshot().unwrap(), db2.snapshot().unwrap());
        let _ = fs::remove_file(&v1);
        let _ = fs::remove_file(&v2);
    }

    /// Every kernel, over both encodings, agrees with the brute-force
    /// row filter on arbitrary predicate expressions.
    #[test]
    fn kernels_agree_with_brute_force_on_arbitrary_predicates(
        faults in proptest::collection::vec(fault_strategy(), 0..250),
        pred in pred_expr(3),
        act in action(),
    ) {
        let snap = snapshot_of(faults);
        let text = format!("{act} where {pred}");
        let q = parse_query(&text).unwrap();
        let want_matched = snap.faults.iter().filter(|f| q.pred.matches(f)).count() as u64;

        let opts = QueryOptions::default();
        let mut answers = Vec::new();
        for (tag, encoding) in [("v1", FileEncoding::V1), ("v2", FileEncoding::V2)] {
            let path = tmp_path(&format!("kern-{tag}.ucfdb"));
            write_db(&snap, &path, &WriteOptions { rows_per_block: 32, encoding }).unwrap();
            let db = FaultDb::open(&path).unwrap();
            let r = db.query(&text, &opts).unwrap();
            prop_assert_eq!(r.matched, want_matched, "{} {}", tag, text);
            answers.push(r.lines);
            let _ = fs::remove_file(&path);
        }
        // Both encodings render the identical bytes, not just counts.
        prop_assert_eq!(&answers[0], &answers[1], "{}", text);
    }

    /// Any single bit flip inside a v2 block payload is a typed
    /// `BlockCorrupt` from the scan path — never different rows.
    #[test]
    fn v2_block_bit_flip_is_typed_damage(
        faults in proptest::collection::vec(fault_strategy(), 1..200),
        seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let snap = snapshot_of(faults);
        let path = tmp_path(&format!("flip-{seed}-{bit}.ucfdb"));
        write_db(&snap, &path, &WriteOptions { rows_per_block: 16, encoding: FileEncoding::V2 }).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // The block region sits between the magic and the footer; the
        // trailer's first 8 bytes locate the footer.
        let trailer_at = bytes.len() - 16;
        let footer_off =
            u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
        let magic_len = 7;
        if footer_off <= magic_len {
            let _ = fs::remove_file(&path);
        }
        prop_assume!(footer_off > magic_len);
        let offset = magic_len + (seed as usize) % (footer_off - magic_len);
        bytes[offset] ^= 1 << bit;
        fs::write(&path, &bytes).unwrap();

        // The footer is intact, so open succeeds; decoding the damaged
        // block must name it.
        let db = FaultDb::open(&path).unwrap();
        match db.faults_all() {
            Err(DbError::BlockCorrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other:?}"),
            Ok(rows) => prop_assert!(
                false,
                "flip at byte {} bit {} went undetected ({} rows)",
                offset, bit, rows.len()
            ),
        }
        let _ = fs::remove_file(&path);
    }
}
