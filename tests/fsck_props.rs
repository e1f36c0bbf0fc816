//! Fsck salvage properties (DESIGN.md §7.2): whatever combination of
//! crash damage a durable directory suffers — truncation, torn final
//! frames, duplicated unsealed segments, bit rot, appended garbage —
//! `fsck_dir` never panics, its byte accounting obeys the conservation
//! law `bytes_in == salvaged + quarantined`, a second pass finds nothing
//! left to repair, and the recovering ingestion path still reads the
//! directory with the salvage history folded into its stats.

use std::ffi::OsString;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use uc_faultlog::chaos::{corrupt_durable_dir, SegmentChaosConfig};
use uc_faultlog::durable::{fsck_dir, read_fsck_report, write_cluster_log_durable};
use uc_faultlog::ingest::read_cluster_log_recovering;
use uc_faultlog::store::ClusterLog;
use unprotected_core::{run_campaign, CampaignConfig};

/// A pristine durable corpus, written once: a handful of non-flood node
/// logs plus their MANIFEST, kept as (file name, bytes) so no scratch
/// directory outlives the test. Each proptest case writes it
/// byte-for-byte into a fresh scratch directory before damaging it.
fn template() -> &'static [(OsString, Vec<u8>)] {
    static FILES: OnceLock<Vec<(OsString, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("uc-fsck-template-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let result = run_campaign(&CampaignConfig::small(42, 6));
        let flood = result.flood_nodes(0.5);
        let logs: Vec<_> = result
            .completed()
            .filter(|o| !flood.contains(&o.node))
            .map(|o| o.log.clone())
            .take(5)
            .collect();
        assert_eq!(logs.len(), 5, "not enough non-flood nodes for a corpus");
        let outcome = write_cluster_log_durable(&dir, &ClusterLog::new(logs));
        assert!(outcome.is_fully_durable(), "{:?}", outcome.failures);
        let files = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name(), fs::read(e.path()).unwrap()))
            .collect();
        fs::remove_dir_all(&dir).unwrap();
        files
    })
}

fn fresh_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-fsck-props-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in template() {
        fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

/// Sorted durable segment paths currently in `dir`.
fn dlog_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dlog"))
        .collect();
    v.sort();
    v
}

/// One extra hand-rolled mutilation beyond what the chaos harness does,
/// so the damage space is not limited to the injector's own vocabulary.
fn apply_surgery(dir: &Path, file_sel: usize, op: u8, pos_permille: u32, bit: u8) {
    let files = dlog_files(dir);
    if files.is_empty() {
        return;
    }
    let path = &files[file_sel % files.len()];
    let mut bytes = fs::read(path).unwrap();
    let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
    match op % 4 {
        // Truncate at an arbitrary offset (possibly inside the magic).
        0 => bytes.truncate(pos),
        // Flip one bit anywhere.
        1 => {
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= 1 << (bit % 8);
        }
        // Append garbage: a torn, never-completed next frame.
        2 => bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, bit]),
        // Leave this file alone.
        _ => return,
    }
    fs::write(path, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fsck_conserves_bytes_and_converges_under_random_damage(
        seed in 0u64..1_000_000,
        truncate in 0u32..=60,
        torn in 0u32..=60,
        duplicate in 0u32..=60,
        bit_rot in 0u32..=60,
        file_sel in 0usize..8,
        op in 0u8..4,
        pos_permille in 0u32..=1000,
        bit in 0u8..8,
    ) {
        let dir = fresh_copy("case");
        let chaos = SegmentChaosConfig {
            seed,
            truncate_rate: f64::from(truncate) / 100.0,
            torn_final_rate: f64::from(torn) / 100.0,
            duplicate_rate: f64::from(duplicate) / 100.0,
            bit_rot_rate: f64::from(bit_rot) / 100.0,
        };
        corrupt_durable_dir(&dir, &chaos).unwrap();
        apply_surgery(&dir, file_sel, op, pos_permille, bit);

        // Pass 1 repairs whatever it finds, conserving every byte.
        let pass1 = fsck_dir(&dir).unwrap();
        prop_assert!(pass1.is_conserved(), "pass 1: {}", pass1.summary());

        // Pass 2 is a fixpoint: nothing left to salvage or quarantine.
        let pass2 = fsck_dir(&dir).unwrap();
        prop_assert!(pass2.is_conserved(), "pass 2: {}", pass2.summary());
        prop_assert!(!pass2.found_damage(), "not convergent: {}", pass2.summary());

        // The persisted history accumulates both passes' byte totals.
        let history = read_fsck_report(&dir).expect("fsck leaves a report");
        prop_assert_eq!(history.bytes.examined, pass1.bytes.examined + pass2.bytes.examined);
        prop_assert!(history.is_conserved());

        // The repaired directory still ingests (unless every segment was
        // quarantined outright), with the salvage history in its stats.
        if dlog_files(&dir).is_empty() {
            prop_assert!(read_cluster_log_recovering(&dir).is_err());
        } else {
            let (cluster, stats) = read_cluster_log_recovering(&dir).unwrap();
            prop_assert!(stats.is_conserved(), "ingest accounting: {stats:?}");
            prop_assert!(cluster.node_logs().len() <= 5);
            prop_assert_eq!(stats.fsck_bytes_salvaged, history.bytes.kept);
            prop_assert_eq!(stats.fsck_bytes_quarantined, history.bytes.quarantined);
            prop_assert_eq!(stats.fsck_files_salvaged, history.files_salvaged);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
