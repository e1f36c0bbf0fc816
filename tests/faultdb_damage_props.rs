//! Corruption safety, as a property: *any* single bit flip anywhere in a
//! database file is detected and surfaces as a typed error — never a
//! wrong answer. Every byte of the file is covered by a check (magic
//! compare, per-block CRC-32, footer CRC-32, trailer bounds validation),
//! and CRC-32 detects all single-bit errors, so the assertion can be
//! strict: open-or-scan MUST fail. Truncation is weaker in principle
//! (the new last 16 bytes could in theory parse as a valid trailer), so
//! there the property is "typed error, or results identical to clean".

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{FaultDb, Snapshot, WriteOptions};
use unprotected_computing::faultlog::ingest::{recover_text, IngestStats};
use unprotected_computing::faultlog::store::ClusterLog;

/// The clean database's bytes and snapshot, built once per test binary
/// behind a `OnceLock`. Tests run on parallel threads, so each writes
/// its own scratch file straight into the temp dir and removes it: no
/// directory is shared for one test to delete under another.
fn clean_db() -> &'static (Vec<u8>, Snapshot) {
    static CLEAN: OnceLock<(Vec<u8>, Snapshot)> = OnceLock::new();
    CLEAN.get_or_init(build_clean_db)
}

fn build_clean_db() -> (Vec<u8>, Snapshot) {
    let mut stats = IngestStats::default();
    let mut logs = Vec::new();
    for name in ["01-01", "02-05"] {
        let mut text = format!("START t=0 node={name} alloc=3221225472 temp=30.0\n");
        for k in 0i64..30 {
            let vaddr = 0x800 + 0x80 * k as u64;
            text.push_str(&format!(
                "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=34.0\n",
                t = 100 + 900 * k,
                page = vaddr >> 12
            ));
        }
        text.push_str(&format!("END t=50000 node={name} temp=31.0\n"));
        let rec = recover_text(&text);
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    let snap = Snapshot::from_cluster(&ClusterLog::new(logs), stats);
    let path = tmp_path("clean");
    write_db(
        &snap,
        &path,
        &WriteOptions {
            rows_per_block: 8,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();
    (bytes, snap)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("uc-fdb-dmg-{}-{tag}.fdb", std::process::id()))
}

fn write_tmp(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = tmp_path(tag);
    fs::write(&path, bytes).unwrap();
    path
}

/// Full read sweep: open, decode every block, rebuild the snapshot.
fn read_all(path: &Path) -> Result<Snapshot, String> {
    let db = FaultDb::open(path).map_err(|e| e.to_string())?;
    db.snapshot().map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit makes the read path fail with a typed
    /// error; it never silently yields different faults.
    #[test]
    fn any_single_bit_flip_is_detected(seed in 0usize..usize::MAX, bit in 0u8..8) {
        let (clean, _snap) = clean_db();
        let offset = seed % clean.len();
        let mut damaged = clean.clone();
        damaged[offset] ^= 1 << bit;
        let path = write_tmp(&format!("flip-{offset}-{bit}"), &damaged);
        let outcome = read_all(&path);
        let _ = fs::remove_file(&path);
        prop_assert!(
            outcome.is_err(),
            "flip at byte {offset} bit {bit} went undetected"
        );
    }

    /// Truncation at any point either fails typed or (vanishingly
    /// unlikely by construction) reads back the identical snapshot.
    #[test]
    fn truncation_never_yields_wrong_results(cut in 0usize..usize::MAX) {
        let (clean, snap) = clean_db();
        let cut = cut % clean.len(); // strictly shorter than the file
        let path = write_tmp(&format!("cut-{cut}"), &clean[..cut]);
        let outcome = read_all(&path);
        let _ = fs::remove_file(&path);
        match outcome {
            Err(_) => {} // typed refusal: the expected outcome
            Ok(back) => prop_assert_eq!(&back, snap),
        }
    }
}

/// The error is *typed*, not a panic or a bare string: damage in a block
/// payload names the block and the damage kind.
#[test]
fn block_damage_error_names_the_block() {
    use unprotected_computing::faultdb::DbError;
    let (clean, _snap) = clean_db();
    // Flip a byte early in the first block's payload (right after magic).
    let mut damaged = clean.clone();
    damaged[8] ^= 0x40;
    let path = write_tmp("typed", &damaged);
    let db = FaultDb::open(&path).expect("footer is intact, open succeeds");
    match db.faults_all() {
        Err(DbError::BlockCorrupt { index: 0, .. }) => {}
        other => panic!("expected BlockCorrupt for block 0, got {other:?}"),
    }
    let _ = fs::remove_file(&path);
}

/// Appending trailing garbage after the trailer must also fail: the
/// trailer is located from the end of the file.
#[test]
fn appended_garbage_is_detected() {
    let (clean, _snap) = clean_db();
    let mut damaged = clean.clone();
    damaged.extend_from_slice(b"tail of junk");
    let path = write_tmp("append", &damaged);
    assert!(read_all(&path).is_err());
    let _ = fs::remove_file(&path);
}
