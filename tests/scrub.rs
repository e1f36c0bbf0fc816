//! Scrubber end-to-end (DESIGN.md §11): silent corruption planted in a
//! sealed generation — at a position picked by the chaos seed — must be
//! detected by CRC, repaired by resealing from the WAL into the exact
//! original bytes, and accounted for under the same conservation law
//! fsck enforces: every byte is kept or quarantined, never destroyed.
//!
//! Seed the corruption schedule with `UC_CHAOS_SEED` (default 1); CI
//! runs several seeds.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{chaos_seed, fresh_dir, Rng};
use uc_cluster::NodeId;
use uc_faultdb::{fsck_live_dir, gen_file_name, scrub_live_dir, LiveDb, ScrubConfig, ScrubReport};

fn corpus(node: &str, salt: u64, records: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(records + 2);
    lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
    for k in 0..records {
        let vaddr = 0x4000 + 0x200 * (k as u64) + (salt << 24);
        lines.push(format!(
            "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0xfffffffe temp=33.0",
            t = 200 + 4500 * (k as i64),
            page = vaddr >> 12
        ));
    }
    lines.push(format!(
        "END t={t} node={node} temp=31.0",
        t = 4500 * records as i64 + 500
    ));
    lines
}

/// A live directory with three sealed generations of real records.
fn populated_dir(tag: &str) -> (PathBuf, u64) {
    let dir = fresh_dir(tag);
    let (live, _) = LiveDb::open(&dir).unwrap();
    let names = ["04-01", "04-02"];
    let mut seq = [0u64; 2];
    let mut last_gen = 0;
    for round in 0..2 {
        for (i, name) in names.iter().enumerate() {
            let node = NodeId::from_name(name).unwrap();
            for line in corpus(name, (round * 2 + i) as u64, 6) {
                live.ingest(node, seq[i], &line).unwrap();
                seq[i] += 1;
            }
        }
        last_gen = live.seal().unwrap().generation;
    }
    drop(live);
    (dir, last_gen)
}

/// CRC damage planted at a seeded position inside the newest sealed
/// generation is detected, repaired byte-identically from the WAL, and
/// the corrupted original lands in quarantine — conservation holds at
/// every step, and a second pass finds nothing left to do.
#[test]
fn seeded_corruption_is_repaired_byte_identical_and_conserved() {
    let seed = chaos_seed();
    let mut rng = Rng::new(seed);
    let (dir, last_gen) = populated_dir(&format!("repair-{seed}"));
    let gen_path = dir.join(gen_file_name(last_gen));
    let pristine = fs::read(&gen_path).unwrap();

    // Corrupt 1-3 bytes at seeded offsets (skipping nothing: header,
    // blocks, and footer are all fair game — every region is CRC'd).
    let mut corrupted = pristine.clone();
    let flips = 1 + rng.below(3) as usize;
    for _ in 0..flips {
        let pos = rng.below(corrupted.len() as u64) as usize;
        corrupted[pos] ^= 0x01 << rng.below(8);
    }
    if corrupted == pristine {
        // A flip of a flip can cancel out; force at least one real bit.
        corrupted[pristine.len() / 2] ^= 0x40;
    }
    fs::write(&gen_path, &corrupted).unwrap();

    let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
    assert!(report.is_conserved(), "not conserved: {}", report.render());
    assert_eq!(
        (
            report.gens_damaged,
            report.gens_repaired,
            report.gens_unrecoverable
        ),
        (1, 1, 0),
        "unexpected damage accounting: {}",
        report.render()
    );

    // Byte-identical repair: resealing from the WAL reproduces the exact
    // pre-corruption bytes, and the damaged original is preserved in
    // quarantine, not destroyed.
    assert_eq!(
        fs::read(&gen_path).unwrap(),
        pristine,
        "repair did not reproduce the original generation bytes"
    );
    let lost = dir.join(".lost+found");
    let quarantined: Vec<Vec<u8>> = fs::read_dir(&lost)
        .expect("no quarantine directory after a repair")
        .map(|e| fs::read(e.unwrap().path()).unwrap())
        .collect();
    assert!(
        quarantined.iter().any(|bytes| bytes == &corrupted),
        "corrupted original is not preserved in quarantine"
    );

    // fsck agrees the directory is healthy, and scrubbing again is a
    // no-op: same conservation law, zero new work.
    let fsck = fsck_live_dir(&dir).unwrap();
    assert!(fsck.is_conserved(), "fsck after scrub: {}", fsck.render());
    let again: ScrubReport = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
    assert!(again.is_conserved());
    assert_eq!(
        (
            again.gens_damaged,
            again.gens_repaired,
            again.gens_unrecoverable
        ),
        (0, 0, 0),
        "second scrub pass still found work: {}",
        again.render()
    );
    assert!(!again.found_damage(), "{}", again.render());

    // The repaired directory reopens and serves.
    let (revived, open) = LiveDb::open(&dir).unwrap();
    assert!(open.served_existing, "repair forced a reseal on reopen");
    drop(revived);
    let _ = fs::remove_dir_all(&dir);
}

/// Dry-run mode reports the same damage but changes nothing: the
/// corrupted bytes stay in place, and conservation still balances
/// (damaged bytes are counted as kept, because they were).
#[test]
fn dry_run_detects_without_mutating() {
    let seed = chaos_seed();
    let (dir, last_gen) = populated_dir(&format!("dry-{seed}"));
    let gen_path = dir.join(gen_file_name(last_gen));
    let pristine = fs::read(&gen_path).unwrap();
    let mut corrupted = pristine.clone();
    corrupted[pristine.len() / 3] ^= 0x10;
    fs::write(&gen_path, &corrupted).unwrap();

    let cfg = ScrubConfig {
        repair: false,
        ..ScrubConfig::default()
    };
    let report = scrub_live_dir(&dir, &cfg).unwrap();
    assert!(report.is_conserved(), "{}", report.render());
    assert_eq!(report.gens_damaged, 1, "{}", report.render());
    assert_eq!(report.gens_repaired, 0, "dry run repaired something");
    assert_eq!(
        fs::read(&gen_path).unwrap(),
        corrupted,
        "dry run mutated the damaged generation"
    );
    assert!(
        !dir.join(".lost+found").exists(),
        "dry run quarantined something"
    );
    let _ = fs::remove_dir_all(&dir);
}
