//! The crash matrix (DESIGN.md §7.2): simulate a crash at EVERY flush
//! boundary of the durable checkpoint store — torn mid-frame or cut
//! clean at the boundary, sealed or still a `.tmp` — then run fsck and
//! resume. The resumed campaign must reproduce the uninterrupted run's
//! report byte-for-byte, and fsck's accounting must conserve every byte.
//!
//! `UC_CHAOS_SEED` (default 1) varies the campaign seed so a CI matrix
//! exercises different corpora with the same invariants.

mod common;

use std::fs;
use std::path::PathBuf;

use common::chaos_seed;
use uc_faultlog::durable::{
    fsck_dir, scan_segment_bytes, write_cluster_log_durable, FRAME_HEADER_LEN, MAGIC,
};
use uc_faultlog::ingest::read_cluster_log_recovering;
use uc_faultlog::store::ClusterLog;
use unprotected_core::checkpoint::run_campaign_checkpointed;
use unprotected_core::{render, run_campaign, CampaignConfig, Report};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uc-crash-matrix-{tag}-{}-{}",
        chaos_seed(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The byte offsets at which the durable writer flushed `bytes`: after
/// every `stride = ceil(n/4)` frames, plus the sealed end of file. This
/// mirrors the writer's contract; the matrix crashes at each of them.
fn flush_boundaries(bytes: &[u8]) -> Vec<u64> {
    let scan = scan_segment_bytes(bytes);
    assert!(scan.damage.is_none(), "matrix input must be pristine");
    let n = scan.payloads.len();
    let stride = n.div_ceil(4).max(1);
    let mut boundaries = Vec::new();
    let mut pos = MAGIC.len() as u64;
    for (i, p) in scan.payloads.iter().enumerate() {
        pos += (FRAME_HEADER_LEN + p.len()) as u64;
        if (i + 1) % stride == 0 {
            boundaries.push(pos);
        }
    }
    if boundaries.last() != Some(&(bytes.len() as u64)) {
        boundaries.push(bytes.len() as u64);
    }
    boundaries
}

/// Crash at every checkpoint flush boundary, fsck, resume: the report is
/// byte-identical to an uninterrupted run's, at every crash point.
#[test]
fn crash_at_every_flush_boundary_resumes_byte_identical() {
    let cfg = CampaignConfig::small(40 + chaos_seed(), 6);
    let reference = render::full_report(&Report::build(&run_campaign(&cfg)));

    // One clean checkpointed run provides the pristine snapshot the
    // matrix re-damages per iteration.
    let dir = tempdir("ckpt");
    let first = run_campaign_checkpointed(&cfg, &dir);
    assert_eq!(render::full_report(&Report::build(&first)), reference);
    let mut snapshot: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).unwrap())
        })
        .collect();
    snapshot.sort();
    assert!(
        snapshot.len() > 4,
        "too few checkpoints: {}",
        snapshot.len()
    );

    let max_boundaries = snapshot
        .iter()
        .map(|(_, bytes)| flush_boundaries(bytes).len())
        .max()
        .unwrap();

    for k in 0..max_boundaries {
        // Rebuild the directory as a crash at boundary k would leave it:
        // every file cut at its k-th flush boundary (clamped), odd
        // iterations torn a few bytes into the never-flushed next frame,
        // and any incomplete file still unsealed under its `.tmp` name.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &snapshot {
            let boundaries = flush_boundaries(bytes);
            let cut = boundaries[k.min(boundaries.len() - 1)] as usize;
            let torn = if k % 2 == 1 { 3 } else { 0 };
            let cut = (cut + torn).min(bytes.len());
            if cut == bytes.len() {
                fs::write(dir.join(name), bytes).unwrap();
            } else {
                fs::write(dir.join(format!("{name}.tmp")), &bytes[..cut]).unwrap();
            }
        }

        let report = fsck_dir(&dir).unwrap();
        assert!(
            report.is_conserved(),
            "boundary {k}: fsck accounting broken: {}",
            report.summary()
        );

        let resumed = run_campaign_checkpointed(&cfg, &dir);
        assert!(!resumed.is_degraded(), "boundary {k}: degraded resume");
        assert_eq!(
            render::full_report(&Report::build(&resumed)),
            reference,
            "boundary {k}: resumed report diverged from uninterrupted run"
        );
    }

    fs::remove_dir_all(&dir).unwrap();
}

/// Every flush boundary of every durable log file is a valid crash
/// point: a cut exactly at the boundary scans clean, and a cut torn into
/// the next frame scans back to exactly the flushed prefix.
#[test]
fn every_log_flush_boundary_is_recoverable() {
    let cfg = CampaignConfig::small(40 + chaos_seed(), 6);
    let result = run_campaign(&cfg);
    let flood = result.flood_nodes(0.5);
    let logs: Vec<_> = result
        .completed()
        .filter(|o| !flood.contains(&o.node))
        .map(|o| o.log.clone())
        .take(4)
        .collect();
    assert_eq!(logs.len(), 4);

    let dir = tempdir("dlog");
    let outcome = write_cluster_log_durable(&dir, &ClusterLog::new(logs));
    assert!(outcome.is_fully_durable(), "{:?}", outcome.failures);

    let mut checked = 0usize;
    for sealed in &outcome.sealed {
        let bytes = fs::read(&sealed.path).unwrap();
        assert_eq!(bytes.len() as u64, sealed.bytes);
        for &boundary in &sealed.flush_boundaries {
            // Clean cut at the boundary: a valid, damage-free prefix.
            let clean = scan_segment_bytes(&bytes[..boundary as usize]);
            assert!(
                clean.damage.is_none(),
                "{}: boundary {boundary}",
                sealed.file_name
            );
            assert_eq!(clean.valid_bytes, boundary);

            // Torn cut a few bytes past it: the scan trims back to the
            // flushed prefix and reports the tail as damage.
            let cut = ((boundary as usize) + 3).min(bytes.len());
            if cut > boundary as usize {
                let torn = scan_segment_bytes(&bytes[..cut]);
                assert!(torn.damage.is_some(), "{}: cut {cut}", sealed.file_name);
                assert_eq!(torn.valid_bytes, boundary);
                assert_eq!(torn.torn_bytes(), cut as u64 - boundary);
            }
            checked += 1;
        }
    }
    assert!(checked >= 8, "matrix too small: {checked} boundaries");

    // On-disk spot check: tear every log at its middle boundary, fsck,
    // and ingest — the salvaged corpus is exactly the flushed prefixes.
    let mut expected_lines = 0u64;
    for sealed in &outcome.sealed {
        let bytes = fs::read(&sealed.path).unwrap();
        let mid = sealed.flush_boundaries[sealed.flush_boundaries.len() / 2] as usize;
        let cut = (mid + 3).min(bytes.len());
        expected_lines += scan_segment_bytes(&bytes[..mid]).payloads.len() as u64;
        fs::write(&sealed.path, &bytes[..cut]).unwrap();
    }
    let report = fsck_dir(&dir).unwrap();
    assert!(report.is_conserved(), "{}", report.summary());
    assert!(report.files_salvaged > 0);

    let (cluster, stats) = read_cluster_log_recovering(&dir).unwrap();
    assert!(stats.is_conserved(), "{stats:?}");
    let total: u64 = cluster
        .node_logs()
        .iter()
        .map(|l| l.entries().len() as u64)
        .sum();
    assert_eq!(
        total, expected_lines,
        "salvage kept exactly the flushed prefix"
    );

    fs::remove_dir_all(&dir).unwrap();
}
