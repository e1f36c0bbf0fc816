//! Differential proof of the direct campaign→db streaming path.
//!
//! The contract (DESIGN.md §10): for any config, `campaign_to_db`
//! (simulate → in-memory recovery → fold → seal) produces a database
//! **byte-identical** to the text oracle (simulate → write plain text
//! logs → `build_db`), at every thread count, and under degraded
//! rosters where nodes fail. These tests sweep seeds × thread counts ×
//! rosters and compare the sealed files byte for byte.

use std::path::{Path, PathBuf};

use unprotected_computing::cluster::NodeId;
use unprotected_computing::core::{run_campaign_checkpointed, CampaignConfig};
use unprotected_computing::direct::campaign_to_db;
use unprotected_computing::faultdb::{build_db, WriteOptions};
use unprotected_computing::faultlog::files::write_cluster_log;
use unprotected_computing::faultlog::store::LogEntry;
use unprotected_computing::parallel::with_thread_limit;
use unprotected_computing::simclock::SimDuration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-direct-path-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The text oracle: run the campaign the classic way, write the plain
/// text corpus, build the db from it. Returns the sealed file's bytes.
fn oracle_bytes(cfg: &CampaignConfig, base: &Path) -> Vec<u8> {
    let logs = base.join("logs");
    std::fs::create_dir_all(&logs).unwrap();
    let result = run_campaign_checkpointed(cfg, &base.join("oracle-ckpt"));
    write_cluster_log(&logs, &result.cluster_log()).unwrap();
    let db = base.join("oracle.ucfdb");
    build_db(&logs, &db, &WriteOptions::default()).unwrap();
    std::fs::read(&db).unwrap()
}

/// The direct path at a given thread count. Returns the sealed bytes.
fn direct_bytes(cfg: &CampaignConfig, base: &Path, threads: usize, tag: &str) -> Vec<u8> {
    let db = base.join(format!("direct-{tag}.ucfdb"));
    let output = with_thread_limit(threads, || {
        campaign_to_db(
            cfg,
            &base.join(format!("direct-ckpt-{tag}")),
            &db,
            &WriteOptions::default(),
        )
    })
    .unwrap();
    assert!(output.summary.rows > 0, "campaign produced no faults");
    std::fs::read(&db).unwrap()
}

fn tiny_config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::small(seed, 6);
    // Two weeks instead of thirteen months: the byte-identity contract
    // does not depend on window length, and this suite runs a dozen
    // campaigns in an unoptimized tier-1 build.
    cfg.sched.end = cfg.sched.start + SimDuration::from_days(14);
    cfg
}

#[test]
fn direct_path_is_byte_identical_across_seeds_and_thread_counts() {
    for seed in [42_u64, 7] {
        let base = scratch(&format!("seed{seed}"));
        let cfg = tiny_config(seed);
        let oracle = oracle_bytes(&cfg, &base);
        for threads in [1_usize, 2, 8] {
            let direct = direct_bytes(&cfg, &base, threads, &format!("t{threads}"));
            assert_eq!(
                oracle, direct,
                "seed {seed}: direct path diverged from text oracle at {threads} thread(s)"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// The 14-day windows above hold no scan-error run and no flood node, so
/// they never reach the compact path: runs kept whole through recovery,
/// expanded only on the nodes that survive the flood filter. Thirty days
/// is the shortest window that grows a flood node (seed 42: about 1M raw
/// records, nearly all in runs on that one node).
#[test]
fn flood_window_campaign_is_byte_identical_across_thread_counts() {
    let base = scratch("flood");
    let mut cfg = CampaignConfig::small(42, 6);
    cfg.sched.end = cfg.sched.start + SimDuration::from_days(30);

    // The shape this case exists for: every run sits on the one node the
    // flood filter excludes.
    let result = run_campaign_checkpointed(&cfg, &base.join("shape-ckpt"));
    let flood = result.flood_nodes(0.5);
    assert_eq!(flood.len(), 1, "the window grows exactly one flood node");
    let mut runs = 0;
    for sim in result.completed() {
        let node_runs = sim
            .log
            .entries()
            .iter()
            .filter(|e| matches!(e, LogEntry::ErrorRun { .. }))
            .count();
        assert!(
            node_runs == 0 || sim.node == flood[0],
            "runs on kept node {}",
            sim.node
        );
        runs += node_runs;
    }
    assert!(runs > 1_000, "{runs} runs");
    assert!(result.raw_error_logs() > 500_000);
    drop(result);

    let oracle = oracle_bytes(&cfg, &base);
    for threads in [1_usize, 2, 8] {
        let direct = direct_bytes(&cfg, &base, threads, &format!("t{threads}"));
        assert_eq!(
            oracle, direct,
            "flood window diverged from the text oracle at {threads} thread(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn degraded_campaign_seals_the_same_db_as_a_degraded_text_run() {
    let base = scratch("degraded");
    let mut cfg = tiny_config(11);
    // A permanently failing node: one attempt, guaranteed panic. The
    // direct stream must drop exactly what the text path drops — the
    // failed node contributes no log file and no channel emission.
    cfg.node_attempts = 1;
    cfg.panic_nodes.push(NodeId::from_name("03-03").unwrap());

    let oracle = oracle_bytes(&cfg, &base);
    for threads in [1_usize, 2, 8] {
        let direct = direct_bytes(&cfg, &base, threads, &format!("t{threads}"));
        assert_eq!(
            oracle, direct,
            "degraded roster diverged at {threads} thread(s)"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
