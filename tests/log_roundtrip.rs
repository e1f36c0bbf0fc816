//! End-to-end persistence round trip: a campaign's logs written to disk in
//! the paper's one-file-per-node text layout, read back through the
//! reader `uc analyze` and `uc build-db` run
//! (`read_cluster_log_recovering`), and re-extracted must yield
//! byte-identical fault sets. This is the guarantee that the text format
//! is a faithful serialization of the study — and that an
//! `uc analyze <dir>` of an `uc campaign --out <dir>` reproduces the
//! in-memory report.

use std::fs;
use std::path::PathBuf;

use uc_analysis::extract::{extract_node_faults, ExtractConfig};
use uc_faultlog::files::write_cluster_log;
use uc_faultlog::ingest::read_cluster_log_recovering;
use uc_faultlog::store::ClusterLog;
use unprotected_core::{run_campaign, CampaignConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-roundtrip-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_logs_roundtrip_through_text_files() {
    let cfg = CampaignConfig::small(11, 6);
    let result = run_campaign(&cfg);

    // Keep the test I/O bounded: persist every node except the flood node
    // (whose run-length-compressed store expands to tens of millions of
    // text lines — exercised separately by the `uc` CLI at full scale).
    let flood = result.flood_nodes(0.5);
    let logs: Vec<_> = result
        .completed()
        .filter(|o| !flood.contains(&o.node))
        .map(|o| o.log.clone())
        .collect();
    let node_count = logs.len();
    let cluster = ClusterLog::new(logs);

    let dir = tempdir("campaign");
    let written = write_cluster_log(&dir, &cluster).unwrap();
    assert_eq!(written, node_count);

    let (loaded, stats) = read_cluster_log_recovering(&dir).unwrap();
    assert_eq!(stats.dropped(), 0, "{}", stats.summary());
    assert_eq!(stats.files_read, node_count as u64);
    assert_eq!(stats.records_kept, cluster.raw_record_count());
    assert_eq!(loaded.node_logs().len(), node_count);
    assert_eq!(loaded.raw_record_count(), cluster.raw_record_count());
    assert_eq!(loaded.raw_error_count(), cluster.raw_error_count());

    // Re-extraction over the parsed logs matches the campaign's faults.
    let ecfg = ExtractConfig::default();
    let mut reparsed: Vec<_> = loaded
        .node_logs()
        .iter()
        .flat_map(|log| extract_node_faults(log, &ecfg))
        .collect();
    reparsed.sort_by_key(|f| (f.time, f.node.0, f.vaddr, f.expected, f.actual));
    let original = result.characterized_faults();

    assert_eq!(reparsed.len(), original.len());
    for (a, b) in reparsed.iter().zip(&original) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.time, b.time);
        assert_eq!(a.vaddr, b.vaddr);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.actual, b.actual);
        assert_eq!(a.raw_logs, b.raw_logs);
        // Temperatures survive the one-decimal text format within 0.05 C.
        match (a.temp, b.temp) {
            (Some(x), Some(y)) => assert!((x - y).abs() < 0.051, "{x} vs {y}"),
            (x, y) => assert_eq!(x.is_some(), y.is_some()),
        }
    }

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merged_stream_equivalent_after_roundtrip() {
    let cfg = CampaignConfig::small(13, 6);
    let result = run_campaign(&cfg);
    // A couple of interesting nodes only (hot + weak bit) to keep it quick.
    let keep = ["02-04", "04-05"];
    let logs: Vec<_> = result
        .completed()
        .filter(|o| keep.contains(&o.node.to_string().as_str()))
        .map(|o| o.log.clone())
        .collect();
    assert_eq!(logs.len(), 2);
    let cluster = ClusterLog::new(logs);

    let dir = tempdir("merged");
    write_cluster_log(&dir, &cluster).unwrap();
    let (loaded, stats) = read_cluster_log_recovering(&dir).unwrap();
    assert_eq!(stats.dropped(), 0, "{}", stats.summary());

    let orig: Vec<String> = cluster
        .merged()
        .map(|r| uc_faultlog::codec::format_record(&r))
        .collect();
    let back: Vec<String> = loaded
        .merged()
        .map(|r| uc_faultlog::codec::format_record(&r))
        .collect();
    assert_eq!(orig.len(), back.len());
    assert_eq!(orig, back, "merged text streams identical");

    fs::remove_dir_all(&dir).unwrap();
}
