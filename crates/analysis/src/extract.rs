//! The error-extraction methodology (paper Section II-C).
//!
//! "In many cases, a fault in a memory cell manifests as many consecutive
//! error logs over time, but they are all related to the same original root
//! cause... Even if such a fault produced many incorrect values for
//! thousands of consecutive iterations, we count this as one single memory
//! error."
//!
//! The rule implemented here: within one node, error logs that repeat the
//! *same corruption* (same address, same flipped bits) with gaps no larger
//! than `merge_window` are one fault. A compressed [`LogEntry::ErrorRun`]
//! is by construction a maximal consecutive repetition, so it collapses to
//! one fault directly — which is what makes extraction O(entries) even for
//! the 24M-log flood node. Re-occurrences after a longer gap (the weak-bit
//! intermittents, separated by many clean passes) count as new independent
//! faults, matching the paper's thousands of identical-but-independent
//! weak-bit errors.

use std::collections::{BinaryHeap, HashMap};

use uc_faultlog::record::ErrorRecord;
use uc_faultlog::store::{LogEntry, NodeLog};
use uc_simclock::{SimDuration, SimTime};

use crate::fault::Fault;

/// The canonical, fully discriminating sort key for fault streams. Every
/// field participates so that two distinct faults can never compare equal:
/// sorting or merging by this key is total, which is what makes extraction
/// output independent of `HashMap` iteration order and thread count (the
/// DESIGN.md §6 contract).
pub fn fault_sort_key(f: &Fault) -> (SimTime, u32, u64, u32, u32, u64) {
    (f.time, f.node.0, f.vaddr, f.expected, f.actual, f.raw_logs)
}

/// Extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExtractConfig {
    /// Maximum gap between identical error logs that still counts as the
    /// same fault: two scan passes (~20 s each at 3 GB) plus margin. The
    /// paper merges *consecutive iterations* only — a wider window would
    /// swallow genuinely independent re-occurrences of a weak bit.
    pub merge_window: SimDuration,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            merge_window: SimDuration::from_secs(45),
        }
    }
}

/// Per-cell accumulation state.
#[derive(Clone, Debug)]
struct OpenFault {
    fault: Fault,
    last_seen: SimTime,
}

/// One node's extraction state: the faults still open (keyed by address
/// and flipped bits) and the ones a later recurrence has closed. Feed it
/// the node's entries in log order; the faults so far are readable at
/// any point, so a live stream folds each entry in once instead of
/// re-extracting the whole log.
#[derive(Clone, Debug)]
pub struct FaultFold {
    merge_window: SimDuration,
    open: HashMap<(u64, u32), OpenFault>,
    closed: Vec<Fault>,
}

impl FaultFold {
    pub fn new(cfg: &ExtractConfig) -> FaultFold {
        FaultFold {
            merge_window: cfg.merge_window,
            open: HashMap::new(),
            closed: Vec::new(),
        }
    }

    /// Fold in the node's next entry.
    pub fn push(&mut self, entry: &LogEntry) {
        match entry {
            LogEntry::One(rec) => {
                if let Some(err) = rec.as_error() {
                    self.absorb(err, 1, err.time);
                }
            }
            LogEntry::ErrorRun {
                first,
                count,
                period: _,
            } => {
                // A run is maximal consecutive repetition: one fault.
                self.absorb(first, *count, entry.last_time());
            }
        }
    }

    fn absorb(&mut self, rec: &ErrorRecord, count: u64, last_time: SimTime) {
        let key = (rec.vaddr, rec.expected ^ rec.actual);
        // Only a forward-in-time recurrence can extend an open fault. A
        // record timestamped *before* the open fault's last sighting is an
        // out-of-order log line (recovering ingest keeps those, and
        // `NodeLog::from_text_compact` never re-sorts): raw subtraction would hand
        // back a negative "gap" that always passes the window check,
        // silently merging unrelated faults — and overflows on adversarial
        // timestamps. `checked_elapsed_since` refuses both, so the
        // recurrence opens a new fault instead.
        let recurrence_gap = |of: &OpenFault| rec.time.checked_elapsed_since(of.last_seen);
        match self.open.get_mut(&key) {
            Some(of) if recurrence_gap(of).is_some_and(|gap| gap <= self.merge_window) => {
                of.fault.raw_logs += count;
                of.last_seen = last_time;
            }
            existing => {
                if existing.is_some() {
                    let of = self.open.remove(&key).expect("present");
                    self.closed.push(of.fault);
                }
                self.open.insert(
                    key,
                    OpenFault {
                        fault: Fault {
                            node: rec.node,
                            time: rec.time,
                            vaddr: rec.vaddr,
                            expected: rec.expected,
                            actual: rec.actual,
                            temp: rec.temp.map(|t| t.0),
                            raw_logs: count,
                        },
                        last_seen: last_time,
                    },
                );
            }
        }
    }

    /// The faults of the entries folded so far, as [`FaultFold::into_faults`]
    /// would return them, leaving the fold open for more entries.
    pub fn faults(&self) -> Vec<Fault> {
        let mut all = Vec::with_capacity(self.closed.len() + self.open.len());
        all.extend_from_slice(&self.closed);
        sorted_with_open(all, self.open.values().map(|of| of.fault))
    }

    /// The node's faults, sorted by [`fault_sort_key`].
    pub fn into_faults(self) -> Vec<Fault> {
        sorted_with_open(self.closed, self.open.into_values().map(|of| of.fault))
    }
}

/// Closed faults (in closing order) followed by the open ones, sorted by
/// the fully discriminating key: the open-fault map iterates in hash
/// order, so ties on (time, vaddr) must still sort deterministically. Two
/// open faults never tie on the key (their address or bits differ), and
/// the stable sort keeps a closed fault ahead of an open one it ties.
fn sorted_with_open(mut faults: Vec<Fault>, open: impl Iterator<Item = Fault>) -> Vec<Fault> {
    faults.extend(open);
    faults.sort_by_key(fault_sort_key);
    faults
}

/// Extract independent faults from one node's log. Faults are returned in
/// order of first detection.
pub fn extract_node_faults(log: &NodeLog, cfg: &ExtractConfig) -> Vec<Fault> {
    let mut fold = FaultFold::new(cfg);
    for entry in log.entries() {
        fold.push(entry);
    }
    fold.into_faults()
}

/// Merge per-node fault streams, each already sorted by [`fault_sort_key`]
/// (the [`extract_node_faults`] postcondition), into one stream sorted by
/// the same key — the k-way merge discipline the cluster log's record
/// stream already uses, instead of concat-then-sort. Ties across streams
/// break by stream index, so the merge is total and deterministic.
///
/// Public because it is the merge template for every fan-out in the
/// system: per-node extraction here, and shard fan-out in faultdb's root
/// catalog engine, which merges per-shard row streams with exactly this
/// discipline to stay byte-identical to the single-file scan.
pub fn merge_sorted_fault_streams(streams: Vec<Vec<Fault>>) -> Vec<Fault> {
    struct Head {
        key: (SimTime, u32, u64, u32, u32, u64),
        stream: usize,
    }
    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for Head {}
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert for smallest-key-first.
            (&other.key, other.stream).cmp(&(&self.key, self.stream))
        }
    }

    let total = streams.iter().map(Vec::len).sum();
    let mut cursors: Vec<std::vec::IntoIter<Fault>> =
        streams.into_iter().map(Vec::into_iter).collect();
    let mut heap = BinaryHeap::with_capacity(cursors.len());
    let mut peeked: Vec<Option<Fault>> = Vec::with_capacity(cursors.len());
    for (i, cur) in cursors.iter_mut().enumerate() {
        let head = cur.next();
        if let Some(f) = &head {
            heap.push(Head {
                key: fault_sort_key(f),
                stream: i,
            });
        }
        peeked.push(head);
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Head { stream, .. }) = heap.pop() {
        let fault = peeked[stream].take().expect("heap entry has a peeked head");
        out.push(fault);
        if let Some(next) = cursors[stream].next() {
            heap.push(Head {
                key: fault_sort_key(&next),
                stream,
            });
            peeked[stream] = Some(next);
        }
    }
    out
}

/// Extract faults for a whole cluster log: per-node extraction fans out
/// over `parallel::par_map` (order-preserving), and the per-node streams
/// are combined by a k-way merge on [`fault_sort_key`]. Output is sorted
/// by that key and byte-identical regardless of thread count.
pub fn extract_cluster_faults(
    cluster: &uc_faultlog::store::ClusterLog,
    cfg: &ExtractConfig,
) -> Vec<Fault> {
    let per_node =
        uc_parallel::par_map(cluster.node_logs(), |_, log| extract_node_faults(log, cfg));
    merge_sorted_fault_streams(per_node)
}

/// Extraction over a recovered (lossy) ingest: the paper's flood filter
/// plus per-node extraction, with the ingest accounting carried along so
/// downstream consumers can qualify the fault counts ("out of N lines, M
/// were dropped") instead of silently presenting a damaged corpus as
/// complete.
#[derive(Clone, Debug)]
pub struct RecoveredExtract {
    /// Independent faults, sorted by the fully discriminating
    /// [`fault_sort_key`].
    pub faults: Vec<Fault>,
    /// Nodes excluded by the flood filter.
    pub flood_nodes: Vec<uc_cluster::NodeId>,
    /// The ingest accounting the faults were derived under.
    pub stats: uc_faultlog::ingest::IngestStats,
}

/// The paper's flood rule: a node whose raw error logs exceed
/// `flood_share` of the cluster's total is a flood node, excluded from
/// extraction as the paper removed its single faulty node.
pub fn is_flood_node(node_errors: u64, cluster_errors: u64, flood_share: f64) -> bool {
    node_errors as f64 / cluster_errors.max(1) as f64 > flood_share
}

/// Run the extraction methodology over a recovering ingest's output. A
/// node whose raw error logs exceed `flood_share` of the cluster total is
/// excluded ([`is_flood_node`]), mirroring the paper's removal of its
/// single faulty node.
/// Per-node extraction runs in parallel; the output is combined by the
/// k-way merge on [`fault_sort_key`], so two same-instant faults at one
/// address with different corruption patterns order deterministically (the
/// old `(time, node, vaddr)` key left that tie to `HashMap` iteration
/// order, violating the §6 contract).
pub fn extract_recovered(
    cluster: &uc_faultlog::store::ClusterLog,
    stats: uc_faultlog::ingest::IngestStats,
    cfg: &ExtractConfig,
    flood_share: f64,
) -> RecoveredExtract {
    let total_raw = cluster.raw_error_count();
    let mut flood_nodes = Vec::new();
    let mut kept: Vec<&NodeLog> = Vec::new();
    for log in cluster.node_logs() {
        if is_flood_node(log.raw_error_count(), total_raw, flood_share) {
            flood_nodes.extend(log.node);
        } else {
            kept.push(log);
        }
    }
    let per_node = uc_parallel::par_map(&kept, |_, log| extract_node_faults(log, cfg));
    RecoveredExtract {
        faults: merge_sorted_fault_streams(per_node),
        flood_nodes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_cluster::NodeId;
    use uc_faultlog::record::{ErrorRecord, LogRecord, TempC};

    fn err(t: i64, vaddr: u64, expected: u32, actual: u32) -> ErrorRecord {
        ErrorRecord {
            time: SimTime::from_secs(t),
            node: NodeId(1),
            vaddr,
            phys_page: vaddr >> 12,
            expected,
            actual,
            temp: Some(TempC(33.0)),
        }
    }

    fn log_of(records: Vec<ErrorRecord>) -> NodeLog {
        let mut log = NodeLog::new(NodeId(1));
        for r in records {
            log.push(LogRecord::Error(r));
        }
        log
    }

    #[test]
    fn consecutive_identical_logs_collapse() {
        // Same cell erroring every 40 s for 5 logs: one fault.
        let recs = (0..5)
            .map(|k| err(1_000 + k * 40, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE))
            .collect();
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].raw_logs, 5);
        assert_eq!(faults[0].time.as_secs(), 1_000);
    }

    #[test]
    fn gap_beyond_window_splits_faults() {
        // Weak-bit style: same cell, same bits, but 30 minutes apart.
        let recs = vec![
            err(0, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(1_800, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(3_600, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
        ];
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults.len(), 3, "intermittent occurrences are independent");
    }

    #[test]
    fn different_addresses_are_different_faults() {
        let recs = vec![
            err(0, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(10, 0x200, 0xFFFF_FFFF, 0xFFFF_FFFE),
        ];
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn different_patterns_at_same_address_are_different_faults() {
        let recs = vec![
            err(0, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(10, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFD),
        ];
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn alternating_pattern_same_xor_merges() {
        // The same stuck-low bit seen against both scan phases produces
        // different (expected, actual) pairs but... different XOR? No: the
        // stuck-low bit only mismatches on the all-ones phase, so the pair
        // is identical each time. Here we check that identical XOR at the
        // same address merges even when raw logs interleave other cells.
        let recs = vec![
            err(0, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(5, 0x900, 0x0000_0000, 0x0000_0400),
            err(40, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
        ];
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults.len(), 2);
        let f100 = faults.iter().find(|f| f.vaddr == 0x100).unwrap();
        assert_eq!(f100.raw_logs, 2);
    }

    #[test]
    fn error_runs_collapse_to_one_fault() {
        let mut log = NodeLog::new(NodeId(1));
        log.push_run(
            err(100, 0x300, 0xFFFF_FFFF, 0xFFFF_F7FF),
            1_000_000,
            SimDuration::from_secs(40),
        );
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].raw_logs, 1_000_000);
    }

    #[test]
    fn run_followed_by_adjacent_logs_merges() {
        let mut log = NodeLog::new(NodeId(1));
        log.push_run(
            err(100, 0x300, 0xFFFF_FFFF, 0xFFFF_F7FF),
            10,
            SimDuration::from_secs(40),
        );
        // Last run record at t = 100 + 9*40 = 460; this log at 480 merges.
        log.push(LogRecord::Error(err(480, 0x300, 0xFFFF_FFFF, 0xFFFF_F7FF)));
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].raw_logs, 11);
    }

    #[test]
    fn count_conservation() {
        // Total raw_logs across faults == raw error logs in the store.
        let mut log = NodeLog::new(NodeId(1));
        log.push(LogRecord::Error(err(0, 0x1, 0xFFFF_FFFF, 0xFFFF_FFFE)));
        log.push_run(err(50, 0x2, 0x0, 0x10), 500, SimDuration::from_secs(40));
        log.push(LogRecord::Error(err(60, 0x3, 0x0, 0x1)));
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        let total: u64 = faults.iter().map(|f| f.raw_logs).sum();
        assert_eq!(total, log.raw_error_count());
    }

    #[test]
    fn faults_sorted_by_first_detection() {
        let recs = vec![
            err(100, 0x300, 0x0, 0x1),
            err(150, 0x100, 0x0, 0x2),
            err(200, 0x200, 0x0, 0x4),
        ];
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        let times: Vec<i64> = faults.iter().map(|f| f.time.as_secs()).collect();
        assert_eq!(times, vec![100, 150, 200]);
    }

    #[test]
    fn non_error_records_ignored() {
        use uc_faultlog::record::{EndRecord, StartRecord};
        let mut log = NodeLog::new(NodeId(1));
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node: NodeId(1),
            alloc_bytes: 3 << 30,
            temp: None,
        }));
        log.push(LogRecord::Error(err(10, 0x1, 0x0, 0x1)));
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(100),
            node: NodeId(1),
            temp: None,
        }));
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        assert_eq!(faults.len(), 1);
    }

    #[test]
    fn recovered_extract_applies_flood_filter_and_carries_stats() {
        use uc_faultlog::ingest::IngestStats;
        use uc_faultlog::store::ClusterLog;
        let quiet = log_of(vec![err(0, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE)]);
        let mut flood = NodeLog::new(NodeId(2));
        let mut flood_rec = err(0, 0x300, 0xFFFF_FFFF, 0xFFFF_F7FF);
        flood_rec.node = NodeId(2);
        flood.push_run(flood_rec, 1_000_000, SimDuration::from_secs(40));
        let cluster = ClusterLog::new(vec![quiet, flood]);
        let stats = IngestStats {
            lines_read: 10,
            records_kept: 9,
            bad_kind: 1,
            ..IngestStats::default()
        };
        let out = extract_recovered(&cluster, stats, &ExtractConfig::default(), 0.5);
        assert_eq!(out.flood_nodes, vec![NodeId(2)]);
        assert_eq!(out.faults.len(), 1, "flood node excluded from faults");
        assert_eq!(out.stats, stats);
        let all = extract_recovered(&cluster, stats, &ExtractConfig::default(), 1.1);
        assert_eq!(
            all.faults.len(),
            2,
            "flood_share above 1 disables the filter"
        );
    }

    #[test]
    fn out_of_order_recurrence_is_a_new_fault() {
        // `NodeLog::from_text_compact` keeps file order, so a reordered log reaches
        // extraction with a recurrence timestamped *before* the open
        // fault's last sighting. The raw `rec.time - of.last_seen` gap was
        // negative (always within the window), silently merging the two;
        // now the reordered recurrence opens its own fault.
        let text = "ERROR t=1000 node=01-01 vaddr=0x00000100 page=0x000001 \
                    expected=0xffffffff actual=0xfffffffe temp=NA\n\
                    ERROR t=10 node=01-01 vaddr=0x00000100 page=0x000001 \
                    expected=0xffffffff actual=0xfffffffe temp=NA\n";
        let (log, errors) = NodeLog::from_text_compact(text);
        assert!(errors.is_empty());
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        assert_eq!(faults.len(), 2, "reordered recurrence must not merge");
        assert!(faults.iter().all(|f| f.raw_logs == 1));
        assert_eq!(faults[0].time.as_secs(), 10, "sorted output");
    }

    #[test]
    fn out_of_order_extreme_timestamps_do_not_panic() {
        // Adversarial timestamps (a damaged log can claim any i64 the
        // parser accepts) must not overflow the gap computation even in
        // debug builds.
        let recs = vec![
            err(i64::MAX - 1, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
            err(i64::MIN + 1, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFE),
        ];
        let log = NodeLog::from_entries(
            Some(NodeId(1)),
            recs.into_iter()
                .map(|r| LogEntry::One(LogRecord::Error(r)))
                .collect(),
        );
        let faults = extract_node_faults(&log, &ExtractConfig::default());
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn same_instant_different_patterns_order_deterministically() {
        // Two faults at one (time, vaddr) with different corruption
        // patterns tie under the old `(time, node, vaddr)` key; their
        // relative order then depended on `HashMap` iteration order. Every
        // run must produce the identical stream.
        use uc_faultlog::store::ClusterLog;
        let cluster = || {
            let recs: Vec<ErrorRecord> = (0..16)
                .map(|k| err(500, 0x100, 0xFFFF_FFFF, 0xFFFF_FFFF ^ (1 << k)))
                .collect();
            ClusterLog::new(vec![log_of(recs)])
        };
        let baseline = extract_recovered(
            &cluster(),
            Default::default(),
            &ExtractConfig::default(),
            1.1,
        );
        assert_eq!(baseline.faults.len(), 16);
        for round in 0..20 {
            // Fresh HashMaps each round churn RandomState.
            let again = extract_recovered(
                &cluster(),
                Default::default(),
                &ExtractConfig::default(),
                1.1,
            );
            assert_eq!(baseline.faults, again.faults, "round {round}");
        }
        let mut sorted = baseline.faults.clone();
        sorted.sort_by_key(fault_sort_key);
        assert_eq!(baseline.faults, sorted, "output sorted by the full key");
    }

    #[test]
    fn cluster_extraction_merges_by_time_across_nodes() {
        let mut a = NodeLog::new(NodeId(1));
        a.push(LogRecord::Error(err(100, 0x100, 0x0, 0x1)));
        a.push(LogRecord::Error(err(300, 0x200, 0x0, 0x1)));
        let mut b = NodeLog::new(NodeId(2));
        let mut rec = err(200, 0x300, 0x0, 0x1);
        rec.node = NodeId(2);
        b.push(LogRecord::Error(rec));
        let cluster = uc_faultlog::store::ClusterLog::new(vec![a, b]);
        let faults = extract_cluster_faults(&cluster, &ExtractConfig::default());
        let times: Vec<i64> = faults.iter().map(|f| f.time.as_secs()).collect();
        assert_eq!(times, vec![100, 200, 300], "k-way merged, not node-major");
    }

    #[test]
    fn extraction_identical_across_thread_counts() {
        use uc_faultlog::store::ClusterLog;
        let cluster = {
            let mut logs = Vec::new();
            for n in 1..=9u32 {
                let entries = (0..50i64)
                    .map(|k| {
                        let mut r = err(k * 37 % 900, 0x100 + (k as u64 % 7) * 8, 0x0, 0x1);
                        r.node = NodeId(n);
                        LogEntry::One(LogRecord::Error(r))
                    })
                    .collect();
                logs.push(NodeLog::from_entries(Some(NodeId(n)), entries));
            }
            ClusterLog::new(logs)
        };
        let cfg = ExtractConfig::default();
        let one = uc_parallel::with_thread_limit(1, || extract_cluster_faults(&cluster, &cfg));
        for threads in [2, 4, 8] {
            let n =
                uc_parallel::with_thread_limit(threads, || extract_cluster_faults(&cluster, &cfg));
            assert_eq!(one, n, "{threads} threads");
        }
    }

    #[test]
    fn temperature_of_first_log_kept() {
        let mut recs = vec![err(0, 0x1, 0x0, 0x1)];
        recs[0].temp = Some(TempC(41.5));
        let faults = extract_node_faults(&log_of(recs), &ExtractConfig::default());
        assert_eq!(faults[0].temp, Some(41.5));
    }
}
