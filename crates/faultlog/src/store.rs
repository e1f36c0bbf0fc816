//! Per-node log stores and the cluster-wide merged stream.
//!
//! The full-scale campaign produces ~25M raw ERROR entries, 98% of them from
//! a single flood node that re-detects the same stuck cells on every scan
//! iteration. Storing those as individual records would cost gigabytes, so
//! [`NodeLog`] holds [`LogEntry`] values where a run of periodic identical
//! errors is one compact [`LogEntry::ErrorRun`]; iteration expands runs
//! lazily and all counting is O(entries), not O(records). The direct
//! campaign→db path keeps that promise from recovery to seal: runs stay
//! compact through `ingest::recover_log`, and only the nodes that survive
//! the flood filter are expanded ([`NodeLog::into_expanded`]).

use std::collections::BinaryHeap;

use uc_cluster::NodeId;
use uc_simclock::{SimDuration, SimTime};

use crate::record::{ErrorRecord, LogRecord};

/// The largest `count` a run may carry; the parser rejects larger ones
/// and [`NodeLog::push_run`] asserts it. A run is one stuck cell seen on
/// every second scan pass of one session, so the simulator's longest run
/// is one session's scan passes: even a session spanning the paper's whole
/// 13-month campaign at the fastest 1 s pass repeats fewer than 2^25
/// times. The bound leaves a wide margin above that and keeps every sum
/// of counts inside `u64`: overflowing one would take 2^32 maximal runs,
/// far more entries than memory holds.
pub const MAX_RUN_COUNT: u64 = 1 << 32;

/// One stored entry: either a single record or a compressed run of
/// identical-shape periodic errors.
#[derive(Clone, Debug, PartialEq)]
pub enum LogEntry {
    One(LogRecord),
    /// `count` errors identical to `first` except the timestamp, which
    /// advances by `period` per repetition. Models a faulty cell re-detected
    /// on every scan iteration.
    ErrorRun {
        first: ErrorRecord,
        count: u64,
        period: SimDuration,
    },
}

impl LogEntry {
    /// Number of raw records this entry represents.
    pub fn record_count(&self) -> u64 {
        match self {
            LogEntry::One(_) => 1,
            LogEntry::ErrorRun { count, .. } => *count,
        }
    }

    /// Number of raw ERROR records this entry represents.
    pub fn error_count(&self) -> u64 {
        match self {
            LogEntry::One(r) => u64::from(r.is_error()),
            LogEntry::ErrorRun { count, .. } => *count,
        }
    }

    /// Node the entry belongs to.
    pub fn node(&self) -> NodeId {
        match self {
            LogEntry::One(r) => r.node(),
            LogEntry::ErrorRun { first, .. } => first.node,
        }
    }

    /// Timestamp of the first record in the entry.
    pub fn first_time(&self) -> SimTime {
        match self {
            LogEntry::One(r) => r.time(),
            LogEntry::ErrorRun { first, .. } => first.time,
        }
    }

    /// Timestamp of the last record in the entry. Saturating: a hostile
    /// `ERRORRUN` line can carry `count`/`period` whose product overflows
    /// `i64`, and the parse path (unlike [`NodeLog::push_run`]) does not
    /// reject negative periods — the result is clamped to
    /// `[first_time, SimTime::MAX]` instead of panicking or time-travelling.
    pub fn last_time(&self) -> SimTime {
        self.time_at(self.record_count().saturating_sub(1))
    }

    /// How many of the entry's records are stamped before `t`. The
    /// stamps never decrease, so those records are a prefix: a binary
    /// search over the times [`LogEntry::expand`] gives them.
    pub(crate) fn records_before(&self, t: SimTime) -> u64 {
        let (mut below, mut rest) = (0, self.record_count());
        while below < rest {
            let mid = below + (rest - below) / 2;
            if self.time_at(mid) < t {
                below = mid + 1;
            } else {
                rest = mid;
            }
        }
        below
    }

    /// Timestamp of record `rep` (0-based) of the entry, as
    /// [`LogEntry::expand`] stamps it: never decreasing in `rep`, clamped
    /// like [`LogEntry::last_time`].
    fn time_at(&self, rep: u64) -> SimTime {
        match self {
            LogEntry::One(r) => r.time(),
            LogEntry::ErrorRun { first, period, .. } => {
                first.time.saturating_add(run_offset(*period, rep))
            }
        }
    }

    /// Expand into raw records.
    pub fn expand(&self) -> LogEntryIter<'_> {
        LogEntryIter {
            entry: self,
            next: 0,
        }
    }
}

/// Time offset of repetition `rep` within a run, with the same clamping as
/// [`LogEntry::last_time`]: never negative, saturating at `i64::MAX`.
fn run_offset(period: SimDuration, rep: u64) -> SimDuration {
    let rep = rep.min(i64::MAX as u64) as i64;
    SimDuration::from_secs(period.as_secs().saturating_mul(rep).max(0))
}

/// Iterator expanding a [`LogEntry`] into raw records.
pub struct LogEntryIter<'a> {
    entry: &'a LogEntry,
    next: u64,
}

impl Iterator for LogEntryIter<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        match self.entry {
            LogEntry::One(r) => {
                if self.next == 0 {
                    self.next = 1;
                    Some(*r)
                } else {
                    None
                }
            }
            LogEntry::ErrorRun { first, count, .. } => {
                if self.next >= *count {
                    return None;
                }
                let mut rec = *first;
                rec.time = self.entry.time_at(self.next);
                self.next += 1;
                Some(LogRecord::Error(rec))
            }
        }
    }
}

/// The log file of one node: entries in time order.
#[derive(Clone, Debug, Default)]
pub struct NodeLog {
    pub node: Option<NodeId>,
    entries: Vec<LogEntry>,
}

impl NodeLog {
    pub fn new(node: NodeId) -> NodeLog {
        NodeLog {
            node: Some(node),
            entries: Vec::new(),
        }
    }

    /// Build a log from already-parsed entries. The entries are stable-sorted
    /// by first timestamp, so out-of-order input (say, recovered from a
    /// reordered or corrupted file) still satisfies the start-time append
    /// invariant. The node id falls back to the first entry's when `None`.
    pub fn from_entries(node: Option<NodeId>, mut entries: Vec<LogEntry>) -> NodeLog {
        entries.sort_by_key(LogEntry::first_time);
        let node = node.or_else(|| entries.first().map(LogEntry::node));
        NodeLog { node, entries }
    }

    /// Build a log holding `entries` in the order given, unlike
    /// [`NodeLog::from_entries`]: the exact inverse of
    /// [`NodeLog::entries`], for restoring a log from a lossless copy
    /// (a campaign checkpoint).
    pub fn from_entries_unsorted(node: Option<NodeId>, entries: Vec<LogEntry>) -> NodeLog {
        NodeLog { node, entries }
    }

    /// Append a single record. Entries must be appended in order of their
    /// *first* timestamp; compressed runs may overlap later entries in time
    /// (a stuck word keeps erroring while fresh faults appear), which is
    /// why [`ClusterLog::merged`] only guarantees start-time order.
    pub fn push(&mut self, record: LogRecord) {
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|e| e.first_time() <= record.time()),
            "entries must be appended in start-time order"
        );
        self.entries.push(LogEntry::One(record));
    }

    /// Append a compressed run of periodic identical errors.
    pub fn push_run(&mut self, first: ErrorRecord, count: u64, period: SimDuration) {
        assert!(count > 0, "empty run");
        assert!(count <= MAX_RUN_COUNT, "run count above MAX_RUN_COUNT");
        assert!(period.as_secs() >= 0, "negative period");
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|e| e.first_time() <= first.time),
            "entries must be appended in start-time order"
        );
        self.entries.push(LogEntry::ErrorRun {
            first,
            count,
            period,
        });
    }

    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Total raw records (runs counted at full multiplicity).
    pub fn raw_record_count(&self) -> u64 {
        self.entries.iter().map(LogEntry::record_count).sum()
    }

    /// Total raw ERROR records.
    pub fn raw_error_count(&self) -> u64 {
        self.entries.iter().map(LogEntry::error_count).sum()
    }

    /// Iterate raw records in time order, expanding runs.
    pub fn iter(&self) -> impl Iterator<Item = LogRecord> + '_ {
        self.entries.iter().flat_map(LogEntry::expand)
    }

    /// This log with every run expanded in place into single records,
    /// then stable-sorted by time as [`NodeLog::from_entries`] sorts: the
    /// records, in order, that a plain-text round trip of the log recovers
    /// ([`NodeLog::to_text`] renders [`NodeLog::iter`], and recovery sorts
    /// what it reads the same way).
    pub fn into_expanded(self) -> NodeLog {
        let entries = if self
            .entries
            .iter()
            .any(|e| matches!(e, LogEntry::ErrorRun { .. }))
        {
            self.iter().map(LogEntry::One).collect()
        } else {
            self.entries
        };
        NodeLog::from_entries(self.node, entries)
    }

    /// Write as compact text lines: runs stay as one `ERRORRUN` line each.
    pub fn to_text_compact(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            crate::codec::write_entry_into(&mut out, entry);
            out.push('\n');
        }
        out
    }

    /// Parse compact text (accepts plain lines too), keeping file order:
    /// unlike recovering ingest, nothing is re-sorted. Lines failing to
    /// parse are returned as `(line_number, error)` alongside the log.
    pub fn from_text_compact(text: &str) -> (NodeLog, Vec<(usize, crate::codec::ParseError)>) {
        let mut log = NodeLog::default();
        let mut errors = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match crate::codec::parse_entry_line(line) {
                Ok(entry) => {
                    if log.node.is_none() {
                        log.node = Some(entry.node());
                    }
                    log.entries.push(entry);
                }
                Err(e) => errors.push((i + 1, e)),
            }
        }
        (log, errors)
    }

    /// Write as text lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for rec in self.iter() {
            crate::codec::write_record_into(&mut out, &rec);
            out.push('\n');
        }
        out
    }
}

/// All nodes' logs, with a time-ordered merged view.
#[derive(Clone, Debug, Default)]
pub struct ClusterLog {
    logs: Vec<NodeLog>,
}

impl ClusterLog {
    pub fn new(logs: Vec<NodeLog>) -> ClusterLog {
        ClusterLog { logs }
    }

    pub fn push(&mut self, log: NodeLog) {
        self.logs.push(log);
    }

    pub fn node_logs(&self) -> &[NodeLog] {
        &self.logs
    }

    pub fn raw_record_count(&self) -> u64 {
        self.logs.iter().map(NodeLog::raw_record_count).sum()
    }

    pub fn raw_error_count(&self) -> u64 {
        self.logs.iter().map(NodeLog::raw_error_count).sum()
    }

    /// Merged, time-ordered stream over all nodes (k-way heap merge).
    ///
    /// Ordering contract (tested by `tests/merged_order.rs`): records are
    /// emitted sorted by `(time, node id, source log index)`; within one
    /// source log, same-instant records keep their arrival order. For
    /// per-source streams that are themselves time-sorted this is exactly
    /// a stable sort of the concatenated logs by `(time, node id)` — total
    /// and deterministic. No product path reads it: extraction and
    /// `uc build-db` run per node and merge the per-node *fault* streams
    /// on `fault_sort_key` instead; tests use this record-level view to
    /// compare whole clusters. When a compressed
    /// [`LogEntry::ErrorRun`] overlaps later entries the per-source stream
    /// is only start-time-ordered, and `merged` accordingly guarantees
    /// start-time order only (see [`NodeLog::push`]).
    pub fn merged(&self) -> MergedIter<'_> {
        let mut heap = BinaryHeap::with_capacity(self.logs.len());
        let mut iters: Vec<Box<dyn Iterator<Item = LogRecord> + '_>> = self
            .logs
            .iter()
            .map(|l| Box::new(l.iter()) as Box<dyn Iterator<Item = LogRecord> + '_>)
            .collect();
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some(rec) = it.next() {
                heap.push(HeapItem { rec, source: i });
            }
        }
        MergedIter { iters, heap }
    }
}

struct HeapItem {
    rec: LogRecord,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.rec.time(), other.rec.node().0, other.source).cmp(&(
            self.rec.time(),
            self.rec.node().0,
            self.source,
        ))
    }
}

/// Time-ordered merged record stream.
pub struct MergedIter<'a> {
    iters: Vec<Box<dyn Iterator<Item = LogRecord> + 'a>>,
    heap: BinaryHeap<HeapItem>,
}

impl Iterator for MergedIter<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        let HeapItem { rec, source } = self.heap.pop()?;
        if let Some(next) = self.iters[source].next() {
            self.heap.push(HeapItem { rec: next, source });
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EndRecord, StartRecord};
    use proptest::prelude::*;
    use uc_cluster::NodeId;

    fn err(node: u32, t: i64) -> ErrorRecord {
        ErrorRecord {
            time: SimTime::from_secs(t),
            node: NodeId(node),
            vaddr: 0x100,
            phys_page: 0x2,
            expected: 0xFFFF_FFFF,
            actual: 0xFFFF_FFFE,
            temp: None,
        }
    }

    #[test]
    fn run_expansion_times() {
        let mut log = NodeLog::new(NodeId(3));
        log.push_run(err(3, 100), 4, SimDuration::from_secs(10));
        let times: Vec<i64> = log.iter().map(|r| r.time().as_secs()).collect();
        assert_eq!(times, vec![100, 110, 120, 130]);
        assert_eq!(log.raw_record_count(), 4);
        assert_eq!(log.raw_error_count(), 4);
    }

    #[test]
    fn entry_boundaries() {
        let e = LogEntry::ErrorRun {
            first: err(0, 50),
            count: 3,
            period: SimDuration::from_secs(7),
        };
        assert_eq!(e.first_time().as_secs(), 50);
        assert_eq!(e.last_time().as_secs(), 64);
        assert_eq!(e.record_count(), 3);
    }

    #[test]
    fn counting_does_not_expand() {
        // The largest run is countable instantly.
        let mut log = NodeLog::new(NodeId(0));
        log.push_run(err(0, 0), MAX_RUN_COUNT, SimDuration::from_secs(1));
        assert_eq!(log.raw_error_count(), MAX_RUN_COUNT);
    }

    #[test]
    #[should_panic(expected = "run count above MAX_RUN_COUNT")]
    fn oversized_run_rejected() {
        NodeLog::new(NodeId(0)).push_run(err(0, 0), MAX_RUN_COUNT + 1, SimDuration::from_secs(1));
    }

    #[test]
    fn into_expanded_interleaves_run_records_by_time() {
        let mut log = NodeLog::new(NodeId(4));
        log.push_run(err(4, 10), 3, SimDuration::from_secs(10)); // 10, 20, 30
        log.push(LogRecord::Error(err(4, 15)));
        let expanded = log.into_expanded();
        let times: Vec<i64> = expanded
            .entries()
            .iter()
            .map(|e| e.first_time().as_secs())
            .collect();
        assert_eq!(times, vec![10, 15, 20, 30]);
        assert!(expanded
            .entries()
            .iter()
            .all(|e| matches!(e, LogEntry::One(_))));
        assert_eq!(expanded.node, Some(NodeId(4)));
    }

    #[test]
    fn mixed_records_counting() {
        let mut log = NodeLog::new(NodeId(1));
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node: NodeId(1),
            alloc_bytes: 3 << 30,
            temp: None,
        }));
        log.push_run(err(1, 10), 5, SimDuration::from_secs(1));
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(100),
            node: NodeId(1),
            temp: None,
        }));
        assert_eq!(log.raw_record_count(), 7);
        assert_eq!(log.raw_error_count(), 5);
    }

    #[test]
    fn merged_stream_is_time_ordered() {
        let mut a = NodeLog::new(NodeId(0));
        a.push(LogRecord::Error(err(0, 5)));
        a.push(LogRecord::Error(err(0, 15)));
        let mut b = NodeLog::new(NodeId(1));
        b.push_run(err(1, 0), 3, SimDuration::from_secs(10)); // 0, 10, 20
        let cluster = ClusterLog::new(vec![a, b]);
        let times: Vec<i64> = cluster.merged().map(|r| r.time().as_secs()).collect();
        assert_eq!(times, vec![0, 5, 10, 15, 20]);
        assert_eq!(cluster.raw_record_count(), 5);
    }

    #[test]
    fn merged_tie_break_by_node() {
        let mut a = NodeLog::new(NodeId(7));
        a.push(LogRecord::Error(err(7, 5)));
        let mut b = NodeLog::new(NodeId(2));
        b.push(LogRecord::Error(err(2, 5)));
        let cluster = ClusterLog::new(vec![a, b]);
        let nodes: Vec<u32> = cluster.merged().map(|r| r.node().0).collect();
        assert_eq!(nodes, vec![2, 7], "ties sort by node id");
    }

    #[test]
    fn text_roundtrip_including_runs() {
        let mut log = NodeLog::new(NodeId(19));
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node: NodeId(19),
            alloc_bytes: 3 << 30,
            temp: None,
        }));
        log.push_run(err(19, 3), 3, SimDuration::from_secs(4));
        let text = log.to_text();
        assert_eq!(text.lines().count(), 4, "runs expand in text form");
        let (parsed, errors) = NodeLog::from_text_compact(&text);
        assert!(errors.is_empty());
        assert_eq!(parsed.raw_record_count(), 4);
        let orig: Vec<LogRecord> = log.iter().collect();
        let round: Vec<LogRecord> = parsed.iter().collect();
        assert_eq!(orig, round);
    }

    #[test]
    fn from_text_compact_reports_bad_lines_with_numbers() {
        let text = "END t=1 node=01-01 temp=NA\nGARBAGE\nEND t=2 node=01-01 temp=NA\n";
        let (log, errors) = NodeLog::from_text_compact(text);
        assert_eq!(log.raw_record_count(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 2, "line number of the bad line");
    }

    #[test]
    fn from_entries_sorts_and_infers_node() {
        let entries = vec![
            LogEntry::One(LogRecord::Error(err(6, 50))),
            LogEntry::One(LogRecord::Error(err(6, 10))),
            LogEntry::ErrorRun {
                first: err(6, 30),
                count: 2,
                period: SimDuration::from_secs(5),
            },
        ];
        let log = NodeLog::from_entries(None, entries);
        assert_eq!(log.node, Some(NodeId(6)));
        let firsts: Vec<i64> = log
            .entries()
            .iter()
            .map(|e| e.first_time().as_secs())
            .collect();
        assert_eq!(firsts, vec![10, 30, 50]);
    }

    #[test]
    fn last_time_saturates_on_extreme_runs() {
        // count * period overflows i64 many times over; the boundary must
        // clamp, not panic (this shape is reachable from a hostile
        // ERRORRUN line via the parse path, which skips push_run).
        let e = LogEntry::ErrorRun {
            first: err(0, 100),
            count: u64::MAX,
            period: SimDuration::from_secs(i64::MAX),
        };
        assert_eq!(e.last_time(), SimTime::from_secs(i64::MAX));
        assert_eq!(e.first_time().as_secs(), 100);
    }

    #[test]
    fn negative_period_run_does_not_time_travel() {
        let e = LogEntry::ErrorRun {
            first: err(0, 100),
            count: 5,
            period: SimDuration::from_secs(-1_000),
        };
        assert_eq!(e.last_time().as_secs(), 100, "clamped to first_time");
        let times: Vec<i64> = e.expand().map(|r| r.time().as_secs()).collect();
        assert_eq!(times, vec![100; 5], "expansion clamps the same way");
    }

    #[test]
    fn extreme_run_expansion_saturates() {
        let e = LogEntry::ErrorRun {
            first: err(0, 0),
            count: 3,
            period: SimDuration::from_secs(i64::MAX),
        };
        let times: Vec<i64> = e.expand().map(|r| r.time().as_secs()).collect();
        assert_eq!(times, vec![0, i64::MAX, i64::MAX]);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_run_rejected() {
        NodeLog::new(NodeId(0)).push_run(err(0, 0), 0, SimDuration::from_secs(1));
    }

    proptest! {
        #[test]
        fn run_count_matches_expansion(count in 1u64..500, period in 0i64..100, t0 in 0i64..1000) {
            let mut log = NodeLog::new(NodeId(0));
            log.push_run(err(0, t0), count, SimDuration::from_secs(period));
            prop_assert_eq!(log.iter().count() as u64, count);
            prop_assert_eq!(log.raw_record_count(), count);
        }

        #[test]
        fn merged_is_sorted(
            times_a in proptest::collection::vec(0i64..1000, 0..20),
            times_b in proptest::collection::vec(0i64..1000, 0..20),
        ) {
            let mut ta = times_a.clone(); ta.sort_unstable();
            let mut tb = times_b.clone(); tb.sort_unstable();
            let mut a = NodeLog::new(NodeId(0));
            for t in &ta { a.push(LogRecord::Error(err(0, *t))); }
            let mut b = NodeLog::new(NodeId(1));
            for t in &tb { b.push(LogRecord::Error(err(1, *t))); }
            let cluster = ClusterLog::new(vec![a, b]);
            let merged: Vec<i64> = cluster.merged().map(|r| r.time().as_secs()).collect();
            prop_assert_eq!(merged.len(), ta.len() + tb.len());
            prop_assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
