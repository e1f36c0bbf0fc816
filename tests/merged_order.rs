//! The `ClusterLog::merged` ordering contract, pinned down.
//!
//! The k-way merge promises: records come out sorted by
//! `(time, node id, source log index)`, and within one source log,
//! same-instant records keep their arrival order. For per-source streams
//! that are themselves time-sorted, that is exactly a *stable* sort of
//! the concatenated logs by `(time, node id)` — which is what the
//! property below checks the merge against, record for record.
//!
//! No product path reads this stream — extraction and `uc build-db` run
//! per node and merge the per-node fault streams on `fault_sort_key` —
//! but the round-trip suites compare whole clusters through it, so a
//! tie-break wobble here would show up as a spurious mismatch there.

use proptest::prelude::*;

use uc_cluster::NodeId;
use uc_faultlog::record::{ErrorRecord, LogRecord};
use uc_faultlog::store::{ClusterLog, LogEntry, NodeLog};
use uc_simclock::SimTime;

/// An error record whose `vaddr` carries a unique tag, so two records
/// with the same (time, node) stay distinguishable through the merge.
fn rec(node: u32, t: i64, tag: u64) -> LogRecord {
    LogRecord::Error(ErrorRecord {
        time: SimTime::from_secs(t),
        node: NodeId(node),
        vaddr: tag,
        phys_page: 0x2,
        expected: 0xFFFF_FFFF,
        actual: 0xFFFF_FFFE,
        temp: None,
    })
}

fn key(r: &LogRecord) -> (i64, u32, u64) {
    let LogRecord::Error(e) = r else {
        panic!("fixture emits errors only")
    };
    (e.time.as_secs(), e.node.0, e.vaddr)
}

proptest! {
    /// merged() == stable sort of the concatenated logs by (time, node),
    /// for arbitrary stream shapes — including duplicate node ids across
    /// source logs and heavy timestamp ties.
    #[test]
    fn merged_is_a_stable_sort_by_time_then_node(
        streams in prop::collection::vec(
            prop::collection::vec(0i64..40, 0..25),
            1..6,
        ),
    ) {
        let mut tag = 0u64;
        let mut logs = Vec::new();
        let mut concatenated: Vec<LogRecord> = Vec::new();
        for (source, times) in streams.iter().enumerate() {
            // `source % 3` gives some logs the *same* node id, so the
            // final source-index tie-break gets exercised too.
            let node = (source % 3) as u32;
            let mut times = times.clone();
            times.sort_unstable();
            let entries: Vec<LogEntry> = times
                .iter()
                .map(|&t| {
                    tag += 1;
                    let r = rec(node, t, tag);
                    concatenated.push(r);
                    LogEntry::One(r)
                })
                .collect();
            logs.push(NodeLog::from_entries(Some(NodeId(node)), entries));
        }
        let cluster = ClusterLog::new(logs);

        // Vec::sort_by_key is stable: same-(time, node) records keep
        // concatenation order, i.e. source index then arrival order.
        let mut expected = concatenated.clone();
        expected.sort_by_key(|r| (r.time(), r.node().0));

        let merged: Vec<LogRecord> = cluster.merged().collect();
        prop_assert_eq!(merged.len(), expected.len());
        for (m, e) in merged.iter().zip(&expected) {
            prop_assert_eq!(key(m), key(e));
        }
    }
}

/// The documented tie-break, spelled out on a hand-built worst case:
/// every record at the same instant, so ordering is decided entirely by
/// (node id, source index, arrival order).
#[test]
fn same_instant_records_order_by_node_then_source_then_arrival() {
    let logs = vec![
        // source 0, node 5: two same-instant records (arrival order 1, 2)
        NodeLog::from_entries(
            Some(NodeId(5)),
            vec![LogEntry::One(rec(5, 10, 1)), LogEntry::One(rec(5, 10, 2))],
        ),
        // source 1, node 2
        NodeLog::from_entries(Some(NodeId(2)), vec![LogEntry::One(rec(2, 10, 3))]),
        // source 2, node 5 again: loses the source tie-break to source 0
        NodeLog::from_entries(Some(NodeId(5)), vec![LogEntry::One(rec(5, 10, 4))]),
    ];
    let cluster = ClusterLog::new(logs);
    let tags: Vec<u64> = cluster
        .merged()
        .map(|r| match r {
            LogRecord::Error(e) => e.vaddr,
            _ => unreachable!(),
        })
        .collect();
    // node 2 first; then node 5 from source 0 (both records, in arrival
    // order) before node 5 from source 2.
    assert_eq!(tags, vec![3, 1, 2, 4]);
}
