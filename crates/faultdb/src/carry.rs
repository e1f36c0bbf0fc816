//! Per-node carry state: what a live stream keeps of each node so that a
//! seal costs O(faults + volume pieces), not a re-parse of every record.
//!
//! Each accepted line is folded into its node's [`NodeCarry`] as it is
//! accepted — at ingest, or at WAL replay — through the batch pipeline's
//! own accumulators: the line-recovery state machine of
//! [`uc_faultlog::ingest`], the fault fold of `extract_node_faults`, the
//! session pairing of `DayVolume::add_node_log`, and the raw counts.
//! [`snapshot_of`] then assembles the [`Snapshot`] the batch path
//! (`read_cluster_log_recovering` → `Snapshot::from_cluster`) builds from
//! the same lines written as text, re-deriving at seal time the three
//! inputs that are global to the corpus:
//!
//! - **node order** — the batch reader sorts node logs by the node their
//!   earliest entry names (falling back to the file's node), and that
//!   order breaks fault-merge ties and orders volume additions;
//! - **the flood share** — a node's raw errors against the cluster total,
//!   so a node crossing the 50% line either way needs no re-parse;
//! - **f64 volume order** — every node's per-day pieces are added in node
//!   order, then piece order, as the batch sum adds them.
//!
//! Node logs are stable-sorted by first time, so an entry no earlier than
//! its node's latest first time folds in place. One that sorts before it
//! marks its node's folds out of date; the next seal refolds that node
//! alone, once, from its stable-sorted entries, and later in-order lines
//! fold in place again. Refolding at the out-of-order line itself would
//! cost O(entries) per such line: a stream pushed in descending time
//! order would take quadratic time under the database lock.

use uc_analysis::daily::{DayVolume, NodeVolume};
use uc_analysis::extract::{is_flood_node, merge_sorted_fault_streams, ExtractConfig, FaultFold};
use uc_cluster::NodeId;
use uc_faultlog::ingest::{record_lines, IngestStats, Kept, LineRecovery};
use uc_faultlog::store::LogEntry;

use crate::snapshot::{Snapshot, FLOOD_SHARE};

/// One node's carry state; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct NodeCarry {
    lines: LineRecovery,
    folds: EntryFolds,
}

/// Everything derived from a node's kept entries in log order.
#[derive(Debug)]
struct EntryFolds {
    faults: FaultFold,
    volume: NodeVolume,
    raw_records: u64,
    raw_errors: u64,
}

impl Default for EntryFolds {
    fn default() -> EntryFolds {
        EntryFolds {
            faults: FaultFold::new(&ExtractConfig::default()),
            volume: NodeVolume::default(),
            raw_records: 0,
            raw_errors: 0,
        }
    }
}

impl EntryFolds {
    fn push(&mut self, entry: &LogEntry) {
        self.faults.push(entry);
        self.volume.push(entry);
        self.raw_records += entry.record_count();
        self.raw_errors += entry.error_count();
    }
}

impl NodeCarry {
    /// Fold in one accepted record: the line(s) a text log holding it as
    /// one newline-terminated line would yield.
    pub(crate) fn push(&mut self, record: &str) {
        for line in record_lines(record) {
            if let Some(Kept::InOrder(entry)) = self.lines.push_line(line) {
                self.folds.push(entry);
            }
        }
    }

    /// Bring the folds up to date with the entries: refold a node that
    /// took a line out of order since its last refold.
    fn settle(&mut self) {
        if !self.lines.is_sorted() {
            self.folds = EntryFolds::default();
            for entry in self.lines.sorted_entries() {
                self.folds.push(entry);
            }
        }
    }
}

/// The snapshot the batch pipeline builds from the streams written as
/// one text file each (`node-<id>.log`), from their carry states alone.
/// `streams` yields `(stream node, carry)` in stream-id order, the order
/// the directory reader lists the files in.
pub(crate) fn snapshot_of<'a>(streams: impl Iterator<Item = (u32, &'a mut NodeCarry)>) -> Snapshot {
    // The batch reader's node order: a stable sort by each log's node
    // (its earliest entry's, else the file's) over file order.
    let mut nodes: Vec<(NodeId, &NodeCarry)> = streams
        .map(|(id, carry)| {
            carry.settle();
            (carry.lines.node().unwrap_or(NodeId(id)), &*carry)
        })
        .collect();
    nodes.sort_by_key(|(node, _)| node.0);

    let mut stats = IngestStats::default();
    let (mut raw_records, mut raw_errors) = (0u64, 0u64);
    for (_, carry) in &nodes {
        stats.merge(&IngestStats {
            files_read: 1,
            ..*carry.lines.stats()
        });
        raw_records += carry.folds.raw_records;
        raw_errors += carry.folds.raw_errors;
    }
    let mut flood_nodes = Vec::new();
    let mut per_node = Vec::with_capacity(nodes.len());
    let mut day_volume = DayVolume::default();
    for (node, carry) in &nodes {
        if is_flood_node(carry.folds.raw_errors, raw_errors, FLOOD_SHARE) {
            flood_nodes.push(*node);
        } else {
            per_node.push(carry.folds.faults.faults());
        }
        day_volume.add_pieces(carry.folds.volume.pieces());
    }
    Snapshot {
        faults: merge_sorted_fault_streams(per_node),
        flood_nodes,
        stats,
        node_logs: nodes.len() as u64,
        raw_records,
        raw_errors,
        day_volume,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_faultlog::ingest::recover_text;
    use uc_faultlog::store::{ClusterLog, NodeLog};

    /// The batch oracle over the same streams: `recover_text` per node
    /// with the file-name fallback, logs sorted by node as the directory
    /// reader sorts them, then `Snapshot::from_cluster`.
    fn batch(streams: &[(u32, Vec<String>)]) -> Snapshot {
        let mut stats = IngestStats::default();
        let mut logs: Vec<NodeLog> = Vec::new();
        for (id, lines) in streams {
            let mut text = lines.join("\n");
            text.push('\n');
            let mut rec = recover_text(&text);
            rec.stats.files_read = 1;
            rec.log.node = rec.log.node.or(Some(NodeId(*id)));
            stats.merge(&rec.stats);
            logs.push(rec.log);
        }
        logs.sort_by_key(|l| l.node.map(|n| n.0));
        Snapshot::from_cluster(&ClusterLog::new(logs), stats)
    }

    fn carried(streams: &[(u32, Vec<String>)]) -> Snapshot {
        let mut carries: Vec<(u32, NodeCarry)> = streams
            .iter()
            .map(|(id, lines)| {
                let mut carry = NodeCarry::default();
                for line in lines {
                    carry.push(line);
                }
                (*id, carry)
            })
            .collect();
        snapshot_of(carries.iter_mut().map(|(id, c)| (*id, c)))
    }

    fn error(node: &str, t: i64, vaddr: u64) -> String {
        format!(
            "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0xfffffffe temp=33.0",
            page = vaddr >> 12
        )
    }

    #[test]
    fn carried_snapshot_equals_the_batch_snapshot() {
        let a = NodeId::from_name("01-01").unwrap();
        let b = NodeId::from_name("01-02").unwrap();
        let c = NodeId::from_name("02-01").unwrap();
        let streams = vec![
            (
                a.0,
                vec![
                    "START t=0 node=01-01 alloc=3221225472 temp=30.0".to_string(),
                    error("01-01", 100, 0x400),
                    error("01-01", 130, 0x400),
                    String::new(),
                    "garbage".to_string(),
                    // Below the high-water mark: the seal refolds the node.
                    error("01-01", 50, 0x800),
                    "END t=90000 node=01-01 temp=31.0".to_string(),
                    "END t=90000 node=01-01 temp=31.0".to_string(),
                    "START t=100000 node=01-01 alloc=1024 temp=NA".to_string(),
                    "START t=100500 node=01-01 alloc=2048 temp=NA".to_string(),
                    "END t=180000 node=01-01 temp=NA".to_string(),
                ],
            ),
            (
                // Names node 02-02 first, so it sorts after 02-01.
                b.0,
                vec![
                    error("02-02", 10, 0x900),
                    "START t=20 node=01-02 alloc=3221225472 temp=30.0".to_string(),
                    error("01-02", 40, 0x400),
                    "END t=50000 node=01-02 temp=30.0".to_string(),
                ],
            ),
            (
                c.0,
                vec![
                    "START t=0 node=02-01 alloc=3221225472 temp=30.0".to_string(),
                    "ERRORRUN t=60 node=02-01 vaddr=0x00000400 page=0x000000 \
                     expected=0xffffffff actual=0xfffffffe temp=NA count=50 period=40"
                        .to_string(),
                    "END t=86000 node=02-01 temp=30.0".to_string(),
                ],
            ),
        ];
        let want = batch(&streams);
        assert_eq!(
            want.flood_nodes,
            vec![c],
            "the run makes 02-01 a flood node"
        );
        assert_eq!(carried(&streams), want);
        // Every prefix too: the carry is readable after every line.
        for cut in 0..streams[0].1.len() {
            let mut prefix = streams.clone();
            prefix[0].1.truncate(cut + 1);
            assert_eq!(carried(&prefix), batch(&prefix), "prefix {cut}");
        }
    }
}
