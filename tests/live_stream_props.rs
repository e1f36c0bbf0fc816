//! Live-ingest properties (DESIGN.md §9): the two contracts the
//! streaming path must hold under *any* schedule, not just the ones the
//! unit tests pick by hand.
//!
//! 1. Snapshot-queried answers are batch answers: however ingest
//!    batches, WAL flushes, generation seals, and queries interleave,
//!    every query over the live handle returns exactly what a batch
//!    `build-db` over the records sealed so far would return.
//! 2. Reconnect-with-replay is exactly-once: a client streaming through
//!    a hostile chaos transport — drops, partial writes, garbage,
//!    disconnects — never duplicates and never loses a record, whatever
//!    the fault schedule.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use common::{build_oracle, fresh_dir};
use uc_cluster::NodeId;
use uc_faultdb::{
    stream_lines, FaultDb, IngestConfig, IngestServer, LiveDb, QueryOptions, StreamOptions,
};
use uc_faultlog::chaos::{NetChaosConfig, NetChaosTally};
use uc_faultlog::durable::RetryPolicy;

fn corpus(node: &str, salt: u64, records: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(records + 2);
    lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
    for k in 0..records {
        let vaddr = 0x2000 + 0x140 * (k as u64) + (salt << 24);
        lines.push(format!(
            "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0xfffffffe temp=33.0",
            t = 90 + 4800 * (k as i64),
            page = vaddr >> 12
        ));
    }
    lines.push(format!(
        "END t={t} node={node} temp=31.0",
        t = 4800 * records as i64 + 200
    ));
    lines
}

/// Batch oracle: the canonical `count` answer for a sealed record set.
fn oracle_count(tag: &str, sealed: &BTreeMap<String, Vec<String>>) -> Vec<String> {
    let Some(out) = build_oracle(tag, sealed) else {
        return vec!["0".to_string()];
    };
    let db = FaultDb::open(&out).unwrap();
    let lines = uc_parallel::with_thread_limit(1, || {
        db.query("count", &QueryOptions::default()).unwrap().lines
    });
    let _ = fs::remove_file(&out);
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of ingest, flush, seal, and query ops: every
    /// query sees exactly the batch-built answer for the sealed prefix
    /// — never a partial flush, never a stale extra record.
    #[test]
    fn interleaved_queries_always_match_batch_oracle(
        ops in prop::collection::vec(0u8..10, 6..28),
        pick in 0u64..(1 << 30),
    ) {
        let tag = format!("interleave-{pick}");
        let dir = fresh_dir(&tag);
        let (live, _) = LiveDb::open(&dir).unwrap();

        let names = ["01-03", "01-04"];
        let nodes: Vec<NodeId> = names.iter().map(|n| NodeId::from_name(n).unwrap()).collect();
        let corpora: Vec<Vec<String>> =
            names.iter().enumerate().map(|(i, n)| corpus(n, i as u64, 10)).collect();
        let mut accepted = [0usize; 2];
        let mut sealed: BTreeMap<String, Vec<String>> =
            names.iter().map(|n| (n.to_string(), Vec::new())).collect();
        let mut checks = 0u32;

        for (step, op) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let i = (pick as usize + step) % names.len();
                    for _ in 0..3 {
                        if accepted[i] >= corpora[i].len() {
                            break;
                        }
                        live.ingest(nodes[i], accepted[i] as u64, &corpora[i][accepted[i]])
                            .unwrap();
                        accepted[i] += 1;
                    }
                }
                5..=6 => live.flush().unwrap(),
                7 => {
                    live.seal().unwrap();
                    for (i, name) in names.iter().enumerate() {
                        sealed.insert(name.to_string(), corpora[i][..accepted[i]].to_vec());
                    }
                }
                _ => {
                    let db = live.handle().current();
                    let got = uc_parallel::with_thread_limit(1, || {
                        db.query("count", &QueryOptions::default()).unwrap().lines
                    });
                    let want = oracle_count(&format!("{tag}-s{step}"), &sealed);
                    prop_assert_eq!(got, want, "step {}", step);
                    checks += 1;
                }
            }
        }
        // End on a seal so the case always exercises at least one
        // publish-then-query cycle.
        live.seal().unwrap();
        for (i, name) in names.iter().enumerate() {
            sealed.insert(name.to_string(), corpora[i][..accepted[i]].to_vec());
        }
        let db = live.handle().current();
        let got = uc_parallel::with_thread_limit(1, || {
            db.query("count", &QueryOptions::default()).unwrap().lines
        });
        let want = oracle_count(&format!("{tag}-final"), &sealed);
        prop_assert_eq!(got, want, "final, after {} mid-stream checks", checks);
        drop(live);
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos replay is exactly-once for any fault schedule: however the
    /// transport mangles the session, the server ends up with each
    /// record accepted exactly once, in order.
    #[test]
    fn reconnect_replay_is_exactly_once(seed in 1u64..(1 << 32)) {
        let dir = fresh_dir(&format!("replay-{seed}"));
        let (live, _) = LiveDb::open(&dir).unwrap();
        let live = Arc::new(live);
        let server = IngestServer::start(Arc::clone(&live), &IngestConfig::default()).unwrap();
        let addr = server.local_addr();

        // Two nodes, quiet one first, so neither holds more than half
        // the raw errors (the flood filter drops >50% shares).
        let quiet_node = NodeId::from_name("02-05").unwrap();
        let quiet_lines = corpus("02-05", 1, 12);
        stream_lines(addr, quiet_node, &quiet_lines, &StreamOptions::default(), None).unwrap();

        let chaos_node = NodeId::from_name("02-04").unwrap();
        let chaos_lines = corpus("02-04", 0, 12);
        let opts = StreamOptions {
            batch: 4,
            retry: RetryPolicy {
                max_attempts: 80,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(20),
            },
            chaos: Some(NetChaosConfig::hostile(seed)),
            ..StreamOptions::default()
        };
        let tally = Arc::new(NetChaosTally::default());
        let report =
            stream_lines(addr, chaos_node, &chaos_lines, &opts, Some(Arc::clone(&tally)))
                .unwrap();
        prop_assert_eq!(report.acked, chaos_lines.len() as u64);

        // Exactly once: the server's cursors sit exactly past the last
        // record, and the total accepted count admits no duplicates.
        prop_assert_eq!(live.next_seq(chaos_node), chaos_lines.len() as u64);
        prop_assert_eq!(live.next_seq(quiet_node), quiet_lines.len() as u64);
        let status = live.seal().unwrap();
        prop_assert_eq!(status.records, (chaos_lines.len() + quiet_lines.len()) as u64);

        // And the sealed answers equal the batch oracle over the two
        // corpora — nothing lost, nothing doubled, order preserved.
        let sealed: BTreeMap<String, Vec<String>> = [
            ("02-04".to_string(), chaos_lines.clone()),
            ("02-05".to_string(), quiet_lines.clone()),
        ]
        .into();
        let want = oracle_count(&format!("replay-{seed}"), &sealed);
        let db = live.handle().current();
        let got = uc_parallel::with_thread_limit(1, || {
            db.query("count", &QueryOptions::default()).unwrap().lines
        });
        prop_assert_eq!(got, want);

        server.shutdown();
        server.join();
        drop(live);
        let _ = fs::remove_dir_all(&dir);
    }
}
