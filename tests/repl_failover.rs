//! Failover end-to-end (DESIGN.md §11): a replica follows a primary over
//! a hostile chaos link, catches up byte-identically, is promoted over
//! the query wire after the primary dies, serves exactly the batch
//! oracle of everything it acked — and the partitioned ex-primary, which
//! accepted a divergent tail the replica never saw, is fenced with a
//! typed error the moment it tries to rejoin.
//!
//! Seed the fault schedule with `UC_CHAOS_SEED` (default 1); CI runs
//! several seeds.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    answers, assert_gens_byte_identical, await_convergence, build_oracle, chaos_seed, fresh_dir,
};
use uc_cluster::NodeId;
use uc_faultdb::{
    stream_lines, Client, Engine, FaultDb, IngestConfig, IngestServer, LiveDb, NodeAdmin,
    ReplicaConfig, Replication, Response, Role, ServeConfig, Server, ServerAdmin, StreamOptions,
};
use uc_faultlog::chaos::NetChaosConfig;
use uc_faultlog::durable::RetryPolicy;

fn corpus(node: &str, salt: u64, records: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(records + 2);
    lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
    for k in 0..records {
        let vaddr = 0x3000 + 0x1c0 * (k as u64) + (salt << 24);
        lines.push(format!(
            "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
             expected=0xffffffff actual=0xfffffffe temp=33.0",
            t = 150 + 5100 * (k as i64),
            page = vaddr >> 12
        ));
    }
    lines.push(format!(
        "END t={t} node={node} temp=31.0",
        t = 5100 * records as i64 + 400
    ));
    lines
}

fn chaotic_opts(seed: u64) -> StreamOptions {
    StreamOptions {
        batch: 4,
        retry: RetryPolicy {
            max_attempts: 80,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
        },
        chaos: Some(NetChaosConfig::hostile(seed)),
        ..StreamOptions::default()
    }
}

/// The full life of a replicated pair: chaotic catch-up, wire-driven
/// promotion, client resume on the new primary, and fencing of the
/// divergent ex-primary.
#[test]
fn failover_promotes_replica_and_fences_divergent_ex_primary() {
    let seed = chaos_seed();
    let names = ["03-07", "03-08"];
    let nodes: Vec<NodeId> = names
        .iter()
        .map(|n| NodeId::from_name(n).unwrap())
        .collect();
    // 12 lines per node (START + 10 ERROR + END); the first 8 are the
    // commonly-replicated prefix, the rest diverge per branch below.
    let corpora: Vec<Vec<String>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| corpus(n, i as u64, 10))
        .collect();
    const PREFIX: usize = 8;

    // --- primary A with a role-aware ingest endpoint.
    let dir_a = fresh_dir("failover-a");
    let (live_a, _) = LiveDb::open(&dir_a).unwrap();
    let live_a = Arc::new(live_a);
    let ingest_a = IngestServer::start_with_role(
        Arc::clone(&live_a),
        &IngestConfig::default(),
        Some(Arc::new(Role::primary())),
    )
    .unwrap();
    let addr_a = ingest_a.local_addr();

    // --- replica B: sync loop over a hostile link, role-aware ingest,
    // query endpoint with the replication admin answering PROMOTE.
    let dir_b = fresh_dir("failover-b");
    let (live_b, _) = LiveDb::open(&dir_b).unwrap();
    let live_b = Arc::new(live_b);
    let mut rcfg = ReplicaConfig::new(&addr_a.to_string());
    rcfg.poll_interval = Duration::from_millis(5);
    rcfg.chaos = Some(NetChaosConfig::hostile(seed ^ 0xB0B0));
    let repl = Arc::new(Replication::start(Arc::clone(&live_b), rcfg));
    let ingest_b = IngestServer::start_with_role(
        Arc::clone(&live_b),
        &IngestConfig::default(),
        Some(repl.role()),
    )
    .unwrap();
    let addr_b = ingest_b.local_addr();
    let admin: Arc<dyn ServerAdmin> =
        Arc::new(NodeAdmin::replica(Arc::clone(&live_b), Arc::clone(&repl)));
    let query_b =
        Server::start_with_admin(live_b.handle(), &ServeConfig::default(), Some(admin)).unwrap();

    // --- phase 1: stream the common prefix into A under chaos, seal,
    // and wait for B to catch up byte-identically.
    for (i, node) in nodes.iter().enumerate() {
        let report = stream_lines(
            addr_a,
            *node,
            &corpora[i][..PREFIX],
            &chaotic_opts(seed ^ (i as u64) << 8),
            None,
        )
        .unwrap();
        assert_eq!(report.acked, PREFIX as u64);
    }
    live_a.seal().unwrap();
    await_convergence(&live_a, &live_b, "catch-up");
    assert_gens_byte_identical(&dir_a, &dir_b);
    let stats = repl.stats();
    assert_eq!(stats.lag, 0, "converged replica still reports lag");
    assert_eq!(stats.role, "replica");

    // A readonly replica refuses direct pushes with a typed error.
    let refused = stream_lines(
        addr_b,
        nodes[0],
        &corpora[0],
        &StreamOptions::default(),
        None,
    );
    let msg = refused
        .expect_err("readonly replica accepted a push")
        .to_string();
    assert!(msg.contains("readonly"), "untyped refusal: {msg}");

    // --- phase 2: promotion over the query wire. B stops following and
    // bumps its epoch; the divergent tail pushed to A afterwards is a
    // fork B never sees.
    let mut client = Client::connect(query_b.local_addr()).unwrap();
    match client.request("PROMOTE").unwrap() {
        Response::Ok(lines) => assert_eq!(lines, vec!["epoch 1".to_string()]),
        Response::Err { kind, message } => panic!("PROMOTE refused: {kind}: {message}"),
    }
    drop(client);
    assert_eq!(live_b.epoch(), 1);
    assert!(!repl.role().is_readonly(), "promoted node still readonly");

    // A keeps accepting its own tail (the partition writes), then dies.
    for (i, node) in nodes.iter().enumerate() {
        stream_lines(addr_a, *node, &corpora[i], &StreamOptions::default(), None).unwrap();
    }
    live_a.seal().unwrap();
    ingest_a.shutdown();
    ingest_a.join();
    let records_a = live_a.status().records;
    drop(live_a);

    // --- phase 3: clients resume against promoted B with a *different*
    // tail (same seqs, different bytes — a true fork). Exactly-once
    // resume: B already holds the prefix, so only the tail is new.
    let forked: Vec<Vec<String>> = corpora
        .iter()
        .map(|lines| {
            let mut lines = lines.clone();
            for line in lines.iter_mut().skip(PREFIX) {
                *line = line.replace("temp=33.0", "temp=35.5");
            }
            lines
        })
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        let report = stream_lines(
            addr_b,
            *node,
            &forked[i],
            &chaotic_opts(seed ^ 0xF0F0 ^ i as u64),
            None,
        )
        .unwrap();
        assert_eq!(report.acked, forked[i].len() as u64);
    }
    live_b.seal().unwrap();

    // Promoted B answers exactly like a batch build over what it acked.
    let sealed: BTreeMap<String, Vec<String>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.to_string(), forked[i].clone()))
        .collect();
    let oracle_path = build_oracle("post-promote", &sealed).unwrap();
    let oracle: Engine = std::sync::Arc::new(FaultDb::open(&oracle_path).unwrap()).into();
    assert_eq!(
        answers(&live_b.handle().current()),
        answers(&oracle),
        "promoted replica diverged from the batch oracle"
    );
    let _ = fs::remove_file(&oracle_path);

    // --- phase 4: the ex-primary rejoins as a replica of B. Its WAL
    // holds the same number of records with different bytes — a fork the
    // cursor CRC catches. B must fence it (stale epoch), typed.
    let (live_a2, _) = LiveDb::open(&dir_a).unwrap();
    assert_eq!(live_a2.status().records, records_a);
    let live_a2 = Arc::new(live_a2);
    let mut rejoin = ReplicaConfig::new(&addr_b.to_string());
    rejoin.poll_interval = Duration::from_millis(5);
    rejoin.retry = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    };
    let repl_a = Replication::start(Arc::clone(&live_a2), rejoin);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !repl_a.role().is_fenced() {
        assert!(
            Instant::now() < deadline,
            "divergent ex-primary was never fenced: {:?}",
            repl_a.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = repl_a.stats();
    assert!(stats.fenced);
    let reason = repl_a
        .role()
        .fence_reason()
        .expect("fenced without a recorded reason");
    assert!(
        reason.contains("fenced") || reason.contains("epoch") || reason.contains("crc"),
        "opaque fence reason: {reason}"
    );

    // A fenced node's own ingest endpoint refuses pushes, typed.
    let ingest_a2 = IngestServer::start_with_role(
        Arc::clone(&live_a2),
        &IngestConfig::default(),
        Some(repl_a.role()),
    )
    .unwrap();
    let refused = stream_lines(
        ingest_a2.local_addr(),
        nodes[0],
        &corpora[0],
        &StreamOptions::default(),
        None,
    );
    let msg = refused
        .expect_err("fenced node accepted a push")
        .to_string();
    assert!(msg.contains("fenced"), "untyped fenced refusal: {msg}");

    // Teardown.
    ingest_a2.shutdown();
    ingest_a2.join();
    ingest_b.shutdown();
    ingest_b.join();
    query_b.shutdown_handle().shutdown();
    query_b.join();
    drop(repl_a);
    drop(repl);
    drop(live_a2);
    drop(live_b);
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}
