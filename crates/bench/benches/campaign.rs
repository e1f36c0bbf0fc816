//! Campaign-path benchmarks and the machine-readable perf trajectory.
//!
//! Measures the two routes from a simulation to a sealed fault database:
//!
//! * **text path** — campaign → plain text corpus → recovering ingest →
//!   seal (`uc campaign --out` + `uc build-db`);
//! * **direct path** — campaign → in-memory recovery → fold → seal
//!   (`uc campaign --db`), no text corpus.
//!
//! Besides the usual criterion timings, this bench writes
//! `BENCH_campaign.json` at the repo root with the four trajectory
//! metrics CI tracks across PRs:
//!
//! * `campaign_faults_per_sec` — simulation throughput (sealed faults
//!   per second of campaign wall-clock on the direct path);
//! * `text_path_e2e_seconds` / `direct_path_e2e_seconds` — end-to-end
//!   latency of each route (plus the derived `direct_speedup`);
//! * `ingest_mb_per_sec` — recovering text ingest throughput over the
//!   campaign corpus;
//! * `recover_records_per_sec` — raw records per second `recover_log`
//!   recovers in memory from the campaign's completed node logs (the
//!   direct path's recovery layer, runs kept compact);
//! * `scan_rows_per_sec` — warm full-scan query throughput over the
//!   sealed database in the historical v1 fixed layout;
//! * `scan_packed_rows_per_sec` — the same scan over the v2 packed
//!   layout through the branch-free kernels;
//! * `shard_fanout_rows_per_sec` — the same scan over a (time window ×
//!   rack) sharded root through the fan-out engine;
//! * `serve_p99_us` — p99 request latency through the TCP serving layer;
//! * `query_mix_cpu_us` — process CPU time per query of the serve mix's
//!   seven query kinds run in process through `Engine::query` on a warm
//!   block cache (the read path's plan → decode → kernel → merge, with
//!   the worker pool's fan-out charged to it);
//! * `serve_cpu_us` — process CPU time per query of the same mix sent
//!   through the TCP serving layer by one paced client, whose own CPU is
//!   taken out: the CPU-time counterpart of `serve_p99_us`;
//! * `catchup_mb_per_sec` — WAL-shipping throughput of a fresh replica
//!   catching up to a sealed primary over loopback;
//! * `live_seal_cpu_us` — process CPU µs per record of a fresh
//!   `LiveDb` ingesting the catch-up corpus (4 nodes × 10,000 lines,
//!   interleaved) with a seal every 1,000 records and one at the end:
//!   the live write path, carry-state folds and seals included;
//! * `push_session_cpu_us` — process CPU µs per line, less the pushing
//!   thread's own, of the catch-up corpus pushed round-robin through
//!   `stream_lines` into an `IngestServer` in 8-line sessions, each on a
//!   fresh connection: the ingest wire and WAL append path;
//! * `policy_days_per_sec` — mitigation policy replay throughput: total
//!   policy-days (simulated days × policies compared) per second of the
//!   full five-policy `uc policy` comparison over the sealed campaign,
//!   day feed included.
//!
//! Run with `cargo bench -p uc-bench --bench campaign`; `--test` does a
//! single quick pass (CI smoke) and still emits the JSON.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use uc_cluster::NodeId;
use uc_faultdb::{
    build_db, stream_lines, Client, Engine, FaultDb, FileEncoding, IngestConfig, IngestServer,
    LiveDb, QueryOptions, ReplicaConfig, Replication, Response, Role, ServeConfig, Server,
    StreamOptions, WriteOptions,
};
use uc_faultlog::files::write_cluster_log;
use uc_faultlog::ingest::{read_cluster_log_recovering, recover_log};
use unprotected_computing::core::{run_campaign_checkpointed, CampaignConfig, CampaignResult};
use unprotected_computing::direct::campaign_to_db;

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uc-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> CampaignConfig {
    CampaignConfig::small(42, 8)
}

/// One full text-path run: campaign → plain text logs → build_db.
/// Returns (elapsed seconds, corpus bytes, sealed rows) and the campaign.
fn text_path_once(base: &Path, tag: &str) -> (f64, u64, u64, CampaignResult) {
    let logs = base.join(format!("text-logs-{tag}"));
    std::fs::create_dir_all(&logs).unwrap();
    let db = base.join(format!("text-{tag}.ucfdb"));
    let ckpt = base.join(format!("text-ckpt-{tag}"));
    let t0 = Instant::now();
    let result = run_campaign_checkpointed(&cfg(), &ckpt);
    write_cluster_log(&logs, &result.cluster_log()).unwrap();
    let summary = build_db(&logs, &db, &WriteOptions::default()).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let corpus_bytes: u64 = std::fs::read_dir(&logs)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    (secs, corpus_bytes, summary.rows, result)
}

/// One full direct-path run: campaign → in-memory stream → sealed db.
/// Returns (elapsed seconds, sealed rows).
fn direct_path_once(base: &Path, tag: &str) -> (f64, u64) {
    let db = base.join(format!("direct-{tag}.ucfdb"));
    let ckpt = base.join(format!("direct-ckpt-{tag}"));
    let t0 = Instant::now();
    let output = campaign_to_db(&cfg(), &ckpt, &db, &WriteOptions::default()).unwrap();
    (t0.elapsed().as_secs_f64(), output.summary.rows)
}

/// p99 latency (µs) of query requests over the TCP serving layer, one
/// warm client against a default-provisioned server on the sealed db.
fn serve_p99_us(db_path: &Path, quick: bool) -> f64 {
    let db = Arc::new(FaultDb::open(db_path).unwrap());
    let server = Server::start(db, &ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..20 {
        client.request("count where raw>=1").unwrap();
    }
    let n = if quick { 200 } else { 1000 };
    let mut lat_us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        client.request("count where raw>=1").unwrap();
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    server.shutdown_handle().shutdown();
    server.join();
    lat_us.sort_by(f64::total_cmp);
    lat_us[(lat_us.len() * 99 / 100).min(lat_us.len() - 1)]
}

/// CPU time the whole process has used so far, in seconds: every thread,
/// so the pool workers a query fans out to are charged to it.
fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out as the C `struct
    // timespec` of 64-bit Linux (two `long`s), and `clock_gettime` writes
    // only within it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The serve mix's seven query kinds: a 1-day `count`, `group class`,
/// `top 5 node`, `hist bits`, a multibit `count` on one rack, a 30-day
/// `group day` and a 7-day `list`.
const SERVE_MIX: [&str; 7] = [
    "count where time>=200d and time<201d",
    "group class",
    "top 5 node",
    "hist bits",
    "count where multibit and rack=2",
    "group day where time>=200d and time<230d",
    "list limit 50 where time>=200d and time<207d",
];

/// Rounds of [`SERVE_MIX`] per measured pass.
const MIX_ROUNDS: usize = 20;

/// Process CPU µs per query of [`SERVE_MIX`] run in process through
/// `Engine::query`. The block cache is warmed first; each pass runs the
/// seven kinds 20 times, and the best pass of 10 is reported, in quick
/// mode too, since a pass takes milliseconds.
fn query_mix_cpu_us(db_path: &Path) -> f64 {
    let db = Engine::open_auto(db_path).unwrap();
    let opts = QueryOptions::default();
    for text in SERVE_MIX {
        db.query(text, &opts).unwrap();
    }
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let cpu0 = process_cpu_seconds();
        for _ in 0..MIX_ROUNDS {
            for text in SERVE_MIX {
                black_box(db.query(black_box(text), &opts).unwrap());
            }
        }
        best = best.min((process_cpu_seconds() - cpu0) / (MIX_ROUNDS * SERVE_MIX.len()) as f64);
    }
    best * 1e6
}

/// Process CPU µs per query of a default-provisioned `Server` on the
/// sealed db, less the client's own CPU: one `Client` on its own thread
/// sends [`SERVE_MIX`] 20 times per pass, each request 1 ms after the
/// previous reply, so each one wakes an idle server, as perfbench
/// `serve` does at 1,000 queries/s. One unmeasured pass warms the block
/// cache; the best of 3 passes is reported, in quick mode too.
fn serve_cpu_us(db_path: &Path) -> f64 {
    let db = Arc::new(FaultDb::open(db_path).unwrap());
    let server = Server::start(db, &ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let pass = || {
        let mut client = Client::connect(addr).unwrap();
        let (cpu0, own0) = (process_cpu_seconds(), thread_cpu_seconds());
        for _ in 0..MIX_ROUNDS {
            for text in SERVE_MIX {
                std::thread::sleep(Duration::from_millis(1));
                let reply = client.request(black_box(text)).unwrap();
                assert!(matches!(reply, Response::Ok(_)), "{text}: {reply:?}");
            }
        }
        (process_cpu_seconds() - cpu0) - (thread_cpu_seconds() - own0)
    };
    let run = || std::thread::scope(|s| s.spawn(pass).join().expect("serve client thread"));
    run();
    let best = (0..3).map(|_| run()).fold(f64::INFINITY, f64::min);
    server.shutdown_handle().shutdown();
    server.join();
    best / (MIX_ROUNDS * SERVE_MIX.len()) as f64 * 1e6
}

/// The catch-up corpus's nodes.
const CATCHUP_NODES: [&str; 4] = ["05-01", "05-02", "05-03", "05-04"];

/// Line `k` of catch-up node `i`: one fresh single-bit fault per line.
fn catchup_line(i: usize, k: usize) -> String {
    let name = CATCHUP_NODES[i];
    let vaddr = 0x8000 + 0x40 * k as u64 + ((i as u64) << 28);
    format!(
        "ERROR t={t} node={name} vaddr=0x{vaddr:08x} page=0x{page:06x} \
         expected=0xffffffff actual=0xfffffffe temp=33.0",
        t = 100 + 60 * k as i64,
        page = vaddr >> 12
    )
}

/// Replication catch-up throughput: a fresh replica syncing a sealed
/// primary's full WAL over loopback, measured as shipped WAL MB per
/// second of wall-clock until the replica matches the primary.
fn catchup_mb_per_sec(base: &Path, quick: bool) -> f64 {
    let pdir = base.join("repl-primary");
    std::fs::create_dir_all(&pdir).unwrap();
    let (primary, _) = LiveDb::open(&pdir).unwrap();
    let primary = Arc::new(primary);
    let per_node = if quick { 2_000 } else { 10_000 };
    for (i, name) in CATCHUP_NODES.iter().enumerate() {
        let node = NodeId::from_name(name).unwrap();
        for k in 0..per_node {
            primary.ingest(node, k as u64, &catchup_line(i, k)).unwrap();
        }
    }
    primary.seal().unwrap();
    let wal_bytes: u64 = std::fs::read_dir(&pdir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let server = IngestServer::start_with_role(
        Arc::clone(&primary),
        &IngestConfig::default(),
        Some(Arc::new(Role::primary())),
    )
    .unwrap();

    let rdir = base.join("repl-replica");
    std::fs::create_dir_all(&rdir).unwrap();
    let (replica, _) = LiveDb::open(&rdir).unwrap();
    let replica = Arc::new(replica);
    let want = primary.status();
    let mut rcfg = ReplicaConfig::new(&server.local_addr().to_string());
    rcfg.poll_interval = Duration::from_millis(1);
    rcfg.pull_max = 4096;
    let t0 = Instant::now();
    let repl = Replication::start(Arc::clone(&replica), rcfg);
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let got = replica.status();
        if got.records == want.records && got.generation == want.generation {
            break;
        }
        assert!(Instant::now() < deadline, "replica catch-up stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(repl);
    server.shutdown();
    server.join();
    wal_bytes as f64 / (1024.0 * 1024.0) / secs
}

/// Process CPU µs per record of the live write path: a fresh `LiveDb`
/// ingests the catch-up corpus (4 nodes × 10,000 lines) interleaved line
/// by line through `LiveDb::ingest`, sealing every 1,000 records and once
/// at the end. Best of 3 passes; quick mode runs the same corpus once,
/// since a seal's cost may grow with the records before it.
fn live_seal_cpu_us(base: &Path, quick: bool) -> f64 {
    const PER_NODE: usize = 10_000;
    const SEAL_EVERY: usize = 1_000;
    let nodes: Vec<NodeId> = CATCHUP_NODES
        .iter()
        .map(|n| NodeId::from_name(n).unwrap())
        .collect();
    let lines: Vec<(usize, usize, String)> = (0..PER_NODE)
        .flat_map(|k| (0..nodes.len()).map(move |i| (i, k, catchup_line(i, k))))
        .collect();
    let mut best = f64::INFINITY;
    for pass in 0..if quick { 1 } else { 3 } {
        let dir = base.join(format!("live-seal-{pass}"));
        let (live, _) = LiveDb::open(&dir).unwrap();
        let cpu0 = process_cpu_seconds();
        for (n, (i, k, line)) in lines.iter().enumerate() {
            live.ingest(nodes[*i], *k as u64, line).unwrap();
            if (n + 1) % SEAL_EVERY == 0 {
                live.seal().unwrap();
            }
        }
        live.seal().unwrap();
        best = best.min((process_cpu_seconds() - cpu0) / lines.len() as f64);
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
    best * 1e6
}

/// Process CPU µs per line of push sessions, the pushing thread's own CPU
/// taken out: a fresh `LiveDb` behind `IngestServer::start` (default
/// config) receives the catch-up corpus (4 nodes × 10,000 lines)
/// round-robin through `stream_lines`, 8 lines per session and a fresh
/// connection per session, the shape of perfbench `live`'s node-day
/// sessions. What is left is the server side of the wire: accepts, frame
/// reads, WAL appends and acks. Best of 3 passes; quick mode runs the
/// same corpus once.
fn push_session_cpu_us(base: &Path, quick: bool) -> f64 {
    const PER_NODE: usize = 10_000;
    const SESSION: usize = 8;
    let corpus: Vec<(NodeId, Vec<String>)> = CATCHUP_NODES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let lines = (0..PER_NODE).map(|k| catchup_line(i, k)).collect();
            (NodeId::from_name(name).unwrap(), lines)
        })
        .collect();
    let opts = StreamOptions::default();
    let mut best = f64::INFINITY;
    for pass in 0..if quick { 1 } else { 3 } {
        let dir = base.join(format!("push-session-{pass}"));
        let (live, _) = LiveDb::open(&dir).unwrap();
        let live = Arc::new(live);
        let server = IngestServer::start(Arc::clone(&live), &IngestConfig::default()).unwrap();
        let addr = server.local_addr();
        let (cpu0, own0) = (process_cpu_seconds(), thread_cpu_seconds());
        for end in (SESSION..=PER_NODE).step_by(SESSION) {
            for (node, lines) in &corpus {
                let r = stream_lines(addr, *node, &lines[..end], &opts, None).unwrap();
                assert_eq!(r.acked, end as u64, "push session not fully acked");
            }
        }
        let cpu = (process_cpu_seconds() - cpu0) - (thread_cpu_seconds() - own0);
        best = best.min(cpu / (PER_NODE * corpus.len()) as f64);
        server.shutdown();
        server.join();
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
    best * 1e6
}

/// Mitigation policy replay throughput: the full five-policy
/// comparison (`uc policy` with `--policy all`) over the sealed
/// campaign, including the read and day split that feed it.
/// Reported as policy-days per second — simulated days × policies,
/// divided by the best wall-clock over N repetitions.
fn policy_days_per_sec(db_path: &Path, quick: bool) -> f64 {
    let db = Engine::open_auto(db_path).unwrap();
    let cfg = uc_policy::ReplayConfig::default();
    let reps = if quick { 2 } else { 5 };
    let mut best = f64::INFINITY;
    let mut policy_days = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let days = db.collect_days().unwrap();
        let cmp = uc_policy::run_comparison(&days, &uc_policy::PolicyKind::ALL, &cfg);
        best = best.min(t0.elapsed().as_secs_f64());
        policy_days = days.len() * cmp.runs.len();
        black_box(cmp.eval_faults);
    }
    policy_days as f64 / best
}

/// Warm full-scan throughput (rows/s) of `count where raw>=1` over an
/// engine. Warm-up passes populate the block cache first (the steady
/// state a server scans from), then best-of-N over many repetitions —
/// the scan is microseconds-scale, so a single cold pass was dominated
/// by timing noise and produced spurious trajectory regressions.
fn scan_throughput(db: &Engine, quick: bool) -> f64 {
    let opts = QueryOptions::default();
    for _ in 0..3 {
        db.query("count where raw>=1", &opts).unwrap();
    }
    let reps = if quick { 20 } else { 200 };
    let mut best = f64::INFINITY;
    let mut rows_scanned = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let result = db.query("count where raw>=1", &opts).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        rows_scanned = result.rows_scanned;
    }
    rows_scanned as f64 / best
}

/// Best-of-N end-to-end measurements plus the two derived throughputs,
/// written as `BENCH_campaign.json` at the repo root.
fn emit_trajectory(quick: bool) {
    let base = bench_dir();
    let rounds = if quick { 1 } else { 3 };

    let mut text_best = f64::INFINITY;
    let mut corpus_bytes = 0u64;
    let mut rows = 0u64;
    let mut campaign = None;
    for r in 0..rounds {
        let (secs, bytes, n, result) = text_path_once(&base, &r.to_string());
        text_best = text_best.min(secs);
        corpus_bytes = bytes;
        rows = n;
        campaign = Some(result);
        // Only round 0's corpus is read again (ingest throughput below);
        // a paper-scale text corpus is ~3.7 GB, so later rounds' outputs
        // go as soon as they are timed.
        if r > 0 {
            let _ = std::fs::remove_dir_all(base.join(format!("text-logs-{r}")));
            let _ = std::fs::remove_dir_all(base.join(format!("text-ckpt-{r}")));
            let _ = std::fs::remove_file(base.join(format!("text-{r}.ucfdb")));
        }
    }
    let campaign = campaign.expect("at least one round");

    // In-memory recovery of every completed node's log, as the direct
    // path's node hook runs it.
    let raw_records: u64 = campaign
        .completed()
        .map(|sim| sim.log.raw_record_count())
        .sum();
    let mut recover_best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for sim in campaign.completed() {
            black_box(recover_log(black_box(&sim.log)));
        }
        recover_best = recover_best.min(t0.elapsed().as_secs_f64());
    }
    let recover_records_per_sec = raw_records as f64 / recover_best;
    drop(campaign);

    let mut direct_best = f64::INFINITY;
    for r in 0..rounds {
        let (secs, n) = direct_path_once(&base, &r.to_string());
        direct_best = direct_best.min(secs);
        assert_eq!(n, rows, "direct path sealed a different row count");
    }

    // Ingest throughput over the corpus the text path wrote.
    let logs = base.join("text-logs-0");
    let mut ingest_best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let (cluster, _) = read_cluster_log_recovering(&logs).unwrap();
        black_box(cluster.node_logs().len());
        ingest_best = ingest_best.min(t0.elapsed().as_secs_f64());
    }
    let ingest_mb_per_sec = corpus_bytes as f64 / (1024.0 * 1024.0) / ingest_best;

    // Full-scan query throughput. Three variants of the same sealed
    // campaign: the historical v1 fixed layout (`scan_rows_per_sec`, the
    // long-tracked trajectory key), the v2 packed layout
    // (`scan_packed_rows_per_sec`, the branch-free kernel's headline),
    // and a (time window × rack) sharded root queried through the
    // fan-out engine (`shard_fanout_rows_per_sec`).
    let v2_path = base.join("direct-0.ucfdb");
    let snap = FaultDb::open(&v2_path).unwrap().snapshot().unwrap();
    let v1_path = base.join("scan-v1.ucfdb");
    uc_faultdb::format::write_db(
        &snap,
        &v1_path,
        &WriteOptions {
            encoding: FileEncoding::V1,
            ..WriteOptions::default()
        },
    )
    .unwrap();
    let root_dir = base.join("scan-root");
    uc_faultdb::write_sharded(&snap, &root_dir, 4, &WriteOptions::default()).unwrap();

    let scan_rows_per_sec = scan_throughput(&Engine::open_auto(&v1_path).unwrap(), quick);
    let scan_packed_rows_per_sec = scan_throughput(&Engine::open_auto(&v2_path).unwrap(), quick);
    let shard_fanout_rows_per_sec = scan_throughput(&Engine::open_auto(&root_dir).unwrap(), quick);

    // Serving-layer tail latency, replication catch-up throughput, and
    // policy replay throughput.
    let p99_us = serve_p99_us(&base.join("direct-0.ucfdb"), quick);
    let mix_cpu_us = query_mix_cpu_us(&base.join("direct-0.ucfdb"));
    let serve_cpu = serve_cpu_us(&base.join("direct-0.ucfdb"));
    let catchup = catchup_mb_per_sec(&base, quick);
    let live_seal_us = live_seal_cpu_us(&base, quick);
    let push_session_us = push_session_cpu_us(&base, quick);
    let policy_dps = policy_days_per_sec(&base.join("direct-0.ucfdb"), quick);

    let json = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"config\": {{\"seed\": 42, \"blades\": 8}},\n  \
         \"rows\": {rows},\n  \
         \"campaign_faults_per_sec\": {:.1},\n  \
         \"text_path_e2e_seconds\": {text_best:.4},\n  \
         \"direct_path_e2e_seconds\": {direct_best:.4},\n  \
         \"direct_speedup\": {:.2},\n  \
         \"ingest_mb_per_sec\": {ingest_mb_per_sec:.1},\n  \
         \"recover_records_per_sec\": {recover_records_per_sec:.0},\n  \
         \"scan_rows_per_sec\": {scan_rows_per_sec:.0},\n  \
         \"scan_packed_rows_per_sec\": {scan_packed_rows_per_sec:.0},\n  \
         \"shard_fanout_rows_per_sec\": {shard_fanout_rows_per_sec:.0},\n  \
         \"serve_p99_us\": {p99_us:.1},\n  \
         \"query_mix_cpu_us\": {mix_cpu_us:.1},\n  \
         \"serve_cpu_us\": {serve_cpu:.1},\n  \
         \"catchup_mb_per_sec\": {catchup:.2},\n  \
         \"live_seal_cpu_us\": {live_seal_us:.2},\n  \
         \"push_session_cpu_us\": {push_session_us:.2},\n  \
         \"policy_days_per_sec\": {policy_dps:.0}\n}}\n",
        rows as f64 / direct_best,
        text_best / direct_best,
    );
    // crates/bench/benches → repo root, where CI validates the file.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    std::fs::write(&out, json).expect("write BENCH_campaign.json");
    eprintln!("wrote {}", out.display());

    let _ = std::fs::remove_dir_all(&base);
}

fn campaign_paths(c: &mut Criterion) {
    // The trajectory runs first so `--test` smoke still produces the
    // JSON CI checks for.
    let quick = std::env::args().any(|a| a == "--test");
    emit_trajectory(quick);

    let base = bench_dir();
    let mut group = c.benchmark_group("campaign_path");
    group.bench_function("direct_campaign_to_db", |b| {
        b.iter(|| black_box(direct_path_once(&base, "crit").1))
    });
    group.bench_function("text_campaign_build_db", |b| {
        b.iter(|| black_box(text_path_once(&base, "crit").2))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, campaign_paths);
criterion_main!(benches);
