//! `live`: the campaign's per-node logs in compact form, pushed into a
//! live database while it is queried and replicated.
//!
//! One closed-loop pusher runs one `stream_lines` session per node per
//! simulated day, in time order, and a SEAL every [`SEAL_EVERY_DAYS`]
//! simulated days; a querier offers a fixed low open-loop rate against
//! `Server` on `LiveDb::handle`; one replica follows the primary's
//! ingest port. Writes run beside reads on one engine, and this is the
//! only workload that reaches the WAL, the catalog, the ingest server
//! and replication. Every seal rebuilds from all records so far, and
//! every generation swap starts queries on a cold cache.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use unprotected_computing::cluster::NodeId;
use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::{
    build_db, gen_file_name, stream_lines, DbHandle, Engine, IngestConfig, IngestServer, LiveDb,
    ReplicaConfig, Replication, Role, ServeConfig, Server, Snapshot, StreamOptions, WriteOptions,
};
use unprotected_computing::faultlog::files::node_of_file_name;
use unprotected_computing::faultlog::ingest::recover_text;
use unprotected_computing::faultlog::{ClusterLog, IngestStats};

use crate::queries::{self, Reply, Sample};
use crate::trace::{self, coverage_pct, Schedule, Tracer};
use crate::{median, percentile, prep, Args, EndToEnd, Outcome, SetUp};

/// Simulated days between SEALs.
pub const SEAL_EVERY_DAYS: i64 = 7;
/// Offered query rate of the querier, per second, on one connection.
pub const QUERY_RATE: f64 = 200.0;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 15;
/// How often a traced run samples replication lag.
const LAG_SAMPLE_PERIOD: Duration = Duration::from_millis(5);
/// Upper bound on any wait for the replica.
const REPLICA_TIMEOUT: Duration = Duration::from_secs(60);

struct Corpus {
    dir: PathBuf,
    nodes: Vec<(NodeId, Vec<String>)>,
    /// Pusher steps in time order.
    steps: Vec<Step>,
    first_day: i64,
    last_day: i64,
    input_bytes: u64,
}

#[derive(Clone, Copy)]
enum Step {
    /// Push node `node`'s lines up to (excluding) `end`.
    Session {
        node: usize,
        end: usize,
    },
    Seal,
}

fn day_of(line: &str) -> Option<i64> {
    let t = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("t="))?;
    Some(t.parse::<i64>().ok()?.div_euclid(86_400))
}

impl Corpus {
    fn load(dir: &Path) -> Result<Corpus, String> {
        let mut nodes = Vec::new();
        let rd = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for entry in rd.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(node) = node_of_file_name(&name) else {
                continue;
            };
            let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"))?;
            nodes.push((node, text.lines().map(str::to_string).collect::<Vec<_>>()));
        }
        nodes.sort_by_key(|(n, _)| n.0);

        // A node's session for day d ends at its first line of a later
        // day; lines keep file order, since sequence numbers follow it.
        let mut sessions: Vec<(i64, usize, usize)> = Vec::new();
        for (i, (_, lines)) in nodes.iter().enumerate() {
            let mut day = i64::MIN;
            for (k, line) in lines.iter().enumerate() {
                let d = day_of(line).unwrap_or(day).max(day);
                if d != day && k > 0 {
                    sessions.push((day, i, k));
                }
                day = d;
            }
            if !lines.is_empty() {
                sessions.push((day, i, lines.len()));
            }
        }
        sessions.sort_by_key(|&(day, node, _)| (day, node));
        let first_day = sessions.first().map_or(0, |s| s.0);
        let last_day = sessions.last().map_or(0, |s| s.0);

        let mut steps = Vec::new();
        let mut next_seal = first_day + SEAL_EVERY_DAYS;
        for &(day, node, end) in &sessions {
            while day >= next_seal {
                steps.push(Step::Seal);
                next_seal += SEAL_EVERY_DAYS;
            }
            steps.push(Step::Session { node, end });
        }
        steps.push(Step::Seal);
        let input_bytes = nodes
            .iter()
            .flat_map(|(_, l)| l)
            .map(|l| l.len() as u64 + 1)
            .sum();
        Ok(Corpus {
            dir: dir.to_path_buf(),
            nodes,
            steps,
            first_day,
            last_day,
            input_bytes,
        })
    }

    fn lines(&self) -> u64 {
        self.nodes.iter().map(|(_, l)| l.len() as u64).sum()
    }
}

struct Up {
    primary: Arc<LiveDb>,
    ingest: IngestServer,
    server: Server,
    replica: Arc<LiveDb>,
    repl: Replication,
}

/// Fresh primary and replica under `dir`, both servers, and the
/// replication link; timed on both clocks, the directory reset excluded.
fn set_up(dir: &Path) -> Result<(Up, SetUp), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (up, s) = SetUp::time(|| start(dir));
    Ok((up?, s))
}

fn start(dir: &Path) -> Result<Up, String> {
    let (primary, _) =
        LiveDb::open(&dir.join("primary")).map_err(|e| format!("open primary: {e}"))?;
    let primary = Arc::new(primary);
    let ingest = IngestServer::start_with_role(
        Arc::clone(&primary),
        &IngestConfig::default(),
        Some(Arc::new(Role::primary())),
    )
    .map_err(|e| format!("ingest server: {e}"))?;
    let server = Server::start(primary.handle(), &ServeConfig::default())
        .map_err(|e| format!("query server: {e}"))?;
    let (replica, _) =
        LiveDb::open(&dir.join("replica")).map_err(|e| format!("open replica: {e}"))?;
    let replica = Arc::new(replica);
    let repl = Replication::start(
        Arc::clone(&replica),
        ReplicaConfig::new(&ingest.local_addr().to_string()),
    );
    // Ready once the replica has connected and the primary has admitted
    // its SYNC session.
    let deadline = Instant::now() + REPLICA_TIMEOUT;
    while repl.stats().connects == 0 || ingest.stats().sessions == 0 {
        if Instant::now() > deadline {
            return Err("replica never connected".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Up {
        primary,
        ingest,
        server,
        replica,
        repl,
    })
}

fn tear_down(up: Up) {
    up.repl.shutdown();
    up.ingest.shutdown();
    up.ingest.join();
    up.server.shutdown();
    up.server.join();
}

/// What one push phase measured.
#[derive(Default)]
struct Phase {
    push_secs: f64,
    /// CPU time of the program over the push phase: ingest and query
    /// servers, seals and the replica. The pusher's and the querier's
    /// own CPU time is taken out.
    program_cpu_s: f64,
    acked: u64,
    ack_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    /// Records served by the primary right after each seal.
    seal_records: Vec<u64>,
    lag_records: Vec<f64>,
    retries: u64,
    failed_sessions: u64,
    /// Primary's final SEAL ack until the replica holds the same records
    /// and generation.
    replica_lag_s: f64,
    queries: Vec<Sample>,
}

/// One push phase: pusher on this thread, querier on another.
fn push_phase(
    corpus: &Corpus,
    up: &Up,
    texts: &[String],
    tracer: Option<&Tracer>,
    after: queries::After<'_>,
) -> Phase {
    let mut ph = Phase::default();
    let addr = up.ingest.local_addr();
    let seal_node = corpus.nodes[0].0;
    let stop = AtomicBool::new(false);
    let seal_opts = StreamOptions {
        seal_at_end: true,
        ..StreamOptions::default()
    };
    let mut acked_per_node = vec![0u64; corpus.nodes.len()];
    let caught_up = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let querier = scope.spawn(|| {
            queries::open_loop(
                up.server.local_addr(),
                texts,
                &|_, _| true,
                QUERY_RATE,
                1,
                usize::MAX,
                &stop,
                after,
            )
        });
        // Traced runs sample replication lag in records from their own
        // thread: `status()` waits on a seal in progress, which must not
        // stall the pusher, and takes the locks ingest and replication
        // apply with, so untraced runs do not sample at all.
        let monitor = tracer.map(|_| {
            scope.spawn(|| {
                let mut seen = Vec::new();
                while !caught_up.load(Ordering::Acquire) {
                    let primary = up.primary.status().records;
                    let replica = up.replica.status().records;
                    seen.push(primary.saturating_sub(replica) as f64);
                    std::thread::sleep(LAG_SAMPLE_PERIOD);
                }
                seen
            })
        });
        let (t0, cpu0) = (Instant::now(), crate::cpu_seconds());
        let pusher_cpu0 = crate::thread_cpu_seconds();
        for (i, step) in corpus.steps.iter().enumerate() {
            let t = Instant::now();
            match *step {
                Step::Session { node, end } => {
                    let (id, lines) = &corpus.nodes[node];
                    let r = stream_lines(addr, *id, &lines[..end], &StreamOptions::default(), None);
                    let done = Instant::now();
                    if let Some(tr) = tracer {
                        tr.record("faultdb.ingest_server.session", None, i as u64, t, done);
                    }
                    ph.ack_ms.push(done.duration_since(t).as_secs_f64() * 1e3);
                    match r {
                        Ok(rep) if rep.acked == end as u64 => {
                            ph.retries += u64::from(rep.retries);
                            acked_per_node[node] = rep.acked;
                        }
                        _ => ph.failed_sessions += 1,
                    }
                }
                Step::Seal => {
                    let r = stream_lines(addr, seal_node, &[], &seal_opts, None);
                    let done = Instant::now();
                    if let Some(tr) = tracer {
                        tr.record("faultdb.catalog.seal", None, i as u64, t, done);
                    }
                    ph.seal_ms.push(done.duration_since(t).as_secs_f64() * 1e3);
                    ph.seal_records.push(up.primary.status().gen_records);
                    if r.is_err() {
                        ph.failed_sessions += 1;
                    }
                }
            }
        }
        ph.push_secs = t0.elapsed().as_secs_f64();
        ph.program_cpu_s =
            crate::cpu_seconds() - cpu0 - (crate::thread_cpu_seconds() - pusher_cpu0);
        let sealed = Instant::now();
        stop.store(true, Ordering::Release);
        let want = up.primary.status();
        loop {
            let got = up.replica.status();
            if got.records == want.records && got.generation == want.generation {
                break;
            }
            if sealed.elapsed() > REPLICA_TIMEOUT {
                ph.failed_sessions += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        ph.replica_lag_s = sealed.elapsed().as_secs_f64();
        caught_up.store(true, Ordering::Release);
        if let Some(m) = monitor {
            ph.lag_records = m.join().expect("monitor thread panicked");
        }
        let querier_cpu_s;
        (ph.queries, querier_cpu_s) = querier.join().expect("querier thread panicked");
        ph.program_cpu_s -= querier_cpu_s;
    });
    ph.acked = acked_per_node.iter().sum();
    ph
}

fn gen_path(live: &LiveDb) -> PathBuf {
    live.dir().join(gen_file_name(live.status().generation))
}

fn dir_bytes(dir: &Path, prefix: &str) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with(prefix) {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    files += 1;
                    bytes += m.len();
                }
            }
        }
    }
    (files, bytes)
}

/// Output checks on a finished phase; also counts its operations.
fn check_phase(out: &mut Outcome, corpus: &Corpus, up: &Up, ph: &Phase, scratch: &Path) {
    for s in &ph.queries {
        match &s.reply {
            Reply::Ok(_) => out.op(true),
            Reply::Err(e) | Reply::Io(e) => {
                out.op(false);
                println!("live: query {} failed: {e}", s.index);
            }
        }
    }
    let sessions = corpus.steps.len() as u64;
    for k in 0..sessions {
        out.op(k >= ph.failed_sessions);
    }
    let lines = corpus.lines();
    let records = up.primary.status().records;
    out.check(ph.acked == lines && records == lines, || {
        format!(
            "{} of {lines} lines acked, primary holds {records}",
            ph.acked
        )
    });

    let primary_gen = std::fs::read(gen_path(&up.primary)).unwrap_or_default();
    let oracle = scratch.join("oracle.ucfdb");
    let _ = std::fs::remove_file(&oracle);
    let oracle_bytes = build_db(&corpus.dir, &oracle, &WriteOptions::default())
        .ok()
        .and_then(|_| std::fs::read(&oracle).ok())
        .unwrap_or_default();
    let _ = std::fs::remove_file(&oracle);
    out.check(
        !primary_gen.is_empty() && primary_gen == oracle_bytes,
        || "the primary's final generation differs from build_db over the same lines".into(),
    );
    let replica_gen = std::fs::read(gen_path(&up.replica)).unwrap_or_default();
    out.check(replica_gen == primary_gen, || {
        "the replica's final generation differs from the primary's".into()
    });
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let corpus = Corpus::load(&prep::live_corpus(args.seed)?)?;
    let mut out = Outcome::default();
    let base = crate::work_dir().join("live");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).map_err(|e| format!("mkdir: {e}"))?;
    let texts = queries::mix(
        args.seed ^ 0x6c69_7665,
        4096,
        corpus.first_day,
        corpus.last_day,
    );
    println!(
        "live: {} lines ({} bytes) for {} nodes, days {}..={}, {} pusher steps, query rate {QUERY_RATE}/s",
        corpus.lines(),
        corpus.input_bytes,
        corpus.nodes.len(),
        corpus.first_day,
        corpus.last_day,
        corpus.steps.len()
    );

    let mut setups = Vec::new();
    let mut up = None;
    for _ in 0..SETUPS {
        if let Some(prev) = up.take() {
            tear_down(prev);
        }
        let (next, s) = set_up(&base.join("untraced"))?;
        setups.push(s);
        up = Some(next);
    }
    let up = up.expect("at least one set-up ran");

    // Cache counters per generation engine, as last seen after a reply.
    let cache_seen: Mutex<HashMap<usize, (u64, u64, u64)>> = Mutex::new(HashMap::new());
    let handle = up.primary.handle();
    let observe = |_: &Sample| {
        if let Engine::Single(db) = handle.current() {
            let c = db.cache_stats();
            cache_seen
                .lock()
                .expect("cache map")
                .insert(Arc::as_ptr(&db) as usize, (c.hits, c.misses, c.evictions));
        }
    };
    let none = |_: &Sample| {};
    let after: queries::After<'_> = if args.trace { &observe } else { &none };
    let ph = push_phase(&corpus, &up, &texts, None, after);
    check_phase(&mut out, &corpus, &up, &ph, &base);
    let sum = queries::Summary::of(&ph.queries);
    let (_, stored) = dir_bytes(up.primary.dir(), "");
    let faults = up.primary.handle().current().rows();
    println!(
        "live: push {:.3} s, {} sessions+seals",
        ph.push_secs,
        corpus.steps.len()
    );
    sum.print("live", ph.queries.len());
    // Wall-clock figures of this workload are printed, not gated: they
    // follow the host's load from run to run more than the program
    // (README.md, Steadiness). CPU time per line is gated.
    let mut ack = ph.ack_ms.clone();
    let mut seal = ph.seal_ms.clone();
    let seal_mean = seal.iter().sum::<f64>() / seal.len().max(1) as f64;
    for (name, value, unit) in [
        ("query_p50_us", sum.p50, "us"),
        (
            "ingest_records_per_s",
            ph.acked as f64 / ph.push_secs,
            "lines/s",
        ),
        ("ack_p50_ms", percentile(&mut ack, 0.5), "ms"),
        ("ack_p99_ms", percentile(&mut ack, 0.99), "ms"),
        ("seal_p50_ms", median(&mut seal), "ms"),
        ("seal_mean_ms", seal_mean, "ms"),
        ("replica_lag_s", ph.replica_lag_s, "s"),
        (
            "stored_bytes_per_input_byte",
            stored as f64 / corpus.input_bytes as f64,
            "ratio",
        ),
    ] {
        out.detail(name, value, &format!("{unit} (not gated)"));
    }
    let ingest_stats = up.ingest.stats();
    tear_down(up);

    if !args.trace {
        out.end_to_end(EndToEnd {
            setup_s: crate::setup_s(&setups),
            peak_rss_mb: crate::peak_rss_mb(),
            cpu_us_per_op: ph.program_cpu_s * 1e6 / ph.acked.max(1) as f64,
            stored_bytes_per_fault: stored as f64 / faults.max(1) as f64,
        });
        let _ = std::fs::remove_dir_all(&base);
        return Ok(out);
    }

    let (hits, misses, evictions) = cache_seen
        .into_inner()
        .expect("cache map")
        .values()
        .fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
    out.detail("faultdb.cache.evictions", evictions as f64, "count");
    out.detail(
        "faultdb.ingest_server.rejected",
        ingest_stats.rejected as f64,
        "count",
    );

    let tracer = Tracer::new();
    let (up, _) = set_up(&base.join("traced"))?;
    let handle: DbHandle = up.primary.handle();
    let mut traced = Phase::default();
    let t0 = tracer.now_ns();
    let queries =
        crate::serve::traced_phase(&|| handle.current(), &tracer, &texts, &out, |after| {
            traced = push_phase(&corpus, &up, &texts, Some(&tracer), after);
            std::mem::take(&mut traced.queries)
        });
    let t1 = tracer.now_ns();
    let schedule = tracer.spans();
    traced.queries = queries;
    check_phase(&mut out, &corpus, &up, &traced, &base);

    let spans = tracer.spans();
    let mut session_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "faultdb.ingest_server.session")
        .map(|s| s.secs() * 1e3)
        .collect();
    out.detail(
        "faultdb.ingest_server.session_ms_p50",
        percentile(&mut session_ms, 0.5),
        "ms",
    );
    out.detail(
        "faultdb.ingest_server.session_ms_p99",
        percentile(&mut session_ms, 0.99),
        "ms",
    );
    out.detail(
        "faultdb.ingest_server.retries",
        traced.retries as f64,
        "count",
    );

    let mut seal_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "faultdb.catalog.seal")
        .map(|s| s.secs() * 1e3)
        .collect();
    let mut per_record: Vec<f64> = traced
        .seal_ms
        .iter()
        .zip(&traced.seal_records)
        .filter(|(_, &r)| r > 0)
        .map(|(ms, &r)| ms * 1e3 / r as f64)
        .collect();
    out.detail("faultdb.catalog.seal_ms_p50", median(&mut seal_ms), "ms");
    out.detail(
        "faultdb.catalog.seal_ms_max",
        seal_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.detail(
        "faultdb.catalog.seal_us_per_record",
        median(&mut per_record),
        "us",
    );

    let mut lag = traced.lag_records.clone();
    out.detail("faultdb.repl.lag_records_p50", median(&mut lag), "records");
    out.detail(
        "faultdb.repl.lag_records_max",
        lag.iter().copied().fold(0.0, f64::max),
        "records",
    );
    out.detail(
        "faultdb.repl.replica_seals",
        up.repl.stats().seals as f64,
        "count",
    );

    let (gens, _) = dir_bytes(up.primary.dir(), "gen-");
    let (_, all) = dir_bytes(up.primary.dir(), "");
    let (_, wal) = dir_bytes(up.primary.dir(), "wal-");
    out.detail("faultdb.catalog.gen_files", gens as f64, "count");
    out.detail("faultdb.catalog.dir_bytes", all as f64, "bytes");
    out.detail("faultdb.wal.bytes", wal as f64, "bytes");
    let final_gen = std::fs::read(gen_path(&up.primary)).unwrap_or_default();
    tear_down(up);

    seal_probe(&corpus, &tracer, &base, &final_gen, &mut out)?;
    ingest_probe(&corpus, &tracer, &base, &out)?;
    trace::print_self_times(&tracer.spans());
    trace::per_layer(
        &mut out,
        &schedule,
        Schedule {
            wall_s: (t1 - t0) as f64 * 1e-9,
            coverage_pct: coverage_pct(&schedule, None, t0, t1),
            overhead_pct: (traced.push_secs / ph.push_secs - 1.0) * 100.0,
            cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        },
    );
    let _ = tracer.write_jsonl(&crate::work_dir().join(format!("trace-live-{}.jsonl", args.seed)));
    let _ = std::fs::remove_dir_all(&base);
    Ok(out)
}

/// The final seal's pipeline, timed piece by piece with no wire and no
/// WAL: `recover_text` per node → `Snapshot::from_cluster` → `write_db`.
/// It must produce the primary's final generation byte for byte.
fn seal_probe(
    corpus: &Corpus,
    tracer: &Tracer,
    base: &Path,
    final_gen: &[u8],
    out: &mut Outcome,
) -> Result<(), String> {
    let texts: Vec<String> = corpus
        .nodes
        .iter()
        .map(|(_, lines)| {
            let mut t = lines.join("\n");
            t.push('\n');
            t
        })
        .collect();
    let t = Instant::now();
    let mut stats = IngestStats::default();
    let mut logs = Vec::new();
    for ((node, _), text) in corpus.nodes.iter().zip(&texts) {
        let mut rec = tracer.time("faultlog.recover_text", None, u64::from(node.0), || {
            recover_text(text)
        });
        rec.stats.files_read = 1;
        if rec.log.node.is_none() {
            rec.log.node = Some(*node);
        }
        stats.merge(&rec.stats);
        logs.push(rec.log);
    }
    out.detail(
        "faultlog.recover_text_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let cluster = ClusterLog::new(logs);
    let t = Instant::now();
    let snap = tracer.time("faultdb.snapshot", None, 0, || {
        Snapshot::from_cluster(&cluster, stats)
    });
    out.detail(
        "faultdb.catalog.seal_snapshot_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let path = base.join("probe.ucfdb");
    let t = Instant::now();
    tracer
        .time("faultdb.write", None, 0, || {
            write_db(&snap, &path, &WriteOptions::default())
        })
        .map_err(|e| format!("write_db: {e}"))?;
    out.detail(
        "faultdb.catalog.seal_write_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let bytes = std::fs::read(&path).unwrap_or_default();
    out.check(bytes == final_gen, || {
        "the seal probe's bytes differ from the primary's final generation".into()
    });
    Ok(())
}

/// A scratch `LiveDb` fed the same sessions through `ingest`/`flush`,
/// with no wire: per-line ingest cost and per-session flush cost. A
/// flush is a WAL append (write, no fsync), as shipped.
fn ingest_probe(
    corpus: &Corpus,
    tracer: &Tracer,
    base: &Path,
    out: &Outcome,
) -> Result<(), String> {
    let dir = base.join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let (live, _) = LiveDb::open(&dir).map_err(|e| format!("open probe: {e}"))?;
    let mut next = vec![0usize; corpus.nodes.len()];
    let mut ingest_s = 0.0;
    let mut lines = 0u64;
    let mut flush_ms = Vec::new();
    for (i, step) in corpus.steps.iter().enumerate() {
        let Step::Session { node, end } = *step else {
            continue;
        };
        let (id, all) = &corpus.nodes[node];
        let t = Instant::now();
        for (seq, line) in all.iter().enumerate().take(end).skip(next[node]) {
            live.ingest(*id, seq as u64, line)
                .map_err(|e| format!("probe ingest: {e}"))?;
        }
        let done = Instant::now();
        tracer.record("faultdb.catalog.ingest", None, i as u64, t, done);
        ingest_s += done.duration_since(t).as_secs_f64();
        lines += (end - next[node]) as u64;
        next[node] = end;
        let t = Instant::now();
        live.flush().map_err(|e| format!("probe flush: {e}"))?;
        let done = Instant::now();
        tracer.record("faultdb.wal.flush", None, i as u64, t, done);
        flush_ms.push(done.duration_since(t).as_secs_f64() * 1e3);
    }
    out.detail(
        "faultdb.catalog.ingest_us",
        ingest_s * 1e6 / lines.max(1) as f64,
        "us",
    );
    out.detail("faultdb.wal.flush_ms", median(&mut flush_ms), "ms");
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
