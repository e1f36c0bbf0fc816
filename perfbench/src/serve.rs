//! `serve`: the sealed campaign database behind `faultdb::Server`,
//! queried open loop at one fixed offered rate over two connections.
//!
//! Every read-side layer runs (query parse, plan and zone-map pruning,
//! block cache, scan kernels, the line protocol) and no write path. The
//! campaign's ~53k rows in 13 blocks fit the default 256-block cache,
//! so this is the warm-cache case. The rate stays below saturation:
//! saturated throughput swings too much between runs to gate on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use unprotected_computing::faultdb::{
    parse_query, write_sharded, Client, Engine, QueryOptions, Response, ServeConfig, Server,
    WriteOptions,
};
use unprotected_computing::parallel::with_thread_limit;

use crate::queries::{self, Reply, Sample};
use crate::trace::{self, coverage_pct, Schedule, Tracer};
use crate::{median, percentile, prep, Args, EndToEnd, Outcome, SetUp};

/// Offered query rate, queries per second, over both connections.
pub const RATE: f64 = 1000.0;
/// Load connections (one load thread each).
pub const CONNS: usize = 2;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 15;

struct Up {
    engine: Engine,
    server: Server,
}

fn stop(up: Up) {
    up.server.shutdown();
    up.server.join();
}

/// Engine open, server start, and one warm pass over every block.
fn set_up(db: &std::path::Path) -> Result<Up, String> {
    let engine = Engine::open_auto(db).map_err(|e| format!("open {}: {e}", db.display()))?;
    let server = Server::start(engine.clone(), &ServeConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    match client.request("count") {
        Ok(Response::Ok(_)) => {}
        other => return Err(format!("warm pass failed: {other:?}")),
    }
    drop(client);
    Ok(Up { engine, server })
}

/// The fault day range of a sealed database.
pub fn day_range(engine: &Engine) -> Result<(i64, i64), String> {
    let faults = engine
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?
        .faults;
    let lo = faults.first().map_or(0, |f| f.time.day_index());
    let hi = faults.last().map_or(0, |f| f.time.day_index());
    Ok((lo, hi))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let db = prep::serve_db(args.seed)?;
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut up = None;
    for _ in 0..SETUPS {
        if let Some(prev) = up.take() {
            stop(prev);
        }
        let (next, s) = SetUp::time(|| set_up(&db));
        up = Some(next?);
        out.op(true);
        setups.push(s);
    }
    let up = up.expect("at least one set-up ran");

    let (lo, hi) = day_range(&up.engine)?;
    let count = (RATE * args.seconds as f64) as usize;
    let texts = queries::mix(args.seed, count, lo, hi);
    let expected = expected_answers(&up.engine, &texts)?;
    println!(
        "serve: {} rows in {} blocks, days {lo}..={hi}, {count} queries at {RATE}/s over {CONNS} connections",
        up.engine.rows(),
        up.engine.blocks()
    );

    let cache0 = up.engine.cache_stats();
    let cpu0 = crate::cpu_seconds();
    let (samples, load_cpu_s) = phase(&up, &texts, &expected, &|_| {});
    // The server's threads alone: the load threads' own CPU is taken out.
    let cpu_us = (crate::cpu_seconds() - cpu0 - load_cpu_s) * 1e6 / samples.len().max(1) as f64;
    let cache1 = up.engine.cache_stats();
    let sum = queries::Summary::of(&samples);
    check_replies(&mut out, &samples, &texts);
    sum.print("serve", samples.len());
    // Idle virtual CPUs wake up with latency that swings from run to run
    // on a shared host, so wall-clock latency is printed, not gated
    // (README.md, Steadiness); CPU time per query is gated.
    out.detail("query_p50_us", sum.p50, "us (not gated)");

    if !args.trace {
        let db_bytes = std::fs::metadata(&db).map_or(0, |m| m.len());
        out.end_to_end(EndToEnd {
            setup_s: crate::setup_s(&setups),
            peak_rss_mb: crate::peak_rss_mb(),
            cpu_us_per_op: cpu_us,
            stored_bytes_per_fault: db_bytes as f64 / up.engine.rows().max(1) as f64,
        });
        stop(up);
        return Ok(out);
    }

    let tracer = Tracer::new();
    let hits = (cache1.hits - cache0.hits) as f64;
    let misses = (cache1.misses - cache0.misses) as f64;
    out.detail(
        "faultdb.cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
    );
    let t0 = tracer.now_ns();
    let traced = traced_phase(&|| up.engine.clone(), &tracer, &texts, &out, |after| {
        phase(&up, &texts, &expected, after).0
    });
    let t1 = tracer.now_ns();
    let schedule = tracer.spans();
    check_replies(&mut out, &traced, &texts);
    let traced_p50 = queries::Summary::of(&traced).p50;
    stop(up);

    cold_and_kernel(&db, &out)?;
    shard_probe(&db, &texts, &expected, &mut out)?;
    trace::print_self_times(&tracer.spans());
    trace::per_layer(
        &mut out,
        &schedule,
        Schedule {
            wall_s: (t1 - t0) as f64 * 1e-9,
            coverage_pct: coverage_pct(&schedule, None, t0, t1),
            overhead_pct: (traced_p50 / sum.p50 - 1.0) * 100.0,
            cache_hit_ratio: hits / (hits + misses).max(1.0),
        },
    );
    let _ = tracer.write_jsonl(&crate::work_dir().join(format!("trace-serve-{}.jsonl", args.seed)));
    Ok(out)
}

fn phase(
    up: &Up,
    texts: &[String],
    expected: &HashMap<String, Vec<String>>,
    after: queries::After<'_>,
) -> (Vec<Sample>, f64) {
    let stop = AtomicBool::new(false);
    let judge = |text: &str, lines: &[String]| expected.get(text).is_some_and(|e| e == lines);
    queries::open_loop(
        up.server.local_addr(),
        texts,
        &judge,
        RATE,
        CONNS,
        texts.len(),
        &stop,
        after,
    )
}

/// In-process answers for every distinct query of the schedule.
pub fn expected_answers(
    engine: &Engine,
    texts: &[String],
) -> Result<HashMap<String, Vec<String>>, String> {
    let mut expected = HashMap::new();
    for text in texts {
        if !expected.contains_key(text) {
            let r = engine
                .query(text, &QueryOptions::default())
                .map_err(|e| format!("in-process {text}: {e}"))?;
            expected.insert(text.clone(), r.lines);
        }
    }
    Ok(expected)
}

/// Count every query, failed unless its reply matched `Engine::query`.
fn check_replies(out: &mut Outcome, samples: &[Sample], texts: &[String]) {
    let mut mismatches = Vec::new();
    for s in samples {
        let text = &texts[s.index % texts.len()];
        match &s.reply {
            Reply::Ok(ok) => {
                let ok = *ok;
                out.op(ok);
                if !ok {
                    mismatches.push(text.clone());
                }
            }
            Reply::Err(e) | Reply::Io(e) => {
                out.op(false);
                println!("serve: query failed: {text}: {e}");
            }
        }
    }
    out.check(mismatches.is_empty(), || {
        format!(
            "{} replies differ from Engine::query, first: {}",
            mismatches.len(),
            mismatches[0]
        )
    });
    out.check(samples.len() == texts.len(), || {
        format!("{} of {} queries ran", samples.len(), texts.len())
    });
}

/// Per-request layer timings, taken in-process right after each reply
/// and outside its timed request: `parse_query`, `Engine::run` at the
/// default thread count, and `Engine::run` on one thread (a probe of no
/// layer). Shared by the serve and live traced runs; `phase` runs the
/// open-loop schedule with the given after-reply hook.
pub fn traced_phase(
    current: &(dyn Fn() -> Engine + Sync),
    tracer: &Tracer,
    texts: &[String],
    out: &Outcome,
    phase: impl FnOnce(queries::After<'_>) -> Vec<Sample>,
) -> Vec<Sample> {
    let blocks = AtomicU64::new(0);
    let blocks_total = AtomicU64::new(0);
    let rows = AtomicU64::new(0);
    let matched = AtomicU64::new(0);
    let per_req: Mutex<Vec<(f64, f64, f64, f64)>> = Mutex::new(Vec::new());
    let after = |s: &Sample| {
        let req = s.index as u64;
        let root = tracer.record("faultdb.server.request", None, req, s.sent, s.done);
        let text = &texts[s.index % texts.len()];
        let engine = current();
        let t = Instant::now();
        let q = tracer.time("faultdb.query.parse", Some(root.id), req, || {
            parse_query(text)
        });
        let parse = t.elapsed().as_secs_f64() * 1e6;
        let Ok(q) = q else { return };
        let opts = QueryOptions::default();
        let t = Instant::now();
        let r = tracer.time("faultdb.db.run", Some(root.id), req, || {
            engine.run(&q, &opts)
        });
        let run = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let _ = tracer.time("probe.run_one_thread", Some(root.id), req, || {
            with_thread_limit(1, || engine.run(&q, &opts))
        });
        let run1 = t.elapsed().as_secs_f64() * 1e6;
        if let Ok(r) = r {
            blocks.fetch_add(u64::from(r.blocks_scanned), Ordering::Relaxed);
            blocks_total.fetch_add(u64::from(r.blocks_total), Ordering::Relaxed);
            rows.fetch_add(r.rows_scanned, Ordering::Relaxed);
            matched.fetch_add(r.matched, Ordering::Relaxed);
        }
        let request = root.secs() * 1e6;
        per_req
            .lock()
            .expect("per-request list")
            .push((parse, run, run1, request - parse - run));
    };
    let samples = phase(&after);
    let per_req = per_req.into_inner().expect("per-request list");
    let col = |i: usize| -> Vec<f64> { per_req.iter().map(|r| [r.0, r.1, r.2, r.3][i]).collect() };
    let (mut parse, mut run, mut run1, mut overhead) = (col(0), col(1), col(2), col(3));
    out.detail("faultdb.query.parse_us", median(&mut parse), "us");
    out.detail("faultdb.db.run_us_p50", percentile(&mut run, 0.5), "us");
    out.detail("faultdb.db.run_us_p99", percentile(&mut run, 0.99), "us");
    out.detail(
        "faultdb.server.overhead_us_p50",
        percentile(&mut overhead, 0.5),
        "us",
    );
    out.detail(
        "faultdb.server.overhead_us_p99",
        percentile(&mut overhead, 0.99),
        "us",
    );
    out.detail(
        "parallel.fanout_overhead_us",
        median(&mut run) - median(&mut run1),
        "us",
    );
    let f = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    out.detail(
        "faultdb.db.blocks_scanned_ratio",
        f(&blocks) / f(&blocks_total).max(1.0),
        "ratio",
    );
    out.detail(
        "faultdb.db.rows_per_match",
        f(&rows) / f(&matched).max(1.0),
        "ratio",
    );
    samples
}

/// First full scan on a freshly opened engine (cold cache), and the
/// warm full-scan rate of the kernels afterwards; medians over opens.
fn cold_and_kernel(db: &std::path::Path, out: &Outcome) -> Result<(), String> {
    let opts = QueryOptions::default();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut rows = 0;
    for _ in 0..5 {
        let engine = Engine::open_auto(db).map_err(|e| format!("open: {e}"))?;
        let t = Instant::now();
        let r = engine
            .query("count", &opts)
            .map_err(|e| format!("cold: {e}"))?;
        cold.push(t.elapsed().as_secs_f64() * 1e6);
        rows = r.rows_scanned;
        for _ in 0..40 {
            let t = Instant::now();
            std::hint::black_box(
                engine
                    .query("count", &opts)
                    .map_err(|e| format!("warm: {e}"))?,
            );
            warm.push(t.elapsed().as_secs_f64());
        }
    }
    out.detail("faultdb.db.cold_scan_us", median(&mut cold), "us");
    out.detail(
        "faultdb.kernel.rows_per_s",
        rows as f64 / median(&mut warm),
        "rows/s",
    );
    Ok(())
}

/// The same query mix in-process over a 4-shard root of the same data.
fn shard_probe(
    db: &std::path::Path,
    texts: &[String],
    expected: &HashMap<String, Vec<String>>,
    out: &mut Outcome,
) -> Result<(), String> {
    let engine = Engine::open_auto(db).map_err(|e| format!("open: {e}"))?;
    let snap = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let root = crate::work_dir().join("serve-shards");
    let _ = std::fs::remove_dir_all(&root);
    write_sharded(&snap, &root, 4, &WriteOptions::default())
        .map_err(|e| format!("write_sharded: {e}"))?;
    let sharded = Engine::open_auto(&root).map_err(|e| format!("open root: {e}"))?;
    let opts = QueryOptions::default();
    let mut lat = Vec::new();
    let mut wrong = 0;
    for text in texts.iter().take(2000) {
        let t = Instant::now();
        let r = sharded.query(text, &opts);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        let ok = matches!(&r, Ok(r) if expected.get(text) == Some(&r.lines));
        out.op(ok);
        wrong += u64::from(!ok);
    }
    out.check(wrong == 0, || {
        format!("{wrong} sharded answers differ from the single-file engine")
    });
    out.detail("faultdb.shard.run_us", median(&mut lat), "us");
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
