//! `campaign`: the researcher's reproduction job for one seed.
//!
//! `uc campaign --db` (the direct campaign→db path), then what
//! `uc analyze --db` prints, then the five-policy `uc policy` replay.
//! It has the paper's data shape — one flood node holds nearly all raw
//! records — so almost all of its work is on the write path: simulate →
//! recover → fold → snapshot/extract → write. Serving and ingest do
//! not run.
//!
//! Its set-up is what `uc campaign` does before a fresh job: build the
//! config and clear the job's checkpoint directory of any checkpoints an
//! earlier job left there.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use unprotected_computing::analysis::daily::DayVolume;
use unprotected_computing::analysis::extract::{extract_recovered, ExtractConfig};
use unprotected_computing::analysis::Fault;
use unprotected_computing::core::checkpoint::clear_checkpoints;
use unprotected_computing::core::{run_campaign_checkpointed_with, CampaignConfig, CampaignResult};
use unprotected_computing::direct::campaign_to_db;
use unprotected_computing::faultdb::format::write_db;
use unprotected_computing::faultdb::snapshot::FLOOD_SHARE;
use unprotected_computing::faultdb::{DirectFold, Engine, Snapshot, WriteOptions};
use unprotected_computing::faultlog::ingest::{recover_log, Recovered};
use unprotected_computing::parallel::pipeline::stage_shared;
use unprotected_computing::policy::{run_comparison, Comparison, PolicyKind, ReplayConfig};

use crate::trace::{self, coverage_pct, Schedule, Span, Tracer};
use crate::{prep, Args, EndToEnd, Outcome, SetUp};

/// The traced job's top-level stage spans must cover at least this
/// share of its wall-clock, in percent.
pub const STAGE_COVERAGE_MIN_PCT: f64 = 99.0;
/// Depth of the fault channel, as in `campaign_to_db`.
const CHANNEL_CAPACITY: usize = 64;
/// Set-ups per run; the reported set-up time is their median. A set-up
/// takes microseconds, so many are cheap.
const SETUPS: usize = 51;

/// What one run of the job leaves for the output checks.
struct Job {
    secs: f64,
    /// CPU time of the process over the job.
    cpu_s: f64,
    result: CampaignResult,
    db: PathBuf,
    sealed: Vec<Fault>,
    report: String,
    cmp: Comparison,
    /// Block-cache hit ratio of the engine the analysis tail read.
    cache_hit_ratio: f64,
}

impl Job {
    /// Raw records the campaign simulated and the job recovered.
    fn raw_records(&self) -> u64 {
        self.result
            .completed()
            .map(|s| s.log.raw_record_count())
            .sum()
    }
}

fn replay_config(cfg: &CampaignConfig) -> ReplayConfig {
    ReplayConfig {
        seed: cfg.seed,
        ..ReplayConfig::default()
    }
}

/// A fresh, empty job directory: a populated checkpoint directory would
/// silently turn the run into a resume.
fn fresh_job_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("ckpt")).map_err(|e| format!("mkdir {}: {e}", dir.display()))
}

/// The untraced job, exactly as the CLI runs it.
fn job(cfg: &CampaignConfig, dir: &Path) -> Result<Job, String> {
    let db = dir.join("campaign.ucfdb");
    let (t0, cpu0) = (Instant::now(), crate::cpu_seconds());
    let direct = campaign_to_db(cfg, &dir.join("ckpt"), &db, &WriteOptions::default())
        .map_err(|e| format!("campaign_to_db: {e}"))?;
    let engine = Engine::open_auto(&db).map_err(|e| format!("open: {e}"))?;
    let snap = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let report = snap.report_text();
    let days = engine
        .collect_days()
        .map_err(|e| format!("collect_days: {e}"))?;
    let cmp = run_comparison(&days, &PolicyKind::ALL, &replay_config(cfg));
    let secs = t0.elapsed().as_secs_f64();
    Ok(Job {
        secs,
        cpu_s: crate::cpu_seconds() - cpu0,
        result: direct.result,
        db,
        sealed: snap.faults,
        report,
        cmp,
        cache_hit_ratio: engine.cache_stats().hit_rate(),
    })
}

/// The set-up of a fresh job, as `uc campaign` does it: build the
/// config, and `clear_checkpoints` on the job's checkpoint directory,
/// which is empty here as every run's must be.
fn set_ups(seed: u64, ckpt: &Path) -> Result<Vec<SetUp>, String> {
    (0..SETUPS)
        .map(|_| {
            let (cleared, s) = SetUp::time(|| {
                let cfg = prep::campaign_config(seed);
                clear_checkpoints(ckpt).map(|()| cfg)
            });
            cleared.map_err(|e| format!("clear_checkpoints: {e}"))?;
            Ok(s)
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = crate::work_dir().join("campaign");
    let _ = std::fs::remove_dir_all(&base);

    let cfg = prep::campaign_config(args.seed);
    fresh_job_dir(&base.join("untraced"))?;
    let setups = set_ups(args.seed, &base.join("untraced").join("ckpt"))?;

    let plain = job(&cfg, &base.join("untraced"))?;
    check_job(&mut out, &plain);
    let records = plain.raw_records();
    println!(
        "campaign: {records} raw records, {} sealed faults, job {:.3} s wall, {:.3} s cpu",
        plain.sealed.len(),
        plain.secs,
        plain.cpu_s
    );
    // Wall-clock follows the host's load from hour to hour more than the
    // program (README.md, Steadiness); CPU time per record is gated.
    out.detail("campaign_s", plain.secs, "s (not gated)");

    if !args.trace {
        let db_bytes = std::fs::metadata(&plain.db).map_or(0, |m| m.len());
        out.end_to_end(EndToEnd {
            setup_s: crate::setup_s(&setups),
            peak_rss_mb: crate::peak_rss_mb(),
            cpu_us_per_op: plain.cpu_s * 1e6 / records.max(1) as f64,
            stored_bytes_per_fault: db_bytes as f64 / plain.sealed.len().max(1) as f64,
        });
        let _ = std::fs::remove_dir_all(&base);
        return Ok(out);
    }

    let plain_bytes = std::fs::read(&plain.db).map_err(|e| format!("read db: {e}"))?;
    let plain_secs = plain.secs;
    drop(plain);
    let dir = base.join("traced");
    fresh_job_dir(&dir)?;
    let tracer = Tracer::new();
    let (traced, schedule, coverage) = traced_job(&cfg, &dir, &tracer, &mut out)?;
    check_job(&mut out, &traced);
    let traced_bytes = std::fs::read(&traced.db).map_err(|e| format!("read db: {e}"))?;
    out.check(traced_bytes == plain_bytes, || {
        "the traced run sealed different bytes than the untraced run".into()
    });
    trace::print_self_times(&tracer.spans());
    trace::per_layer(
        &mut out,
        &schedule,
        Schedule {
            wall_s: traced.secs,
            coverage_pct: coverage,
            overhead_pct: (traced.secs / plain_secs - 1.0) * 100.0,
            cache_hit_ratio: traced.cache_hit_ratio,
        },
    );
    let _ =
        tracer.write_jsonl(&crate::work_dir().join(format!("trace-campaign-{}.jsonl", args.seed)));
    let _ = std::fs::remove_dir_all(&base);
    Ok(out)
}

fn check_job(out: &mut Outcome, job: &Job) {
    for outcome in &job.result.outcomes {
        out.op(outcome.sim().is_some());
    }
    let failed = job.result.failed_nodes();
    out.check(failed.is_empty(), || {
        format!("{} nodes failed", failed.len())
    });

    let want = job.result.characterized_faults();
    let same = |a: &Fault, b: &Fault| {
        let temp = |f: &Fault| f.temp.map(|t| format!("{t:.1}"));
        (a.node, a.time, a.vaddr, a.expected, a.actual, a.raw_logs)
            == (b.node, b.time, b.vaddr, b.expected, b.actual, b.raw_logs)
            && temp(a) == temp(b)
    };
    let first_diff =
        (0..want.len().max(job.sealed.len())).find(|&i| match (want.get(i), job.sealed.get(i)) {
            (Some(a), Some(b)) => !same(a, b),
            _ => true,
        });
    out.op(first_diff.is_none());
    out.check(first_diff.is_none(), || {
        format!(
            "sealed faults differ from characterized_faults() at row {} ({} vs {} rows)",
            first_diff.unwrap_or(0),
            job.sealed.len(),
            want.len()
        )
    });

    let line = format!("independent faults: {}", job.sealed.len());
    out.op(job.report.contains(&line));
    out.check(job.report.contains(&line), || {
        format!("analyze report lacks `{line}`")
    });

    // The oracle is a provable lower bound, and every run accounts for
    // each evaluation-window fault exactly once.
    let oracle = job.cmp.oracle().map(|o| o.eval_cost_mnh);
    let sound = job.cmp.runs.len() == PolicyKind::ALL.len()
        && job.cmp.runs.iter().all(|r| {
            r.eval_faults() == job.cmp.eval_faults && oracle.is_some_and(|o| o <= r.eval_cost_mnh)
        });
    out.op(sound);
    out.check(sound, || "policy comparison broke an invariant".into());
}

/// The job again, assembled from the public pieces of `campaign_to_db`
/// with a span around every call into a layer. Returns the job, the
/// spans of the job alone (probes after it excluded) and the share of
/// its wall-clock its top-level stage spans cover.
fn traced_job(
    cfg: &CampaignConfig,
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(Job, Vec<Span>, f64), String> {
    let db = dir.join("campaign.ucfdb");
    let ckpt = dir.join("ckpt");
    let opts = WriteOptions::default();
    // Per node: (raw records, raw errors) as recovered.
    let facts: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

    let (t0, cpu0) = (Instant::now(), crate::cpu_seconds());
    let job = tracer.start("campaign.job", None, 0);
    let job_id = job.id();
    let stage = tracer.start("parallel.stage_shared", Some(job_id), 0);
    let stage_id = stage.id();
    let mut result_slot = None;
    let (fold, _) = stage_shared(
        CHANNEL_CAPACITY,
        1,
        |emit: &(dyn Fn(Recovered) + Sync)| {
            let camp = tracer.start("core.campaign", Some(stage_id), 0);
            let camp_id = camp.id();
            let result = run_campaign_checkpointed_with(cfg, &ckpt, |sim| {
                let req = u64::from(sim.node.0);
                let hook = tracer.start("core.node_hook", Some(camp_id), req);
                let rec = tracer.time("faultlog.recover", Some(hook.id()), req, || {
                    recover_log(&sim.log)
                });
                facts
                    .lock()
                    .expect("facts lock")
                    .push((rec.log.raw_record_count(), rec.log.raw_error_count()));
                tracer.time("parallel.emit", Some(hook.id()), req, || emit(rec));
                tracer.end(hook);
            });
            tracer.end(camp);
            result_slot = Some(result);
        },
        DirectFold::new,
        // Root spans: the consumer thread's waits between arrivals are
        // not the stage's own work.
        |mut acc, rec| {
            let req = rec.log.node.map_or(0, |n| u64::from(n.0));
            tracer.time("faultdb.direct.fold", None, req, || acc.add(rec));
            acc
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );
    tracer.end(stage);
    let result = result_slot.expect("producer runs to completion inside stage_shared");
    let (cluster, stats) = tracer.time("faultdb.direct.into_cluster", Some(job_id), 0, || {
        fold.into_cluster()
    });
    let snap = tracer.time("faultdb.snapshot", Some(job_id), 0, || {
        Snapshot::from_cluster(&cluster, stats)
    });
    let summary = tracer
        .time("faultdb.format.write", Some(job_id), 0, || {
            write_db(&snap, &db, &opts)
        })
        .map_err(|e| format!("write_db: {e}"))?;
    drop(snap);
    let engine = tracer
        .time("faultdb.db.open", Some(job_id), 0, || {
            Engine::open_auto(&db)
        })
        .map_err(|e| format!("open: {e}"))?;
    let (sealed, report) = tracer
        .time("faultdb.snapshot.report", Some(job_id), 0, || {
            engine.snapshot().map(|s| {
                let text = s.report_text();
                (s.faults, text)
            })
        })
        .map_err(|e| format!("snapshot: {e}"))?;
    let days = tracer
        .time("faultdb.days", Some(job_id), 0, || engine.collect_days())
        .map_err(|e| format!("collect_days: {e}"))?;
    let cmp = tracer.time("policy.replay", Some(job_id), 0, || {
        run_comparison(&days, &PolicyKind::ALL, &replay_config(cfg))
    });
    let job_span = tracer.end(job);
    let secs = t0.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_seconds() - cpu0;
    let schedule = tracer.spans();

    // Probes outside the job, on the same cluster: the two halves of
    // `Snapshot::from_cluster`.
    tracer.time("analysis.extract", None, 0, || {
        std::hint::black_box(extract_recovered(
            &cluster,
            stats,
            &ExtractConfig::default(),
            FLOOD_SHARE,
        ))
    });
    tracer.time("analysis.day_volume", None, 0, || {
        let mut dv = DayVolume::default();
        for log in cluster.node_logs() {
            dv.add_node_log(log);
        }
        std::hint::black_box(dv)
    });
    drop(cluster);

    let spans = tracer.spans();
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    };
    let max = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, f64::max)
    };

    // The campaign call's self time: simulation and checkpoint writes
    // on the workers, between their node hooks.
    let self_time = trace::self_times(&spans);
    out.detail("core.simulate_s", self_time["core.campaign"], "s");
    out.detail("faultlog.recover_s", sum("faultlog.recover"), "s");
    out.detail("faultlog.recover_max_node_s", max("faultlog.recover"), "s");
    let facts = facts.into_inner().expect("facts lock");
    let records: u64 = facts.iter().map(|f| f.0).sum();
    let errors: u64 = facts.iter().map(|f| f.1).sum();
    let useful: u64 = facts
        .iter()
        .filter(|f| (f.1 as f64 / errors.max(1) as f64) <= FLOOD_SHARE)
        .map(|f| f.0)
        .sum();
    out.detail("faultlog.recover_records", records as f64, "count");
    out.detail(
        "faultlog.recover_useful_ratio",
        useful as f64 / records.max(1) as f64,
        "ratio",
    );
    out.detail("parallel.emit_wait_s", sum("parallel.emit"), "s");
    out.detail(
        "faultdb.fold_s",
        sum("faultdb.direct.fold") + sum("faultdb.direct.into_cluster"),
        "s",
    );
    out.detail("faultdb.snapshot_s", sum("faultdb.snapshot"), "s");
    out.detail("analysis.extract_s", sum("analysis.extract"), "s");
    out.detail("analysis.day_volume_s", sum("analysis.day_volume"), "s");
    out.detail("faultdb.write_s", sum("faultdb.format.write"), "s");
    out.detail("faultdb.write_bytes", summary.bytes as f64, "bytes");
    out.detail("faultdb.write_blocks", summary.blocks as f64, "count");
    out.detail("faultdb.open_s", sum("faultdb.db.open"), "s");
    out.detail("faultdb.report_s", sum("faultdb.snapshot.report"), "s");
    out.detail("faultdb.days_s", sum("faultdb.days"), "s");
    out.detail("policy.replay_s", sum("policy.replay"), "s");

    // The job's top-level stages, all on this thread, must account for
    // its wall-clock: anything left over is untraced work.
    let coverage = coverage_pct(&spans, Some(job_id), job_span.start_ns, job_span.end_ns);
    out.check(coverage >= STAGE_COVERAGE_MIN_PCT, || {
        format!("campaign stage spans cover {coverage:.2}% of the traced job, below {STAGE_COVERAGE_MIN_PCT}%")
    });

    let job = Job {
        secs,
        cpu_s,
        result,
        db,
        sealed,
        report,
        cmp,
        cache_hit_ratio: engine.cache_stats().hit_rate(),
    };
    Ok((job, schedule, coverage))
}
