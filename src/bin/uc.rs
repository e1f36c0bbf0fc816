//! `uc` — the command-line front end.
//!
//! Subcommands:
//!
//! - `uc campaign --out <dir> [--seed N] [--blades N] [--compact x] [--resume x] [--durable x]` —
//!   run a campaign and write per-node log files (the paper's on-disk
//!   layout) plus the full text report. Per-node checkpoints are kept in
//!   `<out>/.checkpoints` as durable segments; `--resume` restores
//!   finished nodes from them instead of recomputing (resumed output is
//!   byte-identical to an uninterrupted run), while a fresh run clears
//!   them first. `--durable` writes logs as checksummed `.dlog` segments
//!   (length-framed, CRC per record, whole-file digest in `MANIFEST`)
//!   instead of plain text; a node whose storage fails degrades that node,
//!   never the campaign. `--db <file>` streams each completed node's
//!   faults straight into a sealed fault database (no text corpus in
//!   between — the direct path; see DESIGN.md §10), byte-identical to
//!   `--out` + `uc build-db` for the same seed at any thread count;
//!   with both flags one campaign run produces both artifacts;
//! - `uc fsck <dir>` — repair a directory by its kind
//!   (`uc_faultdb::fsck`): durable logs and their `.checkpoints`, a
//!   sharded root, or a live directory. Damaged bytes move to
//!   `<dir>/.lost+found`, and the accounting printed obeys the
//!   conservation law `bytes in == kept + quarantined`;
//! - `uc analyze <dir>` / `uc analyze --db <file>` — run
//!   the extraction methodology and print the log-derivable analyses.
//!   With `--db` the report comes from a sealed fault database instead of
//!   re-ingesting text logs; stdout is byte-identical between the two
//!   paths (both render through `faultdb::Snapshot::report_text`);
//! - `uc build-db <logdir> <db>` — ingest a log directory (with
//!   recovery) and seal it as a columnar fault database;
//! - `uc query <db> <expr...>` — run one query (`count`, `list`, `top`,
//!   `group`, `hist bits`, each with an optional `where` predicate; see
//!   DESIGN.md §8 for the grammar) and print the result lines;
//! - `uc serve <db> [--addr host:port] [--workers N] [--queue N]` — serve
//!   the database over a line-protocol TCP socket with bounded admission
//!   (overload is a typed `ERR overloaded` rejection, never a hang);
//! - `uc serve <livedir> --ingest x [--ingest-addr host:port]` — the live
//!   variant: open (or create) a streaming-ingest database directory,
//!   accept framed record pushes on the ingest endpoint (acked once
//!   written to the WAL, which is fsynced when a generation seals),
//!   answer snapshot-isolated queries on the query endpoint during
//!   ingest, and seal a generation on drain. SIGINT,
//!   SIGTERM, and the `SHUTDOWN` command all drain gracefully;
//! - `uc stream <addr> <logdir>` — push every `node-*.log` in a
//!   directory to a live ingest server, one resilient
//!   sequence-numbered session per node (reconnect resumes from the
//!   server's cursor; replay is exactly-once); `--seal x` seals a
//!   queryable generation at the end;
//! - `uc scan [--mb N] [--iters N]` — scan real host memory (memtester
//!   mode; see also the `memscan_host` example for fault injection);
//! - `uc report [--seed N] [--blades N] [--csv <dir>]` — run a campaign in memory and
//!   print every figure and table;
//! - `uc policy <db|livedir> [--policy X] [--seed N] [--train-days D]` —
//!   replay a sealed campaign one simulated day at a time through the
//!   online mitigation policy engine and print the cost-vs-coverage
//!   table (static baselines, a seeded tabular bandit, and the
//!   clairvoyant oracle lower bound; see DESIGN.md §13). `--csv <file>`
//!   exports the table.
//!
//! Argument handling is deliberately bare: flags are `--key value` pairs.
//! Each subcommand's row in [`COMMANDS`] declares its flags and
//! positional count, and `main` checks them before the handler runs;
//! `--threads N` is the one flag every subcommand takes. Handlers return
//! a [`Fail`], which `main` alone maps to an exit code: usage errors
//! print usage to stderr and exit 2, runtime failures exit 1, and a
//! stdout whose reader has gone (`uc … | head`) ends the command quietly
//! with exit 0. `uc help` (or `--help`) prints the usage table —
//! generated from the same command table that drives dispatch, so the
//! two cannot drift apart.

use std::fmt::Display;
use std::io::{self, Write as _};
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use uc_faultdb::{IngestConfig, QueryOptions, ServeConfig, StreamOptions, WriteOptions};
use uc_faultlog::files::{write_cluster_log, write_cluster_log_compact, write_text_atomic};
use uc_memscan::host::{run_host_scan, run_host_scan_parallel};
use uc_memscan::Pattern;
use unprotected_core::{checkpoint, render, run_campaign, CampaignConfig, Report};

/// SIGINT/SIGTERM → the servers' *graceful* shutdown path (stop flag +
/// self-connect), so an operator's Ctrl-C or a supervisor's TERM drains
/// admitted connections instead of killing mid-request. Raw
/// `signal(2)` via the C ABI — the repo links no signal crate, and a
/// handler that only stores to an `AtomicBool` is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn triggered() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn triggered() -> bool {
        false
    }
}

/// Install the handler and watch for it from a background thread,
/// running `on_term` (each server's graceful shutdown) when a signal
/// lands. The watcher dies with the process; no cleanup needed.
///
/// `on_term` runs before the notice is written, and the notice ignores
/// write errors: `eprintln!` panics once stderr's reader is gone, and a
/// panic here would leave a swallowed signal with no shutdown.
fn spawn_signal_watcher(on_term: impl Fn() + Send + 'static) {
    sig::install();
    std::thread::spawn(move || loop {
        if sig::triggered() {
            on_term();
            let _ = writeln!(
                io::stderr(),
                "signal received; draining connections and shutting down"
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// Why a subcommand stopped early. `main` alone turns it into an exit
/// code, so scripts can tell "you called me wrong" from "the work failed".
enum Fail {
    /// Called wrong: the message and the usage table on stderr, exit 2.
    Usage(String),
    /// The work failed: the message on stderr, exit 1.
    Run(String),
    /// Stdout's reader is gone (`uc query … | head`): nothing is left to
    /// say, so exit 0 quietly.
    Closed,
}

/// `println!` for stdout output that returns a [`Fail`] instead of
/// panicking when the write fails: a broken pipe is [`Fail::Closed`], any
/// other error a runtime failure. SIGPIPE stays ignored, as the Rust
/// runtime sets it, so the servers' socket writes keep returning `EPIPE`.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*).map_err(stdout_fail)
    };
}

fn stdout_fail(e: io::Error) -> Fail {
    if e.kind() == io::ErrorKind::BrokenPipe {
        Fail::Closed
    } else {
        Fail::Run(format!("stdout: {e}"))
    }
}

/// `map_err` adapter for a runtime failure reported as `<what>: <error>`.
fn run_err<E: Display>(what: impl Display) -> impl FnOnce(E) -> Fail {
    move |e| Fail::Run(format!("{what}: {e}"))
}

/// The one flag every subcommand takes: `--threads N` caps every worker
/// pool for the rest of the process (same knob as the UC_THREADS
/// environment variable, which it overrides). All parallel stages are
/// deterministic, so this only trades wall-clock time — never output
/// bytes.
const THREADS: &str = "threads";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().cloned().unwrap_or_default();
                flags.push((key.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    /// Parse a numeric flag strictly: absent is `default`, and
    /// present-but-garbage is a usage error, not a silent default.
    /// Overflowing `T` is garbage too — every numeric flag follows the
    /// same contract (usage message on stderr, exit 2), so `--workers
    /// 99999999999999999999` and `--workers x` fail identically instead
    /// of one overflowing into a truncating cast.
    fn num<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, Fail> {
        self.num_min(key, default, 0)
    }

    /// [`Args::num`] for flags with a lower bound on the value given;
    /// `default` may sit below it (0 as "off" when the flag is absent).
    fn num_min<T: TryFrom<u64>>(&self, key: &str, default: T, min: u64) -> Result<T, Fail> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        let n: u64 = v.parse().map_err(|_| {
            Fail::Usage(format!(
                "--{key} requires a non-negative integer, got {v:?}"
            ))
        })?;
        if n < min {
            return Err(Fail::Usage(format!(
                "--{key} must be at least {min}, got {n}"
            )));
        }
        T::try_from(n).map_err(|_| {
            let ty = std::any::type_name::<T>();
            Fail::Usage(format!("--{key} {n} does not fit in {ty}"))
        })
    }
}

/// One row per subcommand: the name `main` dispatches on, the usage
/// line(s) `uc help` prints, the flags and positional count `main`
/// checks before dispatch, and the handler. Dispatch, validation and
/// the usage table all come from this single array, so a subcommand
/// cannot exist in one and be missing from another.
struct Command {
    name: &'static str,
    usage: &'static [&'static str],
    /// Every flag the subcommand takes besides the global [`THREADS`].
    flags: &'static [&'static str],
    positional: RangeInclusive<usize>,
    run: fn(&Args) -> Result<(), Fail>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "campaign",
        usage: &[
            "uc campaign --out <dir> [--db <file>] [--seed N] [--blades N] [--compact x] [--resume x] [--durable x]",
            "uc campaign --db <file> [--seed N] [--blades N] [--resume x]",
        ],
        flags: &["out", "db", "seed", "blades", "compact", "resume", "durable"],
        positional: 0..=0,
        run: cmd_campaign,
    },
    Command {
        name: "fsck",
        usage: &["uc fsck <dir>"],
        flags: &[],
        positional: 1..=1,
        run: cmd_fsck,
    },
    Command {
        name: "analyze",
        usage: &["uc analyze <dir>", "uc analyze --db <file>"],
        flags: &["db"],
        positional: 0..=1,
        run: cmd_analyze,
    },
    Command {
        name: "build-db",
        usage: &["uc build-db <logdir> <db> [--rows-per-block N] [--shard N] [--encoding v1|v2]"],
        flags: &["rows-per-block", "shard", "encoding"],
        positional: 2..=2,
        run: cmd_build_db,
    },
    Command {
        name: "query",
        usage: &["uc query <db> <expr...> [--timeout-ms N] [--explain x]"],
        flags: &["timeout-ms", "explain"],
        positional: 2..=usize::MAX,
        run: cmd_query,
    },
    Command {
        name: "serve",
        usage: &[
            "uc serve <db> [--addr host:port] [--workers N] [--queue N] [--timeout-ms N]",
            "uc serve <livedir> --ingest x [--ingest-addr host:port] [--addr host:port] [--workers N] [--queue N] [--timeout-ms N]",
            "uc serve <livedir> --ingest x --replica-of host:port [--auto-promote-ms N] [...]",
        ],
        flags: &[
            "addr",
            "workers",
            "queue",
            "timeout-ms",
            "ingest",
            "ingest-addr",
            "replica-of",
            "auto-promote-ms",
        ],
        positional: 1..=1,
        run: cmd_serve,
    },
    Command {
        name: "stream",
        usage: &["uc stream <addr> <logdir> [--batch N] [--max-attempts N] [--seal x]"],
        flags: &["batch", "max-attempts", "seal"],
        positional: 2..=2,
        run: cmd_stream,
    },
    Command {
        name: "scrub",
        usage: &["uc scrub <livedir> [--dry-run x] [--rate-mb N] [--watch-ms N]"],
        flags: &["dry-run", "rate-mb", "watch-ms"],
        positional: 1..=1,
        run: cmd_scrub,
    },
    Command {
        name: "promote",
        usage: &["uc promote <host:port>"],
        flags: &[],
        positional: 1..=1,
        run: cmd_promote,
    },
    Command {
        name: "policy",
        usage: &[
            "uc policy <db|livedir> [--policy never|always-checkpoint|threshold|bandit|oracle|all] [--seed N] [--train-days D] [--threshold N] [--csv <file>]",
        ],
        flags: &["policy", "seed", "train-days", "threshold", "csv"],
        positional: 1..=1,
        run: cmd_policy,
    },
    Command {
        name: "scan",
        usage: &["uc scan [--mb N] [--iters N] [--pattern alternating|incrementing|checkerboard] [--parallel x]"],
        flags: &["mb", "iters", "pattern", "parallel"],
        positional: 0..=0,
        run: cmd_scan,
    },
    Command {
        name: "report",
        usage: &["uc report [--seed N] [--blades N] [--csv <dir>]"],
        flags: &["seed", "blades", "csv"],
        positional: 0..=0,
        run: cmd_report,
    },
];

/// The usage table, generated from [`COMMANDS`].
fn usage_text() -> String {
    let mut out = String::from("usage:\n");
    for line in COMMANDS.iter().flat_map(|cmd| cmd.usage) {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "  uc <subcommand> ... [--{THREADS} N]   (any subcommand: cap worker threads)\n"
    ));
    out.push_str("  uc help | uc --help\n");
    out.push_str("  uc --version");
    out
}

fn config_for(args: &Args) -> Result<CampaignConfig, Fail> {
    let seed = args.num("seed", 42)?;
    Ok(match args.num::<u64>("blades", 0)? {
        0 => CampaignConfig::paper_default(seed),
        b => CampaignConfig::small(seed, b.clamp(6, 63) as u32),
    })
}

fn cmd_campaign(args: &Args) -> Result<(), Fail> {
    let out = args.get("out");
    let db = args.get("db");
    if out.is_none() && db.is_none() {
        return Err(Fail::Usage(
            "campaign requires --out <dir> and/or --db <file>".into(),
        ));
    }
    if out.is_none() && (args.has("compact") || args.has("durable")) {
        return Err(Fail::Usage(
            "--compact/--durable shape the text log layout and need --out <dir>".into(),
        ));
    }
    let cfg = config_for(args)?;
    let resume = args.has("resume");
    // Checkpoints live next to whichever output exists: under the log
    // directory as before, or as a `<db>.checkpoints` sibling when the
    // campaign streams straight to a database with no text corpus.
    let ckpt_dir = match out {
        Some(o) => PathBuf::from(o).join(".checkpoints"),
        None => PathBuf::from(format!("{}.checkpoints", db.expect("checked above"))),
    };
    if !resume {
        // Stale checkpoints from an earlier run (possibly another seed)
        // must not leak into a fresh campaign.
        checkpoint::clear_checkpoints(&ckpt_dir).map_err(run_err(format!(
            "failed to clear checkpoints in {}",
            ckpt_dir.display()
        )))?;
    }
    eprintln!(
        "running campaign: seed {}, {} candidate nodes{}...",
        cfg.seed,
        cfg.topology.monitored_node_count(),
        if resume { " (resuming)" } else { "" }
    );
    // With `--db` the campaign streams each completed node's recovered
    // log straight into the database sealer — the text corpus never
    // exists unless `--out` asks for it too. Without `--db` this is the
    // classic text-only run. Either way the campaign executes once.
    let (result, sealed) = if let Some(db_path) = db {
        let output = unprotected_computing::direct::campaign_to_db(
            &cfg,
            &ckpt_dir,
            &PathBuf::from(db_path),
            &WriteOptions::default(),
        )
        .map_err(run_err("campaign --db"))?;
        (output.result, Some(output.summary))
    } else {
        (checkpoint::run_campaign_checkpointed(&cfg, &ckpt_dir), None)
    };
    if result.is_degraded() {
        for (node, attempts, reason) in result.failed_nodes() {
            eprintln!("WARNING: node {node} failed after {attempts} attempt(s): {reason}");
        }
        eprintln!("campaign is DEGRADED: output covers the surviving nodes only");
    }
    if let Some(summary) = &sealed {
        eprintln!(
            "sealed {}: {} faults in {} blocks, {} bytes (direct stream, no text corpus)",
            summary.path.display(),
            summary.rows,
            summary.blocks,
            summary.bytes
        );
    }
    if let Some(out) = out {
        let dir = PathBuf::from(out);
        let compact = args.has("compact");
        let durable = args.has("durable");
        if durable {
            let cluster = result.cluster_log();
            let out = if compact {
                uc_faultlog::durable::write_cluster_log_durable_compact(&dir, &cluster)
            } else {
                uc_faultlog::durable::write_cluster_log_durable(&dir, &cluster)
            };
            for (node, err) in &out.failures {
                eprintln!("WARNING: node {node} log not durable: {err}");
            }
            if let Some(err) = &out.manifest_error {
                eprintln!("WARNING: manifest not durable: {err}");
            }
            eprintln!(
                "wrote {} durable node log segments to {}{}",
                out.sealed.len(),
                dir.display(),
                if out.is_fully_durable() {
                    ""
                } else {
                    " (DEGRADED)"
                }
            );
        } else {
            let write = if compact {
                write_cluster_log_compact
            } else {
                write_cluster_log
            };
            let n = write(&dir, &result.cluster_log()).map_err(run_err("failed to write logs"))?;
            eprintln!("wrote {n} node log files to {}", dir.display());
        }
        let report = Report::build(&result);
        // Atomic (tmp + fsync + rename): a crash mid-write must never leave a
        // half-rendered report.txt next to intact logs.
        let path = write_text_atomic(&dir, "report.txt", &render::full_report(&report))
            .map_err(run_err("failed to write report"))?;
        eprintln!("report at {}", path.display());
        outln!("{}", render::headline(&report))?;
    } else {
        // Database-only run: the headline still prints (the report is
        // derived in memory), there's just no report.txt to point at.
        outln!("{}", render::headline(&Report::build(&result)))?;
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), Fail> {
    let snapshot = if let Some(db_path) = args.get("db") {
        if !args.positional.is_empty() {
            return Err(Fail::Usage(
                "analyze takes either a log directory or --db <file>, not both".into(),
            ));
        }
        let t0 = std::time::Instant::now();
        // Either shape works: a single `.ucfdb` file or a sharded root
        // directory; both reconstruct the identical snapshot.
        let db =
            uc_faultdb::Engine::open_auto(&PathBuf::from(db_path)).map_err(run_err("analyze"))?;
        let snap = db.snapshot().map_err(run_err("analyze"))?;
        eprintln!(
            "opened {db_path}: {} faults in {} blocks, decoded in {:?}",
            db.rows(),
            db.blocks(),
            t0.elapsed()
        );
        snap
    } else {
        let Some(dir) = args.positional.first() else {
            return Err(Fail::Usage(
                "analyze requires a log directory (or --db <file>)".into(),
            ));
        };
        // Recovering, parallel load: `read_cluster_log_recovering` lossy-parses
        // each node-log file on its own worker (the full-scale campaign writes
        // ~36M lines / several GB of text) and merges the per-file ingest
        // accounting deterministically.
        let dir_path = PathBuf::from(dir);
        let t0 = std::time::Instant::now();
        let (cluster, stats) = uc_faultlog::ingest::read_cluster_log_recovering(&dir_path)
            .map_err(run_err("analyze"))?;
        let file_count = cluster.node_logs().len() + stats.files_unreadable as usize;
        eprintln!(
            "parsed {} files in {:?} ({} worker threads)",
            file_count,
            t0.elapsed(),
            uc_parallel::worker_count(file_count)
        );
        eprintln!("{}", stats.summary());
        uc_faultdb::Snapshot::from_cluster(&cluster, stats)
    };
    // Both paths print the identical bytes: the report derives from the
    // snapshot alone (see faultdb::Snapshot), which is what makes `--db`
    // a drop-in replacement for re-ingesting the text logs.
    io::stdout()
        .write_all(snapshot.report_text().as_bytes())
        .map_err(stdout_fail)?;
    Ok(())
}

fn cmd_build_db(args: &Args) -> Result<(), Fail> {
    let rows_per_block = match args.num("rows-per-block", 0)? {
        0 => WriteOptions::default().rows_per_block,
        // The writer clamps internally; a flag outside its range is a
        // user mistake worth a loud usage error, not a silent clamp.
        n if n <= (1 << 20) => n,
        n => {
            return Err(Fail::Usage(format!(
                "--rows-per-block {n} exceeds the maximum of {}",
                1u64 << 20
            )))
        }
    };
    let encoding = match args.get("encoding") {
        None | Some("v2") => uc_faultdb::FileEncoding::V2,
        Some("v1") => uc_faultdb::FileEncoding::V1,
        Some(other) => {
            return Err(Fail::Usage(format!(
                "--encoding must be v1 or v2, not {other:?}"
            )))
        }
    };
    // Absent means one file; an explicit `--shard` needs a window count.
    let shard_windows = match args.num_min("shard", 0, 1)? {
        n if n <= (1 << 16) => n,
        n => {
            return Err(Fail::Usage(format!(
                "--shard {n} exceeds the maximum of {}",
                1u64 << 16
            )))
        }
    };
    let opts = WriteOptions {
        rows_per_block,
        encoding,
    };
    let logdir = PathBuf::from(&args.positional[0]);
    let out = PathBuf::from(&args.positional[1]);
    let t0 = std::time::Instant::now();
    if shard_windows > 0 {
        // `--shard N`: seal a (time window × rack) root directory
        // instead of a single file; queries over it answer identically.
        let summary = uc_faultdb::build_sharded_db(&logdir, &out, shard_windows, &opts)
            .map_err(run_err("build-db"))?;
        outln!(
            "built {}: {} faults in {} shards, {} bytes",
            summary.dir.display(),
            summary.rows,
            summary.shards,
            summary.bytes
        )?;
    } else {
        let summary = uc_faultdb::build_db(&logdir, &out, &opts).map_err(run_err("build-db"))?;
        outln!(
            "built {}: {} faults in {} blocks, {} bytes",
            summary.path.display(),
            summary.rows,
            summary.blocks,
            summary.bytes
        )?;
    }
    eprintln!("ingest + extract + seal took {:?}", t0.elapsed());
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), Fail> {
    let timeout_ms = args.num("timeout-ms", 0)?;
    let db_path = PathBuf::from(&args.positional[0]);
    let expr = args.positional[1..].join(" ");
    // `open_auto` serves both shapes: a single `.ucfdb` file or a
    // sharded root directory (detected by its ROOT catalog).
    let db = uc_faultdb::Engine::open_auto(&db_path).map_err(run_err("query"))?;
    if args.has("explain") {
        // Print the plan — shard and block pruning, per-block encodings,
        // the kernel that would run — without scanning anything.
        for line in db.explain(&expr).map_err(run_err("query"))? {
            outln!("{line}")?;
        }
        return Ok(());
    }
    let opts = QueryOptions {
        deadline: (timeout_ms > 0)
            .then(|| std::time::Instant::now() + Duration::from_millis(timeout_ms)),
    };
    let t0 = std::time::Instant::now();
    let result = db.query(&expr, &opts).map_err(run_err("query"))?;
    for line in &result.lines {
        outln!("{line}")?;
    }
    eprintln!(
        "matched {} rows; scanned {}/{} shards, {}/{} blocks ({} rows) in {:?}",
        result.matched,
        result.shards_scanned,
        result.shards_total,
        result.blocks_scanned,
        result.blocks_total,
        result.rows_scanned,
        t0.elapsed()
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), Fail> {
    // The query endpoint's config, shared by the static and live servers.
    let query_cfg = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: args.num_min("workers", 4, 1)?,
        queue: args.num_min("queue", 16, 1)?,
        request_timeout: Duration::from_millis(args.num::<u64>("timeout-ms", 5_000)?.max(1)),
        ..ServeConfig::default()
    };
    for (flag, needs) in [
        ("ingest-addr", "ingest"),
        ("replica-of", "ingest"),
        ("auto-promote-ms", "replica-of"),
    ] {
        if args.has(flag) && !args.has(needs) {
            return Err(Fail::Usage(format!(
                "--{flag} only makes sense with --{needs}"
            )));
        }
    }

    if args.has("ingest") {
        return cmd_serve_ingest(args, &query_cfg);
    }

    let db_path = PathBuf::from(&args.positional[0]);
    let db = uc_faultdb::Engine::open_auto(&db_path).map_err(run_err("serve"))?;

    let server = uc_faultdb::Server::start(db, &query_cfg).map_err(run_err("serve"))?;
    eprintln!(
        "serving {} on {} ({} workers, queue {}); send SHUTDOWN or SIGINT/SIGTERM to stop",
        db_path.display(),
        server.local_addr(),
        query_cfg.workers,
        query_cfg.queue
    );
    let handle = server.shutdown_handle();
    spawn_signal_watcher(move || handle.shutdown());
    let stats = server.join();
    // After a signal stderr may have no reader; the exit status must not
    // depend on it (see `spawn_signal_watcher`).
    let _ = writeln!(
        io::stderr(),
        "served {} requests, rejected {} overloaded connections",
        stats.served,
        stats.rejected
    );
    Ok(())
}

/// `uc serve <livedir> --ingest`: a live database with a framed push
/// endpoint for nodes and the usual query endpoint for readers, both
/// draining gracefully on SHUTDOWN or SIGINT/SIGTERM.
fn cmd_serve_ingest(args: &Args, query_cfg: &ServeConfig) -> Result<(), Fail> {
    let dir = PathBuf::from(&args.positional[0]);
    let auto_promote_ms = args.num("auto-promote-ms", 0)?;
    let (live, open) = uc_faultdb::LiveDb::open(&dir).map_err(run_err("serve --ingest"))?;
    let live = Arc::new(live);
    eprintln!(
        "opened live db {}: {} records replayed from {} WAL segment(s), {} gen {} ({} torn bytes trimmed)",
        dir.display(),
        open.replayed,
        open.wal.segments,
        if open.served_existing {
            "serving existing"
        } else {
            "resealed"
        },
        open.generation,
        open.wal.torn_bytes
    );

    // Role + admin: a primary accepts pushes and ships WAL to SYNC
    // sessions; a replica follows its upstream (readonly until a
    // PROMOTE, manual or automatic). Both answer PROMOTE and report
    // repl_* STATS lines over the query wire.
    let (role, repl) = if let Some(upstream) = args.get("replica-of") {
        let mut rcfg = uc_faultdb::ReplicaConfig::new(upstream);
        if auto_promote_ms > 0 {
            rcfg.auto_promote_after = Some(Duration::from_millis(auto_promote_ms));
        }
        let repl = Arc::new(uc_faultdb::Replication::start(Arc::clone(&live), rcfg));
        (repl.role(), Some(repl))
    } else {
        (Arc::new(uc_faultdb::Role::primary()), None)
    };
    let admin: Arc<dyn uc_faultdb::ServerAdmin> = match &repl {
        Some(repl) => Arc::new(uc_faultdb::NodeAdmin::replica(
            Arc::clone(&live),
            Arc::clone(repl),
        )),
        None => Arc::new(uc_faultdb::NodeAdmin::primary(
            Arc::clone(&live),
            Arc::clone(&role),
        )),
    };

    let ingest_cfg = IngestConfig {
        addr: args
            .get("ingest-addr")
            .unwrap_or("127.0.0.1:7879")
            .to_string(),
        ..IngestConfig::default()
    };
    let ingest = uc_faultdb::IngestServer::start_with_role(
        Arc::clone(&live),
        &ingest_cfg,
        Some(Arc::clone(&role)),
    )
    .map_err(run_err("serve --ingest"))?;
    let query = match uc_faultdb::Server::start_with_admin(live.handle(), query_cfg, Some(admin)) {
        Ok(s) => s,
        Err(e) => {
            ingest.shutdown();
            ingest.join();
            return Err(Fail::Run(format!("serve --ingest: {e}")));
        }
    };
    let (workers, queue) = (query_cfg.workers, query_cfg.queue);
    match args.get("replica-of") {
        Some(upstream) => eprintln!(
            "replica of {upstream}: ingest on {} (readonly), queries on {}; \
             {workers} workers, queue {queue}; \
             send PROMOTE to take over, SHUTDOWN or SIGINT/SIGTERM to stop",
            ingest.local_addr(),
            query.local_addr()
        ),
        None => eprintln!(
            "ingest on {}, queries on {}; {workers} workers, queue {queue}; \
             send SHUTDOWN or SIGINT/SIGTERM to stop",
            ingest.local_addr(),
            query.local_addr()
        ),
    }

    let iq = ingest.shutdown_handle();
    let qq = query.shutdown_handle();
    spawn_signal_watcher(move || {
        iq.shutdown();
        qq.shutdown();
    });
    // The query server owns lifetime: its SHUTDOWN command (or a signal)
    // ends both endpoints.
    let qstats = query.join();
    ingest.shutdown();
    let istats = ingest.join();
    // From here on stderr may have no reader (see `spawn_signal_watcher`):
    // a failed write must not skip the final seal or change the exit.
    if let Some(repl) = &repl {
        let rs = repl.stats();
        let _ = writeln!(
            io::stderr(),
            "replication: role {}, epoch {}, lag {}, {} connects, {} records applied, {} seals",
            rs.role,
            rs.epoch,
            rs.lag,
            rs.connects,
            rs.applied,
            rs.seals
        );
    }
    // One last seal so everything acked is also queryable after restart
    // without a WAL replay rebuild. A still-readonly replica must not
    // seal locally: its generation crossings come from the primary's
    // seal markers, never from its own clock.
    if role.is_readonly() {
        drop(repl);
    } else {
        live.seal().map_err(run_err("final seal failed"))?;
    }
    let status = live.status();
    let _ = writeln!(
        io::stderr(),
        "served {} queries ({} shed); ingested {} records over {} sessions ({} shed, {} protocol errors); \
         final generation {} with {} records",
        qstats.served,
        qstats.rejected,
        status.records,
        istats.sessions,
        istats.rejected,
        istats.protocol_errors,
        status.generation,
        status.gen_records
    );
    Ok(())
}

/// `uc stream <addr> <logdir>`: push every `node-*.log` in a directory
/// to a live ingest server, one resilient session per node.
fn cmd_stream(args: &Args) -> Result<(), Fail> {
    let batch = args.num_min("batch", 64, 1)?;
    let max_attempts = args.num_min("max-attempts", 10, 1)?;
    let addr = {
        use std::net::ToSocketAddrs;
        let text = &args.positional[0];
        text.to_socket_addrs()
            .map_err(|e| Fail::Usage(format!("bad stream address {text}: {e}")))?
            .next()
            .ok_or_else(|| Fail::Usage("stream address resolved to nothing".into()))?
    };
    let logdir = PathBuf::from(&args.positional[1]);
    let paths = uc_faultlog::ingest::node_log_paths(&logdir).map_err(run_err("stream"))?;

    let opts = StreamOptions {
        batch,
        retry: uc_faultlog::durable::RetryPolicy {
            max_attempts,
            ..StreamOptions::default().retry
        },
        ..StreamOptions::default()
    };
    let t0 = std::time::Instant::now();
    let mut total_acked = 0u64;
    let mut total_retries = 0u32;
    let mut failures = 0u64;
    let n = paths.len();
    let results = uc_parallel::par_map(&paths, |_, path| {
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        let Some(node) = uc_faultlog::ingest::node_of_log_file_name(name) else {
            return Err(format!("{}: not a node log file", path.display()));
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        uc_faultdb::stream_lines(addr, node, &lines, &opts, None)
            .map(|r| (node, r))
            .map_err(|e| format!("{node}: {e}"))
    });
    for r in results {
        match r {
            Ok((node, report)) => {
                eprintln!(
                    "streamed {node}: {} records acked over {} connection(s), {} retries",
                    report.acked, report.connects, report.retries
                );
                total_acked += report.acked;
                total_retries += report.retries;
            }
            Err(e) => {
                eprintln!("stream FAILED: {e}");
                failures += 1;
            }
        }
    }
    // One seal at the end, not per node: generations are global. Without
    // `--seal x` the records are still WAL-durable and replayed on
    // restart; they just aren't queryable until the server next seals.
    if failures == 0 && args.has("seal") {
        if let Err(e) = seal_remote(addr) {
            eprintln!("stream: final seal failed: {e}");
            failures += 1;
        }
    }
    let printed = outln!(
        "streamed {n} node log(s): {total_acked} records acked, {total_retries} retries, \
         {failures} failures in {:?}",
        t0.elapsed()
    );
    if failures > 0 {
        return Err(Fail::Run(format!("stream: {failures} failure(s)")));
    }
    printed
}

/// Ask the server to seal a generation using a node-less session: HELLO
/// as an arbitrary real node with zero records, then SEAL.
fn seal_remote(addr: std::net::SocketAddr) -> Result<(), uc_faultdb::DbError> {
    // A SEAL needs a session but no records; any valid node name works
    // and an empty line set means the cursor math is untouched.
    let node = uc_cluster::NodeId::from_name("01-01").expect("static name is valid");
    let opts = StreamOptions {
        seal_at_end: true,
        ..StreamOptions::default()
    };
    uc_faultdb::stream_lines(addr, node, &[], &opts, None).map(drop)
}

/// `uc fsck <dir>`: repair by directory kind (`uc_faultdb::fsck`),
/// print what it did, and fail if any byte went unaccounted for.
fn cmd_fsck(args: &Args) -> Result<(), Fail> {
    let dir = PathBuf::from(&args.positional[0]);
    let what = format!("fsck {}", dir.display());
    let report = uc_faultdb::fsck(&dir).map_err(run_err(&what))?;
    eprintln!("{what}:\n{}", report.render());
    if !report.is_conserved() {
        return Err(Fail::Run(
            "fsck: CONSERVATION VIOLATED — this is a bug, bytes were lost".into(),
        ));
    }
    Ok(())
}

/// `uc scrub <livedir>`: walk every sealed generation and WAL segment
/// verifying CRCs, repair damaged generations by resealing from the WAL,
/// and quarantine unrecoverables under the fsck conservation law. With
/// `--watch-ms N`, patrol continuously until SIGINT/SIGTERM.
fn cmd_scrub(args: &Args) -> Result<(), Fail> {
    let dir = PathBuf::from(&args.positional[0]);
    let rate_mb: u64 = args.num("rate-mb", 0)?;
    let watch_ms = args.num("watch-ms", 0)?;
    let cfg = uc_faultdb::ScrubConfig {
        repair: !args.has("dry-run"),
        max_bytes_per_sec: if rate_mb > 0 {
            Some(rate_mb.saturating_mul(1 << 20))
        } else {
            None
        },
    };

    if watch_ms > 0 {
        let scrubber =
            uc_faultdb::Scrubber::start(&dir, Duration::from_millis(watch_ms.max(1)), cfg);
        eprintln!(
            "scrubbing {} every {watch_ms}ms; send SIGINT/SIGTERM to stop",
            dir.display()
        );
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        spawn_signal_watcher(move || {
            let _ = tx.send(());
        });
        let _ = rx.recv();
        let rounds = scrubber.rounds();
        let busy = scrubber.busy_skips();
        let repaired = scrubber.repaired();
        let last = scrubber.last_report();
        scrubber.stop();
        // stderr may have no reader after a signal (see
        // `spawn_signal_watcher`).
        let mut err = io::stderr();
        if let Some(report) = last {
            let _ = writeln!(err, "{report}");
        }
        let _ = writeln!(
            err,
            "scrub: {rounds} rounds, {repaired} generations repaired, {busy} busy skips"
        );
        return Ok(());
    }

    let report = uc_faultdb::scrub_live_dir(&dir, &cfg)
        .map_err(run_err(format!("scrub {}", dir.display())))?;
    eprintln!("scrub {}:", dir.display());
    eprintln!("{}", report.render());
    if !report.is_conserved() {
        return Err(Fail::Run(
            "scrub: CONSERVATION VIOLATED — this is a bug, bytes were lost".into(),
        ));
    }
    if report.gens_unrecoverable > 0 {
        return Err(Fail::Run(format!(
            "scrub: {} generation(s) unrecoverable — quarantined to .lost+found",
            report.gens_unrecoverable
        )));
    }
    Ok(())
}

/// `uc promote <addr>`: ask a serving node (primary or replica) over its
/// query port to stop following and start accepting writes at a bumped
/// epoch. The old primary, if partitioned away, is fenced on reconnect.
fn cmd_promote(args: &Args) -> Result<(), Fail> {
    use std::net::ToSocketAddrs;
    let text = &args.positional[0];
    // An address that fails to resolve is a runtime failure (the name
    // may resolve later); one that resolves to nothing is a usage error.
    let addr = text
        .to_socket_addrs()
        .map_err(run_err(format!("promote {text}")))?
        .next()
        .ok_or_else(|| Fail::Usage("promote: address resolved to nothing".into()))?;
    let mut client =
        uc_faultdb::Client::connect(addr).map_err(run_err(format!("promote {addr}")))?;
    match client
        .request("PROMOTE")
        .map_err(run_err(format!("promote {addr}")))?
    {
        uc_faultdb::Response::Ok(lines) => {
            for line in &lines {
                outln!("{line}")?;
            }
            eprintln!("promoted: {addr} now accepts writes");
            Ok(())
        }
        uc_faultdb::Response::Err { kind, message } => {
            Err(Fail::Run(format!("promote {addr}: {kind}: {message}")))
        }
    }
}

fn cmd_scan(args: &Args) -> Result<(), Fail> {
    let mb: u64 = args.num("mb", 256)?;
    // The scanner takes bytes; reject sizes whose byte count would
    // overflow instead of wrapping in the multiply.
    let bytes = mb
        .checked_mul(1024 * 1024)
        .ok_or_else(|| Fail::Usage(format!("--mb {mb} is too large (byte count overflows)")))?;
    let iters = args.num("iters", 4)?;
    let pattern = match args.get("pattern") {
        Some("incrementing") => Pattern::incrementing(),
        Some("checkerboard") => Pattern::Checkerboard,
        Some("alternating") | None => Pattern::Alternating,
        Some(other) => {
            return Err(Fail::Usage(format!(
                "--pattern must be alternating|incrementing|checkerboard, got {other:?}"
            )))
        }
    };
    let parallel = args.has("parallel");
    outln!(
        "scanning {mb} MB of host memory, {iters} passes, {} pattern{}...",
        pattern.tag(),
        if parallel { ", parallel" } else { "" }
    )?;
    let t0 = std::time::Instant::now();
    let report = if parallel {
        run_host_scan_parallel(bytes, iters, pattern, None)
    } else {
        run_host_scan(bytes, iters, pattern)
    };
    let secs = t0.elapsed().as_secs_f64();
    outln!(
        "{} words x {} passes in {secs:.2}s ({:.0}M words/s): {} errors",
        report.words,
        report.iterations,
        report.words as f64 * report.iterations as f64 / secs / 1e6,
        report.errors.len()
    )?;
    let mut line = String::with_capacity(128);
    for e in &report.errors {
        line.clear();
        uc_faultlog::codec::write_record_into(
            &mut line,
            &uc_faultlog::record::LogRecord::Error(*e),
        );
        outln!("{line}")?;
    }
    if report.errors.is_empty() {
        outln!("no corruption observed (expected on ECC-protected hosts)")?;
    }
    Ok(())
}

/// Open a replay source for `uc policy`: a sealed `.ucfdb` file, a
/// sharded root directory, or a live ingest directory (replayed from
/// its current sealed generation).
fn open_replay_engine(path: &std::path::Path) -> Result<uc_faultdb::Engine, String> {
    if uc_faultdb::is_live_dir(path) {
        let catalog = uc_faultdb::Catalog::load(path)
            .ok_or_else(|| format!("{}: unreadable live catalog", path.display()))?;
        let current = catalog.current.ok_or_else(|| {
            format!(
                "{}: live directory has no sealed generation yet (seal one first)",
                path.display()
            )
        })?;
        let gen = path.join(uc_faultdb::gen_file_name(current));
        uc_faultdb::Engine::open_auto(&gen).map_err(|e| format!("{}: {e}", gen.display()))
    } else {
        uc_faultdb::Engine::open_auto(path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `uc policy <db|livedir>`: day-replay the stored fault stream through
/// the mitigation policy engine and print the cost-vs-coverage table.
fn cmd_policy(args: &Args) -> Result<(), Fail> {
    use uc_policy::{render_csv, render_table, run_comparison, PolicyKind, ReplayConfig};

    let seed = args.num("seed", 0)?;
    let kinds: Vec<PolicyKind> = match args.get("policy") {
        None | Some("all") => PolicyKind::ALL.to_vec(),
        Some(name) => vec![PolicyKind::parse(name).ok_or_else(|| {
            Fail::Usage(format!(
                "--policy must be never|always-checkpoint|threshold|bandit|oracle|all, got {name:?}"
            ))
        })?],
    };
    let train_days: Option<i64> = if args.has("train-days") {
        Some(args.num("train-days", 0)?)
    } else {
        None
    };
    let threshold = args.num_min("threshold", 3, 1)?;

    let path = PathBuf::from(&args.positional[0]);
    let db = open_replay_engine(&path).map_err(run_err("policy"))?;
    let t0 = std::time::Instant::now();
    let days = db.collect_days().map_err(run_err("policy"))?;
    if days.is_empty() {
        outln!(
            "policy: {} holds no faults; nothing to replay",
            path.display()
        )?;
        return Ok(());
    }
    if let Some(td) = train_days {
        // A training window that swallows the whole stream leaves no
        // evaluation days — every total would be vacuously zero.
        if td >= days.len() as i64 {
            return Err(Fail::Run(format!(
                "policy: --train-days {td} leaves no evaluation days (stream spans {} days)",
                days.len()
            )));
        }
    }
    let cfg = ReplayConfig {
        seed,
        train_days,
        threshold,
        ..ReplayConfig::default()
    };
    let cmp = run_comparison(&days, &kinds, &cfg);
    io::stdout()
        .write_all(render_table(&cmp).as_bytes())
        .map_err(stdout_fail)?;
    eprintln!(
        "replayed {} days x {} policies in {:?}",
        days.len(),
        cmp.runs.len(),
        t0.elapsed()
    );
    if let Some(csv_path) = args.get("csv") {
        std::fs::write(csv_path, render_csv(&cmp))
            .map_err(run_err(format!("policy: failed to write {csv_path}")))?;
        eprintln!("wrote CSV to {csv_path}");
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), Fail> {
    let cfg = config_for(args)?;
    let result = run_campaign(&cfg);
    let report = Report::build(&result);
    if let Some(dir) = args.get("csv") {
        let paths = unprotected_core::csv::write_all(&report, &PathBuf::from(dir))
            .map_err(run_err("failed to write CSVs"))?;
        eprintln!("wrote {} CSV series to {dir}", paths.len());
    }
    outln!("{}", render::full_report(&report))?;
    Ok(())
}

/// Check the subcommand's flags and positional count against its
/// [`COMMANDS`] row, apply `--threads`, and run it.
fn dispatch(raw: &[String]) -> Result<(), Fail> {
    let Some((cmd, rest)) = raw.split_first() else {
        return Err(Fail::Usage("missing subcommand".into()));
    };
    if cmd == "--version" {
        outln!("uc {}", env!("CARGO_PKG_VERSION"))?;
        return Ok(());
    }
    if cmd == "help" || cmd == "--help" {
        // Asked-for usage goes to stdout and exits 0, unlike the exit-2
        // stderr copy a *wrong* invocation gets.
        outln!("{}", usage_text())?;
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd.as_str())
        .ok_or_else(|| Fail::Usage(format!("unknown subcommand {cmd:?}")))?;
    let args = Args::parse(rest);
    if let Some((k, _)) = args
        .flags
        .iter()
        .find(|(k, _)| k != THREADS && !command.flags.contains(&k.as_str()))
    {
        return Err(Fail::Usage(format!("unknown flag --{k} for `uc {cmd}`")));
    }
    let n = args.positional.len();
    if !command.positional.contains(&n) {
        return Err(Fail::Usage(
            match (*command.positional.start(), *command.positional.end()) {
                (a, b) if a == b => {
                    format!("`uc {cmd}` takes {a} positional argument(s), got {n}")
                }
                (a, _) if n < a => format!("`uc {cmd}` needs at least {a} positional argument(s)"),
                (_, b) => format!("`uc {cmd}` takes at most {b} positional argument(s), got {n}"),
            },
        ));
    }
    // Zero is rejected when given, so 0 here means the flag is absent.
    let threads = args.num_min(THREADS, 0, 1)?;
    if threads > 0 {
        uc_parallel::set_thread_limit(Some(threads));
    }
    (command.run)(&args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(()) | Err(Fail::Closed) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            eprintln!("uc: {msg}");
            eprintln!("{}", usage_text());
            ExitCode::from(2)
        }
        Err(Fail::Run(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    /// A row's flags and its usage lines name the same flags: nothing is
    /// accepted but undocumented, or documented but rejected.
    #[test]
    fn every_declared_flag_appears_in_its_usage() {
        for cmd in COMMANDS {
            let documented: Vec<&str> = cmd
                .usage
                .iter()
                .flat_map(|line| line.split_whitespace())
                .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
                .map(|flag| flag.trim_end_matches(']'))
                .collect();
            for flag in cmd.flags {
                assert!(
                    documented.contains(flag),
                    "`uc {}` accepts --{flag} but its usage omits it",
                    cmd.name
                );
            }
            for flag in &documented {
                assert!(
                    cmd.flags.contains(flag),
                    "`uc {}` documents --{flag} but rejects it",
                    cmd.name
                );
            }
        }
    }
}
