//! The repository benchmark: three seeded workloads that drive the
//! system only through public library calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|serve|live --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones ([`EndToEnd`]); with `--trace 1` the
//! run replays the same schedule with spans around every call into a
//! layer and prints the per-layer metrics instead ([`trace::per_layer`]).
//! Every workload reports the same metric names, so one workload's
//! figures compare with its own earlier runs name by name. The process
//! exits non-zero when any output check fails. See `README.md` next to
//! this file.

mod campaign;
mod live;
mod prep;
mod queries;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, each one line; any entry makes the run wrong.
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record the end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metric("setup_s", e.setup_s, "s");
        self.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
        self.metric("cpu_us_per_op", e.cpu_us_per_op, "us");
        self.metric("stored_bytes_per_fault", e.stored_bytes_per_fault, "bytes");
    }

    /// Print a workload-specific figure that is not part of the result
    /// line: a wall-clock latency of a service workload, or one of the
    /// finer per-layer figures of a traced run (see `README.md`).
    pub fn detail(&self, name: &str, value: f64, unit: &str) {
        println!("detail {name:<40} {:>18} {unit}", json_number(value));
    }

    /// Count one operation of the workload, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record an output check; one that does not hold makes the run wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

/// The end-to-end metrics; every workload reports all of them.
pub struct EndToEnd {
    /// Median CPU time of the run's set-ups ([`setup_s`]).
    pub setup_s: f64,
    /// Peak RSS (VmHWM) of the workload process.
    pub peak_rss_mb: f64,
    /// CPU time of the program over the measured phase, per operation:
    /// per raw record (campaign), query (serve) or pushed line (live).
    /// The benchmark's own load threads are not counted.
    pub cpu_us_per_op: f64,
    /// Bytes the workload's database takes on disk per fault it holds.
    pub stored_bytes_per_fault: f64,
}

/// `setup_s`: the median over the run's set-ups of the CPU time each
/// took. Their wall-clock times are printed beside it.
pub fn setup_s(setups: &[SetUp]) -> f64 {
    let mut wall: Vec<f64> = setups.iter().map(|s| s.wall).collect();
    let mut cpu: Vec<f64> = setups.iter().map(|s| s.cpu).collect();
    println!(
        "set-up: {} times; wall median {:.1} us; cpu min {:.1} us, median {:.1} us, max {:.1} us",
        setups.len(),
        median(&mut wall) * 1e6,
        percentile(&mut cpu, 0.0) * 1e6,
        median(&mut cpu) * 1e6,
        percentile(&mut cpu, 1.0) * 1e6,
    );
    median(&mut cpu)
}

/// Wall-clock and CPU seconds of one set-up.
pub struct SetUp {
    pub wall: f64,
    pub cpu: f64,
}

impl SetUp {
    /// Time `f` on both clocks.
    pub fn time<R>(f: impl FnOnce() -> R) -> (R, SetUp) {
        let (t, cpu) = (std::time::Instant::now(), cpu_seconds());
        let r = f();
        let s = SetUp {
            wall: t.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - cpu,
        };
        (r, s)
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Scratch space for inputs and live directories, inside the benchmark's
/// own directory so a run never touches anything outside its checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has used so far, in seconds, to the nanosecond. Time the
/// hypervisor steals from the virtual CPUs is not charged, which makes it
/// the steady measure of work on a shared host where wall-clock figures
/// swing from run to run.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds. Load threads
/// read it so that their own work can be taken out of the process's.
pub fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out as the C
    // `struct timespec` of 64-bit Linux (two `long`s), and
    // `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Nearest-rank percentile of `v` (`q` in 0..=1); sorts `v`.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The measurement conditions every run states.
fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dir = work_dir();
    let _ = std::fs::create_dir_all(&dir);
    println!(
        "env: nproc={nproc} fs={} UC_THREADS={} cache_blocks={} rows_per_block={} \
         flush=as shipped: each FLUSH/BYE ack follows a WAL append without fsync, \
         each SEAL fsyncs and rotates the WAL segment",
        fs_type(&dir),
        std::env::var("UC_THREADS").unwrap_or_else(|_| "unset".into()),
        unprotected_computing::faultdb::DbOptions::default().cache_blocks,
        unprotected_computing::faultdb::WriteOptions::default().rows_per_block,
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_environment(&args);
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "serve" => serve::run(&args),
        "live" => live::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    for m in &out.metrics {
        println!(
            "metric {:<40} {:>18} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    for w in &out.wrong {
        println!("WRONG: {w}");
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.wrong.is_empty() && out.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
