//! The seeded query mix and the open-loop query generator shared by the
//! serve and live workloads.
//!
//! The generator is open loop: query `i` is due at `i / rate` seconds
//! after the start, whatever happened to earlier queries, and its
//! latency runs from that due time to the end of the reply, so a stall
//! is charged to every query queued behind it. Queries are dealt round
//! robin over a fixed number of persistent connections, one load thread
//! each. How late each query was sent is recorded too.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use unprotected_computing::faultdb::{Client, Response};
use unprotected_computing::simclock::StreamRng;

/// The seven query kinds of the mix, drawn with equal weight. The
/// repository holds no query log, so the mix is synthetic and its
/// proportions are not taken from any observed traffic.
const KINDS: u64 = 7;

/// `n` queries of the mix over days `lo_day..=hi_day`: 1-day `count`,
/// `group class`, `top 5 node`, `hist bits`,
/// `count where multibit and rack=N`, 30-day `group day`, 7-day `list`.
pub fn mix(seed: u64, n: usize, lo_day: i64, hi_day: i64) -> Vec<String> {
    let mut rng = StreamRng::from_seed(seed);
    let span = (hi_day - lo_day).max(0) as u64;
    (0..n)
        .map(|_| {
            let kind = rng.below(KINDS);
            let day = lo_day + rng.range_inclusive(0, span) as i64;
            match kind {
                0 => format!("count where time>={day}d and time<{}d", day + 1),
                1 => "group class".to_string(),
                2 => "top 5 node".to_string(),
                3 => "hist bits".to_string(),
                4 => format!(
                    "count where multibit and rack={}",
                    rng.range_inclusive(1, 2)
                ),
                5 => format!("group day where time>={day}d and time<{}d", day + 30),
                _ => format!("list limit 50 where time>={day}d and time<{}d", day + 7),
            }
        })
        .collect()
}

#[derive(Clone, Debug)]
pub enum Reply {
    /// An `OK` reply; `true` when the judge accepted its lines.
    Ok(bool),
    /// A typed `ERR` reply (overloaded, timeout, ...).
    Err(String),
    /// The connection failed.
    Io(String),
}

#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Reply,
}

impl Sample {
    pub fn latency_us(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e6
    }

    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// Called on the load thread right after each reply, outside the timed
/// request; traced runs use it to time in-process layers.
pub type After<'a> = &'a (dyn Fn(&Sample) + Sync);

/// Whether the reply lines to a query are right.
pub type Judge<'a> = &'a (dyn Fn(&str, &[String]) -> bool + Sync);

/// Offer `texts[i % len]` at `rate` per second over `conns` connections
/// until `count` queries were sent or `stop` is set. Replies are judged
/// on the load thread, so no reply is kept. Returns every sample, in
/// schedule order, and the CPU time the load threads used.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    texts: &[String],
    judge: Judge<'_>,
    rate: f64,
    conns: usize,
    count: usize,
    stop: &AtomicBool,
    after: After<'_>,
) -> (Vec<Sample>, f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let period = Duration::from_secs_f64(1.0 / rate);
    let per_thread: Vec<(Vec<Sample>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                scope.spawn(move || {
                    let cpu0 = crate::thread_cpu_seconds();
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    let mut i = k;
                    while i < count && !stop.load(Ordering::Acquire) {
                        let due = start + period.mul_f64(i as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let text = &texts[i % texts.len()];
                        let sent = Instant::now();
                        let reply = match client.as_mut() {
                            None => Reply::Io("not connected".into()),
                            Some(c) => match c.request(text) {
                                Ok(Response::Ok(lines)) => Reply::Ok(judge(text, &lines)),
                                Ok(Response::Err { kind, message }) => {
                                    Reply::Err(format!("{kind}: {message}"))
                                }
                                Err(e) => Reply::Io(e.to_string()),
                            },
                        };
                        if matches!(reply, Reply::Io(_)) {
                            client = Client::connect(addr).ok();
                        }
                        let s = Sample {
                            index: i,
                            due,
                            sent,
                            done: Instant::now(),
                            reply,
                        };
                        after(&s);
                        out.push(s);
                        i += conns;
                    }
                    (out, crate::thread_cpu_seconds() - cpu0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let cpu_s = per_thread.iter().map(|t| t.1).sum();
    let mut samples: Vec<Sample> = per_thread.into_iter().flat_map(|t| t.0).collect();
    samples.sort_by_key(|s| s.index);
    (samples, cpu_s)
}

/// Latency and generator-lateness figures of one open-loop phase, µs.
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub late_p50: f64,
    pub late_p99: f64,
    pub late_max: f64,
}

impl Summary {
    pub fn of(samples: &[Sample]) -> Summary {
        let mut lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
        let mut late: Vec<f64> = samples.iter().map(Sample::late_us).collect();
        Summary {
            p50: crate::percentile(&mut lat, 0.5),
            p99: crate::percentile(&mut lat, 0.99),
            late_p50: crate::percentile(&mut late, 0.5),
            late_p99: crate::percentile(&mut late, 0.99),
            late_max: late.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Print generator lateness and `query_p99_us`, which is reported by
    /// name but not gated: its run-to-run spread on a shared host exceeds
    /// any bound the benchmark may set (README.md).
    pub fn print(&self, label: &str, n: usize) {
        println!(
            "{label}: {n} queries; generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us",
            self.late_p50, self.late_p99, self.late_max
        );
        println!(
            "detail {:<40} {:>18} us (not gated)",
            "query_p99_us", self.p99
        );
    }
}
