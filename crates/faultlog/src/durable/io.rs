//! The injectable I/O layer the durable writer goes through.
//!
//! Every mutating filesystem operation the durability layer performs is a
//! method on the [`Io`] trait, so tests can substitute an implementation
//! whose writes fail — transiently or permanently — without touching the
//! real filesystem error paths. [`StdIo`] is the production backend;
//! [`FlakyIo`] wraps one and injects deterministic failures.
//!
//! Writers never call `Io` methods directly: they go through
//! [`with_retry`], which retries transient failures with bounded
//! exponential backoff and degrades to a typed
//! [`DurabilityError`] once the attempt budget is
//! exhausted. A campaign keeps running (degraded) on a write failure — the
//! error is a value, never a panic.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use super::DurabilityError;

/// Filesystem operations the durable layer performs. Path-based and
/// stateless so a flaky wrapper can intercept each call independently.
pub trait Io: Send + Sync {
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Append bytes to a file, creating it if missing.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Durably flush a file's contents to the device (fsync).
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Replace a file's contents in one call (non-atomic; callers that
    /// need atomicity write a temp file and [`Io::rename`]).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production backend: plain `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdIo;

impl Io for StdIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new().read(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

/// Deterministic failure injection around another [`Io`].
///
/// Two independent failure modes, combinable:
///
/// - **transient**: the next `fail_next` mutating operations return
///   `ErrorKind::Interrupted`; a writer with enough retry budget recovers;
/// - **poisoned paths**: every mutating operation on a path whose string
///   form contains one of the poison substrings fails permanently, so a
///   single node's storage can be "broken" while the rest of the campaign
///   proceeds degraded.
///
/// Reads are never failed: the recovery path must stay exercisable even
/// while writes are being refused.
pub struct FlakyIo<I: Io> {
    inner: I,
    state: Mutex<FlakyState>,
}

#[derive(Debug, Default)]
struct FlakyState {
    fail_next: u64,
    poison: Vec<String>,
    /// Mutating operations attempted (including failed ones).
    ops: u64,
    /// Failures injected so far.
    injected: u64,
}

impl FlakyIo<StdIo> {
    /// A flaky wrapper over the real filesystem whose next `n` mutating
    /// operations fail transiently.
    pub fn failing_first(n: u64) -> FlakyIo<StdIo> {
        FlakyIo::new(StdIo).with_transient_failures(n)
    }

    /// A flaky wrapper over the real filesystem where every mutating
    /// operation on a path containing `substring` fails permanently.
    pub fn poisoning(substring: &str) -> FlakyIo<StdIo> {
        FlakyIo::new(StdIo).with_poisoned_path(substring)
    }
}

impl<I: Io> FlakyIo<I> {
    pub fn new(inner: I) -> FlakyIo<I> {
        FlakyIo {
            inner,
            state: Mutex::new(FlakyState::default()),
        }
    }

    // Every `state` lock recovers from poisoning (`into_inner`): the
    // counters stay meaningful even if a test thread panicked mid-gate,
    // and a chaos-harness panic can never cascade an unrelated unwrap.
    pub fn with_transient_failures(self, n: u64) -> FlakyIo<I> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fail_next = n;
        self
    }

    pub fn with_poisoned_path(self, substring: &str) -> FlakyIo<I> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .poison
            .push(substring.to_string());
        self
    }

    /// Failures injected so far (both transient and poisoned).
    pub fn injected_failures(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
    }

    /// Mutating operations attempted so far.
    pub fn mutating_ops(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).ops
    }

    fn gate(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.ops += 1;
        let p = path.to_string_lossy();
        if s.poison.iter().any(|needle| p.contains(needle.as_str())) {
            s.injected += 1;
            return Err(io::Error::other(format!(
                "injected permanent I/O failure on {p}"
            )));
        }
        if s.fail_next > 0 {
            s.fail_next -= 1;
            s.injected += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient I/O failure on {p}"),
            ));
        }
        Ok(())
    }
}

impl<I: Io> Io for FlakyIo<I> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate(path)?;
        self.inner.create_dir_all(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate(path)?;
        self.inner.append(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.gate(path)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(from)?;
        self.inner.rename(from, to)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate(path)?;
        self.inner.write_file(path, bytes)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(path)?;
        self.inner.remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
}

/// Bounded exponential backoff for transient I/O failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Production default: 5 attempts, 1ms → 2 → 4 → 8ms (worst case
    /// ~15ms of sleeping before a write degrades to an error).
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Fail on the first error; no retries.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// `attempts` tries with zero sleep between them (tests).
    pub fn immediate(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (1-based: the delay after
    /// the first failure is `delay_for(1)`), capped at `max_delay`.
    pub fn delay_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(20);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }

    /// [`RetryPolicy::delay_for`] scaled by a deterministic jitter factor
    /// in `[0.5, 1.0]` derived from `key` — distinct retry loops (keyed
    /// by connection, node, attempt counter …) desynchronize instead of
    /// thundering back in lockstep, and the same key always yields the
    /// same schedule, so chaos tests stay reproducible.
    pub fn delay_for_jittered(&self, retry: u32, key: u64) -> Duration {
        let full = self.delay_for(retry);
        if full.is_zero() {
            return full;
        }
        // splitmix64: cheap, well-distributed, and dependency-free.
        let mut z = key
            .wrapping_add(u64::from(retry))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        full.mul_f64(0.5 + 0.5 * frac)
    }
}

/// Run `op`, retrying per `policy`, and degrade to a typed
/// [`DurabilityError::Io`] carrying the attempt count once the budget is
/// spent. Never panics.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    path: &Path,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, DurabilityError> {
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<io::Error> = None;
    for attempt in 1..=attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                last = Some(e);
                if attempt < attempts {
                    let d = policy.delay_for(attempt);
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                }
            }
        }
    }
    Err(DurabilityError::Io {
        path: path.to_path_buf(),
        attempts,
        source: last.unwrap_or_else(|| io::Error::other("no error recorded")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-durable-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("probe")
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let path = tmpfile("transient");
        let io = FlakyIo::failing_first(3);
        let policy = RetryPolicy::immediate(5);
        with_retry(&policy, &path, || io.append(&path, b"hello")).unwrap();
        assert_eq!(io.injected_failures(), 3);
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        let path = tmpfile("exhaust");
        let io = FlakyIo::failing_first(10);
        let err = with_retry(&RetryPolicy::immediate(3), &path, || {
            io.append(&path, b"hello")
        })
        .unwrap_err();
        match err {
            DurabilityError::Io { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected Io error, got {other:?}"),
        }
        assert_eq!(io.injected_failures(), 3, "one injection per attempt");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn poisoned_path_fails_only_matching_paths() {
        let good = tmpfile("poison-good");
        let bad = good.with_file_name("node-66-06.dlog");
        let io = FlakyIo::poisoning("node-66-06");
        let policy = RetryPolicy::immediate(2);
        with_retry(&policy, &good, || io.append(&good, b"ok")).unwrap();
        assert!(with_retry(&policy, &bad, || io.append(&bad, b"no")).is_err());
        let _ = fs::remove_dir_all(good.parent().unwrap());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(9),
        };
        assert_eq!(p.delay_for(1), Duration::from_millis(2));
        assert_eq!(p.delay_for(2), Duration::from_millis(4));
        assert_eq!(p.delay_for(3), Duration::from_millis(8));
        assert_eq!(p.delay_for(4), Duration::from_millis(9), "capped");
        assert_eq!(p.delay_for(30), Duration::from_millis(9), "no overflow");
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(4),
            max_delay: Duration::from_millis(64),
        };
        for retry in 1..8 {
            for key in [0u64, 1, 42, u64::MAX] {
                let full = p.delay_for(retry);
                let j = p.delay_for_jittered(retry, key);
                assert!(j <= full, "jitter never exceeds the full delay");
                assert!(j >= full / 2, "jitter keeps at least half the delay");
                assert_eq!(j, p.delay_for_jittered(retry, key), "deterministic");
            }
        }
        // Different keys actually spread out.
        assert_ne!(p.delay_for_jittered(3, 1), p.delay_for_jittered(3, 2));
        // Zero base delay stays zero (test policies never sleep).
        assert!(RetryPolicy::immediate(3).delay_for_jittered(2, 7).is_zero());
    }

    #[test]
    fn std_io_appends_and_reads_back() {
        let path = tmpfile("std");
        let io = StdIo;
        io.append(&path, b"one\n").unwrap();
        io.append(&path, b"two\n").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"one\ntwo\n");
        io.write_file(&path, b"replaced").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"replaced");
        io.remove_file(&path).unwrap();
        assert!(!path.exists());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
