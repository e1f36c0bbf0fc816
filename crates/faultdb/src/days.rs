//! The stored fault stream split by simulated day — the replay feed for
//! the online mitigation policy engine (`crates/policy`, `uc policy`).
//!
//! [`Engine::collect_days`] reads the sealed stream once, the way
//! `uc analyze --db` reads it ([`Engine::snapshot`]), and files every
//! fault under its `SimTime::day_index`: one [`DayFaults`] per day from
//! the smallest to the largest fault day, **including empty days** (a
//! policy charges daily costs whether or not faults landed).
//!
//! Boundary contract: day `d` covers `[d·86400, (d+1)·86400)` — half-open,
//! exactly `day_index`'s `div_euclid` partition — so a fault at exactly
//! midnight belongs to the *starting* day and to no other. Each day keeps
//! its faults in stored order, so for a stream in sort order (every
//! sealed campaign) concatenating the days reproduces it exactly. The
//! span is taken over every row, not from the first and last stored row,
//! so a stream sealed out of sort order is split correctly too.
//!
//! The feed holds one entry per day, so its size follows the span, not
//! the fault count: a span wider than [`MAX_DAY_SPAN`] is refused with a
//! typed [`DbError::DaySpan`]. `tests/faultdb_days.rs` proves the
//! partition against a brute-force `day_index` split.

use uc_analysis::fault::Fault;

use crate::error::DbError;
use crate::shard::Engine;

/// The widest stream, in days, that [`Engine::collect_days`] lays out:
/// 2^16 days, about 179 years. The paper's campaign spans about 400. The
/// feed allocates one entry per day, empty or not, so without a bound two
/// faults 10^13 s apart would ask for ~116M days of replay.
pub const MAX_DAY_SPAN: i64 = 1 << 16;

/// One simulated day of the fault stream.
#[derive(Clone, Debug, PartialEq)]
pub struct DayFaults {
    /// Day index (`SimTime::day_index` of every fault in `faults`).
    pub day: i64,
    /// The day's faults in stored (global sort) order. May be empty.
    pub faults: Vec<Fault>,
}

impl Engine {
    /// The stored stream split by day, every day from the first fault
    /// day through the last, empties included; empty for a database
    /// without faults. The policy replay driver's feed.
    pub fn collect_days(&self) -> Result<Vec<DayFaults>, DbError> {
        let faults = self.snapshot()?.faults;
        let day = |f: &Fault| f.time.day_index();
        let Some(first) = faults.iter().map(day).min() else {
            return Ok(Vec::new());
        };
        let last = faults.iter().map(day).max().unwrap_or(first);
        // `day_index` of any `SimTime` lies within ±2^47, so the
        // difference cannot overflow.
        if last - first >= MAX_DAY_SPAN {
            return Err(DbError::DaySpan { first, last });
        }
        let mut days: Vec<DayFaults> = (first..=last)
            .map(|day| DayFaults {
                day,
                faults: Vec::new(),
            })
            .collect();
        for f in faults {
            days[(day(&f) - first) as usize].faults.push(f);
        }
        Ok(days)
    }
}
