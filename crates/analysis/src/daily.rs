//! Daily analysis: terabyte-hours scanned per day (Fig. 9), errors per day
//! by bit class (Figs. 10 and 11), and the scanning-vs-errors correlation
//! (Section III-G's Pearson r = -0.18, p = 0.0002).
//!
//! Scanned volume is reconstructed from the logs themselves, the way the
//! paper's operators had to: a START..END pair contributes
//! `alloc_bytes x overlap` to every civil day it spans; a START followed by
//! another START (hard reboot) contributes *zero* — "we took a conservative
//! approach and we assumed 0 hours of memory monitoring".

use std::collections::BTreeMap;

use uc_faultlog::record::LogRecord;
use uc_faultlog::store::{LogEntry, NodeLog};
use uc_simclock::SimTime;

use crate::fault::Fault;

/// Sparse per-day scanned volume (TBh), unbounded in time.
///
/// [`DailySeries`] clips sessions to a fixed day window chosen *after*
/// extraction (it spans the faults). A fault database is built before any
/// window exists, so it records volume per civil day over whatever range
/// the logs cover, and [`DailySeries::add_day_volume`] copies the slice a
/// later analysis wants. The arithmetic — one `+=` per (session, day) in
/// log order — is exactly [`DailySeries::add_session`]'s, so routing
/// volume through a `DayVolume` changes nothing, bit for bit, in the
/// windowed series (per-slot accumulation order is identical; days outside
/// the window never feed a slot in either path).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DayVolume {
    days: BTreeMap<i64, f64>,
}

/// START/END pairing over one node's entries in log order, with the
/// conservative hard-reboot rule: a pending START that another START
/// replaces gets zero credit. O(entries): runs hold only ERROR records,
/// so none is expanded.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SessionPairing {
    pending: Option<(SimTime, u64)>,
}

impl SessionPairing {
    /// Feed the next entry; `(start, end, alloc_bytes)` of the session an
    /// END closes.
    pub(crate) fn push(&mut self, entry: &LogEntry) -> Option<(SimTime, SimTime, u64)> {
        match entry {
            LogEntry::One(LogRecord::Start(s)) => {
                self.pending = Some((s.time, s.alloc_bytes));
                None
            }
            LogEntry::One(LogRecord::End(e)) => self
                .pending
                .take()
                .map(|(start, alloc)| (start, e.time, alloc)),
            _ => None,
        }
    }
}

/// One node's scanned volume, kept as its per-day pieces — one per
/// (session, day) in log order — instead of summed. Day volumes are f64
/// sums whose bits depend on the order of addition, so a cluster total
/// adds every node's pieces in node order ([`DayVolume::add_pieces`]),
/// exactly as [`DayVolume::add_node_log`] over each log would.
#[derive(Clone, Debug, Default)]
pub struct NodeVolume {
    pairing: SessionPairing,
    pieces: Vec<(i64, f64)>,
}

impl NodeVolume {
    /// Fold in the node's next entry.
    pub fn push(&mut self, entry: &LogEntry) {
        if let Some((start, end, alloc)) = self.pairing.push(entry) {
            session_pieces(start, end, alloc, |day, tbh| self.pieces.push((day, tbh)));
        }
    }

    /// (day index, TBh) pieces in log order.
    pub fn pieces(&self) -> &[(i64, f64)] {
        &self.pieces
    }
}

/// Split one scan session's volume across the days it spans, handing
/// each (day, TBh) piece to `credit` in day order: the one day split
/// behind [`DayVolume`], [`NodeVolume`] and [`DailySeries`].
fn session_pieces(
    start: SimTime,
    end: SimTime,
    alloc_bytes: u64,
    mut credit: impl FnMut(i64, f64),
) {
    let tb = alloc_bytes as f64 / (1u64 << 40) as f64;
    let mut day = start.day_index();
    while day.saturating_mul(86_400) < end.as_secs() {
        let day_start = SimTime::from_secs(day * 86_400);
        let day_end = SimTime::from_secs(day.saturating_add(1).saturating_mul(86_400));
        let lo = start.max(day_start);
        let hi = end.min(day_end);
        if hi > lo {
            credit(day, tb * (hi - lo).as_hours_f64());
        }
        day += 1;
    }
}

/// The `(start, end, alloc_bytes)` sessions of a node's log, in log
/// order, as [`SessionPairing`] pairs them.
fn log_sessions(log: &NodeLog) -> impl Iterator<Item = (SimTime, SimTime, u64)> + '_ {
    let mut pairing = SessionPairing::default();
    log.entries()
        .iter()
        .filter_map(move |entry| pairing.push(entry))
}

impl DayVolume {
    /// Credit one scan session's volume across the days it spans.
    pub fn add_session(&mut self, start: SimTime, end: SimTime, alloc_bytes: u64) {
        session_pieces(start, end, alloc_bytes, |day, tbh| self.add_piece(day, tbh));
    }

    fn add_piece(&mut self, day: i64, tbh: f64) {
        *self.days.entry(day).or_insert(0.0) += tbh;
    }

    /// Add one node's pieces ([`NodeVolume::pieces`]) in their order.
    pub fn add_pieces(&mut self, pieces: &[(i64, f64)]) {
        for &(day, tbh) in pieces {
            self.add_piece(day, tbh);
        }
    }

    /// Accumulate from a node's log: START/END pairing with the
    /// conservative hard-reboot rule, as [`DailySeries::add_node_log`].
    pub fn add_node_log(&mut self, log: &NodeLog) {
        for (start, end, alloc) in log_sessions(log) {
            self.add_session(start, end, alloc);
        }
    }

    /// (day index, TBh) pairs in day order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.days.iter().map(|(&d, &v)| (d, v))
    }

    pub fn len(&self) -> usize {
        self.days.len()
    }

    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Rebuild from stored pairs (the faultdb footer round-trips the exact
    /// f64 bits, so `from_pairs(v.iter())` is identity).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (i64, f64)>) -> DayVolume {
        DayVolume {
            days: pairs.into_iter().collect(),
        }
    }
}

/// Per-day series over a fixed day range `[first_day, first_day + len)`.
#[derive(Clone, Debug, Default)]
pub struct DailySeries {
    pub first_day: i64,
    /// Terabyte-hours of memory scanned per day.
    pub tb_hours: Vec<f64>,
    /// Fault counts per day, per bit class.
    pub faults: Vec<[u64; 6]>,
}

impl DailySeries {
    pub fn new(first_day: i64, days: usize) -> DailySeries {
        DailySeries {
            first_day,
            tb_hours: vec![0.0; days],
            faults: vec![[0; 6]; days],
        }
    }

    pub fn days(&self) -> usize {
        self.tb_hours.len()
    }

    /// The window slot of day index `day`, if the window holds it.
    fn slot(&self, day: i64) -> Option<usize> {
        let idx = usize::try_from(day.checked_sub(self.first_day)?).ok()?;
        (idx < self.days()).then_some(idx)
    }

    /// Credit one scan session's volume across the window days it spans.
    pub fn add_session(&mut self, start: SimTime, end: SimTime, alloc_bytes: u64) {
        session_pieces(start, end, alloc_bytes, |day, tbh| {
            if let Some(slot) = self.slot(day) {
                self.tb_hours[slot] += tbh;
            }
        });
    }

    /// Accumulate scan volume from a node's log (START/END pairing with the
    /// conservative hard-reboot rule). O(entries): runs hold only ERROR
    /// records, so none is expanded.
    pub fn add_node_log(&mut self, log: &NodeLog) {
        for (start, end, alloc) in log_sessions(log) {
            self.add_session(start, end, alloc);
        }
    }

    /// Copy the overlapping slice of a pre-accumulated [`DayVolume`] into
    /// this window. Each slot receives the same f64 the direct
    /// `add_node_log` path would have produced (see [`DayVolume`]).
    pub fn add_day_volume(&mut self, volume: &DayVolume) {
        for (day, tb) in volume.iter() {
            if let Some(slot) = self.slot(day) {
                self.tb_hours[slot] += tb;
            }
        }
    }

    /// Accumulate fault counts.
    pub fn add_faults(&mut self, faults: &[Fault]) {
        for f in faults {
            if let Some(slot) = self.slot(f.time.day_index()) {
                self.faults[slot][f.bit_class() as usize] += 1;
            }
        }
    }

    /// Total faults per day (all classes).
    pub fn fault_totals(&self) -> Vec<u64> {
        self.faults.iter().map(|c| c.iter().sum()).collect()
    }

    /// Multi-bit faults per day.
    pub fn multibit_totals(&self) -> Vec<u64> {
        self.faults.iter().map(|c| c[1..].iter().sum()).collect()
    }

    /// Pearson correlation between daily scanned volume and daily faults —
    /// the paper's test that scanning intensity does not drive error counts.
    pub fn scan_error_correlation(&self) -> crate::stats::PearsonResult {
        let errors: Vec<f64> = self.fault_totals().iter().map(|&c| c as f64).collect();
        crate::stats::pearson(&self.tb_hours, &errors)
    }

    /// Monthly totals of scanned TBh: (month-index-from-first-day, total).
    pub fn monthly_tb_hours(&self) -> Vec<(i32, u8, f64)> {
        let mut out: Vec<(i32, u8, f64)> = Vec::new();
        for (i, tb) in self.tb_hours.iter().enumerate() {
            let date = uc_simclock::CivilDate::from_day_index(self.first_day + i as i64);
            match out.last_mut() {
                Some((y, m, acc)) if *y == date.year && *m == date.month => *acc += tb,
                _ => out.push((date.year, date.month, *tb)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_cluster::NodeId;
    use uc_faultlog::record::{EndRecord, StartRecord};
    use uc_simclock::SimDuration;

    const GB3: u64 = 3 << 30;

    #[test]
    fn session_credit_splits_across_days() {
        let mut s = DailySeries::new(0, 3);
        // 18:00 day 0 to 06:00 day 1: 6 h + 6 h.
        s.add_session(
            SimTime::from_secs(18 * 3_600),
            SimTime::from_secs(30 * 3_600),
            GB3,
        );
        let tb = GB3 as f64 / (1u64 << 40) as f64;
        assert!((s.tb_hours[0] - tb * 6.0).abs() < 1e-9);
        assert!((s.tb_hours[1] - tb * 6.0).abs() < 1e-9);
        assert_eq!(s.tb_hours[2], 0.0);
    }

    #[test]
    fn sessions_outside_range_ignored() {
        let mut s = DailySeries::new(10, 2);
        s.add_session(SimTime::from_secs(0), SimTime::from_secs(3_600), GB3);
        assert!(s.tb_hours.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn hard_reboot_gets_zero_credit() {
        let mut log = NodeLog::new(NodeId(1));
        let start = |t: i64| {
            LogRecord::Start(StartRecord {
                time: SimTime::from_secs(t),
                node: NodeId(1),
                alloc_bytes: GB3,
                temp: None,
            })
        };
        let end = |t: i64| {
            LogRecord::End(EndRecord {
                time: SimTime::from_secs(t),
                node: NodeId(1),
                temp: None,
            })
        };
        // START (reboot swallows END) ... START END.
        log.push(start(0));
        log.push(start(7_200));
        log.push(end(10_800));
        let mut s = DailySeries::new(0, 1);
        s.add_node_log(&log);
        let tb = GB3 as f64 / (1u64 << 40) as f64;
        // Only the second session (1 h) counts.
        assert!((s.tb_hours[0] - tb * 1.0).abs() < 1e-9, "{}", s.tb_hours[0]);
    }

    #[test]
    fn runs_are_skipped_not_expanded() {
        // The largest run the parser accepts takes seconds to expand even
        // in an optimized build; scanned volume comes from the session
        // markers alone. Bounded on a thread, so a regression fails
        // instead of stalling.
        let node = NodeId(3);
        let mut log = NodeLog::new(node);
        log.push(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(0),
            node,
            alloc_bytes: GB3,
            temp: None,
        }));
        log.push_run(
            uc_faultlog::record::ErrorRecord {
                time: SimTime::from_secs(40),
                node,
                vaddr: 0x100,
                phys_page: 0,
                expected: 0xffff_ffff,
                actual: 0xffff_fffe,
                temp: None,
            },
            uc_faultlog::store::MAX_RUN_COUNT,
            SimDuration::from_secs(40),
        );
        log.push(LogRecord::End(EndRecord {
            time: SimTime::from_secs(7_200),
            node,
            temp: None,
        }));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut volume = DayVolume::default();
            volume.add_node_log(&log);
            let mut series = DailySeries::new(0, 1);
            series.add_node_log(&log);
            let _ = tx.send((volume, series.tb_hours));
        });
        let (volume, series) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("volume fold did not return within 5 s");
        let tb = GB3 as f64 / (1u64 << 40) as f64;
        assert_eq!(volume.iter().collect::<Vec<_>>(), vec![(0, tb * 2.0)]);
        assert_eq!(series, vec![tb * 2.0]);
    }

    #[test]
    fn fault_counting_by_day_and_class() {
        let mut s = DailySeries::new(0, 2);
        let f = |day: i64, xor: u32| Fault {
            node: NodeId(0),
            time: SimTime::from_secs(day * 86_400 + 100),
            vaddr: 0,
            expected: 0,
            actual: xor,
            temp: None,
            raw_logs: 1,
        };
        s.add_faults(&[f(0, 1), f(0, 0b11), f(1, 1), f(5, 1)]);
        assert_eq!(s.fault_totals(), vec![2, 1]);
        assert_eq!(s.multibit_totals(), vec![1, 0]);
    }

    #[test]
    fn correlation_runs_on_series() {
        let mut s = DailySeries::new(0, 30);
        for d in 0..30 {
            s.add_session(
                SimTime::from_secs(d * 86_400),
                SimTime::from_secs(d * 86_400) + SimDuration::from_hours(10),
                GB3,
            );
        }
        let res = s.scan_error_correlation();
        // All-zero errors: degenerate, p = 1.
        assert_eq!(res.p_value, 1.0);
    }

    #[test]
    fn day_volume_routing_is_bit_identical_to_direct_accumulation() {
        let mut log = NodeLog::new(NodeId(7));
        let push_session = |log: &mut NodeLog, t0: i64, t1: i64| {
            log.push(LogRecord::Start(StartRecord {
                time: SimTime::from_secs(t0),
                node: NodeId(7),
                alloc_bytes: GB3,
                temp: None,
            }));
            log.push(LogRecord::End(EndRecord {
                time: SimTime::from_secs(t1),
                node: NodeId(7),
                temp: None,
            }));
        };
        // Sessions crossing midnight, repeated same-day sessions, and one
        // outside the window entirely.
        push_session(&mut log, 18 * 3_600, 30 * 3_600);
        push_session(&mut log, 31 * 3_600, 33 * 3_600);
        push_session(&mut log, 33 * 3_600, 40 * 3_600);
        push_session(&mut log, 20 * 86_400, 21 * 86_400);

        let mut direct = DailySeries::new(0, 3);
        direct.add_node_log(&log);

        let mut volume = DayVolume::default();
        volume.add_node_log(&log);
        let mut routed = DailySeries::new(0, 3);
        routed.add_day_volume(&volume);

        // Not approximately: the exact same bits in every slot.
        for (a, b) in direct.tb_hours.iter().zip(&routed.tb_hours) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the pairs round-trip losslessly (footer storage path).
        assert_eq!(DayVolume::from_pairs(volume.iter()), volume);
    }

    #[test]
    fn monthly_rollup() {
        // Days 0..59 span exactly January + February 2015 (epoch = Jan 1).
        let mut s = DailySeries::new(0, 59);
        for d in 0..59 {
            s.add_session(
                SimTime::from_secs(d * 86_400),
                SimTime::from_secs(d * 86_400 + 3_600),
                GB3,
            );
        }
        let months = s.monthly_tb_hours();
        assert_eq!(months.len(), 2);
        assert_eq!(months[0].1, 1);
        assert_eq!(months[1].1, 2);
        assert!(months[0].2 > months[1].2, "January has 31 days vs 29 used");
    }
}
