//! Property tests for the recovering ingestion path: on *any* input —
//! valid log text, mangled log text, or pure garbage — recovery must not
//! panic and its accounting must conserve lines (every line read is
//! either kept or attributed to exactly one drop category). And the
//! in-memory recovery the direct campaign→db path runs, which keeps runs
//! compact, must agree with writing the log as plain text and reading it
//! back.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use uc_cluster::NodeId;
use uc_faultlog::codec::write_entry_exact_into;
use uc_faultlog::ingest::{recover_log, recover_text};
use uc_faultlog::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
use uc_faultlog::store::{LogEntry, NodeLog};
use uc_simclock::{SimDuration, SimTime};

/// Temperatures that stress the writer's `{:.1}` round trip: NaN, ±inf,
/// -0.0, magnitudes past the fast parser, subnormals, half-tenths.
const TEMPS: [Option<f32>; 10] = [
    None,
    Some(35.0),
    Some(-0.0),
    Some(f32::NAN),
    Some(f32::INFINITY),
    Some(f32::NEG_INFINITY),
    Some(3.3e38),
    Some(1.0e-40),
    Some(99.95),
    Some(-12.34),
];

/// One entry of node 01-01's log. Now and then it names another node, or
/// one outside the topology (its name does not parse back); runs get
/// zero and negative periods as well as positive ones.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (
        (0u8..7, 0i64..120, 0..TEMPS.len()),
        (0u8..8, 0u64..4, 1u64..40, -30i64..120),
    )
        .prop_map(|((kind, t, temp), (node, cell, count, period))| {
            let time = SimTime::from_secs(t);
            let node = match node {
                6 => NodeId::from_name("01-02").unwrap(),
                7 => NodeId(u32::MAX),
                _ => NodeId::from_name("01-01").unwrap(),
            };
            let temp = TEMPS[temp].map(TempC);
            let error = ErrorRecord {
                time,
                node,
                vaddr: 0x100 * (cell + 1),
                phys_page: 0,
                expected: 0xffff_ffff,
                actual: !(1 << cell),
                temp,
            };
            match kind {
                0 => LogEntry::One(LogRecord::Start(StartRecord {
                    time,
                    node,
                    alloc_bytes: 3 << 30,
                    temp,
                })),
                1 => LogEntry::One(LogRecord::End(EndRecord { time, node, temp })),
                2 => LogEntry::One(LogRecord::AllocFail { time, node }),
                3 => LogEntry::One(LogRecord::Error(error)),
                _ => LogEntry::ErrorRun {
                    first: error,
                    count,
                    period: SimDuration::from_secs(period),
                },
            }
        })
}

/// Two temperatures one `f32` ulp apart whose `{:.1}` renderings differ
/// ("35.0" and "35.1"): the last value that still rounds down, and the
/// next one up.
fn ulp_split() -> (f32, f32) {
    let lo = 35.05f32;
    let hi = f32::from_bits(lo.to_bits() + 1);
    assert_eq!(
        (format!("{lo:.1}"), format!("{hi:.1}")),
        ("35.0".into(), "35.1".into())
    );
    (lo, hi)
}

/// Marker temperatures: `None`; NaNs with different payloads (all
/// render "NaN"); two values that differ only below a tenth (both render
/// "35.0"); and the ulp pair that renders "35.0" and "35.1".
fn marker_temps() -> [Option<f32>; 7] {
    let (lo, hi) = ulp_split();
    [
        None,
        Some(f32::NAN),
        Some(f32::from_bits(0xffc0_1234)),
        Some(35.01),
        Some(35.04),
        Some(lo),
        Some(hi),
    ]
}

/// One entry of a marker-dense log: mostly `START`/`END` at a handful of
/// times (so byte-identical neighbours, unmatched markers and times out
/// of order are common), now and then an `ERROR` or `ALLOCFAIL` between
/// them, now and then naming another node or one outside the topology.
fn arb_marker_entry() -> impl Strategy<Value = LogEntry> {
    (0u8..10, 0i64..4, 0usize..7, 0u8..10, 0u64..3).prop_map(|(kind, t, temp, node, alloc)| {
        let time = SimTime::from_secs(t);
        let node = match node {
            8 => NodeId::from_name("01-02").unwrap(),
            9 => NodeId(u32::MAX),
            _ => NodeId::from_name("01-01").unwrap(),
        };
        let temp = marker_temps()[temp].map(TempC);
        match kind {
            0..=3 => LogEntry::One(LogRecord::Start(StartRecord {
                time,
                node,
                alloc_bytes: alloc << 30,
                temp,
            })),
            4..=7 => LogEntry::One(LogRecord::End(EndRecord { time, node, temp })),
            8 => LogEntry::One(LogRecord::AllocFail { time, node }),
            _ => LogEntry::One(LogRecord::Error(ErrorRecord {
                time,
                node,
                vaddr: 0x100,
                phys_page: 0,
                expected: 0xffff_ffff,
                actual: 0xffff_fffe,
                temp,
            })),
        }
    })
}

/// `recover_log(log)` against the text oracle `recover_text(&log.to_text())`
/// (with the file reader's `files_read` and node fallback): the same
/// stats and node, and the same entries once runs are expanded.
fn assert_matches_text_round_trip(log: &NodeLog) -> Result<NodeLog, TestCaseError> {
    let direct = recover_log(log);
    let mut oracle = recover_text(&log.to_text());
    oracle.stats.files_read = 1;
    if oracle.log.node.is_none() {
        oracle.log.node = log.node;
    }
    prop_assert_eq!(direct.stats, oracle.stats);
    prop_assert_eq!(direct.log.node, oracle.log.node);
    let compact = direct.log.clone();
    let expanded = direct.log.into_expanded();
    prop_assert!(!expanded.entries().iter().any(is_run));
    prop_assert_eq!(render_exact(&expanded), render_exact(&oracle.log));
    Ok(compact)
}

fn render_exact(log: &NodeLog) -> String {
    let mut out = String::new();
    for e in log.entries() {
        write_entry_exact_into(&mut out, e);
        out.push('\n');
    }
    out
}

fn is_run(e: &LogEntry) -> bool {
    matches!(e, LogEntry::ErrorRun { .. })
}

proptest! {
    #[test]
    fn recovery_conserves_counts_on_arbitrary_text(text in "\\PC*") {
        let rec = recover_text(&text);
        prop_assert!(rec.stats.is_conserved(), "stats: {:?}", rec.stats);
        prop_assert_eq!(
            rec.stats.lines_read,
            rec.stats.records_kept + rec.stats.dropped()
        );
    }

    #[test]
    fn recovery_conserves_counts_on_mangled_log_lines(
        lines in prop::collection::vec(
            prop_oneof![
                Just("START t=3600 node=01-02 alloc=1048576 pattern=alternating".to_string()),
                Just("ERROR t=3700 node=01-02 vaddr=0x00fa3b9c page=0x0003e8 \
                      expected=0xffffffff actual=0xffff7bff temp=35.0".to_string()),
                Just("END t=7200 node=01-02 errors=1 temp=36.1".to_string()),
                Just(String::new()),
                "[ =x0-9a-fA-F#]{0,40}",
            ],
            0..40,
        ),
        cut in 0usize..200,
    ) {
        // Join and then cut the tail to simulate a torn final line. All
        // strategy output is ASCII, so byte slicing is safe.
        let mut text = lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        let cut = cut.min(text.len());
        let torn = &text[..text.len() - cut];
        let rec = recover_text(torn);
        prop_assert!(rec.stats.is_conserved(), "stats: {:?}", rec.stats);
        // Kept records never exceed parseable input lines.
        prop_assert!(rec.stats.records_kept <= rec.stats.lines_read);
    }

    /// `recover_log` over a log with runs equals `recover_text` over the
    /// log's plain text: the same stats, and the same entries once the
    /// runs it keeps whole are expanded. In first-time order (built by
    /// `from_entries`) every run on a readable node stays one entry; out
    /// of that order (built from exact compact text, where a node outside
    /// the topology cannot parse) a displaced run is walked.
    #[test]
    fn recover_log_matches_the_text_round_trip(
        entries in prop::collection::vec(arb_entry(), 0..24),
        shuffled in any::<bool>(),
    ) {
        let log = if shuffled {
            let mut text = String::new();
            for e in &entries {
                write_entry_exact_into(&mut text, e);
                text.push('\n');
            }
            NodeLog::from_text_compact(&text).0
        } else {
            NodeLog::from_entries(NodeId::from_name("01-01"), entries.clone())
        };
        let direct = assert_matches_text_round_trip(&log)?;
        if !shuffled {
            let readable_runs = entries
                .iter()
                .filter(|e| matches!(e, LogEntry::ErrorRun { first, .. } if first.node != NodeId(u32::MAX)))
                .count();
            prop_assert_eq!(
                direct.entries().iter().filter(|e| is_run(e)).count(),
                readable_runs
            );
        }
    }

    /// The same differential on marker-dense logs, kept in the order
    /// given (so markers arrive out of time order too): duplicate
    /// detection on the typed marker arm must agree with byte equality
    /// of the rendered lines — NaNs and temperatures equal to a tenth
    /// are duplicates, one ulp across a rounding boundary is not — and
    /// session gaps, out-of-order counts and drops with it.
    #[test]
    fn recover_log_matches_the_text_round_trip_on_marker_dense_logs(
        entries in prop::collection::vec(arb_marker_entry(), 0..40),
    ) {
        let log = NodeLog::from_entries_unsorted(NodeId::from_name("01-01"), entries);
        assert_matches_text_round_trip(&log)?;
    }
}

/// The marker arm's edge cases, each pinned once: what the text reader
/// counts for them is what `recover_log` counts.
#[test]
fn marker_edge_cases_count_as_the_text_reader_counts() {
    let node = NodeId::from_name("01-01").unwrap();
    let start = |t: i64, temp: Option<f32>| {
        LogEntry::One(LogRecord::Start(StartRecord {
            time: SimTime::from_secs(t),
            node,
            alloc_bytes: 3 << 30,
            temp: temp.map(TempC),
        }))
    };
    let end = |t: i64, temp: Option<f32>| {
        LogEntry::One(LogRecord::End(EndRecord {
            time: SimTime::from_secs(t),
            node,
            temp: temp.map(TempC),
        }))
    };
    let (lo, hi) = ulp_split();
    let cases: Vec<(Vec<LogEntry>, u64)> = vec![
        // byte-identical neighbours
        (vec![start(1, Some(35.0)), start(1, Some(35.0))], 1),
        (vec![end(1, None), end(1, None)], 1),
        // equal to a tenth, and two NaN payloads
        (vec![end(1, Some(35.01)), end(1, Some(35.04))], 1),
        (
            vec![
                end(1, Some(f32::NAN)),
                end(1, Some(f32::from_bits(0x7fc0_0001))),
            ],
            1,
        ),
        // one ulp apart across the rounding boundary
        (vec![end(1, Some(lo)), end(1, Some(hi))], 0),
        // START vs END, and a different time
        (vec![start(1, None), end(1, None)], 0),
        (vec![end(1, None), end(2, None)], 0),
    ];
    for (entries, duplicates) in cases {
        let log = NodeLog::from_entries_unsorted(Some(node), entries);
        let rec = recover_log(&log);
        assert_eq!(rec.stats.duplicate_lines, duplicates, "{log:?}");
        let mut oracle = recover_text(&log.to_text());
        oracle.stats.files_read = 1;
        assert_eq!(rec.stats, oracle.stats, "{log:?}");
    }
}
