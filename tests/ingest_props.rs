//! Property tests for the recovering ingestion path: on *any* input —
//! valid log text, mangled log text, or pure garbage — recovery must not
//! panic and its accounting must conserve lines (every line read is
//! either kept or attributed to exactly one drop category). And the
//! in-memory recovery the direct campaign→db path runs, which keeps runs
//! compact, must agree with writing the log as plain text and reading it
//! back.

use proptest::prelude::*;
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
        let direct = recover_log(&log);
        let mut oracle = recover_text(&log.to_text());
        oracle.stats.files_read = 1;
        if oracle.log.node.is_none() {
            oracle.log.node = log.node;
        }
        prop_assert_eq!(direct.stats, oracle.stats);
        prop_assert_eq!(direct.log.node, oracle.log.node);
        if !shuffled {
            let readable_runs = entries
                .iter()
                .filter(|e| matches!(e, LogEntry::ErrorRun { first, .. } if first.node != NodeId(u32::MAX)))
                .count();
            prop_assert_eq!(
                direct.log.entries().iter().filter(|e| is_run(e)).count(),
                readable_runs
            );
        }
        let expanded = direct.log.into_expanded();
        prop_assert!(!expanded.entries().iter().any(is_run));
        prop_assert_eq!(render_exact(&expanded), render_exact(&oracle.log));
    }
}
