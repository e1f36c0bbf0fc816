//! Recovering (lossy) ingestion.
//!
//! The strict parser in [`crate::codec`] hands every malformed line back to
//! the caller; the readers in [`crate::files`] collect those errors but
//! still assume readable, well-formed UTF-8 files. Field data is messier —
//! the paper's 13-month dataset survived hard reboots mid-scan, monitoring
//! gaps and truncated sessions — so this module reads whatever is actually
//! on disk, keeps every record that can be kept, and accounts precisely for
//! what was lost and why:
//!
//! - malformed lines are skipped and counted per [`ParseError`] category;
//! - a torn final line (file truncated mid-write: unparseable *and* missing
//!   its trailing newline) is counted separately from ordinary corruption;
//! - invalid UTF-8 is replaced, not fatal;
//! - a START/END line byte-identical to the previously kept one (log-shipper
//!   hiccup) is dropped as a duplicate — a session cannot legitimately start
//!   or end twice at the same instant. Identical consecutive ERROR lines are
//!   kept: a weak bit really can fire twice within one second at the same
//!   address and temperature;
//! - out-of-order timestamps are kept (entries are re-sorted) but counted;
//! - START followed by another START with no END between — the paper's
//!   hard-reboot signature — is counted as a session gap.
//!
//! The conservation law `lines_read == records_kept + dropped()` holds for
//! every ingest and is property-tested in `tests/` at the workspace root.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::{parse_entry_line, ParseError};
use crate::durable;
use crate::record::LogRecord;
use crate::store::{ClusterLog, LogEntry, NodeLog};
use uc_cluster::NodeId;

/// Why a log directory or file could not be ingested at all. Per-line
/// trouble never produces this — it lands in [`IngestStats`] instead.
#[derive(Debug)]
pub enum IngestError {
    /// The path does not exist.
    Missing(PathBuf),
    /// The path exists but is not a directory.
    NotADirectory(PathBuf),
    /// The directory contains no `node-*.log` files.
    NoLogFiles(PathBuf),
    /// A log has no node id, so its file name cannot be derived.
    NoNodeId,
    /// An underlying I/O failure, with the path that caused it.
    Io { path: PathBuf, source: io::Error },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Missing(p) => write!(f, "log directory {} does not exist", p.display()),
            IngestError::NotADirectory(p) => write!(f, "{} is not a directory", p.display()),
            IngestError::NoLogFiles(p) => {
                write!(f, "no node-*.log or node-*.dlog files in {}", p.display())
            }
            IngestError::NoNodeId => write!(f, "log has no node id"),
            IngestError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl IngestError {
    pub(crate) fn io(path: &Path, source: io::Error) -> IngestError {
        if source.kind() == io::ErrorKind::NotFound {
            IngestError::Missing(path.to_path_buf())
        } else {
            IngestError::Io {
                path: path.to_path_buf(),
                source,
            }
        }
    }
}

/// Accounting for one recovering ingest (one file, or a whole directory —
/// stats from multiple files merge additively).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Files successfully opened and read.
    pub files_read: u64,
    /// Files that existed but could not be read; their lines are lost.
    pub files_unreadable: u64,
    /// Files whose bytes were not valid UTF-8 (read with replacement).
    pub invalid_utf8_files: u64,
    /// Every line seen, kept or not.
    pub lines_read: u64,
    /// Lines that parsed into a kept record or run entry.
    pub records_kept: u64,
    /// Blank / whitespace-only lines.
    pub blank_lines: u64,
    /// Final line of a truncated file: unparseable and missing its newline.
    pub torn_final_lines: u64,
    /// START/END lines byte-identical to the previously kept line.
    pub duplicate_lines: u64,
    /// Dropped: unknown record kind ([`ParseError::UnknownKind`]).
    pub bad_kind: u64,
    /// Dropped: missing `key=value` field ([`ParseError::MissingField`]).
    pub bad_field: u64,
    /// Dropped: malformed number ([`ParseError::BadNumber`]).
    pub bad_number: u64,
    /// Dropped: node name outside the topology ([`ParseError::BadNode`]).
    pub bad_node: u64,
    /// Kept, but timestamped earlier than a preceding record.
    pub out_of_order: u64,
    /// START seen while a session was already open (hard-reboot signature).
    pub session_gaps: u64,
    /// From the directory's `.fsck.report`, when present: durable files
    /// whose valid prefix was salvaged by `uc fsck`.
    pub fsck_files_salvaged: u64,
    /// From `.fsck.report`: bytes `uc fsck` kept in place.
    pub fsck_bytes_salvaged: u64,
    /// From `.fsck.report`: bytes `uc fsck` moved to `.lost+found`.
    pub fsck_bytes_quarantined: u64,
}

impl IngestStats {
    /// Lines that did not become records, across every drop category.
    pub fn dropped(&self) -> u64 {
        self.blank_lines
            + self.torn_final_lines
            + self.duplicate_lines
            + self.bad_kind
            + self.bad_field
            + self.bad_number
            + self.bad_node
    }

    /// The conservation law: every line read is either kept or counted in
    /// exactly one drop category.
    pub fn is_conserved(&self) -> bool {
        self.lines_read == self.records_kept + self.dropped()
    }

    /// Fold another file's stats into this one.
    pub fn merge(&mut self, other: &IngestStats) {
        self.files_read += other.files_read;
        self.files_unreadable += other.files_unreadable;
        self.invalid_utf8_files += other.invalid_utf8_files;
        self.lines_read += other.lines_read;
        self.records_kept += other.records_kept;
        self.blank_lines += other.blank_lines;
        self.torn_final_lines += other.torn_final_lines;
        self.duplicate_lines += other.duplicate_lines;
        self.bad_kind += other.bad_kind;
        self.bad_field += other.bad_field;
        self.bad_number += other.bad_number;
        self.bad_node += other.bad_node;
        self.out_of_order += other.out_of_order;
        self.session_gaps += other.session_gaps;
        self.fsck_files_salvaged += other.fsck_files_salvaged;
        self.fsck_bytes_salvaged += other.fsck_bytes_salvaged;
        self.fsck_bytes_quarantined += other.fsck_bytes_quarantined;
    }

    fn classify(&mut self, e: &ParseError) {
        match e {
            ParseError::Empty => self.blank_lines += 1,
            ParseError::UnknownKind(_) => self.bad_kind += 1,
            ParseError::MissingField(_) => self.bad_field += 1,
            ParseError::BadNumber(..) => self.bad_number += 1,
            ParseError::BadNode(_) => self.bad_node += 1,
        }
    }

    /// Human-readable multi-line summary, as `uc analyze` prints it.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ingest: {} files read ({} unreadable, {} invalid UTF-8)",
            self.files_read, self.files_unreadable, self.invalid_utf8_files
        );
        let _ = writeln!(
            s,
            "ingest: {} lines -> {} records kept, {} dropped",
            self.lines_read,
            self.records_kept,
            self.dropped()
        );
        if self.dropped() > 0 {
            let _ = writeln!(
                s,
                "ingest: dropped by category: {} blank, {} torn-final, {} duplicate, \
                 {} unknown-kind, {} missing-field, {} bad-number, {} bad-node",
                self.blank_lines,
                self.torn_final_lines,
                self.duplicate_lines,
                self.bad_kind,
                self.bad_field,
                self.bad_number,
                self.bad_node
            );
        }
        if self.out_of_order + self.session_gaps > 0 {
            let _ = writeln!(
                s,
                "ingest: anomalies kept: {} out-of-order records, {} session gaps (START/START)",
                self.out_of_order, self.session_gaps
            );
        }
        if self.fsck_files_salvaged + self.fsck_bytes_quarantined > 0 {
            let _ = writeln!(
                s,
                "ingest: fsck salvage history: {} file(s) salvaged, \
                 {} bytes kept, {} bytes in .lost+found",
                self.fsck_files_salvaged, self.fsck_bytes_salvaged, self.fsck_bytes_quarantined
            );
        }
        s.pop();
        s
    }
}

/// The product of a recovering ingest: whatever could be kept, plus the
/// accounting for everything that could not.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    pub log: NodeLog,
    pub stats: IngestStats,
}

/// The single-pass line recovery state machine. Feed it lines (from plain
/// text or durable frame payloads) and it classifies each one exactly as
/// the module doc describes, in one pass, with no per-line allocation:
/// line counting, torn-tail attribution, duplicate-marker suppression,
/// session tracking and out-of-order detection all fold into the same
/// walk that parses the line.
#[derive(Default)]
struct LineRecovery {
    stats: IngestStats,
    entries: Vec<LogEntry>,
    /// Raw bytes of the last kept line *when it was a session marker*
    /// (reused buffer). A duplicate can only ever be marker-vs-marker —
    /// byte equality forces equal kinds — so nothing else needs storing.
    last_marker: String,
    last_was_marker: bool,
    high_water: Option<uc_simclock::SimTime>,
    in_session: bool,
}

impl LineRecovery {
    /// Account one line. `final_unterminated` marks the last line of a
    /// file that does not end in a newline: only such a line's parse
    /// failure is attributed to truncation rather than damage.
    fn line(&mut self, line: &str, final_unterminated: bool) {
        self.stats.lines_read += 1;
        if line.trim().is_empty() {
            self.stats.blank_lines += 1;
            return;
        }
        match parse_entry_line(line) {
            Ok(entry) => {
                // A repeated session marker is provably illegitimate (a
                // session cannot start or end twice at the same instant),
                // so a byte-identical consecutive START/END is dropped as
                // a duplicated line. Identical consecutive ERROR lines are
                // kept: a weak bit really can fire twice within a second
                // at the same address and temperature.
                let is_marker = matches!(
                    entry,
                    LogEntry::One(LogRecord::Start(_)) | LogEntry::One(LogRecord::End(_))
                );
                if is_marker && self.last_was_marker && self.last_marker == line {
                    self.stats.duplicate_lines += 1;
                    return;
                }
                if let LogEntry::One(LogRecord::Start(_)) = entry {
                    if self.in_session {
                        self.stats.session_gaps += 1;
                    }
                    self.in_session = true;
                } else if let LogEntry::One(LogRecord::End(_)) = entry {
                    self.in_session = false;
                }
                // Compare against the high-water mark, not the previous
                // record, so one displaced-early line counts once instead
                // of tainting everything after it.
                if self.high_water.is_some_and(|t| entry.first_time() < t) {
                    self.stats.out_of_order += 1;
                } else {
                    self.high_water = Some(entry.first_time());
                }
                self.last_was_marker = is_marker;
                if is_marker {
                    self.last_marker.clear();
                    self.last_marker.push_str(line);
                }
                self.stats.records_kept += 1;
                self.entries.push(entry);
            }
            Err(e) => {
                if final_unterminated {
                    self.stats.torn_final_lines += 1;
                } else {
                    self.stats.classify(&e);
                }
            }
        }
    }

    /// Account one in-memory `ERROR` record without rendering the full
    /// line — the hot path of the direct campaign→db stream, where the
    /// record never touches disk. Byte-for-byte equivalent to rendering
    /// the record with [`crate::codec::write_record_into`] and feeding
    /// the line through [`LineRecovery::line`]:
    ///
    /// - every integer field (`t`, `vaddr`, `page`, `expected`, `actual`)
    ///   round-trips the writer/parser exactly, so no text is needed;
    /// - the node is the pre-reparsed verdict of rendering `node=BB-SS`
    ///   and re-reading it (`reparsed`, cached by the caller) — `None`
    ///   drops the record as `bad_node`, exactly as the text path would;
    /// - the temperature is the one lossy field: it is rendered with the
    ///   writer's `{:.1}` encoder and re-read with the parser's decoder,
    ///   the identical normalization the text round-trip applies;
    /// - an `ERROR` line is never a session marker, so the duplicate and
    ///   session bookkeeping reduces to `last_was_marker = false` on keep
    ///   (a *dropped* line leaves the marker state untouched, like the
    ///   `Err` arm of [`LineRecovery::line`]).
    fn error_record_typed(
        &mut self,
        rec: &crate::record::ErrorRecord,
        reparsed: Option<NodeId>,
        temp_buf: &mut String,
    ) {
        self.stats.lines_read += 1;
        let Some(node) = reparsed else {
            self.stats.bad_node += 1;
            return;
        };
        temp_buf.clear();
        crate::codec::push_temp(temp_buf, rec.temp);
        let temp = match crate::codec::val_temp(Some(temp_buf)) {
            Ok(t) => t,
            Err(e) => {
                self.stats.classify(&e);
                return;
            }
        };
        if self.high_water.is_some_and(|t| rec.time < t) {
            self.stats.out_of_order += 1;
        } else {
            self.high_water = Some(rec.time);
        }
        self.last_was_marker = false;
        self.stats.records_kept += 1;
        self.entries.push(LogEntry::One(LogRecord::Error(
            crate::record::ErrorRecord { node, temp, ..*rec },
        )));
    }

    /// Feed a whole text in one pass: lines are split at `\n` (with one
    /// preceding `\r` stripped, `str::lines` semantics) as they are
    /// walked — no counting pre-pass, no per-line `String`.
    fn feed_text(&mut self, text: &str) {
        let bytes = text.as_bytes();
        let mut start = 0;
        while start < bytes.len() {
            match bytes[start..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = start + rel;
                    let mut line_end = end;
                    if line_end > start && bytes[line_end - 1] == b'\r' {
                        line_end -= 1;
                    }
                    self.line(&text[start..line_end], false);
                    start = end + 1;
                }
                None => {
                    // `str::lines` keeps a trailing `\r` on a final line
                    // with no newline; so do we.
                    self.line(&text[start..], true);
                    break;
                }
            }
        }
    }

    /// Feed one durable frame payload. Each payload is one writer line,
    /// logically newline-terminated (the frame boundary is the
    /// terminator), so a payload is never "final unterminated" — durable
    /// torn tails are accounted by the caller from the segment scan.
    fn feed_payload(&mut self, payload: &[u8]) {
        let text = String::from_utf8_lossy(payload);
        for piece in text.split('\n') {
            let piece = piece.strip_suffix('\r').unwrap_or(piece);
            self.line(piece, false);
        }
    }

    fn finish(self) -> Recovered {
        Recovered {
            log: NodeLog::from_entries(None, self.entries),
            stats: self.stats,
        }
    }
}

/// Lossy-parse one node's log text. Never fails and never panics: every
/// line either becomes a record or increments a drop counter.
pub fn recover_text(text: &str) -> Recovered {
    let mut r = LineRecovery::default();
    r.feed_text(text);
    r.finish()
}

/// Recover an in-memory [`NodeLog`] exactly as if it had been written to
/// a plain text file and read back with [`read_node_log_recovering`] —
/// the byte-identity seam of the direct campaign→db streaming path.
///
/// The contract, pinned by differential tests against
/// `recover_text(&log.to_text())`:
///
/// - the record walk is `log.iter()` (runs expanded), the identical
///   sequence [`NodeLog::to_text`] renders one line per record;
/// - session markers (`START`/`END`) and `ALLOCFAIL` are rendered and
///   fed through the real line classifier, so duplicate-marker
///   suppression and session-gap accounting see the same bytes a file
///   would hold (two `NaN` temperatures render identically and *are*
///   duplicates — float equality would say otherwise);
/// - `ERROR` records take the typed fast path
///   (`LineRecovery::error_record_typed`): no line rendering, just the
///   writer→parser normalization of the two non-exact fields (node name
///   and `{:.1}` temperature);
/// - `files_read = 1` and the node falls back to `log.node` when no
///   entry names one, mirroring the file-name fallback of the file
///   reader (a plain log file is named after `log.node`).
pub fn recover_log(log: &NodeLog) -> Recovered {
    let mut r = LineRecovery::default();
    let mut line = String::with_capacity(160);
    let mut scratch = String::with_capacity(32);
    // One-entry node cache: a node log names one node in virtually every
    // record, so render+reparse validation runs once, not per record.
    let mut node_cache: Option<(NodeId, Option<NodeId>)> = None;
    for rec in log.iter() {
        if let LogRecord::Error(e) = &rec {
            let reparsed = match node_cache {
                Some((seen, verdict)) if seen == e.node => verdict,
                _ => {
                    scratch.clear();
                    crate::codec::push_node(&mut scratch, e.node);
                    let verdict = NodeId::from_name(&scratch);
                    node_cache = Some((e.node, verdict));
                    verdict
                }
            };
            r.error_record_typed(e, reparsed, &mut scratch);
        } else {
            line.clear();
            crate::codec::write_record_into(&mut line, &rec);
            r.line(&line, false);
        }
    }
    let mut rec = r.finish();
    rec.stats.files_read = 1;
    if rec.log.node.is_none() {
        rec.log.node = log.node;
    }
    rec
}

/// Parse a node id out of either log file naming convention: plain
/// (`node-BB-SS.log`) or durable (`node-BB-SS.dlog`).
pub fn node_of_log_file_name(name: &str) -> Option<NodeId> {
    crate::files::node_of_file_name(name).or_else(|| durable::node_of_durable_file_name(name))
}

/// Read one node-log file in recovering mode — plain text or durable
/// (`.dlog`), chosen by file name. Fails only if the file itself cannot
/// be read; its *content* can be arbitrarily damaged.
pub fn read_node_log_recovering(path: &Path) -> Result<Recovered, IngestError> {
    let is_durable = path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".dlog"));
    let bytes = fs::read(path).map_err(|e| IngestError::io(path, e))?;
    let mut rec = if is_durable {
        // Hand each frame payload straight to the parser — no full-file
        // text reconstruction.
        let scan = durable::scan_segment_slices(&bytes);
        let mut r = LineRecovery::default();
        for payload in &scan.payloads {
            r.feed_payload(payload);
        }
        if scan.damage.is_some() && scan.torn_bytes() > 0 {
            // The torn tail is the durable analogue of an unterminated
            // final line: account for it so the loss is visible, keeping
            // the conservation law (one line read, one line dropped).
            r.stats.lines_read += 1;
            r.stats.torn_final_lines += 1;
        }
        r.finish()
    } else {
        let text = String::from_utf8_lossy(&bytes);
        let mut rec = recover_text(&text);
        if let Cow::Owned(_) = text {
            rec.stats.invalid_utf8_files = 1;
        }
        rec
    };
    rec.stats.files_read = 1;
    if rec.log.node.is_none() {
        // A file whose every line is damaged still names its node.
        rec.log.node = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(node_of_log_file_name);
    }
    Ok(rec)
}

/// List the node-log files under `dir` — plain `node-*.log` and durable
/// `node-*.dlog` — sorted by node, with typed errors for each way a
/// directory can be unusable. When a node has both forms, the durable one
/// wins: it is the checksummed, fsck-verified copy.
pub fn node_log_paths(dir: &Path) -> Result<Vec<PathBuf>, IngestError> {
    if !dir.exists() {
        return Err(IngestError::Missing(dir.to_path_buf()));
    }
    if !dir.is_dir() {
        return Err(IngestError::NotADirectory(dir.to_path_buf()));
    }
    let rd = fs::read_dir(dir).map_err(|e| IngestError::io(dir, e))?;
    let mut by_node: std::collections::BTreeMap<u32, (Option<PathBuf>, Option<PathBuf>)> =
        std::collections::BTreeMap::new();
    for path in rd.filter_map(|e| e.ok().map(|e| e.path())) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(node) = crate::files::node_of_file_name(name) {
            by_node.entry(node.0).or_default().0 = Some(path);
        } else if let Some(node) = durable::node_of_durable_file_name(name) {
            by_node.entry(node.0).or_default().1 = Some(path);
        }
    }
    let paths: Vec<PathBuf> = by_node
        .into_values()
        .filter_map(|(plain, durable)| durable.or(plain))
        .collect();
    if paths.is_empty() {
        return Err(IngestError::NoLogFiles(dir.to_path_buf()));
    }
    Ok(paths)
}

/// Read a whole directory of node logs in recovering mode. Unreadable
/// individual files are counted and skipped; the call fails only when the
/// directory is missing/empty/unusable or *no* file could be read at all.
///
/// Per-file parsing fans out over `parallel::par_map` (the full-scale
/// campaign writes ~36M lines across ~900 files). Determinism argument
/// (DESIGN.md §6): the file list is sorted, `par_map` is order-preserving,
/// the [`IngestStats`] merge is a commutative-and-associative `+=` folded
/// in that fixed order, and the first error is picked by file order — so
/// the result is byte-identical at any thread count.
pub fn read_cluster_log_recovering(dir: &Path) -> Result<(ClusterLog, IngestStats), IngestError> {
    let paths = node_log_paths(dir)?;
    let loaded = uc_parallel::par_map(&paths, |_, path| read_node_log_recovering(path));
    let mut stats = IngestStats::default();
    let mut logs: Vec<NodeLog> = Vec::new();
    let mut first_err: Option<IngestError> = None;
    for res in loaded {
        match res {
            Ok(rec) => {
                stats.merge(&rec.stats);
                logs.push(rec.log);
            }
            Err(e) => {
                stats.files_unreadable += 1;
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if logs.is_empty() {
        if let Some(e) = first_err {
            return Err(e);
        }
    }
    logs.sort_by_key(|l| l.node.map(|n| n.0));
    // A directory `uc fsck` has salvaged carries its accumulated
    // accounting; fold it in so the analysis output states what storage
    // damage preceded this ingest.
    if let Some(fr) = durable::read_fsck_report(dir) {
        stats.fsck_files_salvaged += fr.files_salvaged;
        stats.fsck_bytes_salvaged += fr.bytes_salvaged;
        stats.fsck_bytes_quarantined += fr.bytes_quarantined;
    }
    Ok((ClusterLog::new(logs), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "START t=0 node=01-01 alloc=3221225472 temp=34.5\n\
                        ERROR t=40 node=01-01 vaddr=0x00000100 page=0x000001 \
                        expected=0xffffffff actual=0xfffffffe temp=35.0\n\
                        END t=100 node=01-01 temp=NA\n";

    #[test]
    fn clean_text_recovers_everything() {
        let rec = recover_text(GOOD);
        assert_eq!(rec.stats.lines_read, 3);
        assert_eq!(rec.stats.records_kept, 3);
        assert_eq!(rec.stats.dropped(), 0);
        assert!(rec.stats.is_conserved());
        assert_eq!(rec.log.raw_record_count(), 3);
        assert_eq!(
            rec.log.node.map(|n| n.to_string()).as_deref(),
            Some("01-01")
        );
    }

    #[test]
    fn garbage_lines_classified_and_counted() {
        let text = format!(
            "{GOOD}BOOM t=1 node=01-01\n\
             ERROR t=1 node=01-01 vaddr=zz page=0x0 expected=0x0 actual=0x1 temp=NA\n\
             END t=1 node=99-99 temp=NA\n\
             END t=1 temp=NA\n\n"
        );
        let rec = recover_text(&text);
        assert_eq!(rec.stats.records_kept, 3);
        assert_eq!(rec.stats.bad_kind, 1);
        assert_eq!(rec.stats.bad_number, 1);
        assert_eq!(rec.stats.bad_node, 1);
        assert_eq!(rec.stats.bad_field, 1);
        assert_eq!(rec.stats.blank_lines, 1);
        assert!(rec.stats.is_conserved());
    }

    #[test]
    fn torn_final_line_counted_separately() {
        let torn = format!("{GOOD}ERROR t=140 node=01-01 vaddr=0x0000");
        let rec = recover_text(&torn);
        assert_eq!(rec.stats.torn_final_lines, 1);
        assert_eq!(rec.stats.bad_field + rec.stats.bad_number, 0);
        assert_eq!(rec.stats.records_kept, 3);
        assert!(rec.stats.is_conserved());
    }

    #[test]
    fn unterminated_but_valid_final_line_kept() {
        let rec = recover_text(GOOD.trim_end());
        assert_eq!(rec.stats.records_kept, 3);
        assert_eq!(rec.stats.torn_final_lines, 0);
    }

    #[test]
    fn damaged_final_line_in_terminated_file_is_not_torn() {
        let text = format!("{GOOD}GARBAGE\n");
        let rec = recover_text(&text);
        assert_eq!(rec.stats.torn_final_lines, 0);
        // "GARBAGE" has no t= field, which the parser checks before the
        // record kind.
        assert_eq!(rec.stats.bad_field, 1);
    }

    #[test]
    fn duplicate_lines_dropped_once() {
        let text = "END t=1 node=01-01 temp=NA\nEND t=1 node=01-01 temp=NA\n\
                    END t=2 node=01-01 temp=NA\n";
        let rec = recover_text(text);
        assert_eq!(rec.stats.duplicate_lines, 1);
        assert_eq!(rec.stats.records_kept, 2);
        assert!(rec.stats.is_conserved());
    }

    #[test]
    fn repeated_error_lines_are_legitimate() {
        // The same weak bit firing twice within one second produces two
        // byte-identical ERROR lines; both are real records.
        let text = "ERROR t=5 node=01-01 vaddr=0x10 page=0x1 expected=0xffffffff \
                    actual=0xff7fffff temp=NA\n\
                    ERROR t=5 node=01-01 vaddr=0x10 page=0x1 expected=0xffffffff \
                    actual=0xff7fffff temp=NA\n";
        let rec = recover_text(text);
        assert_eq!(rec.stats.duplicate_lines, 0);
        assert_eq!(rec.stats.records_kept, 2);
        assert!(rec.stats.is_conserved());
    }

    #[test]
    fn out_of_order_kept_and_resorted() {
        let text = "END t=50 node=01-01 temp=NA\nEND t=10 node=01-01 temp=NA\n\
                    END t=60 node=01-01 temp=NA\n";
        let rec = recover_text(text);
        assert_eq!(rec.stats.out_of_order, 1);
        assert_eq!(rec.stats.records_kept, 3);
        let times: Vec<i64> = rec
            .log
            .entries()
            .iter()
            .map(|e| e.first_time().as_secs())
            .collect();
        assert_eq!(times, vec![10, 50, 60], "entries re-sorted");
    }

    #[test]
    fn start_start_counts_session_gap() {
        let text = "START t=0 node=01-01 alloc=1 temp=NA\n\
                    START t=500 node=01-01 alloc=1 temp=NA\n\
                    END t=900 node=01-01 temp=NA\n";
        let rec = recover_text(text);
        assert_eq!(rec.stats.session_gaps, 1);
        assert_eq!(rec.stats.records_kept, 3);
    }

    /// `recover_log` must behave exactly like writing the log to a plain
    /// text file and reading it back: same kept records, same stats, same
    /// node fallback. This is the byte-identity seam of the direct
    /// campaign→db path, so every divergence here is a corruption bug.
    fn assert_recover_log_matches_text_path(log: &NodeLog) {
        let direct = recover_log(log);
        let mut oracle = recover_text(&log.to_text());
        oracle.stats.files_read = 1;
        if oracle.log.node.is_none() {
            oracle.log.node = log.node;
        }
        assert_eq!(direct.stats, oracle.stats, "ingest stats diverged");
        assert_eq!(direct.log.node, oracle.log.node, "node diverged");
        assert_eq!(
            direct.log.entries().len(),
            oracle.log.entries().len(),
            "entry count diverged"
        );
        // Entry-level equality through the exact-bit renderer: LogEntry
        // has no PartialEq, and float `==` would miss NaN-vs-NaN anyway.
        let render = |l: &NodeLog| {
            let mut out = String::new();
            for e in l.entries() {
                crate::codec::write_entry_exact_into(&mut out, e);
                out.push('\n');
            }
            out
        };
        assert_eq!(render(&direct.log), render(&oracle.log), "entries diverged");
    }

    fn node(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    fn err_at(t: i64, n: NodeId, vaddr: u64, temp: Option<f32>) -> LogRecord {
        LogRecord::Error(crate::record::ErrorRecord {
            time: uc_simclock::SimTime::from_secs(t),
            node: n,
            vaddr,
            phys_page: vaddr >> 12,
            expected: 0xffff_ffff,
            actual: 0xffff_fffe,
            temp: temp.map(crate::record::TempC),
        })
    }

    #[test]
    fn recover_log_matches_text_path_on_a_clean_session() {
        let n = node("01-01");
        let mut log = NodeLog::new(n);
        log.push(LogRecord::Start(crate::record::StartRecord {
            time: uc_simclock::SimTime::from_secs(0),
            node: n,
            alloc_bytes: 3 << 30,
            temp: Some(crate::record::TempC(34.52)),
        }));
        for k in 0..40 {
            log.push(err_at(60 + 30 * k, n, 0x400 + 0x10 * k as u64, Some(35.0)));
        }
        log.push(LogRecord::End(crate::record::EndRecord {
            time: uc_simclock::SimTime::from_secs(90_000),
            node: n,
            temp: None,
        }));
        assert_recover_log_matches_text_path(&log);
    }

    #[test]
    fn recover_log_matches_text_path_on_hostile_temps() {
        // Every branch of the temp round-trip: NA, negative, -0.0, NaN
        // (renders "NaN", reparses as the canonical quiet NaN), ±inf,
        // huge magnitudes that overflow the {:.1} fast parser, and
        // subnormals that round to "0.0".
        let n = node("02-07");
        let mut log = NodeLog::new(n);
        let temps = [
            None,
            Some(-12.34),
            Some(-0.0),
            Some(f32::NAN),
            Some(f32::INFINITY),
            Some(f32::NEG_INFINITY),
            Some(3.3e38),
            Some(-3.3e38),
            Some(1.0e-40),
            Some(99.95),
            Some(-99.95),
        ];
        for (k, t) in temps.into_iter().enumerate() {
            log.push(err_at(10 * k as i64, n, 0x1000 + k as u64, t));
        }
        assert_recover_log_matches_text_path(&log);
    }

    #[test]
    fn recover_log_matches_text_path_on_duplicate_and_nan_markers() {
        // Two END markers with NaN temps render byte-identically, so the
        // text path drops the second as a duplicate; float equality would
        // disagree (NaN != NaN). recover_log must agree with the bytes.
        let n = node("01-01");
        let mut log = NodeLog::new(n);
        for _ in 0..2 {
            log.push(LogRecord::End(crate::record::EndRecord {
                time: uc_simclock::SimTime::from_secs(50),
                node: n,
                temp: Some(crate::record::TempC(f32::NAN)),
            }));
        }
        // START/START with no END: a session gap.
        log.push(LogRecord::Start(crate::record::StartRecord {
            time: uc_simclock::SimTime::from_secs(100),
            node: n,
            alloc_bytes: 1,
            temp: None,
        }));
        log.push(LogRecord::Start(crate::record::StartRecord {
            time: uc_simclock::SimTime::from_secs(200),
            node: n,
            alloc_bytes: 1,
            temp: None,
        }));
        let rec = recover_log(&log);
        assert_eq!(rec.stats.duplicate_lines, 1);
        assert_eq!(rec.stats.session_gaps, 1);
        assert_recover_log_matches_text_path(&log);
    }

    #[test]
    fn recover_log_matches_text_path_on_out_of_topology_nodes() {
        // A NodeId outside the topology renders to a name that does not
        // reparse; the text path drops those lines as bad_node and infers
        // the log's node from the file name. recover_log must do both.
        let good = node("01-01");
        let bad = NodeId(u32::MAX);
        let mut log = NodeLog::new(good);
        log.push(err_at(10, bad, 0x10, Some(30.0)));
        log.push(err_at(20, good, 0x20, Some(30.0)));
        log.push(err_at(30, bad, 0x30, None));
        let rec = recover_log(&log);
        assert!(rec.stats.bad_node > 0 || rec.stats.records_kept == 3);
        assert_recover_log_matches_text_path(&log);
    }

    #[test]
    fn recover_log_matches_text_path_on_runs_and_allocfail() {
        let n = node("05-07");
        let mut log = NodeLog::new(n);
        log.push(LogRecord::AllocFail {
            time: uc_simclock::SimTime::from_secs(5),
            node: n,
        });
        if let LogRecord::Error(first) = err_at(10, n, 0x10, Some(41.0)) {
            log.push_run(first, 7, uc_simclock::SimDuration::from_secs(3));
        }
        // A run whose expansion interleaves out-of-order with a later
        // single record exercises high-water accounting across the
        // expansion boundary.
        log.push(err_at(12, n, 0x999, None));
        let rec = recover_log(&log);
        assert_eq!(rec.stats.out_of_order, 1, "run tail is past the single");
        assert_recover_log_matches_text_path(&log);
    }

    #[test]
    fn recover_log_of_empty_log_keeps_the_node_fallback() {
        let log = NodeLog::new(node("03-03"));
        let rec = recover_log(&log);
        assert_eq!(rec.stats.files_read, 1);
        assert_eq!(rec.stats.lines_read, 0);
        assert_eq!(rec.log.node, log.node);
    }

    #[test]
    fn hostile_errorrun_extremes_ingest_without_panicking() {
        // count * period overflows i64 by ~19 orders of magnitude; the
        // entry must ingest, sort and report boundaries without panicking
        // or time-travelling (LogEntry::last_time saturates).
        let text = format!(
            "START t=0 node=01-01 alloc=1 temp=NA\n\
             ERRORRUN t=10 node=01-01 vaddr=0x10 page=0x1 expected=0xffffffff \
             actual=0xfffffffe temp=NA count={} period={}\n\
             ERRORRUN t=20 node=01-01 vaddr=0x10 page=0x1 expected=0xffffffff \
             actual=0xfffffffe temp=NA count=3 period=-500\n\
             END t=100 node=01-01 temp=NA\n",
            u64::MAX,
            i64::MAX
        );
        let rec = recover_text(&text);
        assert_eq!(rec.stats.records_kept, 4);
        assert!(rec.stats.is_conserved());
        let runs: Vec<&LogEntry> = rec
            .log
            .entries()
            .iter()
            .filter(|e| matches!(e, LogEntry::ErrorRun { .. }))
            .collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].last_time().as_secs(),
            i64::MAX,
            "saturated, not wrapped"
        );
        assert_eq!(
            runs[1].last_time().as_secs(),
            20,
            "negative period clamps to first_time"
        );
    }

    #[test]
    fn empty_text_is_empty_not_error() {
        let rec = recover_text("");
        assert_eq!(rec.stats.lines_read, 0);
        assert!(rec.stats.is_conserved());
        assert!(rec.log.entries().is_empty());
    }

    #[test]
    fn stats_merge_is_additive() {
        let a = recover_text(GOOD).stats;
        let garbage = format!("{GOOD}JUNK\n");
        let b = recover_text(&garbage).stats;
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.lines_read, a.lines_read + b.lines_read);
        assert_eq!(sum.records_kept, a.records_kept + b.records_kept);
        assert_eq!(sum.dropped(), a.dropped() + b.dropped());
        assert!(sum.is_conserved());
    }

    #[test]
    fn file_reads_survive_invalid_utf8_and_name_node_from_path() {
        let dir = std::env::temp_dir().join(format!("uc-ingest-utf8-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node-02-03.log");
        let mut bytes = b"END t=1 node=02-03 temp=NA\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        fs::write(&path, &bytes).unwrap();
        let rec = read_node_log_recovering(&path).unwrap();
        assert_eq!(rec.stats.invalid_utf8_files, 1);
        assert_eq!(rec.stats.records_kept, 1);
        assert!(rec.stats.is_conserved());
        assert_eq!(
            rec.log.node.map(|n| n.to_string()).as_deref(),
            Some("02-03")
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_errors_are_typed() {
        let missing = Path::new("/definitely/not/a/real/dir");
        assert!(matches!(
            read_cluster_log_recovering(missing),
            Err(IngestError::Missing(_))
        ));
        let dir = std::env::temp_dir().join(format!("uc-ingest-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            read_cluster_log_recovering(&dir),
            Err(IngestError::NoLogFiles(_))
        ));
        let file = dir.join("plain.txt");
        fs::write(&file, "x").unwrap();
        assert!(matches!(
            read_cluster_log_recovering(&file),
            Err(IngestError::NotADirectory(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_recovery_identical_across_thread_counts() {
        let dir = std::env::temp_dir().join(format!("uc-ingest-par-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for blade in 1..=9 {
            let node = format!("0{blade}-01");
            fs::write(
                dir.join(format!("node-{node}.log")),
                format!(
                    "START t=0 node={node} alloc=1024 temp=NA\nJUNK\n\
                     ERROR t=40 node={node} vaddr=0x00000100 page=0x000001 \
                     expected=0xffffffff actual=0xfffffffe temp=NA\n\
                     END t=100 node={node} temp=NA\n"
                ),
            )
            .unwrap();
        }
        let (base_cluster, base_stats) =
            uc_parallel::with_thread_limit(1, || read_cluster_log_recovering(&dir).unwrap());
        for threads in [2usize, 4, 8] {
            let (cluster, stats) = uc_parallel::with_thread_limit(threads, || {
                read_cluster_log_recovering(&dir).unwrap()
            });
            assert_eq!(stats, base_stats, "{threads} threads");
            assert_eq!(cluster.node_logs().len(), base_cluster.node_logs().len());
            for (a, b) in base_cluster.node_logs().iter().zip(cluster.node_logs()) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.entries(), b.entries());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_logs_are_read_and_preferred_over_plain_twins() {
        use crate::durable::write_cluster_log_durable;
        use crate::record::{LogRecord, StartRecord};
        use crate::store::NodeLog;
        use uc_simclock::SimTime;

        let dir = std::env::temp_dir().join(format!("uc-ingest-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let id = NodeId::from_name("01-01").unwrap();
        let mut log = NodeLog::new(id);
        for t in 0..5 {
            log.push(LogRecord::Start(StartRecord {
                time: SimTime::from_secs(t * 100),
                node: id,
                alloc_bytes: 1024,
                temp: None,
            }));
        }
        let out = write_cluster_log_durable(&dir, &ClusterLog::new(vec![log]));
        assert!(out.is_fully_durable());
        // A stale plain-text twin with different content: the durable
        // copy must win.
        fs::write(dir.join("node-01-01.log"), "END t=9 node=01-01 temp=NA\n").unwrap();
        let paths = node_log_paths(&dir).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].to_string_lossy().ends_with(".dlog"));
        let (cluster, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(cluster.node_logs().len(), 1);
        assert_eq!(stats.records_kept, 5, "durable content, not the twin");
        assert!(stats.is_conserved());

        // Tear the durable file mid-frame: the flushed prefix survives and
        // the tear is accounted as a torn final line.
        let path = &paths[0];
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() - 3]).unwrap();
        let rec = read_node_log_recovering(path).unwrap();
        assert_eq!(rec.stats.torn_final_lines, 1);
        assert!(rec.stats.records_kept >= 1);
        assert!(rec.stats.is_conserved());
        assert_eq!(rec.log.node, Some(id));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_history_is_folded_into_directory_stats() {
        use crate::durable::{fsck_dir, write_cluster_log_durable};
        use crate::record::{LogRecord, StartRecord};
        use crate::store::NodeLog;
        use uc_simclock::SimTime;

        let dir = std::env::temp_dir().join(format!("uc-ingest-fsck-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let id = NodeId::from_name("02-02").unwrap();
        let mut log = NodeLog::new(id);
        for t in 0..8 {
            log.push(LogRecord::Start(StartRecord {
                time: SimTime::from_secs(t * 50),
                node: id,
                alloc_bytes: 64,
                temp: None,
            }));
        }
        assert!(write_cluster_log_durable(&dir, &ClusterLog::new(vec![log])).is_fully_durable());
        let path = dir.join("node-02-02.dlog");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let fr = fsck_dir(&dir).unwrap();
        assert_eq!(fr.files_salvaged, 1);
        let (_, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(stats.fsck_files_salvaged, 1);
        assert_eq!(stats.fsck_bytes_salvaged, fr.bytes_salvaged);
        assert_eq!(stats.fsck_bytes_quarantined, fr.bytes_quarantined);
        assert!(
            stats.is_conserved(),
            "fsck history does not disturb line accounting"
        );
        assert!(stats.summary().contains("fsck salvage history"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_recovery_merges_stats_across_files() {
        let dir = std::env::temp_dir().join(format!("uc-ingest-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("node-01-01.log"), GOOD).unwrap();
        fs::write(
            dir.join("node-01-02.log"),
            "END t=1 node=01-02 temp=NA\nJUNK t=9 node=01-02\n",
        )
        .unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let (cluster, stats) = read_cluster_log_recovering(&dir).unwrap();
        assert_eq!(cluster.node_logs().len(), 2);
        assert_eq!(stats.files_read, 2);
        assert_eq!(stats.records_kept, 4);
        assert_eq!(stats.bad_kind, 1);
        assert!(stats.is_conserved());
        fs::remove_dir_all(&dir).unwrap();
    }
}
