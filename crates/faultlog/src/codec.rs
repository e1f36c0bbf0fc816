//! The plain-text log format.
//!
//! One record per line, first token is the record kind, then the timestamp
//! (seconds on the study clock), the node name in the paper's `BB-SS` form,
//! and kind-specific `key=value` fields. Examples:
//!
//! ```text
//! START t=2678400 node=02-04 alloc=3221225472 temp=34.5
//! ERROR t=2679000 node=02-04 vaddr=0x00fa3b9c page=0x0003e8 expected=0xffffffff actual=0xffff7bff temp=35.0
//! END t=2680000 node=02-04 temp=NA
//! ALLOCFAIL t=2678400 node=05-11
//! ```
//!
//! The parser is strict about structure (unknown kinds, missing fields and
//! malformed numbers are errors with the offending line number preserved by
//! the caller) but tolerant of extra whitespace, matching how the analysis
//! tooling for the real study had to be robust against log truncation.
//!
//! # Fast path and fallback
//!
//! Parsing is a single left-to-right cursor over the line's bytes. Lines in
//! exactly the form our own writer emits — the kind, then the kind's fields
//! in writer order, single ASCII spaces, printable-ASCII values — take a
//! branch-light fast path that slices each value out in one scan. Anything
//! else (extra whitespace, reordered or duplicated fields, non-ASCII bytes)
//! falls back to an order-insensitive `key=value` scan over the
//! whitespace-split tokens, which accepts everything the historical
//! tokenizing parser accepted and reports the same [`ParseError`] for
//! everything it rejected. Both paths allocate only when constructing an
//! error. Formatting goes through the `write_*_into` appenders, which push
//! into a caller-owned buffer so bulk writers can reuse one allocation.
//!
//! # Format history
//!
//! `ERRORRUN` lines were historically written with a run of 18 spaces
//! between the `page=` and `expected=` fields (an artifact of a wrapped
//! string literal). The writer now emits single spaces everywhere; the
//! parser remains whitespace-tolerant, so logs written by older builds
//! still ingest byte-for-byte identically.

use std::fmt::Write as _;

use uc_cluster::NodeId;
use uc_simclock::{SimDuration, SimTime};

use crate::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
use crate::store::{LogEntry, MAX_RUN_COUNT};

/// A parse failure for one line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    Empty,
    UnknownKind(String),
    MissingField(&'static str),
    BadNumber(&'static str, String),
    BadNode(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty line"),
            ParseError::UnknownKind(k) => write!(f, "unknown record kind {k:?}"),
            ParseError::MissingField(name) => write!(f, "missing field {name}"),
            ParseError::BadNumber(name, v) => write!(f, "bad number for {name}: {v:?}"),
            ParseError::BadNode(v) => write!(f, "bad node name {v:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Formatting: allocation-free appenders into a caller-owned buffer.
// ---------------------------------------------------------------------------

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap());
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `0x` plus at least `width` lowercase hex digits, zero padded, widening
/// past `width` when the value needs more digits — `{:0width$x}` semantics.
fn push_hex(out: &mut String, v: u64, width: usize) {
    out.push_str("0x");
    push_hex_digits(out, v, width);
}

fn push_hex_digits(out: &mut String, mut v: u64, width: usize) {
    debug_assert!(width <= 16);
    let mut buf = [b'0'; 16];
    let mut i = buf.len();
    while v != 0 {
        i -= 1;
        buf[i] = HEX_DIGITS[(v & 0xf) as usize];
        v >>= 4;
    }
    let start = i.min(buf.len() - width);
    out.push_str(std::str::from_utf8(&buf[start..]).unwrap());
}

/// The paper's `BB-SS` form: both parts 1-based, zero padded to two digits
/// (wider if a raw id exceeds the physical topology) — `{:02}-{:02}`.
pub(crate) fn push_node(out: &mut String, node: NodeId) {
    let name = node.name();
    push_2pad(out, name.blade);
    out.push('-');
    push_2pad(out, name.soc);
}

fn push_2pad(out: &mut String, v: u32) {
    if v < 100 {
        out.push((b'0' + (v / 10) as u8) as char);
        out.push((b'0' + (v % 10) as u8) as char);
    } else {
        push_u64(out, u64::from(v));
    }
}

pub(crate) fn push_temp(out: &mut String, temp: Option<TempC>) {
    match temp {
        // `{:.1}` float formatting uses stack buffers only; no heap.
        Some(t) => {
            let _ = write!(out, "{:.1}", t.0);
        }
        None => out.push_str("NA"),
    }
}

/// Lossless temperature encoding: `#` plus the f32 bit pattern in hex. The
/// human-readable `{:.1}` form rounds to a tenth of a degree, which is fine
/// for the study logs but loses bits — text that must read back to the
/// identical in-memory log uses this form instead.
fn push_temp_exact(out: &mut String, temp: Option<TempC>) {
    match temp {
        Some(t) => {
            out.push('#');
            push_hex_digits(out, u64::from(t.0.to_bits()), 8);
        }
        None => out.push_str("NA"),
    }
}

/// Append a record as one log line (no trailing newline) to `out`.
pub fn write_record_into(out: &mut String, r: &LogRecord) {
    write_record_with(out, r, push_temp);
}

/// Like [`write_record_into`] but with the lossless temperature encoding,
/// so the line parses back to the bit-identical in-memory record.
pub fn write_record_exact_into(out: &mut String, r: &LogRecord) {
    write_record_with(out, r, push_temp_exact);
}

fn write_record_with(out: &mut String, r: &LogRecord, ft: fn(&mut String, Option<TempC>)) {
    match r {
        LogRecord::Start(rec) => {
            out.push_str("START t=");
            push_i64(out, rec.time.as_secs());
            out.push_str(" node=");
            push_node(out, rec.node);
            out.push_str(" alloc=");
            push_u64(out, rec.alloc_bytes);
            out.push_str(" temp=");
            ft(out, rec.temp);
        }
        LogRecord::Error(rec) => {
            out.push_str("ERROR ");
            write_error_fields(out, rec, ft);
        }
        LogRecord::End(rec) => {
            out.push_str("END t=");
            push_i64(out, rec.time.as_secs());
            out.push_str(" node=");
            push_node(out, rec.node);
            out.push_str(" temp=");
            ft(out, rec.temp);
        }
        LogRecord::AllocFail { time, node } => {
            out.push_str("ALLOCFAIL t=");
            push_i64(out, time.as_secs());
            out.push_str(" node=");
            push_node(out, *node);
        }
    }
}

fn write_error_fields(out: &mut String, rec: &ErrorRecord, ft: fn(&mut String, Option<TempC>)) {
    out.push_str("t=");
    push_i64(out, rec.time.as_secs());
    out.push_str(" node=");
    push_node(out, rec.node);
    out.push_str(" vaddr=");
    push_hex(out, rec.vaddr, 8);
    out.push_str(" page=");
    push_hex(out, rec.phys_page, 6);
    out.push_str(" expected=");
    push_hex(out, u64::from(rec.expected), 8);
    out.push_str(" actual=");
    push_hex(out, u64::from(rec.actual), 8);
    out.push_str(" temp=");
    ft(out, rec.temp);
}

/// Append a store entry to `out`: single records use the standard line
/// format; a compressed run becomes one `ERRORRUN` line carrying its count
/// and period, so the flood node's tens of millions of re-detections
/// persist as ~one line per scan session instead of thousands.
pub fn write_entry_into(out: &mut String, entry: &LogEntry) {
    write_entry_with(out, entry, push_temp);
}

/// Like [`write_entry_into`] but with the lossless temperature encoding;
/// see [`write_record_exact_into`].
pub fn write_entry_exact_into(out: &mut String, entry: &LogEntry) {
    write_entry_with(out, entry, push_temp_exact);
}

fn write_entry_with(out: &mut String, entry: &LogEntry, ft: fn(&mut String, Option<TempC>)) {
    match entry {
        LogEntry::One(rec) => write_record_with(out, rec, ft),
        LogEntry::ErrorRun {
            first,
            count,
            period,
        } => {
            out.push_str("ERRORRUN ");
            write_error_fields(out, first, ft);
            out.push_str(" count=");
            push_u64(out, *count);
            out.push_str(" period=");
            push_i64(out, period.as_secs());
        }
    }
}

/// Render a record as one log line (no trailing newline).
pub fn format_record(r: &LogRecord) -> String {
    let mut s = String::with_capacity(96);
    write_record_into(&mut s, r);
    s
}

/// Like [`format_record`] but with the lossless temperature encoding, so
/// the line parses back to the bit-identical in-memory record.
pub fn format_record_exact(r: &LogRecord) -> String {
    let mut s = String::with_capacity(96);
    write_record_exact_into(&mut s, r);
    s
}

/// Render a store entry; see [`write_entry_into`].
pub fn format_entry(entry: &LogEntry) -> String {
    let mut s = String::with_capacity(120);
    write_entry_into(&mut s, entry);
    s
}

/// Like [`format_entry`] but with the lossless temperature encoding; see
/// [`format_record_exact`].
pub fn format_entry_exact(entry: &LogEntry) -> String {
    let mut s = String::with_capacity(120);
    write_entry_exact_into(&mut s, entry);
    s
}

// ---------------------------------------------------------------------------
// Parsing: field validators shared by the fast path and the fallback.
// ---------------------------------------------------------------------------

/// Hand-rolled decimal parse for the common shape: optional `-`, then at
/// most 18 digits — short enough that overflow is impossible, so the loop
/// needs no checked arithmetic. Anything else (a `+` sign, more digits,
/// a stray byte) returns `None` and the caller falls back to
/// `str::parse`, keeping accept/reject behavior and overflow handling
/// byte-for-byte identical to the standard library.
#[inline]
fn dec_i64_simple(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    let (neg, digits) = match b.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, b),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v = 0i64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + i64::from(d);
    }
    Some(if neg { -v } else { v })
}

/// Unsigned sibling of [`dec_i64_simple`]: ≤19 digits cannot overflow
/// `u64`.
#[inline]
fn dec_u64_simple(s: &str) -> Option<u64> {
    let digits = s.as_bytes();
    if digits.is_empty() || digits.len() > 19 {
        return None;
    }
    let mut v = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u64::from(d);
    }
    Some(v)
}

/// Hex sibling: ≤15 hex digits cannot overflow `u64`. The writer never
/// emits more than 16, and a 16-digit value still falls back safely.
#[inline]
fn hex_u64_simple(s: &str) -> Option<u64> {
    let digits = s.as_bytes();
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    let mut v = 0u64;
    for &c in digits {
        let d = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            b'A'..=b'F' => c - b'A' + 10,
            _ => return None,
        };
        v = (v << 4) | u64::from(d);
    }
    Some(v)
}

fn val_i64(key: &'static str, v: Option<&str>) -> Result<i64, ParseError> {
    let v = v.ok_or(ParseError::MissingField(key))?;
    if let Some(n) = dec_i64_simple(v) {
        return Ok(n);
    }
    v.parse()
        .map_err(|_| ParseError::BadNumber(key, v.to_string()))
}

fn val_u64(key: &'static str, v: Option<&str>) -> Result<u64, ParseError> {
    let v = v.ok_or(ParseError::MissingField(key))?;
    if let Some(n) = dec_u64_simple(v) {
        return Ok(n);
    }
    v.parse()
        .map_err(|_| ParseError::BadNumber(key, v.to_string()))
}

fn val_hex(key: &'static str, v: Option<&str>) -> Result<u64, ParseError> {
    let v = v.ok_or(ParseError::MissingField(key))?;
    let stripped = v
        .strip_prefix("0x")
        .ok_or_else(|| ParseError::BadNumber(key, v.to_string()))?;
    if let Some(n) = hex_u64_simple(stripped) {
        return Ok(n);
    }
    u64::from_str_radix(stripped, 16).map_err(|_| ParseError::BadNumber(key, v.to_string()))
}

fn val_node(v: Option<&str>) -> Result<NodeId, ParseError> {
    let v = v.ok_or(ParseError::MissingField("node"))?;
    NodeId::from_name(v).ok_or_else(|| ParseError::BadNode(v.to_string()))
}

/// Hand-rolled parse for the writer's `{:.1}` temperature shape:
/// optional `-`, 1–6 integer digits, `.`, exactly one fraction digit.
/// `10 * int + frac` then fits in 24 bits, so it is exact as an `f32`,
/// and IEEE division by the exact constant `10.0` is correctly rounded —
/// yielding bit-for-bit the same value `str::parse::<f32>` produces for
/// the same text. Any other shape returns `None` and falls back.
#[inline]
fn temp_f32_simple(s: &str) -> Option<f32> {
    let b = s.as_bytes();
    let (neg, b) = match b.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, b),
    };
    let dot = b.len().checked_sub(2)?;
    if dot == 0 || dot > 6 || b[dot] != b'.' {
        return None;
    }
    let mut v = 0u32;
    for &c in &b[..dot] {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u32::from(d);
    }
    let frac = b[dot + 1].wrapping_sub(b'0');
    if frac > 9 {
        return None;
    }
    let val = (v * 10 + u32::from(frac)) as f32 / 10.0;
    Some(if neg { -val } else { val })
}

pub(crate) fn val_temp(v: Option<&str>) -> Result<Option<TempC>, ParseError> {
    let v = v.ok_or(ParseError::MissingField("temp"))?;
    if v == "NA" {
        Ok(None)
    } else if let Some(bits) = v.strip_prefix('#') {
        u32::from_str_radix(bits, 16)
            .map(|b| Some(TempC(f32::from_bits(b))))
            .map_err(|_| ParseError::BadNumber("temp", v.to_string()))
    } else if let Some(t) = temp_f32_simple(v) {
        Ok(Some(TempC(t)))
    } else {
        v.parse::<f32>()
            .map(|t| Some(TempC(t)))
            .map_err(|_| ParseError::BadNumber("temp", v.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Fast path: our own writer's byte-exact shape, one scan, no per-field
// re-walk. Any deviation bails to the order-insensitive fallback below.
// ---------------------------------------------------------------------------

struct FastScan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FastScan<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        FastScan { bytes, pos: 0 }
    }

    /// Expect (optionally) a single space, then `key` verbatim (including
    /// its `=`), then a non-empty run of printable ASCII as the value,
    /// terminated by a space or end-of-line. Returns `None` on any
    /// deviation — other whitespace or non-ASCII bytes could re-tokenize
    /// differently under the fallback's `split_whitespace`, so the whole
    /// line falls back to the tolerant scan, which by construction sees
    /// the same `key=value` pairs whenever this path would have
    /// succeeded.
    #[inline(always)]
    fn value(&mut self, key: &[u8], lead_space: bool) -> Option<&'a str> {
        let mut pos = self.pos;
        if lead_space {
            if *self.bytes.get(pos)? != b' ' {
                return None;
            }
            pos += 1;
        }
        let rest = self.bytes.get(pos..)?;
        if !rest.starts_with(key) {
            return None;
        }
        pos += key.len();
        let start = pos;
        // Printable non-space ASCII run: one wrapped comparison per byte.
        while let Some(&c) = self.bytes.get(pos) {
            if c.wrapping_sub(0x21) > 0x5d {
                break;
            }
            pos += 1;
        }
        if pos == start {
            return None;
        }
        match self.bytes.get(pos) {
            None | Some(b' ') => {}
            Some(_) => return None,
        }
        self.pos = pos;
        // SAFETY: the loop above admitted only bytes in 0x21..=0x7e into
        // `start..pos`, so the slice is all-ASCII — valid UTF-8 with the
        // bounds on char boundaries.
        Some(unsafe { std::str::from_utf8_unchecked(&self.bytes[start..pos]) })
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parse the common fields of an `ERROR`/`ERRORRUN` body on the fast path.
/// `bytes` starts at `t=`; on success the scan is left after `temp`'s value.
fn fast_error_fields(scan: &mut FastScan<'_>) -> Option<Result<ErrorRecord, ParseError>> {
    let t = scan.value(b"t=", false)?;
    let node = scan.value(b"node=", true)?;
    let vaddr = scan.value(b"vaddr=", true)?;
    let page = scan.value(b"page=", true)?;
    let expected = scan.value(b"expected=", true)?;
    let actual = scan.value(b"actual=", true)?;
    let temp = scan.value(b"temp=", true)?;
    Some(build_error(t, node, vaddr, page, expected, actual, temp))
}

fn build_error(
    t: &str,
    node: &str,
    vaddr: &str,
    page: &str,
    expected: &str,
    actual: &str,
    temp: &str,
) -> Result<ErrorRecord, ParseError> {
    Ok(ErrorRecord {
        time: SimTime::from_secs(val_i64("t", Some(t))?),
        node: val_node(Some(node))?,
        vaddr: val_hex("vaddr", Some(vaddr))?,
        phys_page: val_hex("page", Some(page))?,
        expected: val_hex("expected", Some(expected))? as u32,
        actual: val_hex("actual", Some(actual))? as u32,
        temp: val_temp(Some(temp))?,
    })
}

/// Fast path for [`parse_line`]. `None` means "not writer-shaped, use the
/// fallback"; `Some` is the final verdict (validation errors on the fast
/// path are identical to what the fallback would report, because both see
/// the same value slices in the same validation order).
fn parse_line_fast(line: &str) -> Option<Result<LogRecord, ParseError>> {
    let bytes = line.as_bytes();
    if let Some(rest) = bytes.strip_prefix(b"ERROR ") {
        let mut scan = FastScan::new(rest);
        let rec = fast_error_fields(&mut scan)?;
        if !scan.at_end() {
            return None;
        }
        Some(rec.map(LogRecord::Error))
    } else if let Some(rest) = bytes.strip_prefix(b"START ") {
        let mut scan = FastScan::new(rest);
        let t = scan.value(b"t=", false)?;
        let node = scan.value(b"node=", true)?;
        let alloc = scan.value(b"alloc=", true)?;
        let temp = scan.value(b"temp=", true)?;
        if !scan.at_end() {
            return None;
        }
        Some(build_start(t, node, alloc, temp).map(LogRecord::Start))
    } else if let Some(rest) = bytes.strip_prefix(b"END ") {
        let mut scan = FastScan::new(rest);
        let t = scan.value(b"t=", false)?;
        let node = scan.value(b"node=", true)?;
        let temp = scan.value(b"temp=", true)?;
        if !scan.at_end() {
            return None;
        }
        Some(build_end(t, node, temp).map(LogRecord::End))
    } else if let Some(rest) = bytes.strip_prefix(b"ALLOCFAIL ") {
        let mut scan = FastScan::new(rest);
        let t = scan.value(b"t=", false)?;
        let node = scan.value(b"node=", true)?;
        if !scan.at_end() {
            return None;
        }
        Some(build_allocfail(t, node))
    } else {
        None
    }
}

fn build_start(t: &str, node: &str, alloc: &str, temp: &str) -> Result<StartRecord, ParseError> {
    Ok(StartRecord {
        time: SimTime::from_secs(val_i64("t", Some(t))?),
        node: val_node(Some(node))?,
        alloc_bytes: val_u64("alloc", Some(alloc))?,
        temp: val_temp(Some(temp))?,
    })
}

fn build_end(t: &str, node: &str, temp: &str) -> Result<EndRecord, ParseError> {
    Ok(EndRecord {
        time: SimTime::from_secs(val_i64("t", Some(t))?),
        node: val_node(Some(node))?,
        temp: val_temp(Some(temp))?,
    })
}

fn build_allocfail(t: &str, node: &str) -> Result<LogRecord, ParseError> {
    Ok(LogRecord::AllocFail {
        time: SimTime::from_secs(val_i64("t", Some(t))?),
        node: val_node(Some(node))?,
    })
}

// ---------------------------------------------------------------------------
// Fallback: one pass over the whitespace-split tokens, order-insensitive,
// first occurrence of each key wins, unknown tokens ignored — the same
// acceptance set and error categories as the historical tokenizing parser,
// without its `Vec<&str>` collect or per-field re-scan.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Slots<'a> {
    t: Option<&'a str>,
    node: Option<&'a str>,
    alloc: Option<&'a str>,
    vaddr: Option<&'a str>,
    page: Option<&'a str>,
    expected: Option<&'a str>,
    actual: Option<&'a str>,
    temp: Option<&'a str>,
    count: Option<&'a str>,
    period: Option<&'a str>,
}

impl<'a> Slots<'a> {
    fn scan(tokens: impl Iterator<Item = &'a str>) -> Slots<'a> {
        let mut s = Slots::default();
        for tok in tokens {
            let Some(eq) = tok.find('=') else { continue };
            let slot = match &tok[..eq] {
                "t" => &mut s.t,
                "node" => &mut s.node,
                "alloc" => &mut s.alloc,
                "vaddr" => &mut s.vaddr,
                "page" => &mut s.page,
                "expected" => &mut s.expected,
                "actual" => &mut s.actual,
                "temp" => &mut s.temp,
                "count" => &mut s.count,
                "period" => &mut s.period,
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some(&tok[eq + 1..]);
            }
        }
        s
    }
}

fn parse_line_fallback(line: &str) -> Result<LogRecord, ParseError> {
    let mut tokens = line.split_whitespace();
    let Some(kind) = tokens.next() else {
        return Err(ParseError::Empty);
    };
    let s = Slots::scan(tokens);
    let time = SimTime::from_secs(val_i64("t", s.t)?);
    let node = val_node(s.node)?;
    match kind {
        "START" => Ok(LogRecord::Start(StartRecord {
            time,
            node,
            alloc_bytes: val_u64("alloc", s.alloc)?,
            temp: val_temp(s.temp)?,
        })),
        "ERROR" => Ok(LogRecord::Error(ErrorRecord {
            time,
            node,
            vaddr: val_hex("vaddr", s.vaddr)?,
            phys_page: val_hex("page", s.page)?,
            expected: val_hex("expected", s.expected)? as u32,
            actual: val_hex("actual", s.actual)? as u32,
            temp: val_temp(s.temp)?,
        })),
        "END" => Ok(LogRecord::End(EndRecord {
            time,
            node,
            temp: val_temp(s.temp)?,
        })),
        "ALLOCFAIL" => Ok(LogRecord::AllocFail { time, node }),
        other => Err(ParseError::UnknownKind(other.to_string())),
    }
}

/// A run's `count`: 1 to [`MAX_RUN_COUNT`], else `BadNumber`, so no run
/// that enters from text is empty or large enough to overflow a sum.
fn val_run_count(v: Option<&str>) -> Result<u64, ParseError> {
    let count = val_u64("count", v)?;
    if count == 0 || count > MAX_RUN_COUNT {
        return Err(ParseError::BadNumber("count", count.to_string()));
    }
    Ok(count)
}

fn errorrun_from_slots(s: &Slots<'_>) -> Result<LogEntry, ParseError> {
    let first = ErrorRecord {
        time: SimTime::from_secs(val_i64("t", s.t)?),
        node: val_node(s.node)?,
        vaddr: val_hex("vaddr", s.vaddr)?,
        phys_page: val_hex("page", s.page)?,
        expected: val_hex("expected", s.expected)? as u32,
        actual: val_hex("actual", s.actual)? as u32,
        temp: val_temp(s.temp)?,
    };
    let count = val_run_count(s.count)?;
    let period = SimDuration::from_secs(val_i64("period", s.period)?);
    Ok(LogEntry::ErrorRun {
        first,
        count,
        period,
    })
}

/// Parse a line that may be either a plain record or an `ERRORRUN` entry.
pub fn parse_entry_line(line: &str) -> Result<LogEntry, ParseError> {
    let trimmed = line.trim_start();
    if let Some(rest) = trimmed.strip_prefix("ERRORRUN ") {
        if let Some(verdict) = parse_errorrun_fast(rest) {
            return verdict;
        }
        errorrun_from_slots(&Slots::scan(rest.split_whitespace()))
    } else {
        parse_line(line).map(LogEntry::One)
    }
}

/// Fast path for the body of an `ERRORRUN` line (after the kind and its
/// single trailing space). `None` means "use the fallback".
fn parse_errorrun_fast(rest: &str) -> Option<Result<LogEntry, ParseError>> {
    let mut scan = FastScan::new(rest.as_bytes());
    let first = match fast_error_fields(&mut scan)? {
        Ok(rec) => rec,
        Err(e) => return Some(Err(e)),
    };
    let count = scan.value(b"count=", true)?;
    let period = scan.value(b"period=", true)?;
    if !scan.at_end() {
        return None;
    }
    Some(build_errorrun(first, count, period))
}

fn build_errorrun(first: ErrorRecord, count: &str, period: &str) -> Result<LogEntry, ParseError> {
    let count = val_run_count(Some(count))?;
    let period = SimDuration::from_secs(val_i64("period", Some(period))?);
    Ok(LogEntry::ErrorRun {
        first,
        count,
        period,
    })
}

/// Parse one log line.
pub fn parse_line(line: &str) -> Result<LogRecord, ParseError> {
    if let Some(verdict) = parse_line_fast(line) {
        return verdict;
    }
    parse_line_fallback(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uc_cluster::NodeId;

    fn sample_error() -> LogRecord {
        LogRecord::Error(ErrorRecord {
            time: SimTime::from_secs(2_679_000),
            node: NodeId::from_name("02-04").unwrap(),
            vaddr: 0x00fa_3b9c,
            phys_page: 0x0000_03e8,
            expected: 0xffff_ffff,
            actual: 0xffff_7bff,
            temp: Some(TempC(35.0)),
        })
    }

    #[test]
    fn error_line_format() {
        let line = format_record(&sample_error());
        assert_eq!(
            line,
            "ERROR t=2679000 node=02-04 vaddr=0x00fa3b9c page=0x0003e8 \
             expected=0xffffffff actual=0xffff7bff temp=35.0"
        );
    }

    #[test]
    fn error_roundtrip() {
        let r = sample_error();
        assert_eq!(parse_line(&format_record(&r)).unwrap(), r);
    }

    #[test]
    fn start_roundtrip_with_and_without_temp() {
        for temp in [None, Some(TempC(41.5))] {
            let r = LogRecord::Start(StartRecord {
                time: SimTime::from_secs(100),
                node: NodeId::from_name("58-02").unwrap(),
                alloc_bytes: 3 << 30,
                temp,
            });
            assert_eq!(parse_line(&format_record(&r)).unwrap(), r);
        }
    }

    #[test]
    fn end_and_allocfail_roundtrip() {
        let e = LogRecord::End(EndRecord {
            time: SimTime::from_secs(7),
            node: NodeId(0),
            temp: None,
        });
        assert_eq!(parse_line(&format_record(&e)).unwrap(), e);
        let a = LogRecord::AllocFail {
            time: SimTime::from_secs(8),
            node: NodeId(44),
        };
        assert_eq!(parse_line(&format_record(&a)).unwrap(), a);
    }

    #[test]
    fn parser_tolerates_extra_whitespace() {
        let r = parse_line("  END   t=7   node=01-02   temp=NA  ").unwrap();
        assert_eq!(r.time().as_secs(), 7);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(parse_line(""), Err(ParseError::Empty));
        assert!(matches!(
            parse_line("BOOM t=1 node=01-01"),
            Err(ParseError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_line("END t=1 node=99-99 temp=NA"),
            Err(ParseError::BadNode(_))
        ));
        assert!(matches!(
            parse_line("END t=xx node=01-01 temp=NA"),
            Err(ParseError::BadNumber("t", _))
        ));
        assert!(matches!(
            parse_line("END node=01-01 temp=NA"),
            Err(ParseError::MissingField("t"))
        ));
        assert!(matches!(
            parse_line("ERROR t=1 node=01-01 vaddr=123 page=0x0 expected=0x0 actual=0x1 temp=NA"),
            Err(ParseError::BadNumber("vaddr", _))
        ));
    }

    #[test]
    fn errorrun_entry_roundtrip() {
        let entry = LogEntry::ErrorRun {
            first: ErrorRecord {
                time: SimTime::from_secs(1_000),
                node: NodeId::from_name("40-07").unwrap(),
                vaddr: 0x0600_0040,
                phys_page: 0x1800,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFFE,
                temp: Some(TempC(36.5)),
            },
            count: 123_456,
            period: uc_simclock::SimDuration::from_secs(40),
        };
        let line = format_entry(&entry);
        assert!(line.starts_with("ERRORRUN "));
        assert!(line.contains("count=123456"));
        assert!(line.contains("period=40"));
        assert_eq!(parse_entry_line(&line).unwrap(), entry);
    }

    #[test]
    fn errorrun_single_spaced() {
        // The historical writer baked an 18-space run into ERRORRUN lines;
        // the current writer emits single separators everywhere.
        let entry = LogEntry::ErrorRun {
            first: match sample_error() {
                LogRecord::Error(e) => e,
                _ => unreachable!(),
            },
            count: 2,
            period: uc_simclock::SimDuration::from_secs(40),
        };
        let line = format_entry(&entry);
        assert!(!line.contains("  "), "double space in {line:?}");
    }

    #[test]
    fn errorrun_legacy_wide_spacing_still_parses() {
        let legacy = "ERRORRUN t=1000 node=40-07 vaddr=0x06000040 page=0x001800 \
                      expected=0xffffffff actual=0xfffffffe temp=36.5 count=3 period=40";
        let wide = legacy.replace("page=0x001800 ", "page=0x001800                  ");
        assert_eq!(
            parse_entry_line(&wide).unwrap(),
            parse_entry_line(legacy).unwrap()
        );
    }

    #[test]
    fn entry_line_accepts_plain_records() {
        let line = "END t=5 node=01-01 temp=NA";
        match parse_entry_line(line).unwrap() {
            LogEntry::One(r) => assert_eq!(r.time().as_secs(), 5),
            other => panic!("expected One, got {other:?}"),
        }
    }

    #[test]
    fn errorrun_zero_count_rejected() {
        let line = "ERRORRUN t=0 node=01-01 vaddr=0x0 page=0x0 \
                    expected=0x0 actual=0x1 temp=NA count=0 period=40";
        assert!(parse_entry_line(line).is_err());
    }

    #[test]
    fn errorrun_count_above_the_bound_rejected_on_both_paths() {
        // The writer's exact shape takes the fast path; a doubled space
        // sends the same fields through the tolerant fallback.
        for sep in [" ", "  "] {
            let line = |count: u64| {
                format!(
                    "ERRORRUN t=0 node=01-01 vaddr=0x00000000 page=0x000000 \
                     expected=0x00000000 actual=0x00000001 temp=NA{sep}count={count} period=40"
                )
            };
            match parse_entry_line(&line(MAX_RUN_COUNT)) {
                Ok(LogEntry::ErrorRun { count, .. }) => assert_eq!(count, MAX_RUN_COUNT),
                other => panic!("largest count not kept: {other:?}"),
            }
            for count in [MAX_RUN_COUNT + 1, u64::MAX] {
                assert_eq!(
                    parse_entry_line(&line(count)),
                    Err(ParseError::BadNumber("count", count.to_string()))
                );
            }
        }
    }

    #[test]
    fn exact_temp_roundtrips_bit_for_bit() {
        // A temperature that `{:.1}` cannot represent exactly.
        let r = LogRecord::Error(ErrorRecord {
            temp: Some(TempC(35.123_456)),
            ..match sample_error() {
                LogRecord::Error(e) => e,
                _ => unreachable!(),
            }
        });
        let lossy = parse_line(&format_record(&r)).unwrap();
        assert_ne!(lossy, r, "the {{:.1}} form rounds");
        let line = format_record_exact(&r);
        assert!(line.contains("temp=#"));
        assert_eq!(parse_line(&line).unwrap(), r, "the exact form does not");
    }

    #[test]
    fn exact_entry_roundtrips_runs_and_na() {
        let entry = LogEntry::ErrorRun {
            first: ErrorRecord {
                time: SimTime::from_secs(9),
                node: NodeId(3),
                vaddr: 0x40,
                phys_page: 0,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFF7,
                temp: Some(TempC(33.333_33)),
            },
            count: 7,
            period: uc_simclock::SimDuration::from_secs(40),
        };
        assert_eq!(
            parse_entry_line(&format_entry_exact(&entry)).unwrap(),
            entry
        );
        let none = LogEntry::One(LogRecord::End(EndRecord {
            time: SimTime::from_secs(1),
            node: NodeId(0),
            temp: None,
        }));
        assert!(format_entry_exact(&none).contains("temp=NA"));
        assert_eq!(parse_entry_line(&format_entry_exact(&none)).unwrap(), none);
    }

    #[test]
    fn bad_exact_temp_rejected() {
        assert!(matches!(
            parse_line("END t=1 node=01-01 temp=#zz"),
            Err(ParseError::BadNumber("temp", _))
        ));
    }

    #[test]
    fn negative_timestamps_parse() {
        // Instants before the study epoch are representable.
        let r = parse_line("END t=-5 node=01-01 temp=NA").unwrap();
        assert_eq!(r.time().as_secs(), -5);
    }

    #[test]
    fn write_into_appends_without_clearing() {
        let mut buf = String::from("prefix|");
        write_record_into(&mut buf, &sample_error());
        assert!(buf.starts_with("prefix|ERROR t=2679000 "));
    }

    /// The historical tokenizing parser, kept verbatim as the reference
    /// implementation for the differential property tests below. Any
    /// observable divergence between this and the cursor parser is a bug
    /// in the cursor parser.
    mod reference {
        use super::super::ParseError;
        use crate::record::{EndRecord, ErrorRecord, LogRecord, StartRecord, TempC};
        use crate::store::LogEntry;
        use uc_cluster::NodeId;
        use uc_simclock::SimTime;

        fn field<'a>(tokens: &'a [&'a str], key: &'static str) -> Result<&'a str, ParseError> {
            tokens
                .iter()
                .find_map(|t| t.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
                .ok_or(ParseError::MissingField(key))
        }

        fn parse_i64(tokens: &[&str], key: &'static str) -> Result<i64, ParseError> {
            let v = field(tokens, key)?;
            v.parse()
                .map_err(|_| ParseError::BadNumber(key, v.to_string()))
        }

        fn parse_u64(tokens: &[&str], key: &'static str) -> Result<u64, ParseError> {
            let v = field(tokens, key)?;
            v.parse()
                .map_err(|_| ParseError::BadNumber(key, v.to_string()))
        }

        fn parse_hex(tokens: &[&str], key: &'static str) -> Result<u64, ParseError> {
            let v = field(tokens, key)?;
            let stripped = v
                .strip_prefix("0x")
                .ok_or_else(|| ParseError::BadNumber(key, v.to_string()))?;
            u64::from_str_radix(stripped, 16).map_err(|_| ParseError::BadNumber(key, v.to_string()))
        }

        fn parse_node(tokens: &[&str]) -> Result<NodeId, ParseError> {
            let v = field(tokens, "node")?;
            NodeId::from_name(v).ok_or_else(|| ParseError::BadNode(v.to_string()))
        }

        fn parse_temp(tokens: &[&str]) -> Result<Option<TempC>, ParseError> {
            let v = field(tokens, "temp")?;
            if v == "NA" {
                Ok(None)
            } else if let Some(bits) = v.strip_prefix('#') {
                u32::from_str_radix(bits, 16)
                    .map(|b| Some(TempC(f32::from_bits(b))))
                    .map_err(|_| ParseError::BadNumber("temp", v.to_string()))
            } else {
                v.parse::<f32>()
                    .map(|t| Some(TempC(t)))
                    .map_err(|_| ParseError::BadNumber("temp", v.to_string()))
            }
        }

        pub fn parse_entry_line(line: &str) -> Result<LogEntry, ParseError> {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("ERRORRUN ") {
                let tokens: Vec<&str> = rest.split_whitespace().collect();
                let first = ErrorRecord {
                    time: SimTime::from_secs(parse_i64(&tokens, "t")?),
                    node: parse_node(&tokens)?,
                    vaddr: parse_hex(&tokens, "vaddr")?,
                    phys_page: parse_hex(&tokens, "page")?,
                    expected: parse_hex(&tokens, "expected")? as u32,
                    actual: parse_hex(&tokens, "actual")? as u32,
                    temp: parse_temp(&tokens)?,
                };
                let count = parse_u64(&tokens, "count")?;
                if count == 0 || count > crate::store::MAX_RUN_COUNT {
                    return Err(ParseError::BadNumber("count", count.to_string()));
                }
                let period = uc_simclock::SimDuration::from_secs(parse_i64(&tokens, "period")?);
                Ok(LogEntry::ErrorRun {
                    first,
                    count,
                    period,
                })
            } else {
                parse_line(line).map(LogEntry::One)
            }
        }

        pub fn parse_line(line: &str) -> Result<LogRecord, ParseError> {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let Some((&kind, rest)) = tokens.split_first() else {
                return Err(ParseError::Empty);
            };
            let time = SimTime::from_secs(parse_i64(rest, "t")?);
            let node = parse_node(rest)?;
            match kind {
                "START" => Ok(LogRecord::Start(StartRecord {
                    time,
                    node,
                    alloc_bytes: parse_u64(rest, "alloc")?,
                    temp: parse_temp(rest)?,
                })),
                "ERROR" => Ok(LogRecord::Error(ErrorRecord {
                    time,
                    node,
                    vaddr: parse_hex(rest, "vaddr")?,
                    phys_page: parse_hex(rest, "page")?,
                    expected: parse_hex(rest, "expected")? as u32,
                    actual: parse_hex(rest, "actual")? as u32,
                    temp: parse_temp(rest)?,
                })),
                "END" => Ok(LogRecord::End(EndRecord {
                    time,
                    node,
                    temp: parse_temp(rest)?,
                })),
                "ALLOCFAIL" => Ok(LogRecord::AllocFail { time, node }),
                other => Err(ParseError::UnknownKind(other.to_string())),
            }
        }
    }

    /// NaN-tolerant equality: two parses agree if they produce the same
    /// error, or records whose formatted forms are byte-identical (floats
    /// compared through their exact bit encoding).
    fn records_agree(a: &Result<LogRecord, ParseError>, b: &Result<LogRecord, ParseError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => format_record_exact(x) == format_record_exact(y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    fn entries_agree(a: &Result<LogEntry, ParseError>, b: &Result<LogEntry, ParseError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => format_entry_exact(x) == format_entry_exact(y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    proptest! {
        #[test]
        fn parser_never_panics_on_arbitrary_input(line in "\\PC*") {
            // Any unicode garbage: Err is fine, panicking is not.
            let _ = parse_line(&line);
            let _ = parse_entry_line(&line);
        }

        #[test]
        fn parser_never_panics_on_mangled_valid_lines(
            cut in 0usize..80,
            insert in "[ =x0-9a-f]{0,6}",
        ) {
            let base = "ERROR t=2679000 node=02-04 vaddr=0x00fa3b9c page=0x0003e8 \
                        expected=0xffffffff actual=0xffff7bff temp=35.0";
            let cut = cut.min(base.len());
            let mangled = format!("{}{}{}", &base[..cut], insert, &base[cut..]);
            let _ = parse_line(&mangled);
        }

        #[test]
        fn differential_valid_lines(
            t in -10_000_000i64..500_000_000,
            node_raw in 0u32..1080,
            vaddr in any::<u32>(),
            page in 0u64..0xFF_FFFF,
            expected in any::<u32>(),
            actual in any::<u32>(),
            temp_tenths in proptest::option::of(0i32..900),
            count in 1u64..1_000_000,
            period in -100i64..100_000,
            exact in any::<bool>(),
        ) {
            let first = ErrorRecord {
                time: SimTime::from_secs(t),
                node: NodeId(node_raw),
                vaddr: u64::from(vaddr),
                phys_page: page,
                expected,
                actual,
                temp: temp_tenths.map(|x| TempC(x as f32 / 10.0)),
            };
            let lines = [
                if exact {
                    format_record_exact(&LogRecord::Error(first))
                } else {
                    format_record(&LogRecord::Error(first))
                },
                format_entry(&LogEntry::ErrorRun {
                    first,
                    count,
                    period: uc_simclock::SimDuration::from_secs(period),
                }),
                format_record(&LogRecord::Start(StartRecord {
                    time: SimTime::from_secs(t),
                    node: NodeId(node_raw),
                    alloc_bytes: vaddr as u64,
                    temp: temp_tenths.map(|x| TempC(x as f32 / 10.0)),
                })),
                format_record(&LogRecord::AllocFail {
                    time: SimTime::from_secs(t),
                    node: NodeId(node_raw),
                }),
            ];
            for line in &lines {
                prop_assert_eq!(parse_line(line), reference::parse_line(line), "line {:?}", line);
                prop_assert_eq!(
                    parse_entry_line(line),
                    reference::parse_entry_line(line),
                    "entry line {:?}", line
                );
            }
        }

        #[test]
        fn differential_mangled_lines(
            cut in 0usize..140,
            insert in "[ \\t=x0-9a-fNA#-]{0,8}",
            which in 0usize..3,
        ) {
            let bases = [
                "ERROR t=2679000 node=02-04 vaddr=0x00fa3b9c page=0x0003e8 \
                 expected=0xffffffff actual=0xffff7bff temp=35.0",
                "ERRORRUN t=1000 node=40-07 vaddr=0x06000040 page=0x001800 \
                 expected=0xffffffff actual=0xfffffffe temp=36.5 count=3 period=40",
                "START t=2678400 node=02-04 alloc=3221225472 temp=34.5",
            ];
            let base = bases[which];
            let mut cut = cut.min(base.len());
            while !base.is_char_boundary(cut) {
                cut -= 1;
            }
            let mangled = format!("{}{}{}", &base[..cut], insert, &base[cut..]);
            prop_assert!(records_agree(
                &parse_line(&mangled),
                &reference::parse_line(&mangled),
            ), "line {:?}", mangled);
            prop_assert!(entries_agree(
                &parse_entry_line(&mangled),
                &reference::parse_entry_line(&mangled),
            ), "entry line {:?}", mangled);
        }

        #[test]
        fn differential_unicode_garbage(line in "\\PC*") {
            prop_assert!(records_agree(
                &parse_line(&line),
                &reference::parse_line(&line),
            ), "line {:?}", line);
            prop_assert!(entries_agree(
                &parse_entry_line(&line),
                &reference::parse_entry_line(&line),
            ), "entry line {:?}", line);
        }

        #[test]
        fn roundtrip_any_error(
            t in -10_000_000i64..500_000_000,
            node_raw in 0u32..1080,
            vaddr in any::<u32>(),
            page in 0u64..0xFF_FFFF,
            expected in any::<u32>(),
            actual in any::<u32>(),
            temp_tenths in proptest::option::of(0i32..900),
        ) {
            let r = LogRecord::Error(ErrorRecord {
                time: SimTime::from_secs(t),
                node: NodeId(node_raw),
                vaddr: u64::from(vaddr),
                phys_page: page,
                expected,
                actual,
                temp: temp_tenths.map(|x| TempC(x as f32 / 10.0)),
            });
            prop_assert_eq!(parse_line(&format_record(&r)).unwrap(), r);
        }

        #[test]
        fn roundtrip_any_start(
            t in 0i64..500_000_000,
            node_raw in 0u32..1080,
            alloc in 0u64..(4u64 << 30),
        ) {
            let r = LogRecord::Start(StartRecord {
                time: SimTime::from_secs(t),
                node: NodeId(node_raw),
                alloc_bytes: alloc,
                temp: None,
            });
            prop_assert_eq!(parse_line(&format_record(&r)).unwrap(), r);
        }
    }
}
