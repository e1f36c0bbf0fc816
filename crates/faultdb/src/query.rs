//! Typed query language: a small predicate AST with an aggregation
//! action, parsed from one line of text (the same surface `uc query`
//! and the TCP server accept).
//!
//! Grammar (whitespace-separated tokens; `(` and `)` may be glued):
//!
//! ```text
//! query  := action [ 'where' expr ]
//! action := 'count'
//!         | 'list' [ 'limit' N ]
//!         | 'top' N ('node' | 'blade')
//!         | 'group' ('node' | 'blade' | 'rack' | 'class' | 'dir' | 'hour' | 'day')
//!         | 'hist' 'bits'
//! expr   := conj ( 'or' conj )*
//! conj   := unary ( 'and' unary )*
//! unary  := 'not' unary | '(' expr ')' | atom
//! atom   := 'all' | 'multibit'
//!         | 'node=BB-SS' | 'blade=N' | 'rack=N'        (1-based, as in node names)
//!         | 'class=1|2|3|4|5|6+' | 'dir=1to0|0to1|mixed'
//!         | 'bits=N' | 'bits>=N' | 'bits<=N'
//!         | 'raw>=N'
//!         | 'time>=T' | 'time>T' | 'time<=T' | 'time<T'  (T in seconds, or Nh / Nd)
//! ```
//!
//! Every atom knows how to test one [`Fault`] (`matches`) and how to
//! test a block's [`ZoneMap`] conservatively (`may_match`): pruning may
//! only say "definitely empty", never discard a block that could hold a
//! match. The dual, `must_match`, says "every row matches" only when the
//! zone map proves it; the scan then skips the block's row loop. Each
//! bounds the other under `not`: `not p` may match only where `p` need
//! not match every row, and must match only where `p` matches none.

use uc_analysis::fault::{BitClass, Fault};
use uc_cluster::{NodeId, BLADES_PER_CHASSIS, CHASSIS_PER_RACK, SOCS_PER_BLADE, TOTAL_BLADES};
use uc_simclock::SimTime;

use crate::error::DbError;
use crate::format::ZoneMap;

/// Which way the corrupted bits flipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlipDir {
    /// Every corrupted bit went 1 → 0.
    OneToZero = 0,
    /// Every corrupted bit went 0 → 1.
    ZeroToOne = 1,
    /// Both directions in one word.
    Mixed = 2,
}

impl FlipDir {
    pub fn of(f: &Fault) -> FlipDir {
        let ones_lost = f.expected & !f.actual != 0;
        let zeros_set = !f.expected & f.actual != 0;
        match (ones_lost, zeros_set) {
            (true, false) => FlipDir::OneToZero,
            (false, true) => FlipDir::ZeroToOne,
            // No corrupted bits at all degenerates to Mixed=false,false;
            // extraction never emits such a fault, but stay total.
            _ => FlipDir::Mixed,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FlipDir::OneToZero => "1to0",
            FlipDir::ZeroToOne => "0to1",
            FlipDir::Mixed => "mixed",
        }
    }
}

/// Grouping / top-k dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dim {
    Node,
    Blade,
    Rack,
    Class,
    Dir,
    Hour,
    Day,
}

impl Dim {
    pub fn label(self) -> &'static str {
        match self {
            Dim::Node => "node",
            Dim::Blade => "blade",
            Dim::Rack => "rack",
            Dim::Class => "class",
            Dim::Dir => "dir",
            Dim::Hour => "hour",
            Dim::Day => "day",
        }
    }
}

/// The aggregation to run over matching rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    Count,
    List { limit: Option<usize> },
    Top { k: usize, by: Dim },
    Group(Dim),
    HistBits,
}

/// Predicate AST.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    All,
    MultiBit,
    Node(NodeId),
    /// 1-based blade number, as in `BB-SS` names.
    Blade(u32),
    /// 1-based rack number.
    Rack(u32),
    Class(BitClass),
    Dir(FlipDir),
    BitsEq(u32),
    BitsGe(u32),
    BitsLe(u32),
    RawGe(u64),
    TimeGe(SimTime),
    TimeGt(SimTime),
    TimeLe(SimTime),
    TimeLt(SimTime),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub action: Action,
    pub pred: Pred,
}

/// Inclusive dense node-id range `[lo, hi]` covered by a 1-based blade.
pub(crate) fn blade_node_range(blade1: u32) -> (u32, u32) {
    let b = blade1 - 1;
    (b * SOCS_PER_BLADE, b * SOCS_PER_BLADE + SOCS_PER_BLADE - 1)
}

/// Inclusive node-id range covered by a 1-based rack.
pub(crate) fn rack_node_range(rack1: u32) -> (u32, u32) {
    let blades_per_rack = CHASSIS_PER_RACK * BLADES_PER_CHASSIS;
    let first_blade = (rack1 - 1) * blades_per_rack;
    (
        first_blade * SOCS_PER_BLADE,
        (first_blade + blades_per_rack) * SOCS_PER_BLADE - 1,
    )
}

/// Inclusive range of corrupted-bit counts a bit class holds. `One`
/// starts at 0: `BitClass::of(0)` is `One`.
fn class_bits(class: BitClass) -> (u32, u32) {
    match class {
        BitClass::One => (0, 1),
        BitClass::Two => (2, 2),
        BitClass::Three => (3, 3),
        BitClass::Four => (4, 4),
        BitClass::Five => (5, 5),
        BitClass::SixPlus => (6, 32),
    }
}

/// Bit classes whose bit-count range intersects `[lo, hi]` corrupted bits.
fn class_mask_for_bits(lo: u32, hi: u32) -> u8 {
    let mut mask = 0u8;
    for (i, &class) in BitClass::ALL.iter().enumerate() {
        let (cmin, cmax) = class_bits(class);
        if cmax >= lo && cmin <= hi {
            mask |= 1 << i;
        }
    }
    mask
}

/// Whether every bit class in `class_map` lies wholly inside `[lo, hi]`
/// corrupted bits.
fn classes_within(class_map: u8, lo: u32, hi: u32) -> bool {
    BitClass::ALL.iter().enumerate().all(|(i, &class)| {
        let (cmin, cmax) = class_bits(class);
        class_map & (1 << i) == 0 || (lo <= cmin && cmax <= hi)
    })
}

impl Pred {
    /// Exact row test.
    pub fn matches(&self, f: &Fault) -> bool {
        match self {
            Pred::All => true,
            Pred::MultiBit => f.is_multi_bit(),
            Pred::Node(n) => f.node == *n,
            Pred::Blade(b) => f.node.blade().0 + 1 == *b,
            Pred::Rack(r) => f.node.blade().rack() + 1 == *r,
            Pred::Class(c) => f.bit_class() == *c,
            Pred::Dir(d) => FlipDir::of(f) == *d,
            Pred::BitsEq(n) => f.bits_corrupted() == *n,
            Pred::BitsGe(n) => f.bits_corrupted() >= *n,
            Pred::BitsLe(n) => f.bits_corrupted() <= *n,
            Pred::RawGe(n) => f.raw_logs >= *n,
            Pred::TimeGe(t) => f.time >= *t,
            Pred::TimeGt(t) => f.time > *t,
            Pred::TimeLe(t) => f.time <= *t,
            Pred::TimeLt(t) => f.time < *t,
            Pred::And(a, b) => a.matches(f) && b.matches(f),
            Pred::Or(a, b) => a.matches(f) || b.matches(f),
            Pred::Not(p) => !p.matches(f),
        }
    }

    /// Conservative block test: `false` only when the zone map proves no
    /// row in the block can match.
    pub fn may_match(&self, z: &ZoneMap) -> bool {
        match self {
            Pred::All | Pred::RawGe(_) => true,
            Pred::MultiBit => z.class_map & !(1 << BitClass::One as u8) != 0,
            Pred::Node(n) => z.min_node <= n.0 && n.0 <= z.max_node,
            Pred::Blade(b) => {
                let (lo, hi) = blade_node_range(*b);
                lo <= z.max_node && z.min_node <= hi
            }
            Pred::Rack(r) => {
                let (lo, hi) = rack_node_range(*r);
                lo <= z.max_node && z.min_node <= hi
            }
            Pred::Class(c) => z.class_map & (1 << *c as u8) != 0,
            Pred::Dir(d) => z.dir_map & (1 << *d as u8) != 0,
            Pred::BitsEq(n) => z.class_map & class_mask_for_bits(*n, *n) != 0,
            Pred::BitsGe(n) => z.class_map & class_mask_for_bits(*n, 32) != 0,
            Pred::BitsLe(n) => z.class_map & class_mask_for_bits(0, *n) != 0,
            Pred::TimeGe(t) => z.max_time >= t.as_secs(),
            Pred::TimeGt(t) => z.max_time > t.as_secs(),
            Pred::TimeLe(t) => z.min_time <= t.as_secs(),
            Pred::TimeLt(t) => z.min_time < t.as_secs(),
            Pred::And(a, b) => a.may_match(z) && b.may_match(z),
            Pred::Or(a, b) => a.may_match(z) || b.may_match(z),
            Pred::Not(p) => !p.must_match(z),
        }
    }

    /// The dual of [`Pred::may_match`]: `true` only when the zone map
    /// proves that every row of the block matches. Decode refuses a
    /// block with a row outside its zone map, so a scan may then answer
    /// from the block's row count or its all-rows counts.
    pub fn must_match(&self, z: &ZoneMap) -> bool {
        match self {
            Pred::All => true,
            // No zone bound covers `raw`.
            Pred::RawGe(n) => *n == 0,
            Pred::MultiBit => z.class_map & (1 << BitClass::One as u8) == 0,
            Pred::Node(n) => z.min_node == n.0 && z.max_node == n.0,
            Pred::Blade(b) => {
                let (lo, hi) = blade_node_range(*b);
                lo <= z.min_node && z.max_node <= hi
            }
            Pred::Rack(r) => {
                let (lo, hi) = rack_node_range(*r);
                lo <= z.min_node && z.max_node <= hi
            }
            Pred::Class(c) => z.class_map & !(1 << *c as u8) == 0,
            Pred::Dir(d) => z.dir_map & !(1 << *d as u8) == 0,
            Pred::BitsEq(n) => classes_within(z.class_map, *n, *n),
            Pred::BitsGe(n) => classes_within(z.class_map, *n, u32::MAX),
            Pred::BitsLe(n) => classes_within(z.class_map, 0, *n),
            Pred::TimeGe(t) => z.min_time >= t.as_secs(),
            Pred::TimeGt(t) => z.min_time > t.as_secs(),
            Pred::TimeLe(t) => z.max_time <= t.as_secs(),
            Pred::TimeLt(t) => z.max_time < t.as_secs(),
            Pred::And(a, b) => a.must_match(z) && b.must_match(z),
            Pred::Or(a, b) => a.must_match(z) || b.must_match(z),
            // Every row matches `not p` when none can match `p`.
            Pred::Not(p) => !p.may_match(z),
        }
    }
}

// ----------------------------------------------------------------- parser

struct Tokens {
    toks: Vec<String>,
    pos: usize,
}

impl Tokens {
    fn new(text: &str) -> Tokens {
        let mut toks = Vec::new();
        for word in text.split_whitespace() {
            let mut rest = word;
            while let Some(tail) = rest.strip_prefix('(') {
                toks.push("(".to_string());
                rest = tail;
            }
            let mut closers = 0;
            while let Some(head) = rest.strip_suffix(')') {
                closers += 1;
                rest = head;
            }
            if !rest.is_empty() {
                toks.push(rest.to_string());
            }
            for _ in 0..closers {
                toks.push(")".to_string());
            }
        }
        Tokens { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<&str> {
        let t = self.toks.get(self.pos).map(String::as_str);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &str) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

fn bad(why: impl Into<String>) -> DbError {
    DbError::Query(why.into())
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, DbError> {
    tok.parse()
        .map_err(|_| bad(format!("{what} wants a number, got {tok:?}")))
}

/// Parse a `u32`-ranged predicate value with a typed out-of-range error.
/// A plain `parse_usize(..)? as u32` silently truncates: `bits=4294967297`
/// would wrap to the valid-looking `bits=1` and match the wrong rows.
fn parse_u32(tok: &str, what: &str) -> Result<u32, DbError> {
    let v = parse_usize(tok, what)?;
    u32::try_from(v).map_err(|_| bad(format!("{what} {tok} out of range (max {})", u32::MAX)))
}

/// Parse a `u64` predicate value without a `usize` detour, so the
/// accepted range does not depend on the platform's pointer width.
fn parse_u64(tok: &str, what: &str) -> Result<u64, DbError> {
    tok.parse()
        .map_err(|_| bad(format!("{what} wants a number, got {tok:?}")))
}

/// `T`, `Th` (hours) or `Td` (days) → seconds.
fn parse_time(tok: &str) -> Result<SimTime, DbError> {
    let (num, scale) = if let Some(h) = tok.strip_suffix('h') {
        (h, 3_600)
    } else if let Some(d) = tok.strip_suffix('d') {
        (d, 86_400)
    } else if let Some(s) = tok.strip_suffix('s') {
        (s, 1)
    } else {
        (tok, 1)
    };
    let v: i64 = num
        .parse()
        .map_err(|_| bad(format!("bad time {tok:?} (use seconds, Nh or Nd)")))?;
    v.checked_mul(scale)
        .map(SimTime::from_secs)
        .ok_or_else(|| bad(format!("time {tok:?} overflows")))
}

fn parse_dim(tok: &str) -> Result<Dim, DbError> {
    Ok(match tok {
        "node" => Dim::Node,
        "blade" => Dim::Blade,
        "rack" => Dim::Rack,
        "class" => Dim::Class,
        "dir" => Dim::Dir,
        "hour" => Dim::Hour,
        "day" => Dim::Day,
        _ => return Err(bad(format!("unknown dimension {tok:?}"))),
    })
}

/// One comparison atom, e.g. `blade=12`, `time>=400h`, `bits>=2`.
fn parse_atom(tok: &str) -> Result<Pred, DbError> {
    match tok {
        "all" => return Ok(Pred::All),
        "multibit" => return Ok(Pred::MultiBit),
        _ => {}
    }
    // Longest operators first so `>=` is not read as `>` + garbage.
    for op in [">=", "<=", ">", "<", "="] {
        let Some((key, val)) = tok.split_once(op) else {
            continue;
        };
        if key.contains(['>', '<', '=']) || val.contains(['>', '<', '=']) {
            return Err(bad(format!("malformed comparison {tok:?}")));
        }
        return match (key, op) {
            ("node", "=") => NodeId::from_name(val)
                .map(Pred::Node)
                .ok_or_else(|| bad(format!("bad node name {val:?} (want BB-SS)"))),
            ("blade", "=") => {
                let b = parse_u32(val, "blade")?;
                if b == 0 || b > TOTAL_BLADES {
                    return Err(bad(format!("blade {b} out of 1..={TOTAL_BLADES}")));
                }
                Ok(Pred::Blade(b))
            }
            ("rack", "=") => {
                let racks = TOTAL_BLADES / (CHASSIS_PER_RACK * BLADES_PER_CHASSIS);
                let r = parse_u32(val, "rack")?;
                if r == 0 || r > racks {
                    return Err(bad(format!("rack {r} out of 1..={racks}")));
                }
                Ok(Pred::Rack(r))
            }
            ("class", "=") => {
                let c = match val {
                    "1" => BitClass::One,
                    "2" => BitClass::Two,
                    "3" => BitClass::Three,
                    "4" => BitClass::Four,
                    "5" => BitClass::Five,
                    "6+" | "6" => BitClass::SixPlus,
                    _ => return Err(bad(format!("bad class {val:?} (want 1..5 or 6+)"))),
                };
                Ok(Pred::Class(c))
            }
            ("dir", "=") => {
                let d = match val {
                    "1to0" => FlipDir::OneToZero,
                    "0to1" => FlipDir::ZeroToOne,
                    "mixed" => FlipDir::Mixed,
                    _ => return Err(bad(format!("bad dir {val:?} (want 1to0, 0to1, mixed)"))),
                };
                Ok(Pred::Dir(d))
            }
            ("bits", "=") => Ok(Pred::BitsEq(parse_u32(val, "bits")?)),
            ("bits", ">=") => Ok(Pred::BitsGe(parse_u32(val, "bits")?)),
            ("bits", "<=") => Ok(Pred::BitsLe(parse_u32(val, "bits")?)),
            ("raw", ">=") => Ok(Pred::RawGe(parse_u64(val, "raw")?)),
            ("time", ">=") => Ok(Pred::TimeGe(parse_time(val)?)),
            ("time", ">") => Ok(Pred::TimeGt(parse_time(val)?)),
            ("time", "<=") => Ok(Pred::TimeLe(parse_time(val)?)),
            ("time", "<") => Ok(Pred::TimeLt(parse_time(val)?)),
            _ => Err(bad(format!("unknown comparison {tok:?}"))),
        };
    }
    Err(bad(format!("unknown predicate {tok:?}")))
}

fn parse_unary(t: &mut Tokens) -> Result<Pred, DbError> {
    match t.next() {
        Some("not") => Ok(Pred::Not(Box::new(parse_unary(t)?))),
        Some("(") => {
            let inner = parse_expr(t)?;
            if !t.eat(")") {
                return Err(bad("missing )"));
            }
            Ok(inner)
        }
        Some(tok) => parse_atom(tok),
        None => Err(bad("expected a predicate")),
    }
}

fn parse_conj(t: &mut Tokens) -> Result<Pred, DbError> {
    let mut p = parse_unary(t)?;
    while t.eat("and") {
        p = Pred::And(Box::new(p), Box::new(parse_unary(t)?));
    }
    Ok(p)
}

fn parse_expr(t: &mut Tokens) -> Result<Pred, DbError> {
    let mut p = parse_conj(t)?;
    while t.eat("or") {
        p = Pred::Or(Box::new(p), Box::new(parse_conj(t)?));
    }
    Ok(p)
}

/// Parse one query line.
pub fn parse_query(text: &str) -> Result<Query, DbError> {
    let mut t = Tokens::new(text);
    let action = match t.next() {
        Some("count") => Action::Count,
        Some("list") => {
            let limit = if t.eat("limit") {
                let tok = t.next().ok_or_else(|| bad("limit wants a number"))?;
                Some(parse_usize(tok, "limit")?)
            } else {
                None
            };
            Action::List { limit }
        }
        Some("top") => {
            let k_tok = t.next().ok_or_else(|| bad("top wants a count"))?;
            let k = parse_usize(k_tok, "top")?;
            if k == 0 {
                return Err(bad("top 0 is empty by construction"));
            }
            let by = parse_dim(t.next().ok_or_else(|| bad("top wants a dimension"))?)?;
            if !matches!(by, Dim::Node | Dim::Blade) {
                return Err(bad("top supports node or blade"));
            }
            Action::Top { k, by }
        }
        Some("group") => Action::Group(parse_dim(
            t.next().ok_or_else(|| bad("group wants a dimension"))?,
        )?),
        Some("hist") => match t.next() {
            Some("bits") => Action::HistBits,
            other => return Err(bad(format!("hist supports bits, got {other:?}"))),
        },
        Some(other) => {
            return Err(bad(format!(
                "unknown action {other:?} (want count, list, top, group, hist)"
            )))
        }
        None => return Err(bad("empty query")),
    };
    let pred = if t.eat("where") {
        parse_expr(&mut t)?
    } else {
        Pred::All
    };
    if let Some(extra) = t.peek() {
        return Err(bad(format!("unexpected trailing token {extra:?}")));
    }
    Ok(Query { action, pred })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(node: u32, t: i64, expected: u32, actual: u32) -> Fault {
        Fault {
            node: NodeId(node),
            time: SimTime::from_secs(t),
            vaddr: 0x100,
            expected,
            actual,
            temp: None,
            raw_logs: 1,
        }
    }

    #[test]
    fn parses_and_matches_compound_predicates() {
        let q = parse_query("count where (blade=2 or blade=3) and multibit and time<100h").unwrap();
        assert_eq!(q.action, Action::Count);
        // Node 16 is blade 2 (1-based), double-bit flip, early.
        assert!(q.pred.matches(&fault(16, 50, 0xFFFF_FFFF, 0xFFFF_FFFC)));
        // Wrong blade.
        assert!(!q.pred.matches(&fault(0, 50, 0xFFFF_FFFF, 0xFFFF_FFFC)));
        // Single-bit.
        assert!(!q.pred.matches(&fault(16, 50, 0xFFFF_FFFF, 0xFFFF_FFFE)));
        // Too late.
        assert!(!q
            .pred
            .matches(&fault(16, 400 * 3_600, 0xFFFF_FFFF, 0xFFFF_FFFC)));
    }

    /// Regression: values above `u32::MAX` used to truncate (`as u32`),
    /// so `bits=4294967297` silently became the valid-looking `bits=1`
    /// and matched the wrong rows. They must be typed parse errors now.
    #[test]
    fn out_of_range_predicate_values_error_instead_of_wrapping() {
        let wrapping = u64::from(u32::MAX) + 2; // wraps to 1 when truncated
        for expr in [
            format!("count where bits={wrapping}"),
            format!("count where bits>={wrapping}"),
            format!("count where bits<={wrapping}"),
            format!("count where blade={wrapping}"),
            format!("count where rack={wrapping}"),
        ] {
            let err = parse_query(&expr).expect_err(&expr);
            assert!(
                err.to_string().contains("out of range") || err.to_string().contains("out of 1..="),
                "{expr}: {err}"
            );
        }
        // The wrapped-to value still parses, and matches different rows
        // than the overflowing literal ever could.
        let q = parse_query("count where bits=1").unwrap();
        assert!(q.pred.matches(&fault(0, 0, 0xFFFF_FFFF, 0xFFFF_FFFE)));
        // u64-ranged `raw` takes the full range without a usize detour...
        let q = parse_query(&format!("count where raw>={}", u64::MAX)).unwrap();
        assert!(!q.pred.matches(&fault(0, 0, 0xFFFF_FFFF, 0xFFFF_FFFE)));
        // ...and past u64 it is a number error, not a wrap.
        assert!(parse_query("count where raw>=18446744073709551616").is_err());
    }

    #[test]
    fn flip_direction_classifies_each_way() {
        let d = |e, a| FlipDir::of(&fault(0, 0, e, a));
        assert_eq!(d(0xFFFF_FFFF, 0xFFFF_FFFE), FlipDir::OneToZero);
        assert_eq!(d(0x0000_0000, 0x0000_0001), FlipDir::ZeroToOne);
        assert_eq!(d(0xF0F0_F0F0, 0x0F0F_0F0F), FlipDir::Mixed);
    }

    #[test]
    fn zone_pruning_is_conservative_not_eager() {
        let zone = ZoneMap {
            min_time: 100,
            max_time: 200,
            min_node: 30,
            max_node: 44,
            min_vaddr: 0,
            max_vaddr: u64::MAX,
            class_map: 1 << BitClass::One as u8,
            dir_map: 1 << FlipDir::OneToZero as u8,
        };
        let may = |s: &str| parse_query(s).unwrap().pred.may_match(&zone);
        assert!(may("count where time>=150"));
        assert!(!may("count where time>=201"));
        assert!(!may("count where time<100"));
        assert!(may("count where blade=3")); // nodes 30..=44
        assert!(!may("count where blade=1"));
        assert!(!may("count where multibit"));
        assert!(!may("count where class=2"));
        assert!(may("count where class=1"));
        assert!(!may("count where dir=0to1"));
        // `not p` prunes exactly where every row provably matches `p`.
        assert!(may("count where not time>=150"));
        assert!(!may("count where not blade=3"));
        assert!(!may("count where not (class=1 and dir=1to0)"));
        assert!(may("count where not blade=4"));
    }

    #[test]
    fn parse_errors_are_typed_and_specific() {
        for q in [
            "",
            "frobnicate",
            "count where",
            "count where node=zzz",
            "count where blade=0",
            "count where blade=99",
            "count where (blade=1",
            "count where time>=whenever",
            "top 0 node",
            "top 3 class",
            "hist nodes",
            "count extra",
            "count where bits>>=2",
        ] {
            let err = parse_query(q).unwrap_err();
            assert!(matches!(err, DbError::Query(_)), "{q:?} gave {err:?}");
        }
    }

    #[test]
    fn parens_may_be_glued_to_tokens() {
        let a = parse_query("count where (blade=2 or blade=3) and multibit").unwrap();
        let b = parse_query("count where ( blade=2 or blade=3 ) and multibit").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn time_suffixes_scale() {
        assert_eq!(
            parse_query("count where time>=2h").unwrap().pred,
            Pred::TimeGe(SimTime::from_secs(7_200))
        );
        assert_eq!(
            parse_query("count where time<3d").unwrap().pred,
            Pred::TimeLt(SimTime::from_secs(259_200))
        );
    }
}
