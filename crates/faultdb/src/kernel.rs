//! Branch-free scan kernels: evaluate a predicate over a decoded
//! columnar block into a selection bitmap, then run the query's action
//! over the bitmap — count by popcount, group/top/hist by iterating set
//! bits, list by materializing only selected rows.
//!
//! The per-row branching of the old scan (`faults.iter().filter(|f|
//! pred.matches(f))` — a recursive AST walk per row) is replaced by one
//! pass per *leaf* predicate: each leaf is a tight compare loop that
//! packs `(cmp as u64) << (i & 63)` into 64-row words (no data-dependent
//! branches, so the compiler vectorizes it), and `and`/`or`/`not`
//! combine whole words. The invariant throughout is that bits at
//! positions `>= rows` are zero in every bitmap — `not` re-masks the
//! tail to preserve it.
//!
//! This module also owns the partial/aggregate machinery shared by the
//! single-file engine and the shard fan-out: partials merge additively
//! in block order (and shard aggregates merge in shard order), which is
//! what keeps results byte-identical at any thread count (§6).

use std::collections::BTreeMap;

use uc_analysis::fault::{BitClass, Fault};
use uc_cluster::{NodeId, RACKS, TOTAL_BLADES, TOTAL_NODES};
use uc_simclock::SimTime;

use crate::encoding::Columns;
use crate::query::{blade_node_range, rack_node_range, Action, Dim, FlipDir, Pred, Query};

// ------------------------------------------------------------- bitmaps

/// Number of 64-bit words covering `rows` rows.
fn words_for(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Mask off bits at positions `>= rows` in the last word.
fn mask_tail(words: &mut [u64], rows: usize) {
    if !rows.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }
}

/// Build a bitmap from a per-row predicate closure. The closure is a
/// pure comparison, so the inner loop compiles without branches.
fn bitmap_from<F: FnMut(usize) -> bool>(rows: usize, mut f: F) -> Vec<u64> {
    let mut words = vec![0u64; words_for(rows)];
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * 64;
        let n = 64.min(rows - base);
        let mut acc = 0u64;
        for i in 0..n {
            acc |= (f(base + i) as u64) << i;
        }
        *word = acc;
    }
    words
}

/// Evaluate a predicate tree over a block into a selection bitmap.
pub(crate) fn eval_pred(p: &Pred, c: &Columns) -> Vec<u64> {
    let rows = c.len();
    match p {
        Pred::All => {
            let mut words = vec![u64::MAX; words_for(rows)];
            mask_tail(&mut words, rows);
            words
        }
        Pred::MultiBit => bitmap_from(rows, |i| c.bits[i] >= 2),
        Pred::Node(n) => {
            let v = n.0;
            bitmap_from(rows, |i| c.node[i] == v)
        }
        Pred::Blade(b) => {
            let (lo, hi) = blade_node_range(*b);
            bitmap_from(rows, |i| lo <= c.node[i] && c.node[i] <= hi)
        }
        Pred::Rack(r) => {
            let (lo, hi) = rack_node_range(*r);
            bitmap_from(rows, |i| lo <= c.node[i] && c.node[i] <= hi)
        }
        Pred::Class(class) => {
            // BitClass::of as a range test on the derived bits column:
            // One is 0..=1, SixPlus is 6.., the rest are exact.
            let (lo, hi) = match class {
                BitClass::One => (0u32, 1u32),
                BitClass::Two => (2, 2),
                BitClass::Three => (3, 3),
                BitClass::Four => (4, 4),
                BitClass::Five => (5, 5),
                BitClass::SixPlus => (6, u32::MAX),
            };
            bitmap_from(rows, |i| lo <= c.bits[i] && c.bits[i] <= hi)
        }
        Pred::Dir(d) => {
            let v = *d as u8;
            bitmap_from(rows, |i| c.dir[i] == v)
        }
        Pred::BitsEq(n) => {
            let v = *n;
            bitmap_from(rows, |i| c.bits[i] == v)
        }
        Pred::BitsGe(n) => {
            let v = *n;
            bitmap_from(rows, |i| c.bits[i] >= v)
        }
        Pred::BitsLe(n) => {
            let v = *n;
            bitmap_from(rows, |i| c.bits[i] <= v)
        }
        Pred::RawGe(n) => {
            let v = *n;
            bitmap_from(rows, |i| c.raw_logs[i] >= v)
        }
        Pred::TimeGe(t) => {
            let v = t.as_secs();
            bitmap_from(rows, |i| c.time[i] >= v)
        }
        Pred::TimeGt(t) => {
            let v = t.as_secs();
            bitmap_from(rows, |i| c.time[i] > v)
        }
        Pred::TimeLe(t) => {
            let v = t.as_secs();
            bitmap_from(rows, |i| c.time[i] <= v)
        }
        Pred::TimeLt(t) => {
            let v = t.as_secs();
            bitmap_from(rows, |i| c.time[i] < v)
        }
        Pred::And(a, b) => {
            let mut wa = eval_pred(a, c);
            let wb = eval_pred(b, c);
            for (x, y) in wa.iter_mut().zip(&wb) {
                *x &= y;
            }
            wa
        }
        Pred::Or(a, b) => {
            let mut wa = eval_pred(a, c);
            let wb = eval_pred(b, c);
            for (x, y) in wa.iter_mut().zip(&wb) {
                *x |= y;
            }
            wa
        }
        Pred::Not(p) => {
            let mut w = eval_pred(p, c);
            for x in w.iter_mut() {
                *x = !*x;
            }
            mask_tail(&mut w, rows);
            w
        }
    }
}

/// Iterate the set bit positions of a selection bitmap.
fn for_each_set<F: FnMut(usize)>(words: &[u64], mut f: F) {
    for (w, &word) in words.iter().enumerate() {
        let mut word = word;
        let base = w * 64;
        while word != 0 {
            f(base + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Count the key of every selected row into `slots`, one slot per key.
/// Consecutive rows count into four interleaved copies of the array,
/// summed at the end. In the paper's data nearly every row has the same
/// key (one flood node holds most faults, and nearly all flip one bit),
/// and a single array would chain every row's load, add and store
/// through one counter.
fn tally(sel: &[u64], slots: &mut [u64], key: impl Fn(usize) -> i64) {
    let keys = slots.len();
    let mut lanes = vec![0u64; 4 * keys];
    for_each_set(sel, |i| lanes[(i & 3) * keys + key(i) as usize] += 1);
    for lane in lanes.chunks_exact(keys) {
        for (slot, n) in slots.iter_mut().zip(lane) {
            *slot += n;
        }
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Which kernel an action runs over its selection bitmap (for
/// `--explain`).
pub(crate) fn kernel_name(action: &Action) -> &'static str {
    match action {
        Action::Count => "count/popcount",
        Action::List { .. } => "list/gather",
        Action::Top { .. } => "topk/gather",
        Action::Group(_) => "group/gather",
        Action::HistBits => "hist/gather",
    }
}

// ----------------------------------------------------------------- scan

/// Dimension key for one row of a columnar block (see [`render_key`]).
fn key_of_row(dim: Dim, c: &Columns, i: usize) -> i64 {
    match dim {
        Dim::Node => c.node[i] as i64,
        Dim::Blade => (NodeId(c.node[i]).blade().0 + 1) as i64,
        Dim::Rack => (NodeId(c.node[i]).blade().rack() + 1) as i64,
        Dim::Class => BitClass::of(c.bits[i]) as i64,
        Dim::Dir => c.dir[i] as i64,
        Dim::Hour => SimTime::from_secs(c.time[i]).hour_of_day() as i64,
        Dim::Day => SimTime::from_secs(c.time[i]).day_index(),
    }
}

/// Scan one decoded block: evaluate the predicate into a bitmap, then
/// run the action's kernel over the selected rows.
pub(crate) fn scan_columns(q: &Query, c: &Columns) -> Partial {
    let rows = c.len();
    // count over `all` needs no bitmap at all: every row matches.
    if matches!((&q.action, &q.pred), (Action::Count, Pred::All)) {
        return Partial::Count(rows as u64);
    }
    let sel = eval_pred(&q.pred, c);
    match q.action {
        Action::Count => Partial::Count(popcount(&sel)),
        Action::List { limit } => {
            // Keep at most `limit` per block; the merge truncates again,
            // so earlier blocks (earlier faults) win, deterministically.
            let matched = popcount(&sel);
            let keep = limit.unwrap_or(usize::MAX);
            let mut rows_out = Vec::new();
            for_each_set(&sel, |i| {
                if rows_out.len() < keep {
                    rows_out.push(c.fault(i));
                }
            });
            Partial::List {
                rows: rows_out,
                matched,
            }
        }
        Action::Top { by, .. } | Action::Group(by) => {
            let mut counts = Counts::for_dim(by);
            match &mut counts {
                // One arm per dimension, so each row loop compiles for one
                // key function.
                Counts::Dense(slots) => match by {
                    Dim::Node => tally(&sel, slots, |i| key_of_row(Dim::Node, c, i)),
                    Dim::Blade => tally(&sel, slots, |i| key_of_row(Dim::Blade, c, i)),
                    Dim::Rack => tally(&sel, slots, |i| key_of_row(Dim::Rack, c, i)),
                    Dim::Class => tally(&sel, slots, |i| key_of_row(Dim::Class, c, i)),
                    Dim::Dir => tally(&sel, slots, |i| key_of_row(Dim::Dir, c, i)),
                    Dim::Hour => tally(&sel, slots, |i| key_of_row(Dim::Hour, c, i)),
                    Dim::Day => unreachable!("`day` counts into a map"),
                },
                Counts::Sparse(map) => for_each_set(&sel, |i| {
                    *map.entry(key_of_row(by, c, i)).or_insert(0) += 1;
                }),
            }
            Partial::Keyed {
                counts,
                matched: popcount(&sel),
            }
        }
        Action::HistBits => {
            let mut bins = Box::new([0u64; 33]);
            tally(&sel, &mut bins[..], |i| i64::from(c.bits[i].min(32)));
            Partial::Hist {
                bins,
                matched: popcount(&sel),
            }
        }
    }
}

// ------------------------------------------------------------ aggregation

fn render_key(dim: Dim, key: i64) -> String {
    match dim {
        Dim::Node => NodeId(key as u32).to_string(),
        Dim::Blade | Dim::Rack | Dim::Day => key.to_string(),
        Dim::Class => BitClass::ALL[key as usize].label().to_string(),
        Dim::Dir => match key {
            0 => FlipDir::OneToZero,
            1 => FlipDir::ZeroToOne,
            _ => FlipDir::Mixed,
        }
        .label()
        .to_string(),
        Dim::Hour => format!("{key:02}"),
    }
}

/// One fault as a stable, parseable result line.
pub(crate) fn render_fault(f: &Fault) -> String {
    format!(
        "t={} node={} vaddr=0x{:08x} expected=0x{:08x} actual=0x{:08x} bits={} raw={}",
        f.time.as_secs(),
        f.node,
        f.vaddr,
        f.expected,
        f.actual,
        f.bits_corrupted(),
        f.raw_logs
    )
}

/// Group counts of one dimension. The six dimensions with a fixed domain
/// count into a dense array indexed by the key itself, so index order is
/// key order; `day` keeps an ordered map, because a valid block can hold
/// times anywhere in i64 seconds.
pub(crate) enum Counts {
    Dense(Vec<u64>),
    Sparse(BTreeMap<i64, u64>),
}

impl Counts {
    /// Empty counts for `dim`. A dense array covers every key
    /// [`key_of_row`] can give for a decoded block: decode refuses a node
    /// at or past `TOTAL_NODES`, and blades and racks derive from it.
    fn for_dim(dim: Dim) -> Counts {
        let keys = match dim {
            Dim::Node => TOTAL_NODES as usize,
            Dim::Blade => TOTAL_BLADES as usize + 1,
            Dim::Rack => RACKS as usize + 1,
            Dim::Class => BitClass::ALL.len(),
            Dim::Dir => FlipDir::Mixed as usize + 1,
            Dim::Hour => 24,
            Dim::Day => return Counts::Sparse(BTreeMap::new()),
        };
        Counts::Dense(vec![0; keys])
    }

    fn add(&mut self, other: Counts) {
        match (self, other) {
            (Counts::Dense(acc), Counts::Dense(more)) => {
                for (a, m) in acc.iter_mut().zip(more) {
                    *a += m;
                }
            }
            (Counts::Sparse(acc), Counts::Sparse(more)) => {
                for (k, v) in more {
                    *acc.entry(k).or_insert(0) += v;
                }
            }
            _ => unreachable!("partials of one query count one dimension"),
        }
    }

    /// Every (key, count) with a count above zero, in key order.
    fn pairs(&self) -> Vec<(i64, u64)> {
        match self {
            Counts::Dense(slots) => slots
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(k, &v)| (k as i64, v))
                .collect(),
            Counts::Sparse(map) => map.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// Per-block partial aggregate; additive, merged in block order.
pub(crate) enum Partial {
    Count(u64),
    List { rows: Vec<Fault>, matched: u64 },
    Keyed { counts: Counts, matched: u64 },
    Hist { bins: Box<[u64; 33]>, matched: u64 },
}

pub(crate) struct Aggregate {
    pub(crate) matched: u64,
    count: u64,
    pub(crate) rows: Vec<Fault>,
    /// Set by the first keyed partial; every later one counts the same
    /// dimension.
    counts: Option<Counts>,
    bins: [u64; 33],
}

impl Aggregate {
    pub(crate) fn new() -> Aggregate {
        Aggregate {
            matched: 0,
            count: 0,
            rows: Vec::new(),
            counts: None,
            bins: [0; 33],
        }
    }

    fn add_counts(&mut self, counts: Option<Counts>) {
        match (&mut self.counts, counts) {
            (Some(acc), Some(more)) => acc.add(more),
            (acc @ None, more) => *acc = more,
            (Some(_), None) => {}
        }
    }

    pub(crate) fn merge(&mut self, p: Partial) {
        match p {
            Partial::Count(n) => {
                self.count += n;
                self.matched += n;
            }
            Partial::List { rows, matched } => {
                self.rows.extend(rows);
                self.matched += matched;
            }
            Partial::Keyed { counts, matched } => {
                self.add_counts(Some(counts));
                self.matched += matched;
            }
            Partial::Hist { bins, matched } => {
                for (acc, v) in self.bins.iter_mut().zip(bins.iter()) {
                    *acc += v;
                }
                self.matched += matched;
            }
        }
    }

    /// Fold another aggregate in (shard fan-out). `rows` concatenate in
    /// call order; the caller is responsible for ordering shards so that
    /// concatenation equals the global sort order, or for re-merging rows
    /// by sort key afterwards.
    pub(crate) fn absorb(&mut self, other: Aggregate) {
        self.matched += other.matched;
        self.count += other.count;
        self.rows.extend(other.rows);
        self.add_counts(other.counts);
        for (acc, v) in self.bins.iter_mut().zip(other.bins.iter()) {
            *acc += v;
        }
    }

    /// Replace the accumulated rows (after a k-way merge across shards).
    pub(crate) fn set_rows(&mut self, rows: Vec<Fault>) {
        self.rows = rows;
    }

    pub(crate) fn render(&self, action: &Action) -> Vec<String> {
        let pairs = || self.counts.as_ref().map_or_else(Vec::new, Counts::pairs);
        match *action {
            Action::Count => vec![self.count.to_string()],
            Action::List { limit } => {
                let n = limit.unwrap_or(self.rows.len()).min(self.rows.len());
                self.rows[..n].iter().map(render_fault).collect()
            }
            Action::Group(by) => pairs()
                .into_iter()
                .map(|(k, v)| format!("{} {v}", render_key(by, k)))
                .collect(),
            Action::Top { k, by } => {
                let mut pairs = pairs();
                // Highest count first; ties break on the smaller key so
                // the ranking is total.
                pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                pairs
                    .into_iter()
                    .take(k)
                    .map(|(key, v)| format!("{} {v}", render_key(by, key)))
                    .collect()
            }
            Action::HistBits => self
                .bins
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, &v)| v > 0)
                .map(|(bits, &v)| format!("{bits} {v}"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_columns, encode_packed, BlockEncoding};
    use crate::query::parse_query;

    fn sample(n: usize) -> Vec<Fault> {
        (0..n)
            .map(|i| Fault {
                node: NodeId((i % 97) as u32),
                time: SimTime::from_secs(i as i64 * 37),
                vaddr: 0x1000 + (i as u64 % 11) * 0x40,
                expected: 0xFFFF_FFFF,
                // Always flips bit 0: a real fault has expected != actual.
                actual: 0xFFFF_FFFF ^ (((1u32 << (i % 7)) - 1) | 1),
                temp: (i % 4 == 0).then_some(25.0 + i as f32 / 8.0),
                raw_logs: 1 + (i as u64 % 5),
            })
            .collect()
    }

    fn columns(faults: &[Fault]) -> Columns {
        let payload = encode_packed(faults);
        decode_columns(&payload, faults.len(), BlockEncoding::Packed).unwrap()
    }

    #[test]
    fn bitmap_eval_agrees_with_row_filter_on_every_leaf() {
        let faults = sample(333); // odd length exercises tail masking
        let c = columns(&faults);
        for expr in [
            "all",
            "multibit",
            "node=01-01",
            "blade=2",
            "rack=1",
            "class=1",
            "class=6+",
            "dir=1to0",
            "dir=mixed",
            "bits=3",
            "bits>=2",
            "bits<=1",
            "raw>=4",
            "time>=3000",
            "time>3000",
            "time<=3000",
            "time<3000",
            "not multibit",
            "not (bits>=2 and raw>=3)",
            "(blade=1 or rack=1) and time<5000",
            "not not multibit",
        ] {
            let q = parse_query(&format!("count where {expr}")).unwrap();
            let sel = eval_pred(&q.pred, &c);
            let mut expect = Vec::new();
            for (i, f) in faults.iter().enumerate() {
                if q.pred.matches(f) {
                    expect.push(i);
                }
            }
            let mut got = Vec::new();
            for_each_set(&sel, |i| got.push(i));
            assert_eq!(got, expect, "{expr}");
            // Tail invariant: no bits at or past `rows`.
            assert!(got.iter().all(|&i| i < faults.len()), "{expr}");
        }
    }

    /// A sample spread over every node of the machine: each node holds two
    /// or three faults (so `top` meets tied counts), bit counts run 1..=32,
    /// all three flip directions occur, and times start before the epoch.
    fn spread(n: usize) -> Vec<Fault> {
        (0..n)
            .map(|i| {
                let flips = ((1u64 << (1 + i % 32)) - 1) as u32;
                let expected = [0xFFFF_FFFF, 0, 0xAAAA_AAAA][i % 3];
                Fault {
                    node: NodeId((i * 7 % TOTAL_NODES as usize) as u32),
                    time: SimTime::from_secs(i as i64 * 3_607 - 500_000),
                    vaddr: 0x2000 + (i as u64 % 13) * 0x40,
                    expected,
                    actual: expected ^ flips,
                    temp: None,
                    raw_logs: 1 + (i as u64 % 3),
                }
            })
            .collect()
    }

    /// The key of one fault, from its own methods rather than the columns.
    fn oracle_key(dim: Dim, f: &Fault) -> i64 {
        match dim {
            Dim::Node => f.node.0 as i64,
            Dim::Blade => (f.node.blade().0 + 1) as i64,
            Dim::Rack => (f.node.blade().rack() + 1) as i64,
            Dim::Class => BitClass::of(f.bits_corrupted()) as i64,
            Dim::Dir => FlipDir::of(f) as i64,
            Dim::Hour => f.time.hour_of_day() as i64,
            Dim::Day => f.time.day_index(),
        }
    }

    /// Brute-force answer: filter rows, aggregate through a `BTreeMap`.
    fn oracle(q: &Query, faults: &[Fault]) -> Vec<String> {
        let matching: Vec<&Fault> = faults.iter().filter(|f| q.pred.matches(f)).collect();
        let keyed = |by: Dim| {
            let mut counts = BTreeMap::new();
            for f in &matching {
                *counts.entry(oracle_key(by, f)).or_insert(0u64) += 1;
            }
            counts
        };
        match q.action {
            Action::Count => vec![matching.len().to_string()],
            Action::List { limit } => matching
                .iter()
                .take(limit.unwrap_or(usize::MAX))
                .map(|f| render_fault(f))
                .collect(),
            Action::Group(by) => keyed(by)
                .into_iter()
                .map(|(k, v)| format!("{} {v}", render_key(by, k)))
                .collect(),
            Action::Top { k, by } => {
                let mut ranked: Vec<(i64, u64)> = keyed(by).into_iter().collect();
                ranked.sort_by_key(|&(key, v)| (std::cmp::Reverse(v), key));
                ranked
                    .into_iter()
                    .take(k)
                    .map(|(key, v)| format!("{} {v}", render_key(by, key)))
                    .collect()
            }
            Action::HistBits => {
                let mut bins = BTreeMap::new();
                for f in &matching {
                    *bins.entry(f.bits_corrupted().min(32)).or_insert(0u64) += 1;
                }
                bins.into_iter()
                    .filter(|&(bits, _)| bits > 0)
                    .map(|(bits, v)| format!("{bits} {v}"))
                    .collect()
            }
        }
    }

    /// Scan `faults` as blocks of `rows_per_block`, merged into two
    /// aggregates (split as a shard fan-out would be) and absorbed.
    fn scan_blocks(q: &Query, faults: &[Fault], rows_per_block: usize) -> Aggregate {
        let blocks: Vec<&[Fault]> = faults.chunks(rows_per_block).collect();
        let (left, right) = blocks.split_at(blocks.len() / 2);
        let mut total = Aggregate::new();
        for half in [left, right] {
            let mut agg = Aggregate::new();
            for block in half {
                agg.merge(scan_columns(q, &columns(block)));
            }
            total.absorb(agg);
        }
        total
    }

    #[test]
    fn kernels_agree_with_the_legacy_row_scan() {
        const DIMS: [Dim; 7] = [
            Dim::Node,
            Dim::Blade,
            Dim::Rack,
            Dim::Class,
            Dim::Dir,
            Dim::Hour,
            Dim::Day,
        ];
        let mut queries: Vec<Query> = [
            "count",
            "count where multibit",
            "list limit 7 where raw>=3",
            "list where bits=1",
            "top 3 node where time>=1000",
            "hist bits",
            "hist bits where not multibit",
            "hist bits where dir=mixed",
        ]
        .iter()
        .map(|text| parse_query(text).unwrap())
        .collect();
        for by in DIMS {
            for pred in ["all", "multibit", "rack=2 and not dir=1to0"] {
                queries.push(parse_query(&format!("group {} where {pred}", by.label())).unwrap());
            }
            // Every dimension through the top kernel, small k (ties cut
            // at the boundary) and a k past every key.
            for k in [1, 5, 2_000] {
                queries.push(Query {
                    action: Action::Top { k, by },
                    pred: parse_query("count where bits>=3").unwrap().pred,
                });
            }
        }
        for (faults, rows_per_block) in [(sample(500), 500), (spread(3_000), 700)] {
            for q in &queries {
                let agg = scan_blocks(q, &faults, rows_per_block);
                let matching = faults.iter().filter(|f| q.pred.matches(f)).count();
                assert_eq!(agg.matched, matching as u64, "{q:?}");
                assert_eq!(agg.render(&q.action), oracle(q, &faults), "{q:?}");
            }
        }
        // The spread sample fills the whole dense node domain.
        let by_node = parse_query("group node").unwrap();
        assert_eq!(oracle(&by_node, &spread(3_000)).len(), TOTAL_NODES as usize);
    }

    #[test]
    fn extreme_time_block_groups_by_day_and_hour() {
        let faults: Vec<Fault> = [i64::MIN, -1, 0, i64::MAX]
            .iter()
            .enumerate()
            .map(|(i, &t)| Fault {
                node: NodeId(i as u32),
                time: SimTime::from_secs(t),
                vaddr: 0x40 * i as u64,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFFE,
                temp: None,
                raw_logs: 1,
            })
            .collect();
        let c = columns(&faults);
        let day = |t: i64| SimTime::from_secs(t).day_index();
        let (lo, hi) = (day(i64::MIN), day(i64::MAX));
        for (q, want) in [
            (
                parse_query("group day").unwrap(),
                vec![
                    format!("{lo} 1"),
                    "-1 1".into(),
                    "0 1".into(),
                    format!("{hi} 1"),
                ],
            ),
            (
                parse_query("group hour").unwrap(),
                vec!["00 1".into(), "08 1".into(), "15 1".into(), "23 1".into()],
            ),
            (
                Query {
                    action: Action::Top { k: 2, by: Dim::Day },
                    pred: Pred::All,
                },
                vec![format!("{lo} 1"), "-1 1".into()],
            ),
        ] {
            let started = std::time::Instant::now();
            let mut agg = Aggregate::new();
            agg.merge(scan_columns(&q, &c));
            assert_eq!(agg.render(&q.action), want, "{q:?}");
            assert_eq!(agg.render(&q.action), oracle(&q, &faults), "{q:?}");
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "{q:?}"
            );
        }
    }

    #[test]
    fn empty_block_scans_clean() {
        let c = columns(&[]);
        let q = parse_query("count where multibit").unwrap();
        let mut agg = Aggregate::new();
        agg.merge(scan_columns(&q, &c));
        assert_eq!(agg.render(&q.action), vec!["0".to_string()]);
    }
}
