//! Branch-free scan kernels: evaluate a predicate over a decoded
//! columnar block into a selection bitmap, then run the query's action
//! over the bitmap — count by popcount, group/top/hist by counting the
//! keys of selected rows, list by materializing only selected rows.
//!
//! The predicate is evaluated 64 rows (one bitmap word) at a time. Each
//! leaf is a tight compare loop that writes one 0/1 byte per row into a
//! stack buffer (no data-dependent branches, so the compiler vectorizes
//! it); `and`/`or`/`not` combine the bytes, and the finished chunk packs
//! into its word eight bytes per multiply. No leaf allocates. The
//! invariant throughout is that bits at positions `>= rows` are zero in
//! every bitmap.
//!
//! A block whose zone map proves that every row matches
//! ([`Pred::must_match`]) skips the predicate and the row loop: `count`
//! takes its row count, `list` its first rows, and `group`, `top` and
//! `hist` read the block's all-rows counts, which the same row kernels
//! compute on first use and the cached block keeps (`cache::Block`).
//!
//! This module also owns the partial/aggregate machinery shared by the
//! single-file engine and the shard fan-out: partials merge additively
//! in block order (and shard aggregates merge in shard order), which is
//! what keeps results byte-identical at any thread count (§6).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use uc_analysis::fault::{BitClass, Fault};
use uc_cluster::{NodeId, RACKS, TOTAL_BLADES, TOTAL_NODES};
use uc_simclock::SimTime;

use crate::cache::Block;
use crate::encoding::Columns;
use crate::query::{blade_node_range, rack_node_range, Action, Dim, FlipDir, Pred, Query};

// ------------------------------------------------------------- bitmaps

/// Rows per predicate chunk: one bitmap word.
const CHUNK: usize = 64;

/// Number of 64-bit words covering `rows` rows.
fn words_for(rows: usize) -> usize {
    rows.div_ceil(CHUNK)
}

/// Write `test` of each value of `col` into `out`, one 0/1 byte per row.
fn leaf<T: Copy>(col: &[T], out: &mut [u8], test: impl Fn(T) -> bool) {
    for (o, &v) in out.iter_mut().zip(col) {
        *o = u8::from(test(v));
    }
}

/// `lo <= v <= hi` (for `lo <= hi`) as one unsigned compare, so the leaf
/// loop stays a single vector compare.
fn within(lo: u32, hi: u32) -> impl Fn(u32) -> bool {
    move |v| v.wrapping_sub(lo) <= hi.wrapping_sub(lo)
}

/// Evaluate `p` over the block rows `rows` (at most [`CHUNK`] of them)
/// into `out`, one 0/1 byte per row; `out.len() == rows.len()`.
fn fill(p: &Pred, c: &Columns, rows: Range<usize>, out: &mut [u8]) {
    match p {
        Pred::All => out.fill(1),
        Pred::MultiBit => leaf(&c.bits[rows], out, |b| b >= 2),
        Pred::Node(n) => {
            let v = n.0;
            leaf(&c.node[rows], out, |x| x == v)
        }
        Pred::Blade(b) => {
            let (lo, hi) = blade_node_range(*b);
            leaf(&c.node[rows], out, within(lo, hi))
        }
        Pred::Rack(r) => {
            let (lo, hi) = rack_node_range(*r);
            leaf(&c.node[rows], out, within(lo, hi))
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
            leaf(&c.bits[rows], out, within(lo, hi))
        }
        Pred::Dir(d) => {
            let v = *d as u8;
            leaf(&c.dir[rows], out, |x| x == v)
        }
        Pred::BitsEq(n) => {
            let v = *n;
            leaf(&c.bits[rows], out, |x| x == v)
        }
        Pred::BitsGe(n) => {
            let v = *n;
            leaf(&c.bits[rows], out, |x| x >= v)
        }
        Pred::BitsLe(n) => {
            let v = *n;
            leaf(&c.bits[rows], out, |x| x <= v)
        }
        Pred::RawGe(n) => {
            let v = *n;
            leaf(&c.raw_logs[rows], out, |x| x >= v)
        }
        Pred::TimeGe(t) => {
            let v = t.as_secs();
            leaf(&c.time[rows], out, |x| x >= v)
        }
        Pred::TimeGt(t) => {
            let v = t.as_secs();
            leaf(&c.time[rows], out, |x| x > v)
        }
        Pred::TimeLe(t) => {
            let v = t.as_secs();
            leaf(&c.time[rows], out, |x| x <= v)
        }
        Pred::TimeLt(t) => {
            let v = t.as_secs();
            leaf(&c.time[rows], out, |x| x < v)
        }
        Pred::And(a, b) => fill_both(a, b, c, rows, out, |x, y| x & y),
        Pred::Or(a, b) => fill_both(a, b, c, rows, out, |x, y| x | y),
        Pred::Not(p) => {
            fill(p, c, rows, out);
            for o in out.iter_mut() {
                *o ^= 1;
            }
        }
    }
}

/// [`fill`] `a` into `out` and `b` into a second buffer, then combine
/// them byte by byte with `op`.
fn fill_both(
    a: &Pred,
    b: &Pred,
    c: &Columns,
    rows: Range<usize>,
    out: &mut [u8],
    op: impl Fn(u8, u8) -> u8,
) {
    fill(a, c, rows.clone(), out);
    let mut other = [0u8; CHUNK];
    let other = &mut other[..out.len()];
    fill(b, c, rows, other);
    for (o, &x) in out.iter_mut().zip(other.iter()) {
        *o = op(*o, x);
    }
}

/// Pack 64 0/1 bytes into one word, byte `i` to bit `i`. Each group of
/// eight bytes packs with one multiply: byte `k` of the group lands in
/// bit `56 + k` of the product, and since no two partial products share
/// a bit position, nothing carries into the top byte.
fn pack(bytes: &[u8; CHUNK]) -> u64 {
    let mut word = 0u64;
    for (g, group) in bytes.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(group.try_into().expect("an 8-byte group"));
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    word
}

/// The selection bitmap of every one of `rows` rows.
fn all_rows(rows: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; words_for(rows)];
    if !rows.is_multiple_of(CHUNK) {
        *words.last_mut().expect("a partial last word") = (1u64 << (rows % CHUNK)) - 1;
    }
    words
}

/// Evaluate a predicate tree over a block into a selection bitmap.
pub(crate) fn eval_pred(p: &Pred, c: &Columns) -> Vec<u64> {
    let rows = c.len();
    if let Pred::All = p {
        return all_rows(rows);
    }
    (0..rows)
        .step_by(CHUNK)
        .map(|base| {
            let end = rows.min(base + CHUNK);
            // Bytes past `end` stay zero, so tail bits stay zero.
            let mut bytes = [0u8; CHUNK];
            fill(p, c, base..end, &mut bytes[..end - base]);
            pack(&bytes)
        })
        .collect()
}

/// Iterate the set bit positions of a selection bitmap.
fn for_each_set<F: FnMut(usize)>(words: &[u64], mut f: F) {
    for (w, &word) in words.iter().enumerate() {
        let mut word = word;
        let base = w * CHUNK;
        while word != 0 {
            f(base + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Count the key of every selected row into `slots`, one slot per key;
/// a row's key is `key` of its value in `col`. Consecutive rows count
/// into `LANES` interleaved copies of the array, summed at the end. In
/// the paper's data nearly every row has the same key (one flood node
/// holds most faults, and nearly all flip one bit), and a single array
/// would chain every row's load, add and store through one counter. A
/// lane counts rows of one block, whose row count is a `u32`, so `u32`
/// lanes cannot overflow. A word whose 64 rows are all selected is
/// walked as a dense run, with no per-row bit search.
fn tally<T: Copy, const LANES: usize>(
    sel: &[u64],
    col: &[T],
    slots: &mut [u64],
    key: impl Fn(T) -> usize,
) {
    let keys = slots.len();
    let mut lanes = vec![0u32; LANES * keys];
    for (word, rows) in sel.iter().zip(col.chunks(CHUNK)) {
        if *word == u64::MAX {
            for run in rows.chunks_exact(LANES) {
                for (lane, &v) in run.iter().enumerate() {
                    lanes[lane * keys + key(v)] += 1;
                }
            }
        } else {
            let mut word = *word;
            while word != 0 {
                let i = word.trailing_zeros() as usize;
                lanes[i % LANES * keys + key(rows[i])] += 1;
                word &= word - 1;
            }
        }
    }
    for lane in lanes.chunks_exact(keys) {
        for (slot, &n) in slots.iter_mut().zip(lane) {
            *slot += u64::from(n);
        }
    }
}

/// Histogram of the selected rows' flipped-bit counts, one bin per count
/// 0..=32.
fn hist_bits(sel: &[u64], c: &Columns) -> Box<[u64; 33]> {
    let mut bins = Box::new([0u64; 33]);
    tally::<_, 8>(sel, &c.bits, &mut bins[..], |b| b.min(32) as usize);
    bins
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

/// Scan one decoded block. A block the zone map proves wholly selected
/// (`whole`) skips the predicate and the row loop; any other evaluates
/// the predicate into a bitmap and runs the action's kernel over the
/// selected rows.
pub(crate) fn scan_block(q: &Query, block: &Arc<Block>, whole: bool) -> Partial {
    let c = &block.columns;
    if whole {
        let rows = c.len() as u64;
        return match q.action {
            Action::Count => Partial::Count(rows),
            Action::List { limit } => Partial::List {
                rows: (0..c.len().min(limit.unwrap_or(usize::MAX)))
                    .map(|i| c.fault(i))
                    .collect(),
                matched: rows,
            },
            // Fill the block's counts here, on the scanning thread; the
            // merge reads them in place.
            Action::Top { by, .. } | Action::Group(by) => {
                whole_counts(block, by);
                Partial::Whole {
                    block: Arc::clone(block),
                    by: Some(by),
                }
            }
            Action::HistBits => {
                whole_hist(block);
                Partial::Whole {
                    block: Arc::clone(block),
                    by: None,
                }
            }
        };
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
        Action::Top { by, .. } | Action::Group(by) => Partial::Keyed {
            counts: keyed_counts(by, &sel, block),
            matched: popcount(&sel),
        },
        Action::HistBits => Partial::Hist {
            bins: hist_bits(&sel, c),
            matched: popcount(&sel),
        },
    }
}

/// The block's all-rows counts for `by`, computed on first use.
fn whole_counts(block: &Block, by: Dim) -> &Counts {
    block.counts[by as usize]
        .get_or_init(|| keyed_counts(by, &all_rows(block.columns.len()), block))
}

/// The block's all-rows bits histogram, computed on first use.
fn whole_hist(block: &Block) -> &[u64; 33] {
    block
        .hist
        .get_or_init(|| hist_bits(&all_rows(block.columns.len()), &block.columns))
}

/// Count the selected rows of a block by the key of dimension `by`.
fn keyed_counts(by: Dim, sel: &[u64], block: &Block) -> Counts {
    let c = &block.columns;
    let blade = |n| NodeId(n).blade();
    let keys = match by {
        Dim::Node => TOTAL_NODES as usize,
        Dim::Blade => TOTAL_BLADES as usize + 1,
        Dim::Rack => RACKS as usize + 1,
        Dim::Class => BitClass::ALL.len(),
        Dim::Dir => FlipDir::Mixed as usize + 1,
        Dim::Hour => 24,
        Dim::Day => return day_counts(sel, block),
    };
    // A dense array covers every key a decoded block can give: decode
    // refuses a node at or past `TOTAL_NODES`, and blades and racks
    // derive from it.
    let mut slots = vec![0; keys];
    // One arm per dimension, so each row loop compiles for one key
    // function; the keys are those `render_key` renders. Node has the one
    // large domain, so it takes fewer lanes.
    match by {
        Dim::Node => tally::<_, 4>(sel, &c.node, &mut slots, |n| n as usize),
        Dim::Blade => tally::<_, 8>(sel, &c.node, &mut slots, |n| blade(n).0 as usize + 1),
        Dim::Rack => tally::<_, 8>(sel, &c.node, &mut slots, |n| blade(n).rack() as usize + 1),
        // Classes fold from the bits histogram.
        Dim::Class => {
            for (bits, n) in hist_bits(sel, c).iter().enumerate() {
                slots[BitClass::of(bits as u32) as usize] += n;
            }
        }
        Dim::Dir => tally::<_, 8>(sel, &c.dir, &mut slots, usize::from),
        Dim::Hour => tally::<_, 8>(sel, &c.time, &mut slots, |t| {
            SimTime::from_secs(t).hour_of_day() as usize
        }),
        Dim::Day => unreachable!("`day` returned above"),
    }
    Counts::Dense(slots)
}

/// Count the selected rows by day. The block's days span its zone map's
/// time bounds, which decode proved hold every row; when that span is at
/// most the block's row count, the rows count into a dense array over
/// it. A wider span (a valid block can hold times anywhere in i64
/// seconds) counts into an ordered map, one insert per selected row.
fn day_counts(sel: &[u64], block: &Block) -> Counts {
    let c = &block.columns;
    let day = |t| SimTime::from_secs(t).day_index();
    let first = day(block.zone.min_time);
    // Day indices lie within ±2^47, so the difference cannot overflow.
    let span = day(block.zone.max_time) - first + 1;
    if (1..=c.len() as i64).contains(&span) {
        let mut slots = vec![0; span as usize];
        tally::<_, 4>(sel, &c.time, &mut slots, |t| (day(t) - first) as usize);
        return Counts::Days { first, slots };
    }
    let mut map = BTreeMap::new();
    for_each_set(sel, |i| *map.entry(day(c.time[i])).or_insert(0) += 1);
    Counts::Sparse(map)
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
/// key order. `day` counts one block into a dense array over that
/// block's days when it can (see [`day_counts`]); every other `day`
/// count, and every aggregate over blocks, is an ordered map.
pub(crate) enum Counts {
    Dense(Vec<u64>),
    /// Slot `i` counts day `first + i`.
    Days {
        first: i64,
        slots: Vec<u64>,
    },
    Sparse(BTreeMap<i64, u64>),
}

impl Counts {
    /// Every (key, count) with a count above zero, in key order.
    fn pairs(&self) -> Vec<(i64, u64)> {
        let nonzero = |offset: i64, slots: &[u64]| {
            slots
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(k, &v)| (offset + k as i64, v))
                .collect()
        };
        match self {
            Counts::Dense(slots) => nonzero(0, slots),
            Counts::Days { first, slots } => nonzero(*first, slots),
            Counts::Sparse(map) => map.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// Per-block partial aggregate; additive, merged in block order.
pub(crate) enum Partial {
    Count(u64),
    List {
        rows: Vec<Fault>,
        matched: u64,
    },
    Keyed {
        counts: Counts,
        matched: u64,
    },
    Hist {
        bins: Box<[u64; 33]>,
        matched: u64,
    },
    /// A wholly selected block: its all-rows counts for `by`, or its
    /// histogram when `by` is `None`, merged by reference.
    Whole {
        block: Arc<Block>,
        by: Option<Dim>,
    },
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

    /// Add one block's or one shard's counts; the first sets the shape.
    fn add_counts(&mut self, more: &Counts) {
        let acc = self.counts.get_or_insert_with(|| match more {
            Counts::Dense(slots) => Counts::Dense(vec![0; slots.len()]),
            Counts::Days { .. } | Counts::Sparse(_) => Counts::Sparse(BTreeMap::new()),
        });
        match (acc, more) {
            (Counts::Dense(acc), Counts::Dense(more)) => {
                for (a, m) in acc.iter_mut().zip(more) {
                    *a += m;
                }
            }
            (Counts::Sparse(acc), Counts::Days { .. } | Counts::Sparse(_)) => {
                for (k, v) in more.pairs() {
                    *acc.entry(k).or_insert(0) += v;
                }
            }
            _ => unreachable!("partials of one query count one dimension"),
        }
    }

    fn add_bins(&mut self, bins: &[u64; 33]) {
        for (acc, v) in self.bins.iter_mut().zip(bins) {
            *acc += v;
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
                self.add_counts(&counts);
                self.matched += matched;
            }
            Partial::Hist { bins, matched } => {
                self.add_bins(&bins);
                self.matched += matched;
            }
            Partial::Whole { block, by } => {
                match by {
                    Some(by) => self.add_counts(whole_counts(&block, by)),
                    None => self.add_bins(whole_hist(&block)),
                }
                self.matched += block.columns.len() as u64;
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
        if let Some(counts) = &other.counts {
            self.add_counts(counts);
        }
        self.add_bins(&other.bins);
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
    use crate::cache::BlockCache;
    use crate::encoding::{decode_columns, encode_packed, BlockEncoding};
    use crate::format::ZoneMap;
    use crate::query::parse_query;
    use proptest::prelude::*;
    use uc_simclock::StreamRng;

    const DIMS: [Dim; 7] = [
        Dim::Node,
        Dim::Blade,
        Dim::Rack,
        Dim::Class,
        Dim::Dir,
        Dim::Hour,
        Dim::Day,
    ];

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

    /// A decoded block with its exact zone map, as the cache holds it.
    fn block(faults: &[Fault]) -> Arc<Block> {
        Arc::new(Block::new(columns(faults), ZoneMap::of(faults)))
    }

    /// Scan a block as the engine does: whole when the zone map proves it.
    fn scan(q: &Query, b: &Arc<Block>) -> Partial {
        scan_block(q, b, q.pred.must_match(&b.zone))
    }

    /// Render one block's partial.
    fn render_one(q: &Query, p: Partial) -> Vec<String> {
        let mut agg = Aggregate::new();
        agg.merge(p);
        agg.render(&q.action)
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
            for faults in half {
                agg.merge(scan(q, &block(faults)));
            }
            total.absorb(agg);
        }
        total
    }

    #[test]
    fn kernels_agree_with_the_legacy_row_scan() {
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

    /// A random fault: any of the 1,080 nodes, 1..=32 flipped bits in any
    /// of the three directions, a time up to 30 days before the epoch.
    fn random_fault(rng: &mut StreamRng) -> Fault {
        let bits = rng.range_inclusive(1, 32) as u32;
        let mut positions: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut positions);
        let mask = positions[..bits as usize]
            .iter()
            .fold(0u32, |m, &p| m | 1 << p);
        let base = rng.next_u32();
        // Mixed needs one flipped bit each way, so two bits at least.
        let (expected, actual) = match rng.below(if bits >= 2 { 3 } else { 2 }) {
            0 => (base | mask, (base | mask) & !mask),
            1 => (base & !mask, (base & !mask) | mask),
            _ => {
                // The lowest flipped bit goes 1 -> 0, the highest 0 -> 1.
                let low = mask & mask.wrapping_neg();
                let high = 1u32 << (31 - mask.leading_zeros());
                let e = (base | low) & !high;
                (e, e ^ mask)
            }
        };
        Fault {
            node: NodeId(rng.below(u64::from(TOTAL_NODES)) as u32),
            time: SimTime::from_secs(random_time(rng)),
            vaddr: 0x40 * rng.below(1 << 20),
            expected,
            actual,
            temp: rng.chance(0.5).then(|| rng.next_f64() as f32 * 60.0),
            raw_logs: rng.range_inclusive(1, 6),
        }
    }

    /// Seconds from 30 days before the epoch to 400 days after it.
    fn random_time(rng: &mut StreamRng) -> i64 {
        rng.range_inclusive(0, 430 * 86_400) as i64 - 30 * 86_400
    }

    /// A random predicate tree of at most `depth` levels over every leaf
    /// and `and`/`or`/`not`.
    fn random_pred(rng: &mut StreamRng, depth: u32) -> Pred {
        random_tree(rng, depth, &mut random_leaf)
    }

    /// A random tree of at most `depth` levels over `and`/`or`/`not`, its
    /// leaves drawn by `leaf`.
    fn random_tree(
        rng: &mut StreamRng,
        depth: u32,
        leaf: &mut impl FnMut(&mut StreamRng) -> Pred,
    ) -> Pred {
        if depth > 1 && rng.chance(0.6) {
            let op = rng.below(3);
            let mut sub = || Box::new(random_tree(rng, depth - 1, leaf));
            return match op {
                0 => Pred::And(sub(), sub()),
                1 => Pred::Or(sub(), sub()),
                _ => Pred::Not(sub()),
            };
        }
        leaf(rng)
    }

    /// Any leaf, its value drawn over the whole domain.
    fn random_leaf(rng: &mut StreamRng) -> Pred {
        let time = SimTime::from_secs(random_time(rng));
        match rng.below(15) {
            0 => Pred::All,
            1 => Pred::MultiBit,
            2 => Pred::Node(NodeId(rng.below(u64::from(TOTAL_NODES)) as u32)),
            3 => Pred::Blade(rng.range_inclusive(1, u64::from(TOTAL_BLADES)) as u32),
            4 => Pred::Rack(rng.range_inclusive(1, u64::from(RACKS)) as u32),
            5 => Pred::Class(*rng.pick(&BitClass::ALL)),
            6 => Pred::Dir(*rng.pick(&[FlipDir::OneToZero, FlipDir::ZeroToOne, FlipDir::Mixed])),
            7 => Pred::BitsEq(rng.below(34) as u32),
            8 => Pred::BitsGe(rng.below(34) as u32),
            9 => Pred::BitsLe(rng.below(34) as u32),
            10 => Pred::RawGe(rng.below(8)),
            11 => Pred::TimeGe(time),
            12 => Pred::TimeGt(time),
            13 => Pred::TimeLe(time),
            _ => Pred::TimeLt(time),
        }
    }

    proptest! {
        #[test]
        fn kernels_match_the_row_oracle_on_random_blocks(
            seed in any::<u64>(),
            rows in 0usize..301,
        ) {
            let mut rng = StreamRng::from_seed(seed);
            let faults: Vec<Fault> = (0..rows).map(|_| random_fault(&mut rng)).collect();
            let pred = random_pred(&mut rng, 4);
            // The bitmap on every block length down to 63 rows shorter,
            // so each case meets every tail length mod 64 (and mod 8).
            for len in rows.saturating_sub(63)..=rows {
                let sel = eval_pred(&pred, &columns(&faults[..len]));
                let mut want = vec![0u64; words_for(len)];
                for (i, f) in faults[..len].iter().enumerate() {
                    want[i / 64] |= u64::from(pred.matches(f)) << (i % 64);
                }
                // Equal words: every tail bit at or past `len` is zero.
                prop_assert_eq!(&sel, &want, "{:?} over {} rows", pred, len);
            }
            let mut actions = vec![
                Action::Count,
                Action::List { limit: Some(rng.below(12) as usize) },
                Action::List { limit: None },
                Action::HistBits,
            ];
            for by in DIMS {
                actions.push(Action::Group(by));
                actions.push(Action::Top { k: rng.range_inclusive(1, 8) as usize, by });
            }
            let b = block(&faults);
            // The whole-block path answers with every row, so it runs
            // under a predicate the zone map proves.
            let proven = Pred::Or(Box::new(pred.clone()), Box::new(Pred::All));
            let cache = BlockCache::new(1);
            for action in actions {
                let q = Query { action, pred: pred.clone() };
                prop_assert_eq!(render_one(&q, scan_block(&q, &b, false)), oracle(&q, &faults), "{:?}", q);
                if pred.must_match(&b.zone) {
                    prop_assert_eq!(render_one(&q, scan_block(&q, &b, true)), oracle(&q, &faults), "{:?}", q);
                }
                // First use computes the block's counts, second use reuses
                // them, and a block evicted from the cache and decoded
                // again computes them afresh.
                let whole = Query { action, pred: proven.clone() };
                let want = oracle(&whole, &faults);
                cache.insert(0, block(&faults));
                for _ in 0..2 {
                    let cached = cache.get(0).expect("block 0 is cached");
                    prop_assert_eq!(render_one(&whole, scan_block(&whole, &cached, true)), want.clone(), "{:?}", whole);
                }
                cache.insert(8, block(&[]));
                prop_assert!(cache.get(0).is_none(), "block 0 shares a one-block shard with 8");
                cache.insert(0, block(&faults));
                let redecoded = cache.get(0).expect("block 0 is cached again");
                prop_assert_eq!(render_one(&whole, scan_block(&whole, &redecoded, true)), want, "{:?}", whole);
            }
        }

        /// `must_match` is sound: whenever it holds, the row filter keeps
        /// every row; and so is `may_match`: whenever some row matches, it
        /// holds. Blocks are narrowed so that the predicates, drawn around
        /// the block's own values, often hold on every row.
        #[test]
        fn must_match_never_holds_when_a_row_fails(seed in any::<u64>(), rows in 0usize..40) {
            let mut rng = StreamRng::from_seed(seed);
            let faults = narrow_block(&mut rng, rows);
            let zone = ZoneMap::of(&faults);
            for _ in 0..32 {
                let pred = random_tree(&mut rng, 4, &mut |rng| near_leaf(rng, &faults));
                if pred.must_match(&zone) {
                    prop_assert!(faults.iter().all(|f| pred.matches(f)), "{:?} on {:?}", pred, faults);
                }
                if faults.iter().any(|f| pred.matches(f)) {
                    prop_assert!(pred.may_match(&zone), "{:?} on {:?}", pred, faults);
                }
            }
        }
    }

    /// `rows` random faults, each of the node, time and bits columns
    /// narrowed at random: one node or one blade, one hour, one bit count.
    /// A fault may flip no bit at all (class one, direction mixed), which
    /// extraction never emits but decode accepts.
    fn narrow_block(rng: &mut StreamRng, rows: usize) -> Vec<Fault> {
        let mut faults: Vec<Fault> = (0..rows).map(|_| random_fault(rng)).collect();
        let node = rng.below(u64::from(TOTAL_NODES)) as u32;
        let (lo, hi) = blade_node_range(NodeId(node).blade().0 + 1);
        let hour = random_time(rng);
        let (narrow_node, narrow_blade, narrow_time, narrow_bits, unflipped) = (
            rng.chance(0.3),
            rng.chance(0.3),
            rng.chance(0.5),
            rng.chance(0.4),
            rng.chance(0.2),
        );
        let template = faults.first().copied();
        for f in &mut faults {
            if narrow_node {
                f.node = NodeId(node);
            } else if narrow_blade {
                f.node = NodeId(rng.range_inclusive(u64::from(lo), u64::from(hi)) as u32);
            }
            if narrow_time {
                f.time = SimTime::from_secs(hour + rng.below(3_600) as i64);
            }
            if narrow_bits {
                let t = template.expect("a fault exists");
                (f.expected, f.actual) = (t.expected, t.actual);
            }
            if unflipped && rng.chance(0.5) {
                f.actual = f.expected;
            }
        }
        faults
    }

    /// A leaf whose value comes from a random fault of `faults` (nudged by
    /// at most one), so that it often holds on a narrowed block; `all`, or
    /// a fully random leaf, some of the time.
    fn near_leaf(rng: &mut StreamRng, faults: &[Fault]) -> Pred {
        let Some(f) = faults.get(rng.below(faults.len().max(1) as u64) as usize) else {
            return random_leaf(rng);
        };
        if rng.chance(0.1) {
            return random_leaf(rng);
        }
        let nudge = |rng: &mut StreamRng, v: i64| v + rng.range_inclusive(0, 2) as i64 - 1;
        let bits = nudge(rng, i64::from(f.bits_corrupted())).max(0) as u32;
        let time = SimTime::from_secs(nudge(rng, f.time.as_secs()));
        match rng.below(15) {
            0 => Pred::All,
            1 => Pred::MultiBit,
            2 => Pred::Node(f.node),
            3 => Pred::Blade(f.node.blade().0 + 1),
            4 => Pred::Rack(f.node.blade().rack() + 1),
            5 => Pred::Class(f.bit_class()),
            6 => Pred::Dir(FlipDir::of(f)),
            7 => Pred::BitsEq(bits),
            8 => Pred::BitsGe(bits),
            9 => Pred::BitsLe(bits),
            10 => Pred::RawGe(nudge(rng, f.raw_logs as i64).max(0) as u64),
            11 => Pred::TimeGe(time),
            12 => Pred::TimeGt(time),
            13 => Pred::TimeLe(time),
            _ => Pred::TimeLt(time),
        }
    }

    /// The soundness property above is not vacuous: over narrowed blocks,
    /// `must_match` proves predicates of every leaf kind that `all` does
    /// not decide by itself.
    #[test]
    fn must_match_proves_leaves_of_every_kind() {
        let mut proven = std::collections::BTreeSet::new();
        for seed in 0..300 {
            let mut rng = StreamRng::from_seed(seed);
            let rows = rng.range_inclusive(1, 40) as usize;
            let faults = narrow_block(&mut rng, rows);
            let zone = ZoneMap::of(&faults);
            for _ in 0..32 {
                let leaf = near_leaf(&mut rng, &faults);
                if leaf.must_match(&zone) {
                    assert!(faults.iter().all(|f| leaf.matches(f)), "{leaf:?}");
                    let kind = format!("{leaf:?}");
                    proven.insert(kind[..kind.find('(').unwrap_or(kind.len())].to_string());
                }
                let not = Pred::Not(Box::new(leaf));
                if not.must_match(&zone) {
                    proven.insert("Not".to_string());
                }
            }
        }
        for kind in [
            "All", "MultiBit", "Node", "Blade", "Rack", "Class", "Dir", "BitsEq", "BitsGe",
            "BitsLe", "RawGe", "TimeGe", "TimeGt", "TimeLe", "TimeLt", "Not",
        ] {
            assert!(proven.contains(kind), "{kind} never proven: {proven:?}");
        }
    }

    #[test]
    fn day_counts_densely_over_a_narrow_span_and_sparsely_past_it() {
        // 300 rows over 3 days: dense, 3 slots from day -1.
        let narrow: Vec<Fault> = spread(300)
            .into_iter()
            .enumerate()
            .map(|(i, f)| Fault {
                time: SimTime::from_secs(i as i64 * 800 - 86_400),
                ..f
            })
            .collect();
        // 3 rows 10 days apart span 21 days, more than the rows: sparse.
        let wide: Vec<Fault> = spread(3)
            .into_iter()
            .enumerate()
            .map(|(i, f)| Fault {
                time: SimTime::from_secs(i as i64 * 10 * 86_400),
                ..f
            })
            .collect();
        let by_day = parse_query("group day").unwrap();
        let windowed = parse_query("group day where time>=1000").unwrap();
        for (faults, dense) in [(&narrow, true), (&wide, false)] {
            let b = block(faults);
            let sel = all_rows(faults.len());
            match keyed_counts(Dim::Day, &sel, &b) {
                Counts::Days { first, slots } => {
                    assert!(dense);
                    assert_eq!((first, slots.len()), (-1, 3));
                }
                Counts::Sparse(map) => {
                    assert!(!dense);
                    assert_eq!(map.len(), 3);
                }
                Counts::Dense(_) => panic!("day never counts into a fixed domain"),
            }
            for q in [&by_day, &windowed] {
                assert_eq!(render_one(q, scan(q, &b)), oracle(q, faults), "{q:?}");
            }
        }
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
        let b = block(&faults);
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
            // The row kernels and the whole-block path alike.
            for whole in [false, true] {
                let started = std::time::Instant::now();
                let got = render_one(&q, scan_block(&q, &b, whole));
                assert_eq!(got, want, "{q:?}");
                assert_eq!(got, oracle(&q, &faults), "{q:?}");
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(1),
                    "{q:?}"
                );
            }
        }
    }

    #[test]
    fn empty_block_scans_clean() {
        let b = block(&[]);
        for text in ["count where multibit", "count", "group day", "hist bits"] {
            let q = parse_query(text).unwrap();
            for whole in [false, true] {
                assert_eq!(
                    render_one(&q, scan_block(&q, &b, whole)),
                    oracle(&q, &[]),
                    "{text}"
                );
            }
        }
    }
}
