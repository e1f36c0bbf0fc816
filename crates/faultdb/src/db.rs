//! The query engine: open a database, plan (zone-map pruning), scan
//! (cached, CRC-checked, on the caller or the pool), aggregate
//! (deterministic merge).
//!
//! Execution follows the repo's §6 determinism contract: the planner
//! selects surviving blocks in index order and looks each up in the
//! block cache; a small scan whose blocks are all cached runs on the
//! calling thread, any other fans out over the worker pool
//! (`scan_on_caller`); and partial aggregates merge *in block order* —
//! so the result bytes are identical at any thread count. The
//! whole-system test (`tests/system_chaos.rs`) holds every answer a
//! loaded server gives to a single-threaded engine's.
//!
//! Blocks decode into columnar form ([`crate::encoding::Columns`]) and
//! stay columnar in the cache; the scan itself is the branch-free bitmap
//! kernels of [`crate::kernel`], not a per-row predicate walk. The
//! planner also marks each surviving block whose zone map proves every
//! row selected ([`crate::query::Pred::must_match`]); the scan answers
//! such a block from its row count or its cached all-rows counts, with
//! no row loop. A sharded database
//! ([`crate::shard::RootDb`]) plans and scans each shard the same way and
//! merges shard aggregates, so both engines share one scan path.
//!
//! A per-query deadline is checked once per block task; an expired
//! deadline aborts the scan with the typed [`DbError::Timeout`] (the
//! server maps it to `ERR timeout`). Corrupt blocks abort the same way
//! with [`DbError::BlockCorrupt`] — a damaged database refuses to
//! answer rather than answering wrong.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use uc_analysis::fault::Fault;

use crate::cache::{Block, BlockCache, CacheStats};
use crate::encoding::BlockEncoding;
use crate::error::DbError;
use crate::format::{self, Footer, MAGIC, TRAILER_LEN};
use crate::kernel::{self, Aggregate};
use crate::query::{parse_query, Query};
use crate::shard::Engine;
use crate::snapshot::Snapshot;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DbOptions {
    /// Decoded-block cache capacity, in blocks.
    pub cache_blocks: usize,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions { cache_blocks: 256 }
    }
}

/// Per-query execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOptions {
    /// Abort with [`DbError::Timeout`] once this instant passes.
    pub deadline: Option<Instant>,
}

/// A query's answer plus scan accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Rendered result lines — the server's wire payload.
    pub lines: Vec<String>,
    /// Rows matching the predicate.
    pub matched: u64,
    /// Shards in the database (1 for a single file).
    pub shards_total: u32,
    /// Shards that survived catalog-level pruning.
    pub shards_scanned: u32,
    /// Blocks across all scanned shards.
    pub blocks_total: u32,
    /// Blocks that survived zone-map pruning and were scanned.
    pub blocks_scanned: u32,
    /// Rows of the scanned blocks, whether or not the row loop ran: a
    /// block the zone map proves wholly selected is answered from its
    /// row count or its cached counts, and its rows count here too.
    pub rows_scanned: u64,
}

/// Per-engine scan accounting, merged additively across shards.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ScanAccounting {
    pub(crate) blocks_total: u32,
    pub(crate) blocks_scanned: u32,
    pub(crate) rows_scanned: u64,
}

/// Most rows a warm scan runs on the calling thread: the measured
/// crossover. Warm full scans on a 2-vCPU host, two workers against one
/// (wall time, median ratio over four query kinds × four runs), over
/// copies of a 48,960-row campaign database: 1.22 at 1×, 1.05 at 2×
/// (97,920 rows), 0.85 at 4×, 0.82 at 8× and 0.68 at 20×.
pub(crate) const CALLER_SCAN_ROWS: u64 = 100_000;

/// Whether a scan runs on the calling thread rather than fanning out
/// over the worker pool: only when every block it scans is already
/// decoded in the cache, and they hold at most [`CALLER_SCAN_ROWS`] rows.
/// A cold decode stays on the pool's threads: it allocates a block's
/// columns, and on a serving connection thread each such allocation
/// grows a malloc arena of that thread's own (§6).
pub(crate) fn scan_on_caller(warm: bool, rows: u64) -> bool {
    warm && rows <= CALLER_SCAN_ROWS
}

/// One block a query scans.
struct Survivor {
    index: u32,
    /// The decoded block, if the cache held it.
    cached: Option<Arc<Block>>,
    /// The zone map proves that every row matches the predicate.
    whole: bool,
}

/// The blocks one query scans on one file: those surviving zone-map
/// pruning, in index order. Taking it costs one counted cache lookup per
/// block.
pub(crate) struct Survivors {
    blocks: Vec<Survivor>,
    rows: u64,
}

impl Survivors {
    /// Every block is already decoded.
    pub(crate) fn warm(&self) -> bool {
        self.blocks.iter().all(|b| b.cached.is_some())
    }

    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }
}

/// One block's row in a query plan (`uc query --explain`).
#[derive(Clone, Copy, Debug)]
pub struct BlockPlan {
    pub index: u32,
    pub rows: u32,
    pub encoding: BlockEncoding,
    /// `false` means the zone map pruned the block.
    pub scan: bool,
    /// The zone map proves that every row matches, so the scan runs no
    /// row loop over the block.
    pub whole: bool,
}

/// An open, validated fault database (file fully resident in memory).
pub struct FaultDb {
    path: PathBuf,
    bytes: Vec<u8>,
    footer: Footer,
    cache: BlockCache,
}

impl FaultDb {
    pub fn open(path: &Path) -> Result<FaultDb, DbError> {
        FaultDb::open_with(path, &DbOptions::default())
    }

    /// Validate outside-in: magic, trailer bounds, footer CRC, footer
    /// structure. Block payloads are checked lazily, on first decode.
    pub fn open_with(path: &Path, opts: &DbOptions) -> Result<FaultDb, DbError> {
        let bytes = fs::read(path).map_err(|e| DbError::io(path, e))?;
        if bytes.len() < MAGIC.len() + TRAILER_LEN {
            return Err(DbError::TooShort {
                len: bytes.len() as u64,
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(DbError::BadMagic);
        }
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        let footer_off = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_len = u32::from_le_bytes(trailer[8..12].try_into().unwrap()) as u64;
        let footer_crc = u32::from_le_bytes(trailer[12..16].try_into().unwrap());
        let trailer_at = (bytes.len() - TRAILER_LEN) as u64;
        let footer_end = footer_off.checked_add(footer_len);
        if footer_off < MAGIC.len() as u64 || footer_end != Some(trailer_at) {
            return Err(DbError::BadFooter(format!(
                "trailer points outside the file (offset {footer_off}, len {footer_len})"
            )));
        }
        let footer_bytes = &bytes[footer_off as usize..(footer_off + footer_len) as usize];
        if uc_faultlog::durable::crc::crc32(footer_bytes) != footer_crc {
            return Err(DbError::BadFooter("footer CRC mismatch".into()));
        }
        let footer = format::decode_footer(footer_bytes, footer_off)?;
        Ok(FaultDb {
            path: path.to_path_buf(),
            bytes,
            footer,
            cache: BlockCache::new(opts.cache_blocks),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total faults stored.
    pub fn rows(&self) -> u64 {
        self.footer.total_rows
    }

    /// Block count.
    pub fn blocks(&self) -> u32 {
        self.footer.blocks.len() as u32
    }

    /// File size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn payload(&self, index: u32) -> &[u8] {
        let meta = &self.footer.blocks[index as usize];
        // decode_footer proved offset/len sit inside the block region.
        &self.bytes[meta.offset as usize..(meta.offset + meta.len as u64) as usize]
    }

    /// Decode one block the cache missed, and cache it.
    fn decode(&self, index: u32) -> Result<Arc<Block>, DbError> {
        let meta = &self.footer.blocks[index as usize];
        let columns = format::decode_block_columns(self.payload(index), meta)
            .map_err(|damage| DbError::BlockCorrupt { index, damage })?;
        let block = Arc::new(Block::new(columns, meta.zone));
        self.cache.insert(index, Arc::clone(&block));
        Ok(block)
    }

    /// Validate every block payload (CRC + layout + value decode) without
    /// keeping the rows — the deep check live fsck runs before promoting
    /// or trusting a generation file, where `open`'s outside-in pass only
    /// proves the footer. Returns the first damage found, in block order.
    pub fn verify_deep(&self) -> Result<(), DbError> {
        let indices: Vec<u32> = (0..self.blocks()).collect();
        let checked = uc_parallel::par_map(&indices, |_, &i| {
            let meta = &self.footer.blocks[i as usize];
            format::decode_block_columns(self.payload(i), meta)
                .map(drop)
                .map_err(|damage| DbError::BlockCorrupt { index: i, damage })
        });
        checked.into_iter().collect()
    }

    /// Decode every block (in order) — full CRC sweep. Bypasses the
    /// cache: a one-shot export should not evict a server's working set.
    pub fn faults_all(&self) -> Result<Vec<Fault>, DbError> {
        let indices: Vec<u32> = (0..self.blocks()).collect();
        let decoded = uc_parallel::par_map(&indices, |_, &i| {
            let meta = &self.footer.blocks[i as usize];
            format::decode_block(self.payload(i), meta)
                .map_err(|damage| DbError::BlockCorrupt { index: i, damage })
        });
        let mut out = Vec::with_capacity(self.rows() as usize);
        for block in decoded {
            out.extend(block?);
        }
        Ok(out)
    }

    /// Rebuild the full analyze [`Snapshot`] (faults + provenance).
    pub fn snapshot(&self) -> Result<Snapshot, DbError> {
        Ok(format::snapshot_from_parts(
            &self.footer.provenance,
            self.faults_all()?,
        ))
    }

    /// Parse and run a query.
    pub fn query(&self, text: &str, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        self.run(&parse_query(text)?, opts)
    }

    /// Run a parsed query: prune, scan, merge.
    pub fn run(&self, q: &Query, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        let survivors = self.survivors(q);
        let on_caller = scan_on_caller(survivors.warm(), survivors.rows());
        let (agg, acct) = self.scan(q, &survivors, opts, !on_caller)?;
        Ok(QueryResult {
            lines: agg.render(&q.action),
            matched: agg.matched,
            shards_total: 1,
            shards_scanned: 1,
            blocks_total: acct.blocks_total,
            blocks_scanned: acct.blocks_scanned,
            rows_scanned: acct.rows_scanned,
        })
    }

    /// Blocks surviving zone-map pruning, in index order, each looked up
    /// in the cache once and marked whole when its zone map proves it.
    pub(crate) fn survivors(&self, q: &Query) -> Survivors {
        let mut rows = 0;
        let blocks = self
            .footer
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| q.pred.may_match(&b.zone))
            .map(|(i, b)| {
                rows += u64::from(b.rows);
                Survivor {
                    index: i as u32,
                    cached: self.cache.get(i as u32),
                    whole: q.pred.must_match(&b.zone),
                }
            })
            .collect();
        Survivors { blocks, rows }
    }

    /// Scan the survivors into an unrendered aggregate, decoding the
    /// blocks the cache missed. `fan_out` scans blocks on the worker
    /// pool; partials merge in block order either way, so the aggregate
    /// is identical.
    pub(crate) fn scan(
        &self,
        q: &Query,
        survivors: &Survivors,
        opts: &QueryOptions,
        fan_out: bool,
    ) -> Result<(Aggregate, ScanAccounting), DbError> {
        let scan_one = |s: &Survivor| {
            if opts.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(DbError::Timeout);
            }
            let block = match &s.cached {
                Some(block) => Arc::clone(block),
                None => self.decode(s.index)?,
            };
            Ok(kernel::scan_block(q, &block, s.whole))
        };
        let partials: Vec<Result<kernel::Partial, DbError>> = if fan_out {
            uc_parallel::par_map(&survivors.blocks, |_, block| scan_one(block))
        } else {
            survivors.blocks.iter().map(scan_one).collect()
        };

        let mut agg = Aggregate::new();
        for partial in partials {
            agg.merge(partial?);
        }
        Ok((
            agg,
            ScanAccounting {
                blocks_total: self.blocks(),
                blocks_scanned: survivors.blocks.len() as u32,
                rows_scanned: survivors.rows,
            },
        ))
    }

    /// Pure planning for `--explain`: which blocks the zone maps keep,
    /// which of those they prove wholly selected, and how each is
    /// encoded. No payload is touched.
    pub fn plan(&self, q: &Query) -> Vec<BlockPlan> {
        self.footer
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let scan = q.pred.may_match(&b.zone);
                BlockPlan {
                    index: i as u32,
                    rows: b.rows,
                    encoding: b.encoding,
                    scan,
                    whole: scan && q.pred.must_match(&b.zone),
                }
            })
            .collect()
    }
}

/// A swappable reference to the currently-served database.
///
/// This is the snapshot-isolation primitive for live ingest: the query
/// server holds a `DbHandle` instead of a bare engine, and each request
/// clones the *current* engine once, up front. A generation seal swaps
/// the inner engine; requests already in flight keep scanning the
/// generation they started on, and every request sees exactly one
/// consistent generation — never a mix. The lock is held only for the
/// engine clone/swap, never across a scan.
///
/// The engine inside may be a single file or a sharded root catalog
/// ([`Engine`]); both answer the same queries identically.
#[derive(Clone)]
pub struct DbHandle {
    inner: Arc<parking_lot::RwLock<Engine>>,
}

impl DbHandle {
    pub fn new(db: impl Into<Engine>) -> DbHandle {
        DbHandle {
            inner: Arc::new(parking_lot::RwLock::new(db.into())),
        }
    }

    /// The generation to answer this request from.
    pub fn current(&self) -> Engine {
        self.inner.read().clone()
    }

    /// Publish a freshly sealed generation. In-flight queries are
    /// untouched; the next `current()` call sees the new one.
    pub fn swap(&self, db: impl Into<Engine>) {
        *self.inner.write() = db.into();
    }
}

impl From<Arc<FaultDb>> for DbHandle {
    fn from(db: Arc<FaultDb>) -> DbHandle {
        DbHandle::new(db)
    }
}

impl From<Engine> for DbHandle {
    fn from(engine: Engine) -> DbHandle {
        DbHandle::new(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{write_db, FileEncoding, WriteOptions, ZoneMap};
    use crate::kernel::render_fault;
    use uc_cluster::NodeId;
    use uc_simclock::SimTime;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-faultdb-db-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(n: usize) -> Snapshot {
        let faults = (0..n)
            .map(|i| Fault {
                node: NodeId((i % 60) as u32),
                time: SimTime::from_secs(i as i64 * 500),
                vaddr: 0x1000 + (i as u64 % 7) * 0x40,
                expected: 0xFFFF_FFFF,
                actual: if i % 5 == 0 { 0xFFFF_FFFC } else { 0xFFFF_FFFE },
                temp: if i % 3 == 0 {
                    Some(30.0 + i as f32)
                } else {
                    None
                },
                raw_logs: 1 + (i as u64 % 4),
            })
            .collect();
        Snapshot {
            faults,
            flood_nodes: vec![],
            stats: Default::default(),
            node_logs: 3,
            raw_records: n as u64,
            raw_errors: n as u64,
            day_volume: Default::default(),
        }
    }

    fn build(tag: &str, n: usize, rows_per_block: usize) -> FaultDb {
        build_enc(tag, n, rows_per_block, FileEncoding::V2)
    }

    fn build_enc(tag: &str, n: usize, rows_per_block: usize, encoding: FileEncoding) -> FaultDb {
        let path = build_file(tag, n, rows_per_block, encoding);
        // The database holds its bytes in memory; the file can go.
        let db = FaultDb::open(&path).unwrap();
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
        db
    }

    /// `snapshot(n)` written to a fresh directory; the file's path.
    fn build_file(tag: &str, n: usize, rows_per_block: usize, encoding: FileEncoding) -> PathBuf {
        let path = tempdir(tag).join("t.fdb");
        write_db(
            &snapshot(n),
            &path,
            &WriteOptions {
                rows_per_block,
                encoding,
            },
        )
        .unwrap();
        path
    }

    #[test]
    fn open_roundtrips_rows_and_counts() {
        let db = build("roundtrip", 1000, 64);
        assert_eq!(db.rows(), 1000);
        assert_eq!(db.blocks(), 16);
        assert_eq!(db.faults_all().unwrap(), snapshot(1000).faults);
        let r = db.query("count", &QueryOptions::default()).unwrap();
        assert_eq!(r.lines, vec!["1000".to_string()]);
        assert_eq!(r.blocks_scanned, 16);
    }

    #[test]
    fn v1_and_v2_files_answer_identically() {
        let v1 = build_enc("encv1", 700, 64, FileEncoding::V1);
        let v2 = build_enc("encv2", 700, 64, FileEncoding::V2);
        assert_eq!(v1.footer.version, 1);
        assert_eq!(v2.footer.version, 2);
        assert!(
            v2.size_bytes() < v1.size_bytes(),
            "v2 must compress this narrow-range sample ({} vs {})",
            v2.size_bytes(),
            v1.size_bytes()
        );
        for q in [
            "count",
            "count where multibit",
            "group class",
            "top 3 node",
            "hist bits",
            "list limit 5 where raw>=2",
        ] {
            let a = v1.query(q, &QueryOptions::default()).unwrap();
            let b = v2.query(q, &QueryOptions::default()).unwrap();
            assert_eq!(a.lines, b.lines, "{q}");
            assert_eq!(a.matched, b.matched, "{q}");
        }
        assert_eq!(v1.faults_all().unwrap(), v2.faults_all().unwrap());
    }

    #[test]
    fn time_window_prunes_blocks_and_counts_exactly() {
        let db = build("prune", 1000, 64);
        // Faults are time-ordered, 500 s apart; a narrow window hits few
        // blocks but the exact row count.
        let r = db
            .query(
                "count where time>=100000 and time<150000",
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(r.lines, vec!["100".to_string()]);
        assert!(
            r.blocks_scanned <= 3,
            "window spans ~100 rows = 2 blocks (+boundary), scanned {}",
            r.blocks_scanned
        );
        // Pruning never changes the answer: a filter over every row agrees.
        let want = db
            .faults_all()
            .unwrap()
            .iter()
            .filter(|f| (100_000..150_000).contains(&f.time.as_secs()))
            .count();
        assert_eq!(r.lines, vec![want.to_string()]);
    }

    #[test]
    fn plan_reports_pruning_without_scanning() {
        let db = build("plan", 1000, 64);
        let q = parse_query("count where time>=100000 and time<150000").unwrap();
        let plan = db.plan(&q);
        assert_eq!(plan.len(), db.blocks() as usize);
        // Planning must not decode payloads.
        assert_eq!(db.cache_stats().misses, 0);
        let kept = plan.iter().filter(|b| b.scan).count();
        let r = db
            .query(
                "count where time>=100000 and time<150000",
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(kept as u32, r.blocks_scanned);
        assert_eq!(db.cache_stats().misses, kept as u64);
    }

    #[test]
    fn aggregations_agree_with_a_flat_scan() {
        let db = build("aggs", 500, 32);
        let faults = snapshot(500).faults;
        let opts = QueryOptions::default();

        let hist = db.query("hist bits", &opts).unwrap();
        let ones = faults.iter().filter(|f| f.bits_corrupted() == 1).count();
        let twos = faults.iter().filter(|f| f.bits_corrupted() == 2).count();
        assert_eq!(hist.lines, vec![format!("1 {ones}"), format!("2 {twos}")]);

        let grouped = db.query("group class where multibit", &opts).unwrap();
        assert_eq!(grouped.lines, vec![format!("2 {twos}")]);

        let listed = db.query("list limit 3 where multibit", &opts).unwrap();
        let expect: Vec<String> = faults
            .iter()
            .filter(|f| f.is_multi_bit())
            .take(3)
            .map(render_fault)
            .collect();
        assert_eq!(listed.lines, expect);
        assert_eq!(listed.matched as usize, twos);

        let top = db.query("top 2 node", &opts).unwrap();
        assert_eq!(top.lines.len(), 2);
    }

    #[test]
    fn only_small_warm_scans_run_on_the_caller() {
        assert!(
            !scan_on_caller(false, 1),
            "a cold survivor goes to the pool"
        );
        assert!(scan_on_caller(true, CALLER_SCAN_ROWS));
        assert!(!scan_on_caller(true, CALLER_SCAN_ROWS + 1));

        // Survivors are warm once a query has decoded all of them.
        let db = build("warmth", 1000, 64);
        let q = parse_query("count where time>=400000").unwrap();
        let cold = db.survivors(&q);
        assert!(!cold.warm());
        assert_eq!(cold.rows(), 1000 - 768, "blocks 12..16 hold rows 768..1000");
        db.run(&q, &QueryOptions::default()).unwrap();
        assert!(db.survivors(&q).warm());
    }

    /// Every query runs cold on a freshly opened file, then warm; the
    /// answers and the cache counters must not depend on the thread
    /// limit. The larger file's full scans stay on the pool when warm.
    #[test]
    fn results_identical_across_thread_counts() {
        let large = CALLER_SCAN_ROWS as usize + 10_000;
        for (tag, n, rows_per_block) in [("threads", 2000, 128), ("threads-large", large, 4096)] {
            let path = build_file(tag, n, rows_per_block, FileEncoding::V2);
            let queries = [
                "count",
                "count where multibit",
                "group blade",
                "group hour",
                "top 5 node",
                "hist bits",
                "list limit 10 where time>=1000",
                "count where time>=100000 and time<150000",
            ];
            let runs = |threads| {
                uc_parallel::with_thread_limit(threads, || {
                    let mut out = Vec::new();
                    for q in queries {
                        let db = FaultDb::open(&path).unwrap();
                        for _ in 0..2 {
                            out.push((
                                db.query(q, &QueryOptions::default()).unwrap(),
                                db.cache_stats(),
                            ));
                        }
                    }
                    out
                })
            };
            let one = runs(1);
            for threads in [2, 8] {
                assert_eq!(runs(threads), one, "{tag} at {threads} threads");
            }
            fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn expired_deadline_is_a_typed_timeout() {
        let db = build("deadline", 200, 16);
        let opts = QueryOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        assert!(matches!(db.query("count", &opts), Err(DbError::Timeout)));
    }

    #[test]
    fn cache_hits_on_repeat_queries() {
        let db = build("cache", 500, 32);
        let opts = QueryOptions::default();
        db.query("count where raw>=1", &opts).unwrap();
        let cold = db.cache_stats();
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, db.blocks() as u64);
        db.query("count where raw>=1", &opts).unwrap();
        let warm = db.cache_stats();
        assert_eq!(warm.hits, db.blocks() as u64);
        assert_eq!(warm.misses, cold.misses);
    }

    /// A footer whose zone map is narrower than its block's rows, sealed
    /// under a recomputed CRC, passes `open`; every query that scans the
    /// block, and `verify_deep`, must name the damage instead of trusting
    /// the bounds (a whole-block answer, a dense `day` index).
    #[test]
    fn narrowed_zone_map_is_typed_block_damage() {
        let clean = build("zone-clean", 1000, 64);
        let bytes = clean.bytes.clone();
        let trailer_at = bytes.len() - TRAILER_LEN;
        let footer_off = clean
            .footer
            .blocks
            .last()
            .map_or(0, |b| b.offset + u64::from(b.len));
        let narrowings: [fn(&mut ZoneMap); 6] = [
            |z| z.min_time += 1,
            |z| z.max_time -= 1,
            |z| z.min_node += 1,
            |z| z.max_node -= 1,
            |z| z.class_map &= !1,
            |z| z.dir_map &= !1,
        ];
        for (k, narrow) in narrowings.iter().enumerate() {
            let damaged = 5u32;
            let mut footer = clean.footer.clone();
            narrow(&mut footer.blocks[damaged as usize].zone);
            let encoded = format::encode_footer(&footer);
            let mut bad = bytes[..footer_off as usize].to_vec();
            bad.extend_from_slice(&encoded);
            bad.extend_from_slice(&footer_off.to_le_bytes());
            bad.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
            bad.extend_from_slice(&uc_faultlog::durable::crc::crc32(&encoded).to_le_bytes());
            assert_eq!(bad.len(), trailer_at + TRAILER_LEN, "narrowing {k}");
            let path = tempdir(&format!("zone-{k}")).join("t.fdb");
            fs::write(&path, &bad).unwrap();
            let db = FaultDb::open(&path).unwrap();
            fs::remove_dir_all(path.parent().unwrap()).unwrap();
            let is_damage = |e: DbError| {
                matches!(
                    e,
                    DbError::BlockCorrupt {
                        index: 5,
                        damage: crate::error::BlockDamage::OutsideZone
                    }
                )
            };
            assert!(is_damage(db.verify_deep().unwrap_err()), "narrowing {k}");
            for text in [
                "count",
                "count where multibit",
                "count where not multibit",
                "group day",
                "group node",
                "hist bits",
                "top 3 node where time>=1000",
                "list limit 3 where time>=150000",
            ] {
                let q = parse_query(text).unwrap();
                if !db.plan(&q)[damaged as usize].scan {
                    continue;
                }
                // Cold, and again: a damaged block never enters the cache.
                for _ in 0..2 {
                    let err = db.run(&q, &QueryOptions::default()).unwrap_err();
                    assert!(is_damage(err), "narrowing {k}: {text}");
                }
            }
        }
    }

    #[test]
    fn empty_database_answers_empty() {
        let db = build("empty", 0, 64);
        assert_eq!(db.rows(), 0);
        let r = db.query("count", &QueryOptions::default()).unwrap();
        assert_eq!(r.lines, vec!["0".to_string()]);
        assert_eq!(db.faults_all().unwrap(), vec![]);
    }
}
