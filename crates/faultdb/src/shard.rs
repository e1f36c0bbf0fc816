//! Sharded faultdb: a root catalog (`UCFDBROOT`) over (time window ×
//! rack) segment files, each an ordinary UCFDB1 database.
//!
//! ```text
//! <dir>/ROOT               catalog: shard index + zone maps + provenance
//! <dir>/shard-00000.ucfdb  one (window, rack) cell, normal UCFDB1 file
//! <dir>/shard-00001.ucfdb  ...
//! ```
//!
//! The ROOT file is `magic "UCFDBROOT1\n" + body + crc32(body)`, sealed
//! with tmp + fsync + rename like every other artifact. The body holds,
//! per shard: its (window, rack) key, row count, file name, and a
//! shard-level [`ZoneMap`] — the planner consults those before opening a
//! byte of the shard, so a pruned shard costs one zone-map comparison.
//! The campaign's [`Provenance`] is stored once in the ROOT (shard files
//! carry an empty one): the root is the database, shards are its blocks.
//!
//! **Partitioning.** `write_sharded` splits the global fault stream
//! (sorted by `fault_sort_key`) into `windows` equal time slices, and
//! each slice by rack. Occupied cells become shards in (window, rack)
//! order. Because time is the leading sort-key field and a rack is a
//! function of the node (the second field), every shard's row stream is
//! itself sorted by `fault_sort_key`.
//!
//! **Determinism of the fan-out (§6).** Queries prune shards by the
//! catalog zone maps, scan survivors in order on the caller when the
//! single file's rule allows it (`scan_on_caller` over every surviving
//! block) or else on `par_map` (order-preserving; the per-shard scan is
//! sequential so shards, not blocks, are the unit of parallelism), and
//! merge per-shard aggregates *in shard order*. Counts,
//! histograms, and keyed counts are commutative sums, so any order gives
//! the same bytes; row lists are k-way merged on the fully discriminating
//! `fault_sort_key` (the `analysis::extract` merge), which reassembles
//! exactly the single-file row order: the key is total, and two faults
//! with equal keys would have landed in the same shard (same time ⇒ same
//! window, same node ⇒ same rack), so cross-shard ties cannot occur.
//! Hence every query answers byte-identically to the single-file engine
//! at any thread count — the differential suite in
//! `tests/shard_roundtrip.rs` proves it across encodings × shard counts
//! × thread limits.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uc_analysis::extract::merge_sorted_fault_streams;
use uc_analysis::fault::Fault;
use uc_faultlog::durable::crc::crc32;

use crate::cache::CacheStats;
use crate::db::{
    scan_on_caller, DbOptions, FaultDb, QueryOptions, QueryResult, ScanAccounting, Survivors,
};
use crate::error::DbError;
use crate::format::{self, Provenance, Reader, WriteOptions, ZoneMap};
use crate::kernel::{self, Aggregate};
use crate::query::{parse_query, Action, Query};
use crate::snapshot::Snapshot;

/// Root catalog magic.
pub const ROOT_MAGIC: &[u8; 11] = b"UCFDBROOT1\n";
/// Root catalog file name inside the shard directory.
pub const ROOT_FILE: &str = "ROOT";
/// Root catalog format version.
pub const ROOT_VERSION: u32 = 1;

/// One shard's entry in the root catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Time-window index (0-based).
    pub window: u32,
    /// 0-based rack number.
    pub rack: u32,
    /// Rows in the shard file.
    pub rows: u64,
    /// File name relative to the root directory.
    pub name: String,
    /// Shard-level zone map: the union of the shard's block zones.
    pub zone: ZoneMap,
}

/// Decoded root catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct RootCatalog {
    pub version: u32,
    /// How many time windows the build requested.
    pub windows: u32,
    pub total_rows: u64,
    pub shards: Vec<ShardEntry>,
    pub provenance: Provenance,
}

/// What a sharded build produced.
#[derive(Clone, Debug)]
pub struct RootWriteSummary {
    pub dir: PathBuf,
    pub rows: u64,
    pub shards: usize,
    pub bytes: u64,
}

/// Does this path look like a root catalog directory?
pub fn is_root_dir(path: &Path) -> bool {
    path.is_dir() && path.join(ROOT_FILE).is_file()
}

fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.ucfdb")
}

/// 0-based rack of a fault's node.
fn rack_of(f: &Fault) -> u32 {
    f.node.blade().rack()
}

// ---------------------------------------------------------------- encode

fn encode_root(catalog: &RootCatalog) -> Vec<u8> {
    let mut body = Vec::with_capacity(64 + catalog.shards.len() * 80);
    body.extend_from_slice(&catalog.version.to_le_bytes());
    body.extend_from_slice(&catalog.windows.to_le_bytes());
    body.extend_from_slice(&catalog.total_rows.to_le_bytes());
    body.extend_from_slice(&(catalog.shards.len() as u32).to_le_bytes());
    for s in &catalog.shards {
        body.extend_from_slice(&s.window.to_le_bytes());
        body.extend_from_slice(&s.rack.to_le_bytes());
        body.extend_from_slice(&s.rows.to_le_bytes());
        body.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
        body.extend_from_slice(s.name.as_bytes());
        body.extend_from_slice(&s.zone.min_time.to_le_bytes());
        body.extend_from_slice(&s.zone.max_time.to_le_bytes());
        body.extend_from_slice(&s.zone.min_node.to_le_bytes());
        body.extend_from_slice(&s.zone.max_node.to_le_bytes());
        body.extend_from_slice(&s.zone.min_vaddr.to_le_bytes());
        body.extend_from_slice(&s.zone.max_vaddr.to_le_bytes());
        body.push(s.zone.class_map);
        body.push(s.zone.dir_map);
    }
    format::encode_provenance(&mut body, &catalog.provenance);

    let mut out = Vec::with_capacity(ROOT_MAGIC.len() + body.len() + 4);
    out.extend_from_slice(ROOT_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

fn decode_root(bytes: &[u8]) -> Result<RootCatalog, DbError> {
    if bytes.len() < ROOT_MAGIC.len() + 4 {
        return Err(DbError::TooShort {
            len: bytes.len() as u64,
        });
    }
    if &bytes[..ROOT_MAGIC.len()] != ROOT_MAGIC {
        return Err(DbError::BadMagic);
    }
    let body = &bytes[ROOT_MAGIC.len()..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != crc {
        return Err(DbError::BadFooter("root catalog CRC mismatch".into()));
    }
    let mut r = Reader::new(body);
    let version = r.u32()?;
    if version != ROOT_VERSION {
        return Err(DbError::BadVersion(version));
    }
    let windows = r.u32()?;
    let total_rows = r.u64()?;
    let shard_count = r.u32()?;
    // Each entry is at least 66 bytes; bound the allocation.
    if (shard_count as usize).saturating_mul(66) > body.len() {
        return Err(DbError::BadFooter(format!(
            "shard count {shard_count} larger than the catalog"
        )));
    }
    let mut shards = Vec::with_capacity(shard_count as usize);
    let mut rows_sum = 0u64;
    for i in 0..shard_count {
        let window = r.u32()?;
        let rack = r.u32()?;
        let rows = r.u64()?;
        let name_len = r.u32()? as usize;
        if name_len > 255 {
            return Err(DbError::BadFooter(format!("shard {i} name too long")));
        }
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| DbError::BadFooter(format!("shard {i} name not UTF-8")))?;
        if name.contains(['/', '\\']) || name == ".." {
            return Err(DbError::BadFooter(format!(
                "shard {i} name {name:?} escapes the root directory"
            )));
        }
        let zone = ZoneMap {
            min_time: r.i64()?,
            max_time: r.i64()?,
            min_node: r.u32()?,
            max_node: r.u32()?,
            min_vaddr: r.u64()?,
            max_vaddr: r.u64()?,
            class_map: r.u8()?,
            dir_map: r.u8()?,
        };
        if rows == 0 {
            return Err(DbError::BadFooter(format!("shard {i} claims zero rows")));
        }
        rows_sum += rows;
        shards.push(ShardEntry {
            window,
            rack,
            rows,
            name,
            zone,
        });
    }
    if rows_sum != total_rows {
        return Err(DbError::BadFooter(format!(
            "row counts disagree: shards hold {rows_sum}, catalog claims {total_rows}"
        )));
    }
    let provenance = format::decode_provenance(&mut r)?;
    if !r.done() {
        return Err(DbError::BadFooter("trailing bytes after catalog".into()));
    }
    Ok(RootCatalog {
        version,
        windows,
        total_rows,
        shards,
        provenance,
    })
}

/// Partition a snapshot into (time window × rack) shards under `dir` and
/// seal the root catalog. Shard files are normal UCFDB1 databases (with
/// empty provenance); the snapshot's provenance is stored once in ROOT.
///
/// The split is pure arithmetic over the already-sorted fault stream, so
/// the resulting files are byte-identical at any thread count.
pub fn write_sharded(
    snapshot: &Snapshot,
    dir: &Path,
    windows: usize,
    opts: &WriteOptions,
) -> Result<RootWriteSummary, DbError> {
    let windows = windows.clamp(1, 1 << 16) as u32;
    fs::create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;

    // Assign each fault to its (window, rack) cell. Window width covers
    // the full observed span in `windows` equal slices; arithmetic in
    // i128 so adversarial timestamps cannot overflow.
    let faults = &snapshot.faults;
    let mut cells: std::collections::BTreeMap<(u32, u32), Vec<Fault>> =
        std::collections::BTreeMap::new();
    if !faults.is_empty() {
        let t_min = faults.iter().map(|f| f.time.as_secs()).min().unwrap();
        let t_max = faults.iter().map(|f| f.time.as_secs()).max().unwrap();
        let span = (t_max as i128 - t_min as i128) + 1;
        // Ceiling division; span and windows are both positive.
        let width = (span + windows as i128 - 1) / windows as i128;
        for f in faults {
            let w = ((f.time.as_secs() as i128 - t_min as i128) / width) as u32;
            cells.entry((w, rack_of(f))).or_default().push(*f);
        }
    }

    let mut entries = Vec::with_capacity(cells.len());
    let mut bytes = 0u64;
    for (i, ((window, rack), cell)) in cells.into_iter().enumerate() {
        let name = shard_file_name(i);
        let zone = ZoneMap::of(&cell);
        let rows = cell.len() as u64;
        let shard_snapshot = Snapshot {
            faults: cell,
            flood_nodes: vec![],
            stats: Default::default(),
            node_logs: 0,
            raw_records: 0,
            raw_errors: 0,
            day_volume: Default::default(),
        };
        let summary = format::write_db(&shard_snapshot, &dir.join(&name), opts)?;
        bytes += summary.bytes;
        entries.push(ShardEntry {
            window,
            rack,
            rows,
            name,
            zone,
        });
    }

    let catalog = RootCatalog {
        version: ROOT_VERSION,
        windows,
        total_rows: faults.len() as u64,
        shards: entries,
        provenance: Provenance {
            node_logs: snapshot.node_logs,
            raw_records: snapshot.raw_records,
            raw_errors: snapshot.raw_errors,
            stats: snapshot.stats,
            flood_nodes: snapshot.flood_nodes.clone(),
            day_volume: snapshot
                .day_volume
                .iter()
                .map(|(d, v)| (d, v.to_bits()))
                .collect(),
        },
    };
    let root_bytes = encode_root(&catalog);
    let tmp = dir.join(format!("{ROOT_FILE}.tmp"));
    let seal = || -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&root_bytes)?;
        f.sync_all()?;
        Ok(())
    };
    seal().map_err(|e| DbError::io(&tmp, e))?;
    fs::rename(&tmp, dir.join(ROOT_FILE)).map_err(|e| DbError::io(dir, e))?;

    Ok(RootWriteSummary {
        dir: dir.to_path_buf(),
        rows: catalog.total_rows,
        shards: catalog.shards.len(),
        bytes: bytes + root_bytes.len() as u64,
    })
}

// ---------------------------------------------------------------- engine

/// An open sharded database: the catalog plus every shard, with
/// per-shard scan counters for the server's STATS response.
pub struct RootDb {
    dir: PathBuf,
    catalog: RootCatalog,
    shards: Vec<FaultDb>,
    scan_counts: Vec<AtomicU64>,
}

impl std::fmt::Debug for RootDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootDb")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .field("rows", &self.catalog.total_rows)
            .finish()
    }
}

impl RootDb {
    pub fn open(dir: &Path) -> Result<RootDb, DbError> {
        RootDb::open_with(dir, &DbOptions::default())
    }

    /// Open the catalog and every shard. Validation mirrors the single
    /// file's outside-in pass: ROOT CRC and structure first, then each
    /// shard's own footer, then catalog-vs-shard row agreement.
    pub fn open_with(dir: &Path, opts: &DbOptions) -> Result<RootDb, DbError> {
        let root_path = dir.join(ROOT_FILE);
        let bytes = fs::read(&root_path).map_err(|e| DbError::io(&root_path, e))?;
        let catalog = decode_root(&bytes)?;
        let mut shards = Vec::with_capacity(catalog.shards.len());
        for entry in &catalog.shards {
            let db = FaultDb::open_with(&dir.join(&entry.name), opts)?;
            if db.rows() != entry.rows {
                return Err(DbError::BadFooter(format!(
                    "shard {} holds {} rows, catalog claims {}",
                    entry.name,
                    db.rows(),
                    entry.rows
                )));
            }
            shards.push(db);
        }
        let scan_counts = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(RootDb {
            dir: dir.to_path_buf(),
            catalog,
            shards,
            scan_counts,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn rows(&self) -> u64 {
        self.catalog.total_rows
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Blocks across all shards.
    pub fn blocks(&self) -> u32 {
        self.shards.iter().map(FaultDb::blocks).sum()
    }

    pub fn size_bytes(&self) -> u64 {
        self.shards.iter().map(FaultDb::size_bytes).sum()
    }

    /// Cache counters summed over shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let c = s.cache_stats();
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
        }
        total
    }

    /// How many times each shard has been scanned (not pruned) by a
    /// query, in shard order.
    pub fn scan_counts(&self) -> Vec<u64> {
        self.scan_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Shards surviving catalog-level zone pruning, in shard order.
    fn survivors(&self, q: &Query) -> Vec<usize> {
        self.catalog
            .shards
            .iter()
            .enumerate()
            .filter(|(_, e)| q.pred.may_match(&e.zone))
            .map(|(i, _)| i)
            .collect()
    }

    /// Parse and run a query.
    pub fn query(&self, text: &str, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        self.run(&parse_query(text)?, opts)
    }

    /// Run a parsed query: prune shards, scan them on the caller or fan
    /// out (the single file's rule over all surviving blocks), merge
    /// deterministically.
    pub fn run(&self, q: &Query, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        let survivors: Vec<(usize, Survivors)> = self
            .survivors(q)
            .into_iter()
            .map(|s| (s, self.shards[s].survivors(q)))
            .collect();
        let warm = survivors.iter().all(|(_, blocks)| blocks.warm());
        let rows = survivors.iter().map(|(_, blocks)| blocks.rows()).sum();
        let scan_shard = |(s, blocks): &(usize, Survivors)| {
            self.scan_counts[*s].fetch_add(1, Ordering::Relaxed);
            // Sequential inside the shard: shards are the unit of
            // parallelism, so the pool is never nested.
            self.shards[*s].scan(q, blocks, opts, false)
        };
        let partials: Vec<_> = if scan_on_caller(warm, rows) {
            survivors.iter().map(scan_shard).collect()
        } else {
            uc_parallel::par_map(&survivors, |_, shard| scan_shard(shard))
        };

        let mut aggs: Vec<Aggregate> = Vec::with_capacity(survivors.len());
        let mut acct = ScanAccounting {
            blocks_total: self.blocks(),
            ..Default::default()
        };
        for partial in partials {
            let (agg, a) = partial?;
            acct.blocks_scanned += a.blocks_scanned;
            acct.rows_scanned += a.rows_scanned;
            aggs.push(agg);
        }

        // Row lists need the k-way merge; everything else is a sum, and
        // sums are merged in shard (survivor) order anyway.
        let merged = if matches!(q.action, Action::List { .. }) {
            let mut streams = Vec::with_capacity(aggs.len());
            let mut total = Aggregate::new();
            for mut agg in aggs {
                streams.push(std::mem::take(&mut agg.rows));
                total.absorb(agg);
            }
            total.set_rows(merge_sorted_fault_streams(streams));
            total
        } else {
            let mut total = Aggregate::new();
            for agg in aggs {
                total.absorb(agg);
            }
            total
        };

        Ok(QueryResult {
            lines: merged.render(&q.action),
            matched: merged.matched,
            shards_total: self.shards.len() as u32,
            shards_scanned: survivors.len() as u32,
            blocks_total: acct.blocks_total,
            blocks_scanned: acct.blocks_scanned,
            rows_scanned: acct.rows_scanned,
        })
    }

    /// Validate every block of every shard (CRC + layout + values).
    pub fn verify_deep(&self) -> Result<(), DbError> {
        for s in &self.shards {
            s.verify_deep()?;
        }
        Ok(())
    }

    /// Rebuild the full analyze [`Snapshot`]: k-way merge the shard row
    /// streams (each sorted by `fault_sort_key`) under the root
    /// provenance. Byte-identical to the single-file snapshot.
    pub fn snapshot(&self) -> Result<Snapshot, DbError> {
        let streams = self
            .shards
            .iter()
            .map(FaultDb::faults_all)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(format::snapshot_from_parts(
            &self.catalog.provenance,
            merge_sorted_fault_streams(streams),
        ))
    }

    /// All faults in global sort order (the snapshot's fault stream).
    pub fn faults_all(&self) -> Result<Vec<Fault>, DbError> {
        let streams = self
            .shards
            .iter()
            .map(FaultDb::faults_all)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_sorted_fault_streams(streams))
    }
}

/// A query engine over either database shape. Cloning is cheap (two
/// words); the server's [`crate::db::DbHandle`] swaps whole engines.
#[derive(Clone)]
pub enum Engine {
    Single(Arc<FaultDb>),
    Root(Arc<RootDb>),
}

impl From<Arc<FaultDb>> for Engine {
    fn from(db: Arc<FaultDb>) -> Engine {
        Engine::Single(db)
    }
}

impl From<Arc<RootDb>> for Engine {
    fn from(db: Arc<RootDb>) -> Engine {
        Engine::Root(db)
    }
}

impl Engine {
    /// Open whichever shape lives at `path`: a directory containing a
    /// ROOT catalog opens sharded, anything else as a single file.
    pub fn open_auto(path: &Path) -> Result<Engine, DbError> {
        Engine::open_auto_with(path, &DbOptions::default())
    }

    pub fn open_auto_with(path: &Path, opts: &DbOptions) -> Result<Engine, DbError> {
        if is_root_dir(path) {
            Ok(Engine::Root(Arc::new(RootDb::open_with(path, opts)?)))
        } else {
            Ok(Engine::Single(Arc::new(FaultDb::open_with(path, opts)?)))
        }
    }

    pub fn query(&self, text: &str, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        match self {
            Engine::Single(db) => db.query(text, opts),
            Engine::Root(db) => db.query(text, opts),
        }
    }

    pub fn run(&self, q: &Query, opts: &QueryOptions) -> Result<QueryResult, DbError> {
        match self {
            Engine::Single(db) => db.run(q, opts),
            Engine::Root(db) => db.run(q, opts),
        }
    }

    /// Where the database lives: its file, or its root directory.
    pub fn path(&self) -> &Path {
        match self {
            Engine::Single(db) => db.path(),
            Engine::Root(db) => db.dir(),
        }
    }

    pub fn rows(&self) -> u64 {
        match self {
            Engine::Single(db) => db.rows(),
            Engine::Root(db) => db.rows(),
        }
    }

    pub fn blocks(&self) -> u32 {
        match self {
            Engine::Single(db) => db.blocks(),
            Engine::Root(db) => db.blocks(),
        }
    }

    pub fn size_bytes(&self) -> u64 {
        match self {
            Engine::Single(db) => db.size_bytes(),
            Engine::Root(db) => db.size_bytes(),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Engine::Single(db) => db.cache_stats(),
            Engine::Root(db) => db.cache_stats(),
        }
    }

    pub fn snapshot(&self) -> Result<Snapshot, DbError> {
        match self {
            Engine::Single(db) => db.snapshot(),
            Engine::Root(db) => db.snapshot(),
        }
    }

    pub fn verify_deep(&self) -> Result<(), DbError> {
        match self {
            Engine::Single(db) => db.verify_deep(),
            Engine::Root(db) => db.verify_deep(),
        }
    }

    /// Extra STATS lines for the server: shard topology and per-shard
    /// scan counts. Empty for a single-file engine.
    pub fn stats_lines(&self) -> Vec<String> {
        match self {
            Engine::Single(_) => vec![],
            Engine::Root(db) => {
                let mut lines = vec![format!("shards {}", db.shard_count())];
                for (entry, scans) in db.catalog.shards.iter().zip(db.scan_counts()) {
                    lines.push(format!(
                        "shard_scans {} window={} rack={} {scans}",
                        entry.name, entry.window, entry.rack
                    ));
                }
                lines
            }
        }
    }

    /// Render the query plan without scanning: shard pruning, block
    /// pruning, per-block encodings, and the kernel that would run.
    pub fn explain(&self, text: &str) -> Result<Vec<String>, DbError> {
        let q = parse_query(text)?;
        let mut lines = vec![format!("action {}", kernel::kernel_name(&q.action))];
        let file_plan = |lines: &mut Vec<String>, label: &str, db: &FaultDb| {
            let plan = db.plan(&q);
            let scanned = plan.iter().filter(|b| b.scan).count();
            lines.push(format!(
                "{label} blocks total={} pruned={} scanned={scanned}",
                plan.len(),
                plan.len() - scanned,
            ));
            for b in plan {
                lines.push(format!(
                    "{label} block {} rows={} enc={} {}",
                    b.index,
                    b.rows,
                    b.encoding.label(),
                    match (b.scan, b.whole) {
                        (true, true) => "whole",
                        (true, false) => "scan",
                        (false, _) => "prune",
                    }
                ));
            }
        };
        match self {
            Engine::Single(db) => {
                lines.push("shards total=1 pruned=0 scanned=1".to_string());
                file_plan(&mut lines, "shard 0", db);
            }
            Engine::Root(db) => {
                let survivors = db.survivors(&q);
                lines.push(format!(
                    "shards total={} pruned={} scanned={}",
                    db.shard_count(),
                    db.shard_count() - survivors.len(),
                    survivors.len()
                ));
                for (i, entry) in db.catalog.shards.iter().enumerate() {
                    let label = format!("shard {i}");
                    if survivors.contains(&i) {
                        lines.push(format!(
                            "{label} file={} window={} rack={} scan",
                            entry.name, entry.window, entry.rack
                        ));
                        file_plan(&mut lines, &label, &db.shards[i]);
                    } else {
                        lines.push(format!(
                            "{label} file={} window={} rack={} prune",
                            entry.name, entry.window, entry.rack
                        ));
                    }
                }
            }
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_cluster::NodeId;
    use uc_simclock::SimTime;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uc-faultdb-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(n: usize) -> Snapshot {
        let mut faults: Vec<Fault> = (0..n)
            .map(|i| Fault {
                // Spread nodes over both racks (rack = node/540).
                node: NodeId(((i * 97) % 1080) as u32),
                time: SimTime::from_secs((i as i64 * 977) % 500_000),
                vaddr: 0x1000 + (i as u64 % 13) * 0x40,
                expected: 0xFFFF_FFFF,
                actual: if i % 5 == 0 { 0xFFFF_FFFC } else { 0xFFFF_FFFE },
                temp: (i % 3 == 0).then_some(30.0 + (i % 50) as f32),
                raw_logs: 1 + (i as u64 % 4),
            })
            .collect();
        faults.sort_by_key(uc_analysis::extract::fault_sort_key);
        Snapshot {
            faults,
            flood_nodes: vec![NodeId(7)],
            stats: Default::default(),
            node_logs: 42,
            raw_records: n as u64 * 3,
            raw_errors: n as u64,
            day_volume: Default::default(),
        }
    }

    fn build_root(tag: &str, n: usize, windows: usize) -> (PathBuf, RootDb) {
        let dir = tempdir(tag);
        let snap = snapshot(n);
        write_sharded(
            &snap,
            &dir,
            windows,
            &WriteOptions {
                rows_per_block: 64,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        let db = RootDb::open(&dir).unwrap();
        (dir, db)
    }

    #[test]
    fn root_catalog_roundtrips() {
        let (dir, db) = build_root("roundtrip", 1000, 4);
        assert_eq!(db.rows(), 1000);
        assert!(db.shard_count() > 4, "windows × racks cells occupied");
        assert_eq!(db.catalog.windows, 4);
        let back = db.faults_all().unwrap();
        assert_eq!(back, snapshot(1000).faults, "merge restores sort order");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_answers_match_single_file() {
        let dir = tempdir("diff");
        let snap = snapshot(1200);
        let opts = WriteOptions {
            rows_per_block: 64,
            ..WriteOptions::default()
        };
        format::write_db(&snap, &dir.join("single.ucfdb"), &opts).unwrap();
        write_sharded(&snap, &dir.join("root"), 3, &opts).unwrap();
        let single = FaultDb::open(&dir.join("single.ucfdb")).unwrap();
        let root = RootDb::open(&dir.join("root")).unwrap();
        for q in [
            "count",
            "count where multibit",
            "count where rack=2",
            "group class",
            "group rack",
            "top 5 node",
            "hist bits",
            "list limit 20",
            "list limit 5 where time>=100000 and time<300000",
        ] {
            let a = single.query(q, &QueryOptions::default()).unwrap();
            let b = root.query(q, &QueryOptions::default()).unwrap();
            assert_eq!(a.lines, b.lines, "{q}");
            assert_eq!(a.matched, b.matched, "{q}");
        }
        // Snapshot (analyze --db) agrees byte-for-byte too.
        assert_eq!(
            single.snapshot().unwrap().report_text(),
            root.snapshot().unwrap().report_text()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_pruning_skips_whole_shards() {
        let (dir, db) = build_root("prune", 2000, 8);
        let r = db
            .query("count where rack=1", &QueryOptions::default())
            .unwrap();
        assert!(
            r.shards_scanned < r.shards_total,
            "rack predicate must prune rack-disjoint shards ({}/{})",
            r.shards_scanned,
            r.shards_total
        );
        // Pruning is conservative: the count matches a filter over every row.
        let want = db
            .faults_all()
            .unwrap()
            .iter()
            .filter(|f| f.node.blade().rack() == 0)
            .count();
        assert_eq!(r.lines, vec![want.to_string()]);
        // Scan counters moved only for scanned shards.
        let scans: u64 = db.scan_counts().iter().sum();
        assert_eq!(scans, r.shards_scanned as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn root_results_identical_across_thread_counts() {
        let (dir, db) = build_root("threads", 1500, 5);
        for q in [
            "count where multibit",
            "group rack",
            "list limit 10",
            "hist bits",
        ] {
            let one = uc_parallel::with_thread_limit(1, || db.query(q, &QueryOptions::default()))
                .unwrap();
            let eight = uc_parallel::with_thread_limit(8, || db.query(q, &QueryOptions::default()))
                .unwrap();
            assert_eq!(one, eight, "{q}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_root_crc_is_typed() {
        let (dir, _db) = build_root("crc", 300, 2);
        let root_path = dir.join(ROOT_FILE);
        let mut bytes = fs::read(&root_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&root_path, &bytes).unwrap();
        match RootDb::open(&dir) {
            Err(DbError::BadFooter(_)) | Err(DbError::BadMagic) | Err(DbError::BadVersion(_)) => {}
            other => panic!("damaged ROOT must be typed, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_row_disagreement_is_typed() {
        let (dir, _db) = build_root("rows", 300, 2);
        // Overwrite shard 0 with a shard holding different rows.
        let snap = snapshot(7);
        format::write_db(
            &snap,
            &dir.join(shard_file_name(0)),
            &WriteOptions::default(),
        )
        .unwrap();
        match RootDb::open(&dir) {
            Err(DbError::BadFooter(msg)) => assert!(msg.contains("catalog claims"), "{msg}"),
            other => panic!("row disagreement must be typed, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_reports_pruning_without_scanning() {
        let (dir, db) = build_root("explain", 1000, 4);
        let engine = Engine::Root(Arc::new(db));
        let lines = engine.explain("count where rack=1").unwrap();
        assert!(lines[0].contains("count/popcount"), "{:?}", lines[0]);
        assert!(lines[1].starts_with("shards total="), "{:?}", lines[1]);
        assert!(lines.iter().any(|l| l.ends_with(" prune")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("enc=")), "{lines:?}");
        // Shards split by rack, so every surviving block is wholly rack 1.
        let blocks = |lines: &[String], mark: &str| {
            lines
                .iter()
                .filter(|l| l.contains(" block ") && l.ends_with(mark))
                .count()
        };
        assert!(blocks(&lines, " whole") > 0, "{lines:?}");
        assert_eq!(blocks(&lines, " scan"), 0, "{lines:?}");
        // A window covers its inner blocks whole and cuts its edge blocks.
        let window = engine
            .explain("group day where time>=100000 and time<400000")
            .unwrap();
        assert!(blocks(&window, " whole") > 0, "{window:?}");
        assert!(blocks(&window, " scan") > 0, "{window:?}");
        // Planning decodes nothing.
        assert_eq!(engine.cache_stats().misses, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_builds_an_empty_root() {
        let dir = tempdir("empty");
        let snap = Snapshot {
            faults: vec![],
            flood_nodes: vec![],
            stats: Default::default(),
            node_logs: 0,
            raw_records: 0,
            raw_errors: 0,
            day_volume: Default::default(),
        };
        write_sharded(&snap, &dir, 4, &WriteOptions::default()).unwrap();
        let db = RootDb::open(&dir).unwrap();
        assert_eq!(db.rows(), 0);
        assert_eq!(db.shard_count(), 0);
        let r = db.query("count", &QueryOptions::default()).unwrap();
        assert_eq!(r.lines, vec!["0".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
