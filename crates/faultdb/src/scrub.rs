//! Rate-limited background scrubber for live directories.
//!
//! Latent sector corruption is only dangerous while it stays latent: a
//! damaged generation block discovered *at query time* is an outage, the
//! same block discovered by a background scrub is a non-event — because
//! the WAL is the record of truth and every generation is a disposable
//! index over it, a damaged generation is **repaired by resealing from
//! the WAL** — replayed into the same per-node carry states a live seal
//! reads — reproducing the original file byte for byte.
//!
//! One scrub pass, under the directory's PID lock:
//!
//! 1. **WAL segments** — every frame CRC re-verified by streaming the WAL
//!    through its reader (`wal::WalReader`). WAL damage is *reported,
//!    never mutated*: the WAL is the only copy of history, and salvage
//!    decisions belong to `uc fsck`.
//! 2. **Generation files** — every catalog entry through fsck's own
//!    generation check (`fsck::check_generation`: footer and every block
//!    CRC), on the same conservation ledger: every byte examined is still
//!    in the directory or in `.lost+found`. A damaged file's original
//!    bytes are quarantined.
//! 3. **Reseal** — the damaged generations are rebuilt in one more read
//!    of the WAL: the reader streams it into carry states in cursor order,
//!    and each generation is resealed at its recorded `(records, crc)`
//!    cursor. So a pass reads the WAL at most twice, however many
//!    generations it repairs. If the WAL cannot reproduce a cursor the
//!    generation is unrecoverable: the quarantined bytes are all that
//!    remains, and fsck's catalog repair (`Catalog::repair`) drops the
//!    entry and rolls the current pointer back if needed, so readers fail
//!    typed instead of reading garbage. A catalog left with no entry goes
//!    to `.lost+found` too, its bytes on the ledger.
//!
//! The scrubber throttles itself by bytes read (`max_bytes_per_sec`).
//! It takes the same lock a serving [`crate::LiveDb`] holds for its whole
//! lifetime, so it never runs beside a server: the background
//! [`Scrubber`] counts such rounds as busy skips and patrols the
//! directory while no server holds it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uc_faultlog::durable::ByteLedger;

use crate::catalog::{Catalog, GenEntry, LiveState};
use crate::error::DbError;
use crate::format::{write_db, WriteOptions};
use crate::fsck::{check_generation, gen_is_valid};
use crate::lock::LiveLock;
use crate::wal::WalReader;

/// Scrub tuning; `Default` repairs at full disk speed.
#[derive(Clone, Debug)]
pub struct ScrubConfig {
    /// Repair damaged generations (quarantine + reseal). `false` is a
    /// dry run: damage is detected and reported, nothing is touched.
    pub repair: bool,
    /// Throttle: sleep so sustained read bandwidth stays under this.
    /// `None` scrubs flat out.
    pub max_bytes_per_sec: Option<u64>,
}

impl Default for ScrubConfig {
    fn default() -> ScrubConfig {
        ScrubConfig {
            repair: true,
            max_bytes_per_sec: None,
        }
    }
}

/// What one scrub pass found and did. Conservation law: every byte of a
/// generation file or the catalog examined is accounted for — kept in
/// place, or moved to `.lost+found`.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// WAL segments scanned.
    pub wal_segments: u64,
    /// Intact WAL frames verified.
    pub wal_frames: u64,
    /// WAL bytes that failed frame CRCs (reported, not mutated; run
    /// `uc fsck` to salvage).
    pub wal_damaged_bytes: u64,
    /// Catalog entries examined.
    pub gens_checked: u64,
    /// Entries whose file deep-validated clean.
    pub gens_ok: u64,
    /// Damaged entries found (dry run counts them here too).
    pub gens_damaged: u64,
    /// Damaged entries rebuilt from the WAL, byte-identical.
    pub gens_repaired: u64,
    /// Damaged entries the WAL could not reproduce; original bytes are
    /// in `.lost+found`, the catalog entry is dropped.
    pub gens_unrecoverable: u64,
    /// Catalog repairs (dropped entries, current rollbacks, an emptied
    /// catalog quarantined).
    pub catalog_fixups: u64,
    /// Total bytes read (WAL + generations) — the throttled quantity.
    pub bytes_scanned: u64,
    /// Bytes of the generation files and the catalog: kept in place
    /// (valid files, a dry run's damaged ones, the catalog as loaded or
    /// rewritten), or moved to `.lost+found`.
    pub bytes: ByteLedger,
    /// Times the throttle put the scrubber to sleep.
    pub throttle_sleeps: u64,
}

impl ScrubReport {
    /// The fsck conservation law, applied to the generation pass.
    pub fn is_conserved(&self) -> bool {
        self.bytes.is_conserved()
    }

    /// Did this pass find anything wrong (repaired or not)?
    pub fn found_damage(&self) -> bool {
        self.gens_damaged > 0 || self.wal_damaged_bytes > 0
    }

    pub fn render(&self) -> String {
        format!(
            "scrub: wal[{} segments, {} frames ok, {} damaged bytes] \
             gens[{} checked, {} ok, {} damaged, {} repaired, {} unrecoverable] \
             catalog[{} fixups] {} conserved={}",
            self.wal_segments,
            self.wal_frames,
            self.wal_damaged_bytes,
            self.gens_checked,
            self.gens_ok,
            self.gens_damaged,
            self.gens_repaired,
            self.gens_unrecoverable,
            self.catalog_fixups,
            self.bytes,
            self.is_conserved(),
        )
    }
}

/// Records the WAL pass reads between throttle charges.
const THROTTLE_RECORDS: u64 = 4096;

/// Byte-budget throttle: charge what was read, sleep off the excess.
struct Throttle {
    rate: Option<u64>,
    window_start: Instant,
    window_bytes: u64,
    sleeps: u64,
}

impl Throttle {
    fn new(rate: Option<u64>) -> Throttle {
        Throttle {
            rate,
            window_start: Instant::now(),
            window_bytes: 0,
            sleeps: 0,
        }
    }

    fn charge(&mut self, bytes: u64) {
        let Some(rate) = self.rate else { return };
        let rate = rate.max(1);
        self.window_bytes += bytes;
        let owed = Duration::from_secs_f64(self.window_bytes as f64 / rate as f64);
        let elapsed = self.window_start.elapsed();
        if owed > elapsed {
            thread::sleep(owed - elapsed);
            self.sleeps += 1;
        }
    }
}

/// One full scrub pass over a live directory. Takes the directory's PID
/// lock for the duration — repairing generation files under a live
/// server would race seals; a busy directory returns [`DbError::Locked`]
/// (the background [`Scrubber`] treats that as "skip this round").
pub fn scrub_live_dir(dir: &Path, cfg: &ScrubConfig) -> Result<ScrubReport, DbError> {
    let _lock = LiveLock::acquire(dir)?;
    let mut report = ScrubReport::default();
    let mut throttle = Throttle::new(cfg.max_bytes_per_sec);

    // Pass 1 — WAL segments: verify every frame CRC, charging the
    // throttle as the reader goes.
    let mut wal = WalReader::new(dir);
    let mut taken = THROTTLE_RECORDS;
    while taken == THROTTLE_RECORDS {
        let read = wal.recovery().bytes;
        taken = wal.pump(THROTTLE_RECORDS, |_, _| {})?;
        throttle.charge(wal.recovery().bytes - read);
    }
    let found = wal.recovery();
    report.wal_segments = found.segments;
    report.wal_frames = found.frames;
    report.wal_damaged_bytes = found.torn_bytes;
    report.bytes_scanned = found.bytes;

    // Pass 2 — generation files, through the catalog (files the catalog
    // never heard of are fsck's department; scrub guards what queries
    // can actually reach).
    let Some(mut catalog) = Catalog::load(dir) else {
        report.throttle_sleeps = throttle.sleeps;
        return Ok(report);
    };
    let mut damaged: Vec<GenEntry> = Vec::new();
    for entry in &catalog.generations {
        report.gens_checked += 1;
        let len = std::fs::metadata(dir.join(&entry.file)).map_or(0, |m| m.len());
        report.bytes_scanned += len;
        throttle.charge(len);
        if check_generation(dir, &entry.file, cfg.repair, &mut report.bytes)?.is_some() {
            report.gens_ok += 1;
        } else {
            report.gens_damaged += 1;
            damaged.push(entry.clone());
        }
    }
    // Pass 3 — reseal; a dry run leaves the damaged bytes where they are.
    let dropped = if cfg.repair {
        reseal_from_wal(dir, damaged, &mut report, &mut throttle)?
    } else {
        Vec::new()
    };
    let keep = |g: &GenEntry| !dropped.contains(&g.index);
    if catalog.repair(dir, keep, &mut report.bytes)? {
        report.catalog_fixups += 1;
    }
    report.throttle_sleeps = throttle.sleeps;
    Ok(report)
}

/// Reseal `damaged` generations with one read of the WAL: stream it into
/// carry states in cursor order, resealing each generation once its
/// recorded record count is reached, and charging what the reader reads.
/// Returns the indexes of the generations the WAL cannot reproduce (too
/// few records, or a CRC that says the history differs — resealing would
/// fabricate a generation that never existed).
fn reseal_from_wal(
    dir: &Path,
    mut damaged: Vec<GenEntry>,
    report: &mut ScrubReport,
    throttle: &mut Throttle,
) -> Result<Vec<u64>, DbError> {
    damaged.sort_by_key(|g| g.records);
    let mut state = LiveState::default();
    let mut wal = WalReader::new(dir);
    let mut dropped = Vec::new();
    for entry in damaged {
        let before = wal.recovery().bytes;
        let limit = entry.records.saturating_sub(wal.seq.records);
        wal.pump(limit, |rec, _| state.fold(rec.node, &rec.line))?;
        let read = wal.recovery().bytes - before;
        report.bytes_scanned += read;
        throttle.charge(read);
        if wal.seq.records != entry.records || wal.seq.crc.finish() != entry.stream_crc {
            report.gens_unrecoverable += 1;
            dropped.push(entry.index);
            continue;
        }
        let path = dir.join(&entry.file);
        write_db(&state.snapshot(), &path, &WriteOptions::default())?;
        if !gen_is_valid(&path) {
            return Err(DbError::Catalog(format!(
                "rebuilt generation {} failed validation immediately",
                entry.file
            )));
        }
        report.bytes_scanned += std::fs::metadata(&path).map_or(0, |m| m.len());
        report.gens_repaired += 1;
    }
    Ok(dropped)
}

// ------------------------------------------------------------ scrubber

/// Background patrol: run [`scrub_live_dir`] every `interval`, skipping
/// rounds while the directory is busy (locked by a live server or an
/// fsck). Scrub results accumulate into counters a health endpoint can
/// poll; a pass that finds damage is the signal, not the outage.
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    rounds: Arc<AtomicU64>,
    busy_skips: Arc<AtomicU64>,
    repaired: Arc<AtomicU64>,
    last_render: Arc<parking_lot::Mutex<Option<String>>>,
    thread: Option<JoinHandle<()>>,
}

impl Scrubber {
    pub fn start(dir: &Path, interval: Duration, cfg: ScrubConfig) -> Scrubber {
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let busy_skips = Arc::new(AtomicU64::new(0));
        let repaired = Arc::new(AtomicU64::new(0));
        let last_render = Arc::new(parking_lot::Mutex::new(None));
        let thread = {
            let dir: PathBuf = dir.to_path_buf();
            let (stop, rounds, busy_skips, repaired, last_render) = (
                Arc::clone(&stop),
                Arc::clone(&rounds),
                Arc::clone(&busy_skips),
                Arc::clone(&repaired),
                Arc::clone(&last_render),
            );
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match scrub_live_dir(&dir, &cfg) {
                        Ok(report) => {
                            rounds.fetch_add(1, Ordering::Relaxed);
                            repaired.fetch_add(report.gens_repaired, Ordering::Relaxed);
                            *last_render.lock() = Some(report.render());
                        }
                        Err(DbError::Locked { .. }) => {
                            busy_skips.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            *last_render.lock() = Some(format!("scrub failed: {e}"));
                        }
                    }
                    let deadline = Instant::now() + interval;
                    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(10).min(interval));
                    }
                }
            })
        };
        Scrubber {
            stop,
            rounds,
            busy_skips,
            repaired,
            last_render,
            thread: Some(thread),
        }
    }

    /// Completed scrub rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Rounds skipped because the directory was locked.
    pub fn busy_skips(&self) -> u64 {
        self.busy_skips.load(Ordering::Relaxed)
    }

    /// Generations repaired across all rounds.
    pub fn repaired(&self) -> u64 {
        self.repaired.load(Ordering::Relaxed)
    }

    /// Rendered report of the most recent round.
    pub fn last_report(&self) -> Option<String> {
        self.last_render.lock().clone()
    }

    /// Stop the patrol and wait for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{gen_file_name, LiveDb, CATALOG_NAME};
    use std::fs;
    use uc_cluster::NodeId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-scrub-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    fn error_line(node: &str, t: i64) -> String {
        format!(
            "ERROR t={t} node={node} vaddr=0x00000400 page=0x000000 \
             expected=0xffffffff actual=0xfffffffe temp=33.0"
        )
    }

    fn seeded_dir(tag: &str) -> (PathBuf, u64) {
        let dir = tmpdir(tag);
        let (live, _) = LiveDb::open(&dir).unwrap();
        for i in 0..12 {
            live.ingest(n("01-01"), i, &error_line("01-01", 60 + i as i64 * 7200))
                .unwrap();
        }
        live.seal().unwrap();
        for i in 12..20 {
            live.ingest(n("01-01"), i, &error_line("01-01", 60 + i as i64 * 7200))
                .unwrap();
        }
        let status = live.seal().unwrap();
        (dir, status.generation)
    }

    #[test]
    fn clean_directory_scrubs_clean() {
        let (dir, _) = seeded_dir("clean");
        let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        // Three entries: the initial seal from `LiveDb::open` plus two
        // explicit ones.
        assert_eq!(report.gens_checked, 3);
        assert_eq!(report.gens_ok, 3);
        assert!(!report.found_damage(), "{}", report.render());
        assert!(report.is_conserved());
        assert!(report.wal_frames >= 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_generation_is_repaired_byte_identical() {
        let (dir, gen) = seeded_dir("repair");
        let path = dir.join(gen_file_name(gen));
        let original = fs::read(&path).unwrap();
        // Flip one byte mid-file (inside a block, past the header).
        let mut bytes = original.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        assert_eq!(report.gens_damaged, 1, "{}", report.render());
        assert_eq!(report.gens_repaired, 1);
        assert_eq!(report.gens_unrecoverable, 0);
        assert!(report.is_conserved());
        assert_eq!(
            fs::read(&path).unwrap(),
            original,
            "repair must reproduce the original file byte for byte"
        );
        // The damaged original is conserved in .lost+found.
        let quarantined = dir.join(".lost+found").join(gen_file_name(gen));
        assert_eq!(fs::read(quarantined).unwrap(), bytes);
        // Second pass: nothing left to do.
        let again = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        assert!(!again.found_damage());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_damaged_generations_are_resealed_from_two_reads_of_the_wal() {
        let (dir, _) = seeded_dir("two");
        let size = |path: &Path| fs::metadata(path).unwrap().len();
        let mut wal_bytes = 0;
        for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                wal_bytes += size(&entry.path());
            }
        }
        let cat = Catalog::load(&dir).unwrap();
        let gen_bytes: u64 = cat
            .generations
            .iter()
            .map(|g| size(&dir.join(&g.file)))
            .sum();
        let mut originals = Vec::new();
        for g in cat.generations.iter().filter(|g| g.records > 0) {
            let path = dir.join(&g.file);
            let bytes = fs::read(&path).unwrap();
            let mut damaged = bytes.clone();
            damaged[bytes.len() / 2] ^= 0xFF;
            fs::write(&path, &damaged).unwrap();
            originals.push((path, bytes));
        }
        assert_eq!(originals.len(), 2);

        let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        assert_eq!(
            (report.gens_damaged, report.gens_repaired),
            (2, 2),
            "{}",
            report.render()
        );
        assert!(report.is_conserved(), "{}", report.render());
        for (path, bytes) in &originals {
            assert_eq!(&fs::read(path).unwrap(), bytes, "{}", path.display());
        }
        // Past the generations read and the two resealed, every byte
        // scanned is a WAL byte: the verify pass and one reseal pass.
        let resealed: u64 = originals.iter().map(|(_, b)| b.len() as u64).sum();
        assert!(
            report.bytes_scanned <= 2 * wal_bytes + gen_bytes + resealed,
            "{} bytes scanned over a {wal_bytes}-byte WAL",
            report.bytes_scanned
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dry_run_reports_without_touching() {
        let (dir, gen) = seeded_dir("dry");
        let path = dir.join(gen_file_name(gen));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let cfg = ScrubConfig {
            repair: false,
            ..ScrubConfig::default()
        };
        let report = scrub_live_dir(&dir, &cfg).unwrap();
        assert_eq!(report.gens_damaged, 1);
        assert_eq!(report.gens_repaired, 0);
        assert!(report.is_conserved());
        assert_eq!(fs::read(&path).unwrap(), bytes, "dry run must not write");
        assert!(!dir.join(".lost+found").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrecoverable_generation_is_quarantined_and_dropped() {
        let (dir, gen) = seeded_dir("unrec");
        // Destroy the WAL history *and* the generation: the cursor can no
        // longer be reproduced, so the entry must be dropped, typed.
        for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") {
                fs::remove_file(entry.path()).unwrap();
            }
        }
        let path = dir.join(gen_file_name(gen));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        assert_eq!(report.gens_unrecoverable, 1, "{}", report.render());
        assert_eq!(report.catalog_fixups, 1);
        assert!(report.is_conserved());
        assert!(!path.exists());
        // The catalog no longer points at the dead generation.
        let cat = Catalog::load(&dir).unwrap();
        assert!(cat.entry(gen).is_none());
        assert_eq!(cat.current, cat.generations.iter().map(|g| g.index).max());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_emptied_catalog_is_quarantined_and_conserved() {
        let (dir, _) = seeded_dir("emptied");
        // Any WAL reproduces the empty first generation, so forget it;
        // then destroy the WAL and damage every generation left.
        let mut cat = Catalog::load(&dir).unwrap();
        cat.generations.retain(|g| g.records > 0);
        cat.save(&dir).unwrap();
        let cat_bytes = fs::read(dir.join(CATALOG_NAME)).unwrap();
        for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                fs::remove_file(entry.path()).unwrap();
            }
        }
        for g in &cat.generations {
            let path = dir.join(&g.file);
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            fs::write(&path, &bytes).unwrap();
        }

        let report = scrub_live_dir(&dir, &ScrubConfig::default()).unwrap();
        assert_eq!(report.gens_unrecoverable, 2, "{}", report.render());
        assert_eq!(report.catalog_fixups, 1);
        assert!(report.is_conserved(), "{}", report.render());
        assert!(!dir.join(CATALOG_NAME).exists());
        let lost = dir.join(".lost+found").join(CATALOG_NAME);
        assert_eq!(fs::read(lost).unwrap(), cat_bytes, "old catalog bytes kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn throttle_sleeps_when_rate_limited() {
        let (dir, _) = seeded_dir("rate");
        let cfg = ScrubConfig {
            repair: true,
            max_bytes_per_sec: Some(64 * 1024),
        };
        let report = scrub_live_dir(&dir, &cfg).unwrap();
        assert!(report.throttle_sleeps > 0, "{}", report.render());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrubber_daemon_patrols_and_skips_busy_dirs() {
        let (dir, gen) = seeded_dir("daemon");
        let path = dir.join(gen_file_name(gen));
        let original = fs::read(&path).unwrap();
        let mut bytes = original.clone();
        bytes[original.len() / 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let scrubber = Scrubber::start(&dir, Duration::from_millis(20), ScrubConfig::default());
        let deadline = Instant::now() + Duration::from_secs(10);
        while scrubber.repaired() == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(scrubber.repaired(), 1);
        assert!(scrubber.last_report().unwrap().contains("repaired"));
        assert_eq!(fs::read(&path).unwrap(), original);

        // While the directory is locked, rounds are skipped, not failed.
        let lock = LiveLock::acquire(&dir).unwrap();
        let skips_before = scrubber.busy_skips();
        let deadline = Instant::now() + Duration::from_secs(10);
        while scrubber.busy_skips() == skips_before && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert!(scrubber.busy_skips() > skips_before);
        drop(lock);
        scrubber.stop();
        fs::remove_dir_all(&dir).unwrap();
    }
}
