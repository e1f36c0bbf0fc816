//! `uc fsck` for every kind of directory, and the generation check the
//! scrubber shares. Every pass keeps the durable layer's conservation
//! ledger ([`ByteLedger`]) and moves whole files to `.lost+found` through
//! its one quarantine move ([`quarantine_file`]).

use std::path::Path;

use uc_faultlog::durable::{fsck_dir, quarantine_file, ByteLedger, FsckReport};

use crate::catalog::{gen_index_of_name, is_live_dir, Catalog, GenEntry, CATALOG_NAME};
use crate::db::FaultDb;
use crate::error::DbError;
use crate::lock::LiveLock;
use crate::shard::{is_root_dir, RootDb};

/// Deep-validate one generation file: footer *and* every block CRC.
pub(crate) fn gen_is_valid(path: &Path) -> bool {
    FaultDb::open(path).is_ok_and(|db| db.verify_deep().is_ok())
}

/// The generation check of fsck and scrub alike, for a sealed generation
/// or the `.tmp` of a crashed seal; its bytes go on `ledger`. A clean
/// file is kept, a clean `.tmp` under its sealed name (`write_db` crashed
/// between fsync and rename): that name. A missing or damaged file, or a
/// `.tmp` beside its sealed copy (the rename happened, or raced the
/// crash), goes to `.lost+found` if `repair` is set: `None`.
pub(crate) fn check_generation(
    dir: &Path,
    name: &str,
    repair: bool,
    ledger: &mut ByteLedger,
) -> Result<Option<String>, DbError> {
    let path = dir.join(name);
    let sealed = name.strip_suffix(".tmp");
    let valid = !sealed.is_some_and(|s| dir.join(s).exists()) && gen_is_valid(&path);
    if !valid && repair && path.exists() {
        quarantine_file(dir, &path, ledger)?;
        return Ok(None);
    }
    ledger.keep(std::fs::metadata(&path).map_or(0, |m| m.len()));
    if !valid {
        return Ok(None);
    }
    if let Some(sealed) = sealed {
        std::fs::rename(&path, dir.join(sealed)).map_err(|e| DbError::io(&path, e))?;
    }
    Ok(Some(sealed.unwrap_or(name).to_string()))
}

/// What [`fsck`] found and did in one directory. The passes its kind
/// does not get leave their fields empty.
#[derive(Clone, Debug, Default)]
pub struct DirFsckReport {
    /// A live directory: the WAL, generation and catalog passes ran.
    pub live: bool,
    /// The durable passes: over a live directory's WAL segments, or over
    /// any other directory but a sharded root, and its `.checkpoints`.
    pub durable: FsckReport,
    /// Generation files examined (sealed and `.tmp`).
    pub gens_checked: u64,
    /// Complete-but-unrenamed `gen-*.ucfdb.tmp` promoted to sealed names.
    pub gens_promoted: u64,
    /// Generation files (either form) quarantined whole.
    pub gens_quarantined: u64,
    /// Catalog repairs: current pointer rolled back to the newest
    /// surviving generation, or dead entries dropped.
    pub catalog_rollbacks: u64,
    /// The catalog file itself was unparseable and was quarantined.
    pub catalog_quarantined: bool,
    /// Torn database seals moved to `.lost+found`, with their sizes.
    pub torn_seals: Vec<(String, u64)>,
    /// A sharded root's shards, rows and blocks, every CRC verified.
    pub root: Option<(usize, u64, u32)>,
    /// Bytes of generation files, the catalog, and torn seals.
    pub bytes: ByteLedger,
}

impl DirFsckReport {
    /// The conservation law, over every pass that ran.
    pub fn is_conserved(&self) -> bool {
        self.durable.is_conserved() && self.bytes.is_conserved()
    }

    /// Multi-line summary, as `uc fsck` prints it: each pass that ran,
    /// then the ledger over all of them when there is more than one.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .torn_seals
            .iter()
            .map(|(name, len)| {
                format!("quarantined torn db seal {name} ({len} bytes) to .lost+found")
            })
            .collect();
        lines.push(match self.root {
            Some((shards, rows, blocks)) => format!(
                "root: {shards} shards, {rows} rows, {blocks} blocks — \
                 catalog and every block CRC verified"
            ),
            None => self.durable.summary(),
        });
        if self.live {
            lines.push(format!(
                "gens: {} checked, {} promoted, {} quarantined; catalog: {} rollbacks{}",
                self.gens_checked,
                self.gens_promoted,
                self.gens_quarantined,
                self.catalog_rollbacks,
                if self.catalog_quarantined {
                    ", quarantined"
                } else {
                    ""
                },
            ));
        }
        if self.live || !self.torn_seals.is_empty() {
            let mut total = self.durable.bytes;
            total.merge(&self.bytes);
            lines.push(format!("total {total} conserved={}", self.is_conserved()));
        }
        lines.join("\n")
    }
}

/// Repair a live directory after a crash at any point. Idempotent; a
/// second run finds nothing to do. Takes the directory's PID lock for
/// the duration — repairing files under a live server would race every
/// invariant this function restores.
pub fn fsck_live_dir(dir: &Path) -> Result<DirFsckReport, DbError> {
    let _lock = if dir.is_dir() {
        Some(LiveLock::acquire(dir)?)
    } else {
        None // let the durable pass report the missing directory
    };
    let mut report = DirFsckReport {
        live: true,
        // Pass 1 — the WAL is a plain durable directory to `fsck_dir`:
        // salvage torn segments, promote orphan tmps, rebuild MANIFEST.
        durable: fsck_dir(dir)?,
        ..DirFsckReport::default()
    };

    // Pass 2 — generation files, every `.tmp` first: each is judged
    // against the sealed copies the crash left, before any moves.
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| DbError::io(dir, e))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| gen_index_of_name(name).is_some())
        .collect();
    names.sort_by_key(|name| (!name.ends_with(".tmp"), name.clone()));
    let mut surviving: Vec<String> = Vec::new();
    for name in names {
        report.gens_checked += 1;
        match check_generation(dir, &name, true, &mut report.bytes)? {
            Some(kept) => {
                report.gens_promoted += u64::from(kept != name);
                surviving.push(kept);
            }
            None => report.gens_quarantined += 1,
        }
    }

    // Pass 3 — the catalog must only reference generations that exist.
    let cat_path = dir.join(CATALOG_NAME);
    match Catalog::load(dir) {
        Some(mut cat) => {
            let keep = |g: &GenEntry| surviving.contains(&g.file);
            if cat.repair(dir, keep, &mut report.bytes)? {
                report.catalog_rollbacks += 1;
            }
        }
        None if cat_path.exists() => {
            quarantine_file(dir, &cat_path, &mut report.bytes)?;
            report.catalog_quarantined = true;
        }
        None => {}
    }
    // A stale `CATALOG.tmp` from a crashed save: the sealed catalog (or
    // its absence) is authoritative; the tmp is unpublished work.
    let cat_tmp = dir.join(format!("{CATALOG_NAME}.tmp"));
    if cat_tmp.exists() {
        quarantine_file(dir, &cat_tmp, &mut report.bytes)?;
    }
    Ok(report)
}

/// `uc fsck <dir>`: repair `dir` by its kind. A live directory (WAL
/// segments, generations, `CATALOG`) gets [`fsck_live_dir`]. Any other
/// directory first has its torn database seals moved to `.lost+found`:
/// the `*.ucfdb.tmp` or `ROOT.tmp` a crash leaves in a writer's
/// write-then-rename window (an interrupted seal never damages a sealed
/// database). Then a sharded root is deep-verified, and anything else
/// gets the durable pass ([`fsck_dir`]) over itself and its
/// `.checkpoints`.
pub fn fsck(dir: &Path) -> Result<DirFsckReport, DbError> {
    if is_live_dir(dir) {
        return fsck_live_dir(dir);
    }
    let mut report = DirFsckReport::default();
    // An unreadable directory is the durable pass's to report.
    let mut seals: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.ends_with(".ucfdb.tmp") || name == "ROOT.tmp")
        .collect();
    seals.sort();
    for name in seals {
        let len = quarantine_file(dir, &dir.join(&name), &mut report.bytes)?;
        report.torn_seals.push((name, len));
    }
    if is_root_dir(dir) {
        let db = RootDb::open(dir)?;
        db.verify_deep()?;
        report.root = Some((db.shard_count(), db.rows(), db.blocks()));
        return Ok(report);
    }
    report.durable = fsck_dir(dir)?;
    let checkpoints = dir.join(".checkpoints");
    if checkpoints.is_dir() {
        report.durable.merge(&fsck_dir(&checkpoints)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{gen_file_name, LiveDb};
    use std::fs;
    use std::path::PathBuf;
    use uc_cluster::NodeId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    fn error_line(node: &str, t: i64, actual: &str) -> String {
        format!(
            "ERROR t={t} node={node} vaddr=0x00000400 page=0x000000 \
             expected=0xffffffff actual={actual} temp=33.0"
        )
    }

    #[test]
    fn fsck_promotes_complete_gen_tmp_and_rolls_back_catalog() {
        let dir = tmpdir("fsck-gen");
        let (live, _) = LiveDb::open(&dir).unwrap();
        for i in 0..3 {
            live.ingest(
                n("01-01"),
                i,
                &error_line("01-01", 60 + i as i64 * 7200, "0xfffffffe"),
            )
            .unwrap();
        }
        live.seal().unwrap();
        drop(live);

        // Fabricate a crash mid-seal of gen 3: complete bytes under the
        // tmp name (rename never happened), catalog still naming gen 2.
        let g2 = fs::read(dir.join(gen_file_name(2))).unwrap();
        fs::write(dir.join(format!("{}.tmp", gen_file_name(3))), &g2).unwrap();
        // And a torn tmp for gen 4 (first half only).
        fs::write(
            dir.join(format!("{}.tmp", gen_file_name(4))),
            &g2[..g2.len() / 2],
        )
        .unwrap();
        // And quarantine bait: corrupt sealed gen 1 (flip a payload byte).
        let g1path = dir.join(gen_file_name(1));
        let mut g1 = fs::read(&g1path).unwrap();
        let mid = g1.len() / 2;
        g1[mid] ^= 0xFF;
        fs::write(&g1path, &g1).unwrap();

        let report = fsck_live_dir(&dir).unwrap();
        assert!(report.is_conserved(), "{}", report.render());
        assert_eq!(report.gens_promoted, 1, "complete tmp promoted");
        assert!(report.gens_quarantined >= 2, "torn tmp + corrupt sealed");
        assert!(dir.join(gen_file_name(3)).exists());
        assert!(!dir.join(format!("{}.tmp", gen_file_name(4))).exists());
        // Catalog dropped the dead gen-1 entry.
        let cat = Catalog::load(&dir).unwrap();
        assert!(cat.entry(1).is_none());
        assert_eq!(cat.current, Some(2));

        // Second run: nothing left to repair.
        let again = fsck_live_dir(&dir).unwrap();
        assert!(again.is_conserved());
        assert_eq!(again.gens_promoted + again.gens_quarantined, 0);

        // And the live db still opens and serves the right answer.
        let (live2, _) = LiveDb::open(&dir).unwrap();
        assert_eq!(live2.status().records, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_quarantines_damaged_catalog() {
        let dir = tmpdir("fsck-cat");
        let (live, _) = LiveDb::open(&dir).unwrap();
        live.ingest(n("01-01"), 0, &error_line("01-01", 60, "0xfffffffe"))
            .unwrap();
        live.seal().unwrap();
        drop(live);
        fs::write(
            dir.join(CATALOG_NAME),
            b"UCCAT1\ngarbage that is not a catalog\n",
        )
        .unwrap();
        let report = fsck_live_dir(&dir).unwrap();
        assert!(report.catalog_quarantined);
        assert!(report.is_conserved(), "{}", report.render());
        assert!(!dir.join(CATALOG_NAME).exists());
        // Open reseals from the WAL; records survive.
        let (live2, report2) = LiveDb::open(&dir).unwrap();
        assert!(!report2.served_existing);
        assert_eq!(live2.status().records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_moves_only_torn_db_seals() {
        let dir = tmpdir("seals");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("out.ucfdb.tmp"), b"torn half-written seal").unwrap();
        fs::write(dir.join("keep.ucfdb"), b"sealed").unwrap();
        fs::write(dir.join("unrelated.txt"), b"hi").unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.torn_seals, vec![("out.ucfdb.tmp".to_string(), 22)]);
        assert_eq!(report.bytes.quarantined, 22);
        assert!(report.is_conserved(), "{}", report.render());
        assert!(!dir.join("out.ucfdb.tmp").exists());
        assert!(dir.join(".lost+found").join("out.ucfdb.tmp").is_file());
        assert!(dir.join("keep.ucfdb").is_file());
        assert!(dir.join("unrelated.txt").is_file());
        // Idempotent: a second pass finds nothing.
        assert!(fsck(&dir).unwrap().torn_seals.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
