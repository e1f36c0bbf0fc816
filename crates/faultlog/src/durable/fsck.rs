//! `uc fsck` — verify and salvage a durable directory.
//!
//! The recovery contract, mirroring what the paper's operators had to do
//! by hand after hard reboots tore log files mid-write:
//!
//! - every durable file (`*.dlog`, `*.ckpt`, and their unsealed `*.tmp`
//!   forms) is verified: manifest digest first when available, frame scan
//!   otherwise;
//! - a torn file keeps its **longest valid frame prefix** in place; the
//!   damaged tail is moved — never deleted — to `<dir>/.lost+found`;
//! - an unsealed `.tmp` with no sealed sibling (crash before rename) is
//!   salvaged the same way and then promoted to its sealed name; a `.tmp`
//!   *with* a sealed sibling (crash during rename, or a chaos-duplicated
//!   segment) is quarantined whole as a duplicate;
//! - the manifest is rebuilt to describe exactly the surviving segments;
//! - accounting obeys the conservation law
//!   **`bytes_in == bytes_salvaged + bytes_quarantined`**: fsck relocates
//!   bytes, it never destroys them. The running totals are persisted in
//!   `<dir>/.fsck.report`, which `uc analyze` folds into its
//!   [`IngestStats`](crate::ingest::IngestStats).
//!
//! The law and the move are shared with every other repair in the repo
//! (live fsck, the scrubber, torn database seals): [`ByteLedger`] is the
//! one ledger, and [`quarantine_file_with`] the one way a whole file enters
//! `.lost+found`.
//!
//! fsck never panics on any directory contents; unusable *directories*
//! (missing, not a directory) are typed [`DurabilityError`]s.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use super::crc::crc32;
use super::io::{with_retry, Io, RetryPolicy, StdIo};
use super::manifest::{read_manifest, write_manifest, Manifest, ManifestEntry};
use super::segment::{scan_segment_bytes, MAGIC};
use super::DurabilityError;

/// Quarantine subdirectory for damaged tails and unsalvageable files.
pub const LOST_AND_FOUND: &str = ".lost+found";

/// Accounting file fsck leaves behind (and accumulates across runs).
pub const FSCK_REPORT_NAME: &str = ".fsck.report";

const REPORT_MAGIC: &str = "UCFSCK1";

/// The conservation ledger of a repair: every byte it examines is either
/// still in the directory or in `.lost+found`, never destroyed. A byte
/// goes on the ledger once, when its fate is decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteLedger {
    /// Bytes examined.
    pub examined: u64,
    /// Of those, bytes left in place.
    pub kept: u64,
    /// Of those, bytes moved to `.lost+found`.
    pub quarantined: u64,
}

impl ByteLedger {
    /// The conservation law: `examined == kept + quarantined`.
    pub fn is_conserved(&self) -> bool {
        self.examined == self.kept + self.quarantined
    }

    /// `n` bytes examined and left in place.
    pub fn keep(&mut self, n: u64) {
        self.examined += n;
        self.kept += n;
    }

    fn quarantine(&mut self, n: u64) {
        self.examined += n;
        self.quarantined += n;
    }

    /// Add another ledger's counts to this one.
    pub fn merge(&mut self, other: &ByteLedger) {
        self.examined += other.examined;
        self.kept += other.kept;
        self.quarantined += other.quarantined;
    }
}

/// `bytes[E in = K kept + Q quarantined]`, as every repair prints it.
impl fmt::Display for ByteLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bytes[{} in = {} kept + {} quarantined]",
            self.examined, self.kept, self.quarantined
        )
    }
}

/// What one fsck pass (or the accumulated history of passes, when read
/// back from `.fsck.report`) found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Durable files examined (sealed and unsealed).
    pub files_checked: u64,
    /// Files verified intact, nothing moved.
    pub files_clean: u64,
    /// Files whose valid prefix was kept and tail quarantined.
    pub files_salvaged: u64,
    /// Files with no salvageable prefix, quarantined whole.
    pub files_quarantined: u64,
    /// Unsealed `.tmp` files promoted to their sealed names.
    pub tmp_promoted: u64,
    /// `.tmp` files shadowed by a sealed sibling, quarantined whole.
    pub duplicate_segments: u64,
    /// Sealed segments whose manifest digest did not match (bit rot).
    pub digest_mismatches: u64,
    /// Manifest entries whose segment is gone from disk.
    pub manifest_missing_files: u64,
    /// Times the manifest was rewritten to match the surviving state.
    pub manifest_rebuilds: u64,
    /// Bytes of durable files: examined, retained in place (valid
    /// prefixes and clean files), and relocated to `.lost+found`.
    pub bytes: ByteLedger,
}

impl FsckReport {
    /// The conservation law: every examined byte is either still in the
    /// directory or in `.lost+found` — fsck never destroys data.
    pub fn is_conserved(&self) -> bool {
        self.bytes.is_conserved()
    }

    /// Field-wise accumulation (used to fold a new pass into the
    /// persisted history).
    pub fn merge(&mut self, other: &FsckReport) {
        self.files_checked += other.files_checked;
        self.files_clean += other.files_clean;
        self.files_salvaged += other.files_salvaged;
        self.files_quarantined += other.files_quarantined;
        self.tmp_promoted += other.tmp_promoted;
        self.duplicate_segments += other.duplicate_segments;
        self.digest_mismatches += other.digest_mismatches;
        self.manifest_missing_files += other.manifest_missing_files;
        self.manifest_rebuilds += other.manifest_rebuilds;
        self.bytes.merge(&other.bytes);
    }

    /// True when this pass found any damage at all.
    pub fn found_damage(&self) -> bool {
        self.files_salvaged
            + self.files_quarantined
            + self.duplicate_segments
            + self.digest_mismatches
            + self.manifest_missing_files
            > 0
    }

    /// Human-readable multi-line summary, as `uc fsck` prints it.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "fsck: {} durable files checked: {} clean, {} salvaged, {} quarantined\n",
            self.files_checked, self.files_clean, self.files_salvaged, self.files_quarantined
        ));
        if self.tmp_promoted + self.duplicate_segments > 0 {
            s.push_str(&format!(
                "fsck: {} unsealed tmp(s) promoted, {} duplicate segment(s) quarantined\n",
                self.tmp_promoted, self.duplicate_segments
            ));
        }
        if self.digest_mismatches + self.manifest_missing_files > 0 {
            s.push_str(&format!(
                "fsck: {} digest mismatch(es), {} manifest entry(ies) with no file\n",
                self.digest_mismatches, self.manifest_missing_files
            ));
        }
        s.push_str(&format!(
            "fsck: {} conserved={}",
            self.bytes,
            self.is_conserved()
        ));
        s
    }

    /// Serialize for `.fsck.report`.
    pub fn to_report_text(&self) -> String {
        format!(
            "{REPORT_MAGIC}\n\
             files_checked={}\nfiles_clean={}\nfiles_salvaged={}\nfiles_quarantined={}\n\
             tmp_promoted={}\nduplicate_segments={}\ndigest_mismatches={}\n\
             manifest_missing_files={}\nmanifest_rebuilds={}\n\
             bytes_in={}\nbytes_salvaged={}\nbytes_quarantined={}\n",
            self.files_checked,
            self.files_clean,
            self.files_salvaged,
            self.files_quarantined,
            self.tmp_promoted,
            self.duplicate_segments,
            self.digest_mismatches,
            self.manifest_missing_files,
            self.manifest_rebuilds,
            self.bytes.examined,
            self.bytes.kept,
            self.bytes.quarantined,
        )
    }

    /// Parse `.fsck.report` text; `None` when it is not a report.
    /// Unknown keys are ignored so the format can grow.
    pub fn parse_report_text(text: &str) -> Option<FsckReport> {
        let mut lines = text.lines();
        if lines.next()?.trim() != REPORT_MAGIC {
            return None;
        }
        let mut r = FsckReport::default();
        for line in lines {
            let Some((k, v)) = line.trim().split_once('=') else {
                continue;
            };
            let Ok(v) = v.parse::<u64>() else { continue };
            match k {
                "files_checked" => r.files_checked = v,
                "files_clean" => r.files_clean = v,
                "files_salvaged" => r.files_salvaged = v,
                "files_quarantined" => r.files_quarantined = v,
                "tmp_promoted" => r.tmp_promoted = v,
                "duplicate_segments" => r.duplicate_segments = v,
                "digest_mismatches" => r.digest_mismatches = v,
                "manifest_missing_files" => r.manifest_missing_files = v,
                "manifest_rebuilds" => r.manifest_rebuilds = v,
                "bytes_in" => r.bytes.examined = v,
                "bytes_salvaged" => r.bytes.kept = v,
                "bytes_quarantined" => r.bytes.quarantined = v,
                _ => {}
            }
        }
        Some(r)
    }
}

/// Read the accumulated fsck accounting a directory carries, if any.
pub fn read_fsck_report(dir: &Path) -> Option<FsckReport> {
    let text = fs::read_to_string(dir.join(FSCK_REPORT_NAME)).ok()?;
    FsckReport::parse_report_text(&text)
}

/// Is this a sealed durable file name fsck should verify?
fn is_sealed_name(name: &str) -> bool {
    name.ends_with(".dlog") || name.ends_with(".ckpt")
}

/// Is this an unsealed (crash-survivor) durable tmp name?
fn is_tmp_name(name: &str) -> bool {
    name.ends_with(".dlog.tmp") || name.ends_with(".ckpt.tmp")
}

/// A non-colliding destination inside `.lost+found`: `hint` itself, or
/// `hint.N` for the first free `N` once earlier repairs used the name.
fn quarantine_dest(lf: &Path, hint: &str) -> PathBuf {
    let base = lf.join(hint);
    if !base.exists() {
        return base;
    }
    for i in 1u32.. {
        let p = lf.join(format!("{hint}.{i}"));
        if !p.exists() {
            return p;
        }
    }
    unreachable!("u32 quarantine suffixes exhausted")
}

/// [`quarantine_file_with`] through the production backend.
pub fn quarantine_file(
    dir: &Path,
    path: &Path,
    ledger: &mut ByteLedger,
) -> Result<u64, DurabilityError> {
    quarantine_file_with(dir, path, ledger, &StdIo, RetryPolicy::default())
}

/// Move the file at `path` whole into `<dir>/.lost+found`, under its own
/// name or the first free `<name>.N`, so a file an earlier repair put
/// there is never overwritten. One [`Io::rename`] under `policy`: the
/// bytes are never read or copied. Its size goes on `ledger` as examined
/// and quarantined, and is returned.
pub fn quarantine_file_with(
    dir: &Path,
    path: &Path,
    ledger: &mut ByteLedger,
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<u64, DurabilityError> {
    let lf = dir.join(LOST_AND_FOUND);
    if !lf.is_dir() {
        with_retry(&policy, &lf, || io.create_dir_all(&lf))?;
    }
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let dest = quarantine_dest(&lf, &name);
    let len = fs::metadata(path).map_or(0, |m| m.len());
    with_retry(&policy, path, || io.rename(path, &dest))?;
    ledger.quarantine(len);
    Ok(len)
}

struct Fsck<'a> {
    dir: &'a Path,
    io: &'a dyn Io,
    policy: RetryPolicy,
    report: FsckReport,
}

impl Fsck<'_> {
    /// Verify/salvage the file at `path`, leaving its longest valid
    /// prefix under `keep_name` (equal to the file's own name for sealed
    /// segments; the sealed name for a promoted tmp). Returns the kept
    /// file name, or `None` when nothing was salvageable.
    fn salvage(&mut self, path: &Path, keep_name: &str) -> Result<Option<String>, DurabilityError> {
        let bytes = with_retry(&self.policy, path, || self.io.read(path))?;
        let scan = scan_segment_bytes(&bytes);
        if scan.valid_bytes < MAGIC.len() as u64 {
            // Bad magic: not (or no longer) a durable segment at all.
            let ledger = &mut self.report.bytes;
            quarantine_file_with(self.dir, path, ledger, self.io, self.policy)?;
            self.report.files_quarantined += 1;
            return Ok(None);
        }
        let keep_path = self.dir.join(keep_name);
        let promoted = path != keep_path;
        if scan.torn_bytes() > 0 {
            // The damaged tail is copied to .lost+found; the valid prefix
            // is rewritten via tmp + rename so a crash mid-salvage leaves
            // a state the next fsck pass repairs the same way.
            let (io, policy) = (self.io, &self.policy);
            let (prefix, tail) = bytes.split_at(scan.valid_bytes as usize);
            let lf = self.dir.join(LOST_AND_FOUND);
            with_retry(policy, &lf, || io.create_dir_all(&lf))?;
            let dest = quarantine_dest(&lf, &format!("{keep_name}.tail"));
            with_retry(policy, &dest, || io.write_file(&dest, tail))?;
            self.report.bytes.quarantine(tail.len() as u64);
            // For a promoted tmp this overwrites the torn original in
            // place; for a sealed file the rename replaces it atomically.
            let tmp = self.dir.join(format!("{keep_name}.tmp"));
            with_retry(policy, &tmp, || io.write_file(&tmp, prefix))?;
            with_retry(policy, &tmp, || io.sync(&tmp))?;
            with_retry(policy, &tmp, || io.rename(&tmp, &keep_path))?;
            self.report.files_salvaged += 1;
            self.report.bytes.keep(scan.valid_bytes);
        } else {
            if promoted {
                let (io, policy) = (self.io, &self.policy);
                with_retry(policy, path, || io.rename(path, &keep_path))?;
            }
            self.report.files_clean += 1;
            self.report.bytes.keep(bytes.len() as u64);
        }
        if promoted {
            self.report.tmp_promoted += 1;
        }
        Ok(Some(keep_name.to_string()))
    }
}

/// Verify and repair a durable directory with the production backend.
pub fn fsck_dir(dir: &Path) -> Result<FsckReport, DurabilityError> {
    fsck_dir_with(dir, &StdIo, RetryPolicy::default())
}

/// Verify and repair a durable directory through an injected [`Io`].
pub fn fsck_dir_with(
    dir: &Path,
    io: &dyn Io,
    policy: RetryPolicy,
) -> Result<FsckReport, DurabilityError> {
    if !dir.exists() {
        return Err(DurabilityError::Missing(dir.to_path_buf()));
    }
    if !dir.is_dir() {
        return Err(DurabilityError::NotADirectory(dir.to_path_buf()));
    }
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| DurabilityError::Io {
            path: dir.to_path_buf(),
            attempts: 1,
            source: e,
        })?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();

    let old_manifest = read_manifest(dir, io);
    let mut fsck = Fsck {
        dir,
        io,
        policy,
        report: FsckReport::default(),
    };
    let mut kept: BTreeSet<String> = BTreeSet::new();

    // Pass 1: unsealed tmp files — duplicates of a sealed sibling are
    // quarantined whole; orphans are salvaged and promoted.
    for name in names.iter().filter(|n| is_tmp_name(n)) {
        let sealed_name = name.strip_suffix(".tmp").expect("is_tmp_name checked");
        let path = dir.join(name);
        fsck.report.files_checked += 1;
        if names.binary_search(&sealed_name.to_string()).is_ok() {
            quarantine_file_with(dir, &path, &mut fsck.report.bytes, io, policy)?;
            fsck.report.duplicate_segments += 1;
        } else if let Some(kept_name) = fsck.salvage(&path, sealed_name)? {
            kept.insert(kept_name);
        }
    }

    // Pass 2: sealed segments. A matching manifest digest certifies the
    // file outright; otherwise (no manifest, no entry, or a mismatch —
    // bit rot) fall back to a frame scan and salvage.
    for name in names.iter().filter(|n| is_sealed_name(n)) {
        let path = dir.join(name);
        fsck.report.files_checked += 1;
        let entry = old_manifest.as_ref().and_then(|m| m.get(name));
        let bytes_on_disk = with_retry(&fsck.policy, &path, || io.read(&path))?;
        let certified = entry.is_some_and(|e| {
            e.bytes == bytes_on_disk.len() as u64 && e.crc == crc32(&bytes_on_disk)
        });
        if certified {
            fsck.report.bytes.keep(bytes_on_disk.len() as u64);
            fsck.report.files_clean += 1;
            kept.insert(name.clone());
            continue;
        }
        if entry.is_some() {
            fsck.report.digest_mismatches += 1;
        }
        if let Some(kept_name) = fsck.salvage(&path, name)? {
            kept.insert(kept_name);
        }
    }

    // Pass 3: manifest entries whose file is gone entirely.
    if let Some(m) = &old_manifest {
        for e in &m.entries {
            if !kept.contains(&e.file) && !dir.join(&e.file).exists() {
                fsck.report.manifest_missing_files += 1;
            }
        }
    }

    // Rebuild the manifest to describe exactly the surviving segments.
    let mut rebuilt = Manifest::default();
    for name in &kept {
        let bytes = with_retry(&fsck.policy, &dir.join(name), || io.read(&dir.join(name)))?;
        rebuilt.upsert(ManifestEntry {
            file: name.clone(),
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
        });
    }
    if old_manifest.as_ref() != Some(&rebuilt) {
        write_manifest(dir, &rebuilt, io, &fsck.policy)?;
        fsck.report.manifest_rebuilds = 1;
    }

    // Fold this pass into the directory's accumulated accounting.
    let report = fsck.report;
    let mut history = read_fsck_report(dir).unwrap_or_default();
    history.merge(&report);
    let report_path = dir.join(FSCK_REPORT_NAME);
    with_retry(&policy, &report_path, || {
        io.write_file(&report_path, history.to_report_text().as_bytes())
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::manifest::MANIFEST_NAME;
    use crate::durable::segment::SegmentWriter;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uc-durable-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_dir(dir: &Path, files: &[(&str, &[&[u8]])]) -> Manifest {
        let io = StdIo;
        let mut m = Manifest::default();
        for (name, records) in files {
            let mut w = SegmentWriter::create(dir, name, &io, RetryPolicy::no_retry()).unwrap();
            for r in *records {
                w.append(r);
                w.flush().unwrap();
            }
            let sealed = w.seal().unwrap();
            m.upsert(ManifestEntry {
                file: sealed.file_name,
                bytes: sealed.bytes,
                crc: sealed.digest,
            });
        }
        write_manifest(dir, &m, &io, &RetryPolicy::no_retry()).unwrap();
        m
    }

    #[test]
    fn clean_directory_verifies_clean() {
        let dir = tmpdir("clean");
        write_dir(&dir, &[("a.dlog", &[b"r1", b"r2"]), ("b.dlog", &[b"r3"])]);
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert!(!r.found_damage());
        assert_eq!(r.files_checked, 2);
        assert_eq!(r.files_clean, 2);
        assert_eq!(r.bytes.quarantined, 0);
        assert!(!dir.join(LOST_AND_FOUND).exists());
        // Idempotent: a second pass is equally clean.
        let r2 = fsck_dir(&dir).unwrap();
        assert!(!r2.found_damage());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_sealed_file_keeps_prefix_and_quarantines_tail() {
        let dir = tmpdir("torn");
        write_dir(&dir, &[("a.dlog", &[b"keep1", b"keep2", b"lost"])]);
        let path = dir.join("a.dlog");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.files_salvaged, 1);
        assert_eq!(r.digest_mismatches, 1);
        assert!(r.bytes.quarantined > 0);
        let scan = scan_segment_bytes(&fs::read(&path).unwrap());
        assert!(scan.damage.is_none());
        assert_eq!(scan.payloads, vec![b"keep1".to_vec(), b"keep2".to_vec()]);
        assert!(dir.join(LOST_AND_FOUND).join("a.dlog.tail").exists());
        // The rebuilt manifest certifies the salvaged file: next pass is clean.
        let r2 = fsck_dir(&dir).unwrap();
        assert!(!r2.found_damage());
        assert_eq!(r2.files_clean, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_tmp_is_salvaged_and_promoted() {
        let dir = tmpdir("promote");
        write_dir(&dir, &[("a.dlog", &[b"x", b"y"])]);
        // Simulate a crash before seal: the data exists only as a torn tmp.
        let bytes = fs::read(dir.join("a.dlog")).unwrap();
        fs::write(dir.join("b.dlog.tmp"), &bytes[..bytes.len() - 2]).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.tmp_promoted, 1);
        assert_eq!(r.files_salvaged, 1);
        assert!(dir.join("b.dlog").exists());
        assert!(!dir.join("b.dlog.tmp").exists());
        let scan = scan_segment_bytes(&fs::read(dir.join("b.dlog")).unwrap());
        assert!(scan.damage.is_none());
        assert_eq!(scan.payloads, vec![b"x".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_tmp_with_sealed_sibling_is_quarantined() {
        let dir = tmpdir("dup");
        write_dir(&dir, &[("a.dlog", &[b"x"])]);
        let bytes = fs::read(dir.join("a.dlog")).unwrap();
        fs::write(dir.join("a.dlog.tmp"), &bytes).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.duplicate_segments, 1);
        assert_eq!(r.files_clean, 1);
        assert!(!dir.join("a.dlog.tmp").exists());
        assert!(dir.join(LOST_AND_FOUND).join("a.dlog.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A whole-file quarantine is one rename, retried through transient
    /// failures, and never lands on a file an earlier pass put there.
    #[cfg(unix)]
    #[test]
    fn duplicate_tmp_is_renamed_aside_an_earlier_copy_with_retries() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("rename");
        write_dir(&dir, &[("a.dlog", &[b"x"])]);
        let bytes = fs::read(dir.join("a.dlog")).unwrap();
        let lf = dir.join(LOST_AND_FOUND);
        fs::create_dir_all(&lf).unwrap();
        fs::write(lf.join("a.dlog.tmp"), b"an earlier pass's copy").unwrap();
        fs::write(dir.join("a.dlog.tmp"), &bytes).unwrap();
        let inode = fs::metadata(dir.join("a.dlog.tmp")).unwrap().ino();
        // `.lost+found` exists, so the pass's first write is the rename.
        let io = crate::durable::FlakyIo::failing_first(2);
        let r = fsck_dir_with(&dir, &io, RetryPolicy::immediate(3)).unwrap();
        assert_eq!(io.injected_failures(), 2);
        assert!(r.is_conserved(), "{}", r.summary());
        assert_eq!(r.duplicate_segments, 1);
        assert_eq!(r.bytes.quarantined, bytes.len() as u64);
        assert_eq!(
            fs::read(lf.join("a.dlog.tmp")).unwrap(),
            b"an earlier pass's copy"
        );
        let moved = lf.join("a.dlog.tmp.1");
        assert_eq!(fs::read(&moved).unwrap(), bytes);
        assert_eq!(
            fs::metadata(&moved).unwrap().ino(),
            inode,
            "moved, not copied"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_inside_sealed_segment_is_found_via_digest() {
        let dir = tmpdir("rot");
        write_dir(&dir, &[("a.dlog", &[b"alpha", b"beta", b"gamma"])]);
        let path = dir.join("a.dlog");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.digest_mismatches, 1);
        assert!(r.files_salvaged + r.files_quarantined == 1);
        // Whatever survived is a valid segment again.
        let scan = scan_segment_bytes(&fs::read(&path).unwrap());
        assert!(scan.damage.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_segment_garbage_is_quarantined_whole() {
        let dir = tmpdir("garbage");
        write_dir(&dir, &[("a.dlog", &[b"x"])]);
        fs::write(dir.join("z.ckpt"), b"CKPT v1 old text format\n").unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.files_quarantined, 1);
        assert!(!dir.join("z.ckpt").exists());
        assert!(dir.join(LOST_AND_FOUND).join("z.ckpt").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_reported_and_dropped_from_manifest() {
        let dir = tmpdir("missing");
        write_dir(&dir, &[("a.dlog", &[b"x"]), ("b.dlog", &[b"y"])]);
        fs::remove_file(dir.join("b.dlog")).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.manifest_missing_files, 1);
        let m = read_manifest(&dir, &StdIo).unwrap();
        assert!(m.get("b.dlog").is_none());
        assert!(m.get("a.dlog").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_rebuilt_from_frame_scans() {
        let dir = tmpdir("noman");
        write_dir(&dir, &[("a.dlog", &[b"x"])]);
        fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        let r = fsck_dir(&dir).unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.manifest_rebuilds, 1);
        assert!(read_manifest(&dir, &StdIo).unwrap().get("a.dlog").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_accumulates_across_passes_and_roundtrips() {
        let dir = tmpdir("report");
        write_dir(&dir, &[("a.dlog", &[b"one", b"two"])]);
        let bytes = fs::read(dir.join("a.dlog")).unwrap();
        fs::write(dir.join("a.dlog"), &bytes[..bytes.len() - 1]).unwrap();
        let first = fsck_dir(&dir).unwrap();
        assert!(first.found_damage());
        let second = fsck_dir(&dir).unwrap();
        assert!(!second.found_damage());
        let history = read_fsck_report(&dir).unwrap();
        let mut expect = first;
        expect.merge(&second);
        assert_eq!(history, expect);
        assert!(history.is_conserved());
        let back = FsckReport::parse_report_text(&history.to_report_text()).unwrap();
        assert_eq!(back, history);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unusable_directories_are_typed_errors() {
        let missing = Path::new("/definitely/not/a/real/dir");
        assert!(matches!(
            fsck_dir(missing),
            Err(DurabilityError::Missing(_))
        ));
        let dir = tmpdir("notdir");
        let file = dir.join("plain");
        fs::write(&file, b"x").unwrap();
        assert!(matches!(
            fsck_dir(&file),
            Err(DurabilityError::NotADirectory(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
