//! Generation catalog and the live, streaming-ingest database.
//!
//! A *live directory* holds three kinds of state:
//!
//! ```text
//! wal-000001.dlog        sealed WAL segments   (the database of record)
//! wal-000002.dlog.tmp    active WAL segment    (flushed prefix survives a process crash)
//! gen-000001.ucfdb       sealed generations    (immutable query indexes)
//! CATALOG                which generation is current, with provenance
//! ```
//!
//! The equivalence contract ("a query over a live database must be
//! byte-identical to the same query over a freshly batch-built db of the
//! same records") is earned structurally, not by re-implementing ingest:
//! every accepted line is folded into its node's carry state as it is
//! accepted (the crate-private `carry` module), through the batch
//! pipeline's own accumulators — line recovery, fault extraction,
//! session pairing, raw counts. A seal assembles the snapshot from those
//! states and hands it to `write_db`, re-deriving at seal time what is
//! global to the corpus: the flood share, the batch reader's node order,
//! and the order in which f64 day volumes are added. So a seal costs
//! O(faults + volume pieces), not a re-parse of every record, and seals
//! the bytes `build_db` seals from the same lines written as text.
//!
//! The WAL stays the database of record: it is retained forever, and a
//! generation file is a disposable index over it, which is exactly what
//! makes crash recovery simple — when in doubt, replay and reseal.
//!
//! Crash recovery (`LiveDb::open`): stream the WAL through its reader
//! (`wal::WalReader`: flushed prefixes of every segment, in index order,
//! one segment in memory at a time) into the carry states, rebuilding
//! per-node cursors and a running CRC over the accepted record payloads.
//! The catalog's current generation is served only if its recorded
//! `(records, crc)` pair matches the replayed state *and* the file opens
//! clean — any torn seal, stale catalog, or post-seal ingest makes the
//! pair differ, and the generation is rebuilt from the WAL instead.
//! `uc fsck` repairs these directories under the same conservation law
//! (the `fsck` module); its catalog fix-up (`Catalog::repair`) is the
//! scrubber's too.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use uc_cluster::NodeId;
use uc_faultlog::durable::crc::{crc32, Crc32};
use uc_faultlog::durable::{quarantine_file, ByteLedger};

use crate::carry::{snapshot_of, NodeCarry};
use crate::db::{DbHandle, FaultDb};
use crate::error::DbError;
use crate::format::{write_db, WriteOptions};
use crate::lock::LiveLock;
use crate::snapshot::Snapshot;
use crate::wal::{encode_wal_payload, wal_index_of_name, Wal, WalReader, WalRecord, WalRecovery};

/// Catalog file name inside a live directory.
pub const CATALOG_NAME: &str = "CATALOG";
/// First line of a catalog file.
pub const CATALOG_MAGIC: &str = "UCCAT1";

/// Sealed generation file name for index `n`.
pub fn gen_file_name(index: u64) -> String {
    format!("gen-{index:06}.ucfdb")
}

/// Parse the index out of `gen-NNNNNN.ucfdb` (or its `.tmp`).
pub fn gen_index_of_name(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".ucfdb.tmp")
        .or_else(|| name.strip_suffix(".ucfdb"))?;
    stem.strip_prefix("gen-")?.parse().ok()
}

/// One sealed generation the catalog knows about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenEntry {
    pub index: u64,
    pub file: String,
    /// Accepted records the generation was built from.
    pub records: u64,
    /// Running CRC-32 over the canonical WAL payloads of those records,
    /// in acceptance order — the fingerprint recovery must reproduce for
    /// the generation to be served without a rebuild.
    pub stream_crc: u32,
}

/// The parsed `CATALOG` file: generation history plus the current pick.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    pub generations: Vec<GenEntry>,
    pub current: Option<u64>,
    /// Monotonic fencing epoch. Bumped by promotion (failover); a
    /// replication peer announcing a lower epoch is from a superseded
    /// timeline and gets a typed rejection instead of forking history.
    /// Rendered only when non-zero, so pre-replication catalogs stay
    /// byte-stable.
    pub epoch: u64,
}

impl Catalog {
    pub fn entry(&self, index: u64) -> Option<&GenEntry> {
        self.generations.iter().find(|g| g.index == index)
    }

    pub fn max_index(&self) -> u64 {
        self.generations.iter().map(|g| g.index).max().unwrap_or(0)
    }

    /// Render the catalog in its canonical text form, trailing self-CRC
    /// included (over every preceding byte, so any truncation or edit is
    /// detected at load).
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(CATALOG_MAGIC);
        body.push('\n');
        if self.epoch > 0 {
            body.push_str(&format!("epoch {}\n", self.epoch));
        }
        for g in &self.generations {
            body.push_str(&format!(
                "gen {} {} {} {:08x}\n",
                g.index, g.file, g.records, g.stream_crc
            ));
        }
        if let Some(cur) = self.current {
            body.push_str(&format!("current {cur}\n"));
        }
        let digest = crc32(body.as_bytes());
        body.push_str(&format!("crc {digest:08x}\n"));
        body
    }

    /// Parse catalog text. `None` for anything the renderer could not
    /// have produced — bad magic, bad CRC, malformed lines. Callers
    /// treat a damaged catalog as absent (the WAL can always rebuild).
    pub fn parse(text: &str) -> Option<Catalog> {
        let body_end = text.rfind("crc ")?;
        let digest_line = text[body_end..].strip_prefix("crc ")?.trim();
        let digest = u32::from_str_radix(digest_line, 16).ok()?;
        let body = &text[..body_end];
        if crc32(body.as_bytes()) != digest {
            return None;
        }
        let mut lines = body.lines();
        if lines.next()? != CATALOG_MAGIC {
            return None;
        }
        let mut cat = Catalog::default();
        for line in lines {
            if let Some(rest) = line.strip_prefix("gen ") {
                let mut it = rest.split(' ');
                let index: u64 = it.next()?.parse().ok()?;
                let file = it.next()?.to_string();
                let records: u64 = it.next()?.parse().ok()?;
                let stream_crc = u32::from_str_radix(it.next()?, 16).ok()?;
                if it.next().is_some() {
                    return None;
                }
                cat.generations.push(GenEntry {
                    index,
                    file,
                    records,
                    stream_crc,
                });
            } else if let Some(rest) = line.strip_prefix("current ") {
                cat.current = Some(rest.parse().ok()?);
            } else if let Some(rest) = line.strip_prefix("epoch ") {
                cat.epoch = rest.parse().ok()?;
            } else {
                return None;
            }
        }
        // `current` must name a listed generation.
        if let Some(cur) = cat.current {
            cat.entry(cur)?;
        }
        Some(cat)
    }

    /// Load the catalog from `dir`. Missing or damaged → `None` (the
    /// caller reseals from the WAL; `fsck_live_dir` is what *reports*
    /// damage).
    pub fn load(dir: &Path) -> Option<Catalog> {
        let text = std::fs::read_to_string(dir.join(CATALOG_NAME)).ok()?;
        Catalog::parse(&text)
    }

    /// Drop every entry `keep` rejects, roll `current` back to the newest
    /// survivor, and publish the result: saved in place, or — once no
    /// entry is left to point at — moved whole to `.lost+found` rather
    /// than published as an empty lie. The catalog's bytes, as loaded, go
    /// on `ledger` either way: kept, or quarantined. The catalog repair of
    /// both fsck and scrub; whether anything changed.
    pub(crate) fn repair(
        &mut self,
        dir: &Path,
        keep: impl FnMut(&GenEntry) -> bool,
        ledger: &mut ByteLedger,
    ) -> Result<bool, DbError> {
        let path = dir.join(CATALOG_NAME);
        let len = std::fs::metadata(&path).map_or(0, |m| m.len());
        let listed = self.generations.len();
        self.generations.retain(keep);
        if self.generations.len() == listed {
            ledger.keep(len);
            return Ok(false);
        }
        if self.current.is_some_and(|c| self.entry(c).is_none()) {
            self.current = self.generations.iter().map(|g| g.index).max();
        }
        if self.generations.is_empty() {
            quarantine_file(dir, &path, ledger)?;
        } else {
            self.save(dir)?;
            ledger.keep(len);
        }
        Ok(true)
    }

    /// Write atomically: tmp + fsync + rename + dir fsync, the same
    /// publish discipline as every sealed file in the repo.
    pub fn save(&self, dir: &Path) -> Result<(), DbError> {
        let tmp = dir.join(format!("{CATALOG_NAME}.tmp"));
        let finals = dir.join(CATALOG_NAME);
        let text = self.render();
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp).map_err(|e| DbError::io(&tmp, e))?;
            f.write_all(text.as_bytes())
                .map_err(|e| DbError::io(&tmp, e))?;
            f.sync_all().map_err(|e| DbError::io(&tmp, e))?;
        }
        std::fs::rename(&tmp, &finals).map_err(|e| DbError::io(&finals, e))?;
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Verdict on one pushed record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Next in sequence: buffered for the WAL. `flush` writes it there,
    /// where it survives a process crash; it is fsynced at the next seal.
    Accepted,
    /// Sequence number below the cursor: a replay of something already
    /// accepted. Ignored — this is what makes reconnect retries safe.
    Duplicate,
    /// Sequence number ahead of the cursor: the client skipped records
    /// the server never saw. Rejected; accepting would silently lose
    /// the gap.
    Gap { expected: u64 },
}

/// A point-in-time summary of the live state, for `STATS`-style reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveStatus {
    /// Accepted records across all nodes.
    pub records: u64,
    /// Nodes with at least one accepted record.
    pub nodes: u64,
    /// Index of the generation currently served.
    pub generation: u64,
    /// Records the served generation was built from (lags `records`
    /// until the next seal).
    pub gen_records: u64,
    /// Running CRC over accepted payloads.
    pub stream_crc: u32,
    /// Duplicate records ignored (replays) since open, including replay
    /// duplicates observed during WAL recovery.
    pub duplicates: u64,
    /// Gap rejections since open, including out-of-sequence records
    /// dropped during WAL recovery (possible only via mid-file damage).
    pub gaps: u64,
    /// Fencing epoch of this node's timeline (0 until a promotion).
    pub epoch: u64,
}

/// The per-node sequence discipline — the one shared definition of "the
/// accepted record prefix": each node's next expected sequence number,
/// and the count and running CRC of the records accepted so far. Ingest
/// judges pushed records through it, and the WAL reader judges every
/// recovered one — for recovery ([`LiveDb::open`]), scrub repair, and the
/// replication shipper, which must ship exactly what a replica's replay
/// would accept.
#[derive(Default)]
pub(crate) struct Sequencer {
    next: BTreeMap<u32, u64>,
    pub(crate) records: u64,
    pub(crate) crc: Crc32,
    duplicates: u64,
    gaps: u64,
}

impl Sequencer {
    /// Next sequence number expected from `node`.
    fn next_seq(&self, node: NodeId) -> u64 {
        self.next.get(&node.0).copied().unwrap_or(0)
    }

    /// Judge `seq` against `node`'s cursor, counting a duplicate or a
    /// gap. An `Accepted` record advances nothing until [`Sequencer::accept`].
    fn judge(&mut self, node: NodeId, seq: u64) -> IngestOutcome {
        let next = self.next_seq(node);
        if seq == next {
            IngestOutcome::Accepted
        } else if seq < next {
            // A crash between WAL flush and client ACK makes the client
            // resend; both copies are in the WAL, one wins.
            self.duplicates += 1;
            IngestOutcome::Duplicate
        } else {
            // In recovery, possible only through mid-file damage (a
            // checksummed frame lost between two surviving ones). Torn
            // *tails* never gap — they lose a suffix of acceptance order.
            self.gaps += 1;
            IngestOutcome::Gap { expected: next }
        }
    }

    /// Take the record `judge` accepted, with its canonical WAL payload.
    fn accept(&mut self, node: NodeId, payload: &[u8]) {
        *self.next.entry(node.0).or_insert(0) += 1;
        self.crc.update(payload);
        self.records += 1;
    }

    /// Feed one recovered record through the discipline: its canonical
    /// payload when it advanced the accepted prefix.
    pub(crate) fn apply(&mut self, rec: &WalRecord) -> Option<Vec<u8>> {
        if self.judge(rec.node, rec.seq) != IngestOutcome::Accepted {
            return None;
        }
        let payload = encode_wal_payload(rec.node, rec.seq, &rec.line);
        self.accept(rec.node, &payload);
        Some(payload)
    }
}

/// The accepted prefix and every node's carry state: what [`LiveDb`]
/// holds and what the scrubber replays a generation's prefix into.
#[derive(Default)]
pub(crate) struct LiveState {
    pub(crate) seq: Sequencer,
    nodes: BTreeMap<u32, NodeCarry>,
}

impl LiveState {
    /// Fold an accepted record's line into its node's carry state.
    pub(crate) fn fold(&mut self, node: NodeId, line: &str) {
        self.nodes.entry(node.0).or_default().push(line);
    }

    /// The snapshot `build_db` seals from the accepted prefix written as
    /// one text log per node.
    pub(crate) fn snapshot(&mut self) -> Snapshot {
        snapshot_of(self.nodes.iter_mut().map(|(&id, carry)| (id, carry)))
    }
}

struct LiveInner {
    wal: Wal,
    state: LiveState,
    catalog: Catalog,
    current_gen: u64,
    gen_records: u64,
}

/// A live, streaming-ingest database: crash-consistent WAL in front,
/// immutable sealed generations behind, snapshot-isolated queries via
/// [`DbHandle`] throughout. Holds the directory's PID lock for its
/// whole lifetime — a second opener (another `uc serve`, a concurrent
/// `uc fsck`) fails fast with [`DbError::Locked`] instead of racing.
pub struct LiveDb {
    dir: PathBuf,
    inner: parking_lot::Mutex<LiveInner>,
    handle: DbHandle,
    _lock: LiveLock,
}

/// What [`LiveDb::open`] found and did.
#[derive(Clone, Debug)]
pub struct OpenReport {
    /// What the WAL read found.
    pub wal: WalRecovery,
    /// Records accepted during replay.
    pub replayed: u64,
    /// Whether the catalog's current generation matched the replayed
    /// state and was served as-is (`false` ⇒ a fresh seal was needed).
    pub served_existing: bool,
    /// Generation index now being served.
    pub generation: u64,
}

impl LiveDb {
    /// Open (or create) a live directory: replay the WAL, then either
    /// adopt the catalog's current generation (if its provenance matches
    /// the replayed state exactly) or seal a fresh one from the WAL.
    pub fn open(dir: &Path) -> Result<(LiveDb, OpenReport), DbError> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
        let lock = LiveLock::acquire(dir)?;
        let mut state = LiveState::default();
        let mut reader = WalReader::new(dir);
        reader.pump(u64::MAX, |rec, _| state.fold(rec.node, &rec.line))?;
        let recovery = reader.recovery();
        state.seq = reader.seq;
        let wal = Wal::open(dir)?;
        let records = state.seq.records;

        let catalog = Catalog::load(dir).unwrap_or_default();
        let mut inner = LiveInner {
            wal,
            state,
            catalog,
            current_gen: 0,
            gen_records: 0,
        };

        // Serve the cataloged generation only on an exact provenance
        // match; anything else (post-seal ingest, torn seal, stale or
        // damaged catalog, corrupt file) rebuilds from the WAL.
        let mut served_existing = false;
        let stream_crc = inner.state.seq.crc.finish();
        let adopt = inner.catalog.current.and_then(|cur| {
            let entry = inner.catalog.entry(cur)?.clone();
            if entry.records != records || entry.stream_crc != stream_crc {
                return None;
            }
            let db = FaultDb::open(&dir.join(&entry.file)).ok()?;
            db.verify_deep().ok()?;
            Some((entry, db))
        });
        let db = match adopt {
            Some((entry, db)) => {
                inner.current_gen = entry.index;
                inner.gen_records = entry.records;
                served_existing = true;
                Arc::new(db)
            }
            None => {
                let next = next_gen_index(dir, &inner.catalog)?;
                // The WAL segment just opened is empty; sealing without
                // rotation keeps recovery from leaving a trail of empty
                // sealed segments behind every restart.
                Arc::new(seal_generation(dir, &mut inner, next, false)?)
            }
        };
        let handle = DbHandle::new(db);
        let report = OpenReport {
            wal: recovery,
            replayed: records,
            served_existing,
            generation: inner.current_gen,
        };
        Ok((
            LiveDb {
                dir: dir.to_path_buf(),
                inner: parking_lot::Mutex::new(inner),
                handle,
                _lock: lock,
            },
            report,
        ))
    }

    /// The swappable handle the query server answers from.
    pub fn handle(&self) -> DbHandle {
        self.handle.clone()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Judge one pushed record against the node's cursor and, if it is
    /// the expected next record, buffer it for the WAL. Not written to
    /// the WAL until [`LiveDb::flush`] — callers must not acknowledge
    /// before that.
    pub fn ingest(&self, node: NodeId, seq: u64, line: &str) -> Result<IngestOutcome, DbError> {
        if line.contains('\n') || line.contains('\r') {
            // One record ⇔ one log line; an embedded newline would break
            // the batch-equivalence bijection.
            return Err(DbError::Query("record line contains a line break".into()));
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let verdict = inner.state.seq.judge(node, seq);
        if verdict != IngestOutcome::Accepted {
            return Ok(verdict);
        }
        // Into the WAL buffer first: a record the WAL refuses leaves no
        // trace in the accepted prefix or the carry state.
        let payload = inner.wal.append(node, seq, line)?;
        inner.state.seq.accept(node, &payload);
        inner.state.fold(node, line);
        Ok(verdict)
    }

    /// Next sequence number expected from `node` — what a reconnecting
    /// client must resume from.
    pub fn next_seq(&self, node: NodeId) -> u64 {
        self.inner.lock().state.seq.next_seq(node)
    }

    /// Write everything accepted so far to the WAL, where it survives a
    /// process crash; it is fsynced at the next seal. The ack boundary.
    pub fn flush(&self) -> Result<(), DbError> {
        self.inner.lock().wal.flush()
    }

    /// Seal a generation of the full record set from the carry states,
    /// publish it to queries, persist the catalog, and rotate the WAL. Queries in
    /// flight keep their generation (snapshot isolation); new ones see
    /// the seal.
    pub fn seal(&self) -> Result<LiveStatus, DbError> {
        let mut inner = self.inner.lock();
        inner.wal.flush()?;
        // Nothing accepted since the last seal ⇒ the current generation
        // already covers the full record set; resealing would only grow
        // the directory with identical files.
        let seq = &inner.state.seq;
        if inner
            .catalog
            .entry(inner.current_gen)
            .is_some_and(|e| e.records == seq.records && e.stream_crc == seq.crc.finish())
        {
            return Ok(status_of(&inner));
        }
        let next = inner.current_gen + 1;
        let db = seal_generation(&self.dir, &mut inner, next, true)?;
        self.handle.swap(Arc::new(db));
        Ok(status_of(&inner))
    }

    pub fn status(&self) -> LiveStatus {
        status_of(&self.inner.lock())
    }

    /// Fencing epoch of this node's timeline.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().catalog.epoch
    }

    /// Bump the fencing epoch and persist it — the promotion step of a
    /// failover. After this returns, any peer still announcing the old
    /// epoch is fenced off. Returns the new epoch.
    pub fn promote(&self) -> Result<u64, DbError> {
        let mut inner = self.inner.lock();
        inner.catalog.epoch += 1;
        inner.catalog.save(&self.dir)?;
        Ok(inner.catalog.epoch)
    }

    /// Adopt a peer's (higher) epoch — a replica following a promoted
    /// primary records the primary's timeline. Lower or equal epochs are
    /// a no-op; the epoch is monotonic.
    pub fn adopt_epoch(&self, epoch: u64) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        if epoch > inner.catalog.epoch {
            inner.catalog.epoch = epoch;
            inner.catalog.save(&self.dir)?;
        }
        Ok(())
    }

    /// A point-in-time copy of the catalog, for shipping seal markers
    /// and for provenance checks.
    pub fn catalog_snapshot(&self) -> Catalog {
        self.inner.lock().catalog.clone()
    }

    /// Seal generation `index` exactly as the primary did: only legal
    /// when this node's accepted prefix is exactly `(records, crc)` —
    /// i.e. the replica stands at the same point of the same history —
    /// so the sealed file comes out byte-identical to the primary's.
    /// Anything else is a typed divergence, never a silent fork.
    pub fn seal_replica(&self, index: u64, records: u64, stream_crc: u32) -> Result<(), DbError> {
        let mut inner = self.inner.lock();
        inner.wal.flush()?;
        let seq = &inner.state.seq;
        if seq.records != records || seq.crc.finish() != stream_crc {
            return Err(DbError::Diverged(format!(
                "seal marker for gen {index} names {records} records crc {stream_crc:08x}, \
                 local state is {} records crc {:08x}",
                seq.records,
                seq.crc.finish()
            )));
        }
        if inner.current_gen == index
            && inner
                .catalog
                .entry(index)
                .is_some_and(|e| e.records == records && e.stream_crc == stream_crc)
        {
            // Marker replayed after a restart; the seal already happened.
            return Ok(());
        }
        let db = seal_generation(&self.dir, &mut inner, index, true)?;
        self.handle.swap(Arc::new(db));
        Ok(())
    }
}

fn status_of(inner: &LiveInner) -> LiveStatus {
    let seq = &inner.state.seq;
    LiveStatus {
        records: seq.records,
        nodes: seq.next.len() as u64,
        generation: inner.current_gen,
        gen_records: inner.gen_records,
        stream_crc: seq.crc.finish(),
        duplicates: seq.duplicates,
        gaps: seq.gaps,
        epoch: inner.catalog.epoch,
    }
}

/// First unused generation index: above everything the catalog lists
/// *and* everything on disk (a crash can leave files the catalog never
/// heard of; never overwrite potential evidence).
fn next_gen_index(dir: &Path, catalog: &Catalog) -> Result<u64, DbError> {
    let mut max = catalog.max_index();
    let rd = std::fs::read_dir(dir).map_err(|e| DbError::io(dir, e))?;
    for entry in rd.filter_map(|e| e.ok()) {
        if let Some(idx) = entry.file_name().to_str().and_then(gen_index_of_name) {
            max = max.max(idx);
        }
    }
    Ok(max + 1)
}

/// Build the snapshot batch ingest would build from the carry states,
/// write the generation file (atomically, via `write_db`'s tmp + rename),
/// update and persist the catalog, and optionally rotate the WAL.
fn seal_generation(
    dir: &Path,
    inner: &mut LiveInner,
    index: u64,
    rotate_wal: bool,
) -> Result<FaultDb, DbError> {
    let snapshot = inner.state.snapshot();
    let file = gen_file_name(index);
    let path = dir.join(&file);
    write_db(&snapshot, &path, &WriteOptions::default())?;
    let db = FaultDb::open(&path)?;

    inner.catalog.generations.retain(|g| g.index != index);
    inner.catalog.generations.push(GenEntry {
        index,
        file,
        records: inner.state.seq.records,
        stream_crc: inner.state.seq.crc.finish(),
    });
    inner.catalog.generations.sort_by_key(|g| g.index);
    inner.catalog.current = Some(index);
    inner.catalog.save(dir)?;
    inner.current_gen = index;
    inner.gen_records = inner.state.seq.records;
    if rotate_wal {
        inner.wal.rotate()?;
    }
    Ok(db)
}

/// Does `dir` look like a live streaming directory (vs. a plain durable
/// log directory)? Any WAL segment, generation file, or catalog counts.
pub fn is_live_dir(dir: &Path) -> bool {
    if dir.join(CATALOG_NAME).exists() {
        return true;
    }
    let Ok(rd) = std::fs::read_dir(dir) else {
        return false;
    };
    rd.filter_map(|e| e.ok()).any(|e| {
        e.file_name()
            .to_str()
            .is_some_and(|n| wal_index_of_name(n).is_some() || gen_index_of_name(n).is_some())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-cat-{tag}-{}", std::process::id()));
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
    fn catalog_roundtrips_and_rejects_tampering() {
        let cat = Catalog {
            generations: vec![
                GenEntry {
                    index: 1,
                    file: gen_file_name(1),
                    records: 10,
                    stream_crc: 0xDEAD_BEEF,
                },
                GenEntry {
                    index: 2,
                    file: gen_file_name(2),
                    records: 25,
                    stream_crc: 0x0BAD_F00D,
                },
            ],
            current: Some(2),
            epoch: 3,
        };
        let text = cat.render();
        assert_eq!(Catalog::parse(&text).unwrap(), cat);
        // Flip one byte anywhere → parse refuses.
        let mut bad = text.clone().into_bytes();
        bad[8] ^= 0x20;
        assert!(Catalog::parse(&String::from_utf8(bad).unwrap()).is_none());
        // Truncation → refuses.
        assert!(Catalog::parse(&text[..text.len() - 2]).is_none());
        // current pointing at an unlisted gen → refuses.
        let orphan = Catalog {
            generations: vec![],
            current: Some(9),
            epoch: 0,
        };
        assert!(Catalog::parse(&orphan.render()).is_none());
    }

    #[test]
    fn live_db_open_on_empty_dir_serves_empty_generation() {
        let dir = tmpdir("empty");
        let (live, report) = LiveDb::open(&dir).unwrap();
        assert!(!report.served_existing);
        assert_eq!(report.generation, 1);
        let db = live.handle().current();
        assert_eq!(db.rows(), 0);
        let r = db
            .query("count", &crate::db::QueryOptions::default())
            .unwrap();
        assert_eq!(r.lines, vec!["0".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_discipline_dup_and_gap() {
        let dir = tmpdir("seq");
        let (live, _) = LiveDb::open(&dir).unwrap();
        let node = n("01-01");
        assert_eq!(
            live.ingest(node, 0, &error_line("01-01", 60, "0xfffffffe"))
                .unwrap(),
            IngestOutcome::Accepted
        );
        assert_eq!(
            live.ingest(node, 0, &error_line("01-01", 60, "0xfffffffe"))
                .unwrap(),
            IngestOutcome::Duplicate
        );
        assert_eq!(
            live.ingest(node, 5, "whatever").unwrap(),
            IngestOutcome::Gap { expected: 1 }
        );
        assert_eq!(live.next_seq(node), 1);
        assert!(live.ingest(node, 1, "two\nlines").is_err());
        let s = live.status();
        assert_eq!((s.records, s.duplicates, s.gaps), (1, 1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_the_wal_refuses_leaves_no_trace() {
        let dir = tmpdir("refused");
        let (live, _) = LiveDb::open(&dir).unwrap();
        let node = n("01-01");
        let oversized = "x".repeat(uc_faultlog::durable::MAX_FRAME_LEN as usize);
        assert!(live.ingest(node, 0, &oversized).is_err());
        assert_eq!(live.next_seq(node), 0, "no sequence number taken");
        assert_eq!(
            live.ingest(node, 0, &error_line("01-01", 60, "0xfffffffe"))
                .unwrap(),
            IngestOutcome::Accepted
        );
        live.ingest(n("01-02"), 0, &error_line("01-02", 60, "0xfffffffe"))
            .unwrap();
        let status = live.seal().unwrap();
        assert_eq!((status.records, status.nodes), (2, 2));
        assert_eq!(live.handle().current().rows(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_then_reopen_serves_existing_generation_without_rebuild() {
        let dir = tmpdir("adopt");
        let (live, _) = LiveDb::open(&dir).unwrap();
        for i in 0..5 {
            live.ingest(
                n("01-01"),
                i,
                &error_line("01-01", 60 + i as i64 * 7200, "0xfffffffe"),
            )
            .unwrap();
        }
        live.seal().unwrap();
        drop(live);
        let (live2, report) = LiveDb::open(&dir).unwrap();
        assert!(
            report.served_existing,
            "exact provenance match → no rebuild"
        );
        assert_eq!(live2.status().records, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_ingest_after_seal_forces_rebuild_on_reopen() {
        let dir = tmpdir("rebuild");
        let (live, _) = LiveDb::open(&dir).unwrap();
        // Two nodes: a single-node corpus would trip the flood filter
        // (100% > the 50% share) and extract zero faults.
        live.ingest(n("01-01"), 0, &error_line("01-01", 60, "0xfffffffe"))
            .unwrap();
        live.ingest(n("01-02"), 0, &error_line("01-02", 60, "0xfffffffe"))
            .unwrap();
        live.seal().unwrap();
        live.ingest(n("01-01"), 1, &error_line("01-01", 7260, "0xfffffffe"))
            .unwrap();
        live.ingest(n("01-02"), 1, &error_line("01-02", 7260, "0xfffffffe"))
            .unwrap();
        live.flush().unwrap();
        drop(live);
        let (live2, report) = LiveDb::open(&dir).unwrap();
        assert!(
            !report.served_existing,
            "post-seal records ⇒ catalog mismatch"
        );
        assert_eq!(live2.status().records, 4);
        let db = live2.handle().current();
        assert_eq!(db.rows(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_errorrun_count_does_not_stall_a_seal() {
        // Every pushed line is recovered and folded into its node's carry
        // state, so one hostile count would stall ingest and every seal if
        // runs were expanded or their counts wrapped a sum. It is a
        // `bad_number` drop; the two real errors seal as two faults.
        let dir = tmpdir("hostile-count");
        let (live, _) = LiveDb::open(&dir).unwrap();
        let hostile = format!(
            "ERRORRUN t=60 node=01-01 vaddr=0x00000400 page=0x000000 expected=0xffffffff \
             actual=0xfffffffe temp=NA count={} period=40",
            u64::MAX
        );
        live.ingest(n("01-01"), 0, &hostile).unwrap();
        live.ingest(n("01-02"), 0, &error_line("01-02", 60, "0xfffffffe"))
            .unwrap();
        live.ingest(n("01-03"), 0, &error_line("01-03", 60, "0xfffffffe"))
            .unwrap();
        let live = std::sync::Arc::new(live);
        let (tx, rx) = std::sync::mpsc::channel();
        let sealer = std::sync::Arc::clone(&live);
        std::thread::spawn(move || {
            let _ = tx.send(sealer.seal().map(|_| ()));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(5)) {
            Ok(sealed) => sealed.unwrap(),
            Err(e) => panic!("seal did not return within 5 s: {e:?}"),
        }
        assert_eq!(live.handle().current().rows(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_isolation_in_flight_handle_survives_seal() {
        let dir = tmpdir("iso");
        let (live, _) = LiveDb::open(&dir).unwrap();
        live.ingest(n("01-01"), 0, &error_line("01-01", 60, "0xfffffffe"))
            .unwrap();
        live.ingest(n("01-02"), 0, &error_line("01-02", 60, "0xfffffffe"))
            .unwrap();
        live.seal().unwrap();
        let before = live.handle().current();
        live.ingest(n("01-01"), 1, &error_line("01-01", 7260, "0xfffffffe"))
            .unwrap();
        live.ingest(n("01-02"), 1, &error_line("01-02", 7260, "0xfffffffe"))
            .unwrap();
        live.seal().unwrap();
        let after = live.handle().current();
        assert_eq!(before.rows(), 2, "pinned generation is immutable");
        assert_eq!(after.rows(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_renders_only_when_set_and_promotion_persists() {
        // Epoch 0 renders exactly as the pre-replication format did.
        let plain = Catalog::default().render();
        assert!(!plain.contains("epoch"));
        assert_eq!(Catalog::parse(&plain).unwrap().epoch, 0);

        let dir = tmpdir("epoch");
        let (live, _) = LiveDb::open(&dir).unwrap();
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.promote().unwrap(), 1);
        assert_eq!(live.promote().unwrap(), 2);
        live.adopt_epoch(1).unwrap(); // stale: monotonicity holds
        assert_eq!(live.epoch(), 2);
        live.adopt_epoch(7).unwrap();
        drop(live);
        let (live2, _) = LiveDb::open(&dir).unwrap();
        assert_eq!(live2.epoch(), 7, "epoch survives restart");
        assert_eq!(live2.status().epoch, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_of_live_dir_is_refused_while_locked() {
        use crate::fsck::fsck_live_dir;
        let dir = tmpdir("locked");
        let (live, _) = LiveDb::open(&dir).unwrap();
        match LiveDb::open(&dir) {
            Err(DbError::Locked { .. }) => {}
            other => panic!("expected Locked, got {:?}", other.map(|(_, r)| r)),
        }
        match fsck_live_dir(&dir) {
            Err(DbError::Locked { .. }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(live);
        assert!(fsck_live_dir(&dir).is_ok(), "lock released on drop");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn is_live_dir_discriminates() {
        let dir = tmpdir("isld");
        fs::create_dir_all(&dir).unwrap();
        assert!(!is_live_dir(&dir));
        fs::write(dir.join("wal-000001.dlog"), b"x").unwrap();
        assert!(is_live_dir(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }
}
