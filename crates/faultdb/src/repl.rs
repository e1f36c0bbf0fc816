//! WAL-shipping replication with fenced failover.
//!
//! The WAL is the database of record (generations are disposable indexes
//! over it), so replicating the WAL replicates *everything*: a replica
//! that holds the same accepted record prefix and seals at the same
//! record counts produces generation files **byte-identical** to the
//! primary's — sealing is a deterministic function of the accepted
//! prefix, and both sides run the identical batch pipeline.
//!
//! The wire protocol rides the ingest port and its framed UCSEG1 codec
//! (a replication session is just an ingest session whose first frame is
//! `SYNC` instead of `HELLO`):
//!
//! ```text
//! replica → SYNC <epoch> <records> <crc> <segment> <offset>
//! primary → SYNCOK <epoch> <records>            (or ERR <kind>: <msg>)
//! replica → PULL <max>
//! primary → W <wal-payload>                      (accepted records, in order)
//!           S <gen> <records> <crc>              (seal marker, at the exact crossing)
//!           E <records> <crc> <epoch> <segment> <offset> <total>
//! replica → PULL <max> … | BYE
//! ```
//!
//! The replica's cursor is `(records, stream-crc)` — the count of
//! accepted records and the running CRC over their canonical WAL
//! payloads, the same fingerprint the catalog stores per generation. The
//! `(segment, offset)` pair is advisory position reporting; the primary
//! *verifies* the cursor by replaying its own on-disk WAL through the
//! shared sequence discipline (`ReplayState`) and checking the CRC at
//! exactly that count. A cursor the primary's history cannot reproduce is
//! a typed [`DbError::Diverged`] — or [`DbError::Fenced`] when the peer
//! also announces a stale epoch, the signature of an ex-primary that kept
//! accepting writes after a failover.
//!
//! Durability discipline, both directions: the primary ships only bytes
//! already written to its WAL (it flushes before every scan), and the
//! replica flushes its own WAL before advancing the cursor it will
//! announce — write-before-ack on each hop, so a process crash anywhere
//! merely rewinds the cursor to what is on disk and reships. A flush is
//! a plain write; each side fsyncs its WAL only when a seal rotates it,
//! so a power loss can rewind a side to its last seal.
//!
//! Fencing: the catalog carries a monotonic epoch, bumped by promotion
//! (manual `PROMOTE` on the query port, or automatic after a health-check
//! timeout). A peer announcing a *higher* epoch fences this node — it
//! stops serving pushes and shipping history, because its timeline has
//! been superseded. A fenced ex-primary reconnecting as a replica is
//! recognized by its forked tail and refused with a typed error instead
//! of silently merging two histories.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uc_faultlog::chaos::{ChaosStream, LinkBreaker, NetChaosConfig, NetChaosTally};
use uc_faultlog::durable::{
    scan_segment_slices, write_frame, FrameEvent, FrameReader, RetryPolicy, FRAME_HEADER_LEN, MAGIC,
};

use crate::catalog::{LiveDb, ReplayState};
use crate::error::{retryable, DbError};
use crate::ingest_server::Wire;
use crate::server::ServerAdmin;
use crate::wal::{decode_wal_payload, list_wal_segments};

// ------------------------------------------------------------------ role

/// What this node currently is, shared between the serving layers: the
/// ingest server consults it before accepting pushes, the query server's
/// STATS reports it, and the sync loop updates it on fencing events.
pub struct Role {
    readonly: AtomicBool,
    fenced: AtomicBool,
    upstream: parking_lot::Mutex<Option<String>>,
    fence_reason: parking_lot::Mutex<Option<String>>,
}

impl Role {
    /// A primary: accepts pushes, ships to replicas.
    pub fn primary() -> Role {
        Role {
            readonly: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            upstream: parking_lot::Mutex::new(None),
            fence_reason: parking_lot::Mutex::new(None),
        }
    }

    /// A syncing replica: serves reads, refuses pushes with
    /// [`DbError::ReadOnly`].
    pub fn replica_of(upstream: &str) -> Role {
        let role = Role::primary();
        role.readonly.store(true, Ordering::SeqCst);
        *role.upstream.lock() = Some(upstream.to_string());
        role
    }

    pub fn is_readonly(&self) -> bool {
        self.readonly.load(Ordering::SeqCst)
    }

    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    pub fn upstream(&self) -> Option<String> {
        self.upstream.lock().clone()
    }

    /// Why this node is fenced, if it is.
    pub fn fence_reason(&self) -> Option<String> {
        self.fence_reason.lock().clone()
    }

    /// Mark this node's timeline superseded: no more pushes, no more
    /// shipping. Only operator intervention (a fresh resync from the new
    /// primary's history) clears it.
    pub fn fence(&self, reason: &str) {
        *self.fence_reason.lock() = Some(reason.to_string());
        self.fenced.store(true, Ordering::SeqCst);
    }

    fn promote_to_primary(&self) {
        self.readonly.store(false, Ordering::SeqCst);
        *self.upstream.lock() = None;
    }
}

// ----------------------------------------------------------- ship cursor

/// Primary-side incremental reader over the on-disk WAL: replays every
/// durable frame through the shared sequence discipline and hands the
/// accepted records to a sink, remembering its position between polls so
/// each `PULL` re-reads only the segment it stopped in, not the whole
/// WAL. Verifying a connecting replica's cursor costs one full replay
/// (O(WAL)); sessions are long-lived, so the cost amortizes across the
/// stream.
struct ShipCursor {
    dir: PathBuf,
    replay: ReplayState,
    /// Segment currently being consumed (0 = none yet).
    seg: u64,
    /// Complete frames already consumed in `seg`.
    frames_done: usize,
    /// Valid bytes (magic + consumed frames) in `seg` — the advisory
    /// offset reported to the replica.
    bytes_done: u64,
}

impl ShipCursor {
    fn new(dir: &Path) -> ShipCursor {
        ShipCursor {
            dir: dir.to_path_buf(),
            replay: ReplayState::new(),
            seg: 0,
            frames_done: 0,
            bytes_done: 0,
        }
    }

    /// Consume durable WAL bytes until `limit` more records are accepted
    /// or the WAL runs out, feeding each accepted record's canonical
    /// payload (and the record count after it) to `sink`.
    fn pump(&mut self, limit: u64, mut sink: impl FnMut(Vec<u8>, u64)) -> Result<u64, DbError> {
        let mut taken = 0u64;
        for (idx, path) in list_wal_segments(&self.dir)? {
            if idx < self.seg || taken >= limit {
                continue;
            }
            if idx > self.seg {
                self.seg = idx;
                self.frames_done = 0;
                self.bytes_done = MAGIC.len() as u64;
            }
            let bytes = std::fs::read(&path).map_err(|e| DbError::io(&path, e))?;
            let scan = scan_segment_slices(&bytes);
            for payload in scan.payloads.iter().skip(self.frames_done) {
                if taken >= limit {
                    break;
                }
                self.frames_done += 1;
                self.bytes_done += (FRAME_HEADER_LEN + payload.len()) as u64;
                if let Some(rec) = decode_wal_payload(payload) {
                    if self.replay.apply(&rec) {
                        taken += 1;
                        sink(
                            crate::wal::encode_wal_payload(rec.node, rec.seq, &rec.line),
                            self.replay.records,
                        );
                    }
                }
            }
        }
        Ok(taken)
    }
}

// --------------------------------------------------------- primary side

/// Outcome of verifying a replica's announced cursor against this node's
/// history; the epoch comparison at the call site decides whether a
/// mismatch is [`DbError::Fenced`] or [`DbError::Diverged`].
enum CursorCheck {
    Ok(ShipCursor),
    TooLong { have: u64 },
    CrcMismatch { local: u32 },
}

fn check_cursor(dir: &Path, records: u64, crc: u32) -> Result<CursorCheck, DbError> {
    let mut cursor = ShipCursor::new(dir);
    cursor.pump(records, |_, _| {})?;
    if cursor.replay.records < records {
        return Ok(CursorCheck::TooLong {
            have: cursor.replay.records,
        });
    }
    let local = cursor.replay.crc.finish();
    if local != crc {
        return Ok(CursorCheck::CrcMismatch { local });
    }
    Ok(CursorCheck::Ok(cursor))
}

/// Serve one replication session on the primary (or any non-fenced
/// node — replicas may chain). Invoked by the ingest server when a
/// session's first frame is `SYNC …`; `sync_rest` is everything after
/// the keyword. Sends `SYNCOK` + shipped frames itself; returns `Err`
/// for typed refusals the caller turns into a framed `ERR` (and counts
/// as a protocol error). I/O failures mid-stream return `Ok` — the peer
/// is gone, there is nothing to refuse.
pub(crate) fn serve_shipping<R: Read>(
    live: &LiveDb,
    role: Option<&Role>,
    sync_rest: &str,
    reader: &mut FrameReader<R>,
    writer: &mut impl Write,
) -> Result<(), DbError> {
    let parse = |rest: &str| -> Option<(u64, u64, u32)> {
        let mut it = rest.split(' ');
        let epoch: u64 = it.next()?.parse().ok()?;
        let records: u64 = it.next()?.parse().ok()?;
        let crc = u32::from_str_radix(it.next()?, 16).ok()?;
        let _segment: u64 = it.next()?.parse().ok()?;
        let _offset: u64 = it.next()?.parse().ok()?;
        it.next().is_none().then_some((epoch, records, crc))
    };
    let Some((peer_epoch, records, crc)) = parse(sync_rest) else {
        return Err(DbError::Query(
            "SYNC needs <epoch> <records> <crc> <segment> <offset>".into(),
        ));
    };
    if let Some(role) = role {
        if role.is_fenced() {
            return Err(DbError::Fenced {
                local_epoch: live.epoch(),
                peer_epoch,
                detail: role
                    .fence_reason()
                    .unwrap_or_else(|| "this node is fenced".into()),
            });
        }
    }
    let local_epoch = live.epoch();
    if peer_epoch > local_epoch {
        // The peer lives on a promoted timeline we never heard about:
        // *we* are the stale node. Stop serving before we fork history.
        let detail = format!("peer epoch {peer_epoch} supersedes this node's {local_epoch}");
        if let Some(role) = role {
            role.fence(&detail);
        }
        return Err(DbError::Fenced {
            local_epoch,
            peer_epoch,
            detail,
        });
    }

    // Everything shipped comes off disk: flush so the scan sees every
    // acked byte (write-before-ship; no fsync).
    live.flush()?;
    let mut cursor = match check_cursor(live.dir(), records, crc)? {
        CursorCheck::Ok(c) => c,
        CursorCheck::TooLong { have } => {
            let detail = format!("peer cursor names {records} records, this timeline holds {have}");
            return Err(if peer_epoch < local_epoch {
                DbError::Fenced {
                    local_epoch,
                    peer_epoch,
                    detail,
                }
            } else {
                DbError::Diverged(detail)
            });
        }
        CursorCheck::CrcMismatch { local } => {
            let detail =
                format!("stream crc at record {records} is {local:08x} here, peer has {crc:08x}");
            return Err(if peer_epoch < local_epoch {
                DbError::Fenced {
                    local_epoch,
                    peer_epoch,
                    detail,
                }
            } else {
                DbError::Diverged(detail)
            });
        }
    };

    let hello = format!("SYNCOK {local_epoch} {}", live.status().records);
    if write_frame(writer, hello.as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return Ok(());
    }

    // Seal markers already behind the replica's cursor were handled on
    // its side of history (it sealed them or opened past them); never
    // re-ship those. Markers *at* the cursor still ship — a replica that
    // restarted right before a seal resumes with the seal.
    let mut marked: BTreeSet<u64> = live
        .catalog_snapshot()
        .generations
        .iter()
        .filter(|g| g.records < records)
        .map(|g| g.index)
        .collect();

    loop {
        let payload = match reader.next_frame() {
            Ok(FrameEvent::Frame(p)) => p,
            Ok(FrameEvent::Eof) | Err(_) => return Ok(()),
            Ok(FrameEvent::Damaged(d)) => return Err(DbError::Query(d.to_string())),
        };
        let Ok(text) = std::str::from_utf8(&payload) else {
            return Err(DbError::Query("frame payload is not UTF-8".into()));
        };
        if text == "BYE" {
            return Ok(());
        }
        let Some(max) = text
            .strip_prefix("PULL ")
            .and_then(|n| n.trim().parse::<u64>().ok())
        else {
            let head: String = text.chars().take(32).collect();
            return Err(DbError::Query(format!(
                "unknown replication command {head}"
            )));
        };

        live.flush()?;
        let mut batch: Vec<(Vec<u8>, u64)> = Vec::new();
        cursor.pump(max.clamp(1, 65_536), |payload, after| {
            batch.push((payload, after));
        })?;
        // Catalog snapshot AFTER reading WAL bytes: any entry sealed at
        // a count we just read past is already visible, so no crossing
        // is ever missed (the entry is persisted under the LiveDb lock
        // before any later record becomes durable).
        let entries = live.catalog_snapshot().generations;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut due = |upto: u64, frames: &mut Vec<Vec<u8>>| {
            for g in entries.iter().filter(|g| g.records <= upto) {
                if marked.insert(g.index) {
                    frames.push(
                        format!("S {} {} {:08x}", g.index, g.records, g.stream_crc).into_bytes(),
                    );
                }
            }
        };
        due(cursor.replay.records - batch.len() as u64, &mut frames);
        for (payload, after) in &batch {
            let mut frame = Vec::with_capacity(payload.len() + 2);
            frame.extend_from_slice(b"W ");
            frame.extend_from_slice(payload);
            frames.push(frame);
            due(*after, &mut frames);
        }
        frames.push(
            format!(
                "E {} {:08x} {} {} {} {}",
                cursor.replay.records,
                cursor.replay.crc.finish(),
                live.epoch(),
                cursor.seg,
                cursor.bytes_done,
                live.status().records,
            )
            .into_bytes(),
        );
        let ship = (|| -> io::Result<()> {
            for f in &frames {
                write_frame(writer, f)?;
            }
            writer.flush()
        })();
        if ship.is_err() {
            return Ok(());
        }
    }
}

// --------------------------------------------------------- replica side

/// Replica-side tuning; `Default` suits tests.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// The primary's ingest address.
    pub upstream: String,
    /// Records requested per `PULL`.
    pub pull_max: u64,
    /// Sleep between polls once caught up.
    pub poll_interval: Duration,
    /// Reconnect backoff (jittered; the loop never gives up — promotion
    /// or shutdown ends it).
    pub retry: RetryPolicy,
    /// Promote automatically after this long without a healthy exchange
    /// with the upstream. `None` = manual promotion only.
    pub auto_promote_after: Option<Duration>,
    /// Fault injection on the replication link (None ⇒ plain TCP).
    pub chaos: Option<NetChaosConfig>,
    /// Deterministic kill-switch for the link (tests sever/flap it).
    pub breaker: Option<LinkBreaker>,
}

impl ReplicaConfig {
    pub fn new(upstream: &str) -> ReplicaConfig {
        ReplicaConfig {
            upstream: upstream.to_string(),
            pull_max: 512,
            poll_interval: Duration::from_millis(25),
            retry: RetryPolicy::default(),
            auto_promote_after: None,
            chaos: None,
            breaker: None,
        }
    }
}

/// Point-in-time replication numbers, for STATS and tests.
#[derive(Clone, Debug)]
pub struct ReplicationStats {
    /// `primary` or `replica`.
    pub role: &'static str,
    pub fenced: bool,
    pub epoch: u64,
    /// Records the upstream holds beyond this node (0 when caught up).
    pub lag: u64,
    pub connects: u64,
    /// Records applied through the sync loop since start.
    pub applied: u64,
    /// Seal markers executed since start.
    pub seals: u64,
    pub last_error: Option<String>,
}

struct SyncShared {
    stop: AtomicBool,
    /// Serializes frame application against promotion: `promote_node`
    /// sets `stop` and then takes this lock, so once a promotion
    /// returns, the sync loop can never apply another upstream frame —
    /// a promoted node's history is cut exactly at the promotion point.
    apply_gate: parking_lot::Mutex<()>,
    lag: AtomicU64,
    connects: AtomicU64,
    applied: AtomicU64,
    seals: AtomicU64,
    promoted: AtomicBool,
    last_ok: parking_lot::Mutex<Instant>,
    last_error: parking_lot::Mutex<Option<String>>,
    tally: Arc<NetChaosTally>,
}

/// A running replica sync loop (plus the role bookkeeping that outlives
/// it after a promotion).
pub struct Replication {
    live: Arc<LiveDb>,
    role: Arc<Role>,
    shared: Arc<SyncShared>,
    thread: Option<JoinHandle<()>>,
}

enum SessionEnd {
    /// Stop flag observed; loop is done.
    Stopped,
    /// Connection-level failure; reconnect with backoff.
    Soft(String),
    /// Typed refusal that retrying cannot fix.
    Fatal(DbError),
}

impl Replication {
    /// Start syncing `live` from `cfg.upstream`. The returned handle is
    /// also the [`ServerAdmin`] backing `PROMOTE` and the STATS lines.
    pub fn start(live: Arc<LiveDb>, cfg: ReplicaConfig) -> Replication {
        let role = Arc::new(Role::replica_of(&cfg.upstream));
        let shared = Arc::new(SyncShared {
            stop: AtomicBool::new(false),
            apply_gate: parking_lot::Mutex::new(()),
            lag: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
            last_ok: parking_lot::Mutex::new(Instant::now()),
            last_error: parking_lot::Mutex::new(None),
            tally: Arc::new(NetChaosTally::default()),
        });
        let thread = {
            let live = Arc::clone(&live);
            let role = Arc::clone(&role);
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_sync_loop(&live, &role, &shared, &cfg))
        };
        Replication {
            live,
            role,
            shared,
            thread: Some(thread),
        }
    }

    pub fn role(&self) -> Arc<Role> {
        Arc::clone(&self.role)
    }

    /// Faults the chaos layer injected on the replication link.
    pub fn link_faults(&self) -> u64 {
        self.shared.tally.total()
    }

    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            role: if self.role.is_readonly() {
                "replica"
            } else {
                "primary"
            },
            fenced: self.role.is_fenced(),
            epoch: self.live.epoch(),
            lag: self.shared.lag.load(Ordering::Relaxed),
            connects: self.shared.connects.load(Ordering::Relaxed),
            applied: self.shared.applied.load(Ordering::Relaxed),
            seals: self.shared.seals.load(Ordering::Relaxed),
            last_error: self.shared.last_error.lock().clone(),
        }
    }

    /// Did the loop auto-promote (health-check timeout)?
    pub fn auto_promoted(&self) -> bool {
        self.shared.promoted.load(Ordering::Relaxed)
    }

    /// Manual promotion: stop following, bump the epoch, start accepting
    /// writes. Refused on a fenced node — its history already forked.
    pub fn promote(&self) -> Result<u64, DbError> {
        promote_node(&self.live, &self.role, Some(&self.shared))
    }

    /// Stop the sync loop (without promoting) and wait for it: what
    /// dropping the handle does.
    pub fn shutdown(self) {}
}

impl Drop for Replication {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn promote_node(live: &LiveDb, role: &Role, shared: Option<&SyncShared>) -> Result<u64, DbError> {
    if role.is_fenced() {
        return Err(DbError::Fenced {
            local_epoch: live.epoch(),
            peer_epoch: 0,
            detail: format!(
                "fenced node cannot be promoted: {}",
                role.fence_reason().unwrap_or_default()
            ),
        });
    }
    if let Some(s) = shared {
        s.stop.store(true, Ordering::SeqCst);
        // Wait out any in-flight frame application: holding the gate
        // with the stop flag set guarantees no upstream record or seal
        // lands after this promotion returns.
        drop(s.apply_gate.lock());
    }
    let epoch = live.promote()?;
    role.promote_to_primary();
    Ok(epoch)
}

fn run_sync_loop(live: &LiveDb, role: &Role, shared: &SyncShared, cfg: &ReplicaConfig) {
    let mut failures: u32 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        if let Some(limit) = cfg.auto_promote_after {
            if shared.last_ok.lock().elapsed() > limit && !role.is_fenced() {
                if promote_node(live, role, Some(shared)).is_ok() {
                    shared.promoted.store(true, Ordering::SeqCst);
                }
                return;
            }
        }
        let connects = shared.connects.fetch_add(1, Ordering::Relaxed) + 1;
        match sync_once(live, shared, cfg, connects) {
            Ok(SessionEnd::Stopped) => return,
            Ok(SessionEnd::Soft(why)) => {
                failures += 1;
                *shared.last_error.lock() = Some(why);
            }
            Ok(SessionEnd::Fatal(e)) => {
                *shared.last_error.lock() = Some(e.to_string());
                match e {
                    DbError::Fenced { .. } | DbError::Diverged(_) => {
                        role.fence(&e.to_string());
                    }
                    _ => {}
                }
                return;
            }
            Err(e) => {
                // Local durability failure — fatal; serving stale reads
                // is still fine, applying more is not.
                *shared.last_error.lock() = Some(e.to_string());
                return;
            }
        }
        // Bounded, jittered reconnect backoff; capped so the
        // auto-promote health check keeps getting evaluated.
        let delay = cfg
            .retry
            .delay_for_jittered(failures.min(cfg.retry.max_attempts.max(1)), connects);
        sleep_watching_stop(shared, delay);
    }
}

fn sleep_watching_stop(shared: &SyncShared, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.stop.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(5).min(total));
    }
}

/// One connection's worth of syncing: SYNC handshake, then PULL batches
/// until the link drops, the stop flag is set, or a typed refusal.
/// Read one frame off the wire as UTF-8 text; every failure mode is a
/// soft session end (reconnect and resume from the durable cursor).
fn next_text(wire: &mut Wire) -> Result<String, SessionEnd> {
    match FrameReader::new(&mut *wire).next_frame() {
        Ok(FrameEvent::Frame(p)) => match String::from_utf8(p) {
            Ok(t) => Ok(t),
            Err(_) => Err(SessionEnd::Soft("non-UTF-8 frame from upstream".into())),
        },
        Ok(FrameEvent::Eof) => Err(SessionEnd::Soft("upstream closed".into())),
        Ok(FrameEvent::Damaged(d)) => Err(SessionEnd::Soft(format!("damaged frame: {d}"))),
        Err(e) => Err(SessionEnd::Soft(format!("read: {e}"))),
    }
}

fn sync_once(
    live: &LiveDb,
    shared: &SyncShared,
    cfg: &ReplicaConfig,
    connects: u64,
) -> Result<SessionEnd, DbError> {
    let stream = match TcpStream::connect(&cfg.upstream) {
        Ok(s) => s,
        Err(e) => return Ok(SessionEnd::Soft(format!("connect {}: {e}", cfg.upstream))),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut wire = match &cfg.chaos {
        None => Wire::Plain(stream),
        Some(chaos) => {
            let mut cs = ChaosStream::new(stream, *chaos, connects, Arc::clone(&shared.tally));
            if let Some(b) = &cfg.breaker {
                cs = cs.with_breaker(b.clone());
            }
            Wire::Chaos(Box::new(cs))
        }
    };
    // Un-chaosed breaker support: a severed link must fail even without
    // probabilistic chaos configured.
    if let (None, Some(b)) = (&cfg.chaos, &cfg.breaker) {
        if b.is_severed() {
            return Ok(SessionEnd::Soft("link severed".into()));
        }
    }

    macro_rules! soft {
        ($($arg:tt)*) => {
            return Ok(SessionEnd::Soft(format!($($arg)*)))
        };
    }

    // Announce our durable cursor: flush first so the (records, crc)
    // pair we claim is exactly what our own crash recovery would rebuild.
    live.flush()?;
    let status = live.status();
    let sync = format!(
        "SYNC {} {} {:08x} {} {}",
        live.epoch(),
        status.records,
        status.stream_crc,
        0,
        0,
    );
    if let Err(e) = wire
        .write_all(MAGIC)
        .and_then(|()| write_frame(&mut wire, sync.as_bytes()))
        .and_then(|()| wire.flush())
    {
        soft!("handshake write: {e}");
    }
    match FrameReader::new(&mut wire).expect_magic() {
        Ok(true) => {}
        Ok(false) => soft!("upstream did not open with UCSEG1"),
        Err(e) => soft!("handshake read: {e}"),
    }

    let hello = match next_text(&mut wire) {
        Ok(t) => t,
        Err(end) => return Ok(end),
    };
    match parse_reply(&hello) {
        Reply::SyncOk { epoch, total } => {
            if epoch < live.epoch() {
                // We are ahead of our upstream: it is the stale node.
                return Ok(SessionEnd::Fatal(DbError::Fenced {
                    local_epoch: live.epoch(),
                    peer_epoch: epoch,
                    detail: "upstream announces a superseded epoch".into(),
                }));
            }
            live.adopt_epoch(epoch)?;
            shared
                .lag
                .store(total.saturating_sub(status.records), Ordering::Relaxed);
            *shared.last_ok.lock() = Instant::now();
        }
        Reply::Err { kind, msg } => return Ok(classify_refusal(&kind, &msg, live.epoch())),
        Reply::Other(t) => soft!("unexpected handshake reply: {t}"),
    }

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = write_frame(&mut wire, b"BYE").and_then(|()| wire.flush());
            return Ok(SessionEnd::Stopped);
        }
        let pull = format!("PULL {}", cfg.pull_max.max(1));
        if let Err(e) = write_frame(&mut wire, pull.as_bytes()).and_then(|()| wire.flush()) {
            soft!("pull write: {e}");
        }
        let caught_up: bool;
        loop {
            let text = match next_text(&mut wire) {
                Ok(t) => t,
                Err(end) => return Ok(end),
            };
            if let Some(payload) = text.strip_prefix("W ") {
                let Some(rec) = decode_wal_payload(payload.as_bytes()) else {
                    soft!("undecodable shipped record");
                };
                let _gate = shared.apply_gate.lock();
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = write_frame(&mut wire, b"BYE").and_then(|()| wire.flush());
                    return Ok(SessionEnd::Stopped);
                }
                match live.ingest(rec.node, rec.seq, &rec.line)? {
                    crate::catalog::IngestOutcome::Accepted => {
                        shared.applied.fetch_add(1, Ordering::Relaxed);
                    }
                    crate::catalog::IngestOutcome::Duplicate => {}
                    crate::catalog::IngestOutcome::Gap { expected } => {
                        return Ok(SessionEnd::Fatal(DbError::Diverged(format!(
                            "shipped record for {} jumped to seq {} (expected {expected})",
                            rec.node, rec.seq
                        ))));
                    }
                }
                continue;
            }
            if let Some(rest) = text.strip_prefix("S ") {
                let mut it = rest.split(' ');
                let (Some(genx), Some(records), Some(crc)) = (
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| u32::from_str_radix(s, 16).ok()),
                ) else {
                    soft!("unparseable seal marker: {text}");
                };
                let _gate = shared.apply_gate.lock();
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = write_frame(&mut wire, b"BYE").and_then(|()| wire.flush());
                    return Ok(SessionEnd::Stopped);
                }
                match live.seal_replica(genx, records, crc) {
                    Ok(()) => {
                        shared.seals.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e @ DbError::Diverged(_)) => return Ok(SessionEnd::Fatal(e)),
                    Err(e) => return Err(e),
                }
                continue;
            }
            if let Some(rest) = text.strip_prefix("E ") {
                let mut it = rest.split(' ');
                let (Some(records), Some(crc), Some(epoch), Some(_seg), Some(_off), Some(total)) = (
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| u32::from_str_radix(s, 16).ok()),
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                    it.next().and_then(|s| s.parse::<u64>().ok()),
                ) else {
                    soft!("unparseable batch end: {text}");
                };
                // write-before-ack: in the WAL file before the cursor
                // advances (no fsync; that waits for the next seal).
                live.flush()?;
                let now = live.status();
                if now.records != records || now.stream_crc != crc {
                    return Ok(SessionEnd::Fatal(DbError::Diverged(format!(
                        "after batch, local state is {} records crc {:08x}, \
                         upstream says {records} crc {crc:08x}",
                        now.records, now.stream_crc
                    ))));
                }
                live.adopt_epoch(epoch)?;
                shared
                    .lag
                    .store(total.saturating_sub(records), Ordering::Relaxed);
                *shared.last_ok.lock() = Instant::now();
                caught_up = records >= total;
                break;
            }
            if let Some(rest) = text.strip_prefix("ERR ") {
                let (kind, msg) = rest.split_once(": ").unwrap_or((rest, ""));
                return Ok(classify_refusal(kind, msg, live.epoch()));
            }
            soft!("unexpected shipped frame: {text}");
        }
        if caught_up {
            sleep_watching_stop(shared, cfg.poll_interval);
        }
    }
}

enum Reply {
    SyncOk { epoch: u64, total: u64 },
    Err { kind: String, msg: String },
    Other(String),
}

fn parse_reply(text: &str) -> Reply {
    if let Some(rest) = text.strip_prefix("SYNCOK ") {
        let mut it = rest.split(' ');
        if let (Some(epoch), Some(total)) = (
            it.next().and_then(|s| s.parse().ok()),
            it.next().and_then(|s| s.parse().ok()),
        ) {
            return Reply::SyncOk { epoch, total };
        }
    }
    if let Some(rest) = text.strip_prefix("ERR ") {
        let (kind, msg) = rest.split_once(": ").unwrap_or((rest, ""));
        return Reply::Err {
            kind: kind.to_string(),
            msg: msg.to_string(),
        };
    }
    Reply::Other(text.to_string())
}

fn classify_refusal(kind: &str, msg: &str, local_epoch: u64) -> SessionEnd {
    match kind {
        "fenced" => SessionEnd::Fatal(DbError::Fenced {
            local_epoch,
            peer_epoch: 0,
            detail: msg.to_string(),
        }),
        "diverged" => SessionEnd::Fatal(DbError::Diverged(msg.to_string())),
        _ if retryable(kind) => SessionEnd::Soft(format!("{kind}: {msg}")),
        _ => SessionEnd::Fatal(DbError::Query(format!(
            "upstream rejected sync: {kind}: {msg}"
        ))),
    }
}

// ---------------------------------------------------------------- admin

/// The [`ServerAdmin`] a serving node exposes on its query port: STATS
/// lines for role/epoch/lag, and the `PROMOTE` command.
pub struct NodeAdmin {
    live: Arc<LiveDb>,
    role: Arc<Role>,
    repl: Option<Arc<Replication>>,
}

impl NodeAdmin {
    /// Admin for a plain primary (no sync loop).
    pub fn primary(live: Arc<LiveDb>, role: Arc<Role>) -> NodeAdmin {
        NodeAdmin {
            live,
            role,
            repl: None,
        }
    }

    /// Admin for a syncing replica.
    pub fn replica(live: Arc<LiveDb>, repl: Arc<Replication>) -> NodeAdmin {
        NodeAdmin {
            live,
            role: repl.role(),
            repl: Some(repl),
        }
    }
}

impl ServerAdmin for NodeAdmin {
    fn stats_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "repl_role {}",
                if self.role.is_readonly() {
                    "replica"
                } else {
                    "primary"
                }
            ),
            format!("repl_epoch {}", self.live.epoch()),
            format!("repl_fenced {}", self.role.is_fenced()),
        ];
        if let Some(r) = &self.repl {
            let s = r.stats();
            lines.push(format!("repl_lag {}", s.lag));
            lines.push(format!("repl_connects {}", s.connects));
            lines.push(format!("repl_applied {}", s.applied));
        }
        lines
    }

    fn promote(&self) -> Result<u64, DbError> {
        match &self.repl {
            Some(r) => r.promote(),
            None => promote_node(&self.live, &self.role, None),
        }
    }
}

// ------------------------------------------------------------- selftest

/// What [`repl_selftest`] proved.
#[derive(Clone, Debug)]
pub struct ReplSelftestReport {
    /// Records pushed by the chaos clients and replicated.
    pub records: u64,
    /// Generation both nodes ended on.
    pub generation: u64,
    /// Size of the byte-compared generation file.
    pub gen_bytes: u64,
    /// Replica reconnects survived (chaos-driven).
    pub connects: u64,
    /// Chaos faults injected across the replication link.
    pub link_faults: u64,
    /// Epoch after the failover promotion.
    pub epoch: u64,
}

impl ReplSelftestReport {
    pub fn render(&self) -> String {
        format!(
            "replication selftest: {} records replicated through gen {} \
             ({} bytes, byte-identical) over {} connects / {} injected link faults; \
             promoted to epoch {}",
            self.records,
            self.generation,
            self.gen_bytes,
            self.connects,
            self.link_faults,
            self.epoch
        )
    }
}

/// End-to-end replication proof under deterministic chaos, run by
/// `uc serve --ingest --selftest-repl` and CI: a primary ingests pushed
/// records through a chaotic link while a replica syncs over an equally
/// chaotic link; the selftest verifies the replica converges to the
/// primary's exact `(records, crc)` cursor, seals **byte-identical**
/// generation files, then promotes cleanly with an epoch bump.
pub fn repl_selftest(seed: u64) -> Result<ReplSelftestReport, DbError> {
    use crate::ingest_server::{stream_lines, IngestConfig, IngestServer, StreamOptions};
    use uc_cluster::NodeId;

    let base = std::env::temp_dir().join(format!("uc-repl-selftest-{}-{seed}", std::process::id()));
    let pdir = base.join("primary");
    let rdir = base.join("replica");
    let _ = std::fs::remove_dir_all(&base);

    let (primary, _) = LiveDb::open(&pdir)?;
    let primary = Arc::new(primary);
    let role = Arc::new(Role::primary());
    let cfg = IngestConfig {
        workers: 4,
        ..IngestConfig::default()
    };
    let server = IngestServer::start_with_role(Arc::clone(&primary), &cfg, Some(role))?;
    let addr = server.local_addr();

    // Replica follows over a hostile link from the start, so catch-up
    // overlaps live ingest (the hard case: cursor chasing a moving head).
    let (replica, _) = LiveDb::open(&rdir)?;
    let replica = Arc::new(replica);
    let mut rcfg = ReplicaConfig::new(&addr.to_string());
    rcfg.chaos = Some(NetChaosConfig::hostile(seed ^ 0xD15E));
    rcfg.poll_interval = Duration::from_millis(5);
    let repl = Replication::start(Arc::clone(&replica), rcfg);

    // Chaos clients push through the public path.
    let clients = 4usize;
    let per_client = 25u64;
    let pushers: Vec<_> = (0..clients)
        .map(|c| {
            let node = format!("{:02}-{:02}", 1 + c / 8, 1 + c % 8);
            let lines: Vec<String> = (0..per_client)
                .map(|i| {
                    format!(
                        "ERROR t={} node={node} vaddr=0x00000400 page=0x000000 \
                         expected=0xffffffff actual=0xfffffffe temp=33.0",
                        60 + i as i64 * 7200
                    )
                })
                .collect();
            let opts = StreamOptions {
                batch: 8,
                seal_at_end: c == 0,
                chaos: Some(NetChaosConfig::hostile(
                    seed ^ (c as u64).wrapping_mul(0x9E37),
                )),
                ..StreamOptions::default()
            };
            thread::spawn(move || {
                let node = NodeId::from_name(&node).expect("selftest node name");
                stream_lines(addr, node, &lines, &opts, None)
            })
        })
        .collect();
    for p in pushers {
        p.join()
            .map_err(|_| DbError::Query("selftest pusher panicked".into()))??;
    }
    primary.seal()?;

    let want = clients as u64 * per_client;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (ps, rs) = (primary.status(), replica.status());
        if rs.records == want
            && ps.records == want
            && rs.stream_crc == ps.stream_crc
            && rs.generation == ps.generation
        {
            break;
        }
        if Instant::now() > deadline {
            return Err(DbError::Catalog(format!(
                "selftest replica stuck at {} records gen {} (primary: {} gen {}): {:?}",
                rs.records,
                rs.generation,
                ps.records,
                ps.generation,
                repl.stats().last_error
            )));
        }
        thread::sleep(Duration::from_millis(10));
    }

    let generation = primary.status().generation;
    let gen = crate::catalog::gen_file_name(generation);
    let pb = std::fs::read(pdir.join(&gen)).map_err(|e| DbError::io(pdir.join(&gen), e))?;
    let rb = std::fs::read(rdir.join(&gen)).map_err(|e| DbError::io(rdir.join(&gen), e))?;
    if pb != rb {
        return Err(DbError::Catalog(format!(
            "replica generation {gen} differs from primary ({} vs {} bytes)",
            rb.len(),
            pb.len()
        )));
    }

    // Failover: stop the primary, promote the replica.
    server.shutdown();
    server.join();
    let stats = repl.stats();
    let link_faults = repl.link_faults();
    let epoch = repl.promote()?;
    repl.shutdown();
    if replica.epoch() != epoch || epoch == 0 {
        return Err(DbError::Catalog(format!(
            "promotion did not persist: epoch {} on disk, {epoch} returned",
            replica.epoch()
        )));
    }

    let report = ReplSelftestReport {
        records: want,
        generation,
        gen_bytes: pb.len() as u64,
        connects: stats.connects,
        link_faults,
        epoch,
    };
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&base);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::LiveDb;
    use crate::ingest_server::{IngestConfig, IngestServer};
    use std::fs;
    use uc_cluster::NodeId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-repl-{tag}-{}", std::process::id()));
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

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn replica_catches_up_and_seals_byte_identical() {
        let pdir = tmpdir("ship-p");
        let rdir = tmpdir("ship-r");
        let (primary, _) = LiveDb::open(&pdir).unwrap();
        let primary = Arc::new(primary);
        for i in 0..20 {
            primary
                .ingest(n("01-01"), i, &error_line("01-01", 60 + i as i64 * 7200))
                .unwrap();
            primary
                .ingest(n("01-02"), i, &error_line("01-02", 90 + i as i64 * 7200))
                .unwrap();
        }
        primary.seal().unwrap();
        let server =
            IngestServer::start_with_role(Arc::clone(&primary), &IngestConfig::default(), None)
                .unwrap();

        let (replica, _) = LiveDb::open(&rdir).unwrap();
        let replica = Arc::new(replica);
        let repl = Replication::start(
            Arc::clone(&replica),
            ReplicaConfig::new(&server.local_addr().to_string()),
        );
        wait_for(
            || replica.status().records == 40 && replica.status().generation > 1,
            "replica catch-up",
        );
        // More records while the stream is live, plus another seal.
        for i in 20..30 {
            primary
                .ingest(n("01-01"), i, &error_line("01-01", 60 + i as i64 * 7200))
                .unwrap();
        }
        primary.seal().unwrap();
        wait_for(|| replica.status().records == 50, "incremental catch-up");
        wait_for(
            || replica.status().generation == primary.status().generation,
            "seal marker replay",
        );

        let ps = primary.status();
        let rs = replica.status();
        assert_eq!((rs.records, rs.stream_crc), (ps.records, ps.stream_crc));
        assert_eq!(rs.generation, ps.generation);
        // The tentpole invariant: generation files byte-identical.
        let gen = crate::catalog::gen_file_name(ps.generation);
        assert_eq!(
            fs::read(pdir.join(&gen)).unwrap(),
            fs::read(rdir.join(&gen)).unwrap(),
            "replica generation must be byte-identical"
        );
        assert_eq!(repl.stats().lag, 0);
        repl.shutdown();
        server.shutdown();
        server.join();
        fs::remove_dir_all(&pdir).unwrap();
        fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn stale_peer_is_fenced_and_higher_epoch_fences_the_server() {
        let pdir = tmpdir("fence-p");
        let (primary, _) = LiveDb::open(&pdir).unwrap();
        let primary = Arc::new(primary);
        primary
            .ingest(n("01-01"), 0, &error_line("01-01", 60))
            .unwrap();
        primary.flush().unwrap();
        let role = Arc::new(Role::primary());
        let server = IngestServer::start_with_role(
            Arc::clone(&primary),
            &IngestConfig::default(),
            Some(Arc::clone(&role)),
        )
        .unwrap();

        // A "replica" with forked history at a stale epoch: claims 1
        // record with the wrong crc while the server stands at epoch 1.
        primary.promote().unwrap();
        let rdir = tmpdir("fence-r");
        let (forked, _) = LiveDb::open(&rdir).unwrap();
        let forked = Arc::new(forked);
        forked
            .ingest(n("01-01"), 0, &error_line("01-01", 999_999))
            .unwrap();
        forked.flush().unwrap();
        let repl = Replication::start(
            Arc::clone(&forked),
            ReplicaConfig::new(&server.local_addr().to_string()),
        );
        wait_for(|| repl.stats().fenced, "fencing of the forked peer");
        assert!(repl.role().fence_reason().unwrap().contains("crc"));

        // And the reverse: a peer announcing a *higher* epoch fences the
        // serving node itself.
        use crate::ingest_server::Wire;
        use std::io::BufReader;
        let mut wire = Wire::Plain(TcpStream::connect(server.local_addr()).unwrap());
        wire.write_all(MAGIC).unwrap();
        write_frame(&mut wire, b"SYNC 99 0 00000000 0 0").unwrap();
        wire.flush().unwrap();
        let mut r = FrameReader::new(BufReader::new(match &wire {
            Wire::Plain(s) => s.try_clone().unwrap(),
            Wire::Chaos(_) => unreachable!(),
        }));
        assert!(r.expect_magic().unwrap());
        match r.next_frame().unwrap() {
            FrameEvent::Frame(p) => {
                let text = String::from_utf8_lossy(&p).into_owned();
                assert!(text.starts_with("ERR fenced:"), "{text}");
            }
            other => panic!("expected fenced refusal, got {other:?}"),
        }
        assert!(role.is_fenced(), "server learned it is stale");

        repl.shutdown();
        server.shutdown();
        server.join();
        fs::remove_dir_all(&pdir).unwrap();
        fs::remove_dir_all(&rdir).unwrap();
    }

    #[test]
    fn selftest_roundtrip() {
        let report = repl_selftest(1).unwrap();
        assert_eq!(report.records, 100);
        assert!(report.generation >= 1);
        assert_eq!(report.epoch, 1);
        assert!(report.render().contains("byte-identical"));
    }

    #[test]
    fn auto_promote_fires_after_silence_and_bumps_epoch() {
        let rdir = tmpdir("autop");
        let (replica, _) = LiveDb::open(&rdir).unwrap();
        let replica = Arc::new(replica);
        // Upstream that never answers: a port with no listener.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap();
            drop(l);
            addr
        };
        let mut cfg = ReplicaConfig::new(&dead.to_string());
        cfg.auto_promote_after = Some(Duration::from_millis(200));
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
        };
        let repl = Replication::start(Arc::clone(&replica), cfg);
        wait_for(|| repl.auto_promoted(), "auto-promotion");
        assert_eq!(replica.epoch(), 1);
        assert!(!repl.role().is_readonly(), "promoted node accepts writes");
        repl.shutdown();
        fs::remove_dir_all(&rdir).unwrap();
    }
}
