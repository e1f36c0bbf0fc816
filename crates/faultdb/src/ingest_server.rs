//! Framed TCP push ingest for a live database — `uc stream` on the node
//! side, `uc serve --ingest` on the server side.
//!
//! The wire protocol *is* the durable segment format
//! ([`uc_faultlog::durable`]): each direction opens with the `UCSEG1\n`
//! magic and then speaks length-prefixed, CRC-framed payloads — the same
//! bytes a node's durable logger writes to disk, so a torn TCP stream and
//! a torn file are the same problem with the same detector. Client
//! payloads:
//!
//! ```text
//! HELLO <node>        open a session for one node  → ACK <next-seq>
//! REC <seq> <line>    push record <seq> (no per-record reply)
//! FLUSH               write pushes to the WAL (fsynced at the next seal) → ACK <next-seq>
//! SEAL                flush + rebuild the served generation → ACK <next-seq>
//! BYE                 flush + close                 → ACK <next-seq>
//! ```
//!
//! [`stream_lines`] sends each message group in one write, and its final
//! batch carries the parting command in place of `FLUSH`. A session of
//! `n` lines with batch `b` reads, one row per write:
//!
//! ```text
//! UCSEG1 HELLO            → UCSEG1 ACK   (the server's magic rides its first reply)
//! REC ×b FLUSH            → ACK          (while more than b lines remain)
//! REC ×rest BYE|SEAL      → ACK
//! ```
//!
//! so up to `b` lines cost two round trips. The server still accepts the
//! `FLUSH`-then-`BYE` ending that older clients send. It writes through
//! one buffer and flushes each reply, so it says nothing before it has
//! read a command: **a client sends its magic and first frame before it
//! reads.**
//!
//! Server payloads are `ACK <next-seq>` or `ERR <kind>: <message>`. The
//! `ACK` is the *only* durability signal: it is sent after the WAL
//! write, never before, and it carries the server's cursor. The write is
//! not fsynced until the next seal, so acked records survive a process
//! crash but a power loss can lose those acked since that seal. A client
//! that reconnects (after a drop, a garbage frame, a crash) re-HELLOs,
//! reads the cursor, and resumes from there — records below the cursor
//! are never re-sent, records the server never flushed are; the
//! server ignores the duplicates a crashed-ack race can produce
//! ([`IngestOutcome::Duplicate`]). No loss, no double-count, for any
//! interleaving of failures. Sequence numbers *ahead* of the cursor are
//! a client-side bug and are rejected hard (`ERR gap`).
//!
//! Sessions run on the connection runtime the query server uses (bounded
//! admission shedding with a framed `ERR overloaded`, a per-connection
//! read deadline, prompt shutdown); a frame-size cap is inherited from
//! the segment format, and any damaged frame ends the connection with a
//! typed error — the stream past unverifiable bytes is unverifiable too.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use uc_cluster::NodeId;
use uc_faultlog::chaos::{ChaosStream, NetChaosConfig, NetChaosTally};
use uc_faultlog::durable::{push_frame, write_frame, FrameEvent, FrameReader, RetryPolicy, MAGIC};

use crate::catalog::{IngestOutcome, LiveDb};
use crate::error::{retryable, DbError};
use crate::listener::ShutdownHandle;

/// Ingest-side tuning; `Default` suits tests.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling admitted node sessions.
    pub workers: usize,
    /// Admission queue capacity; sessions beyond it are rejected.
    pub queue: usize,
    /// Per-connection read deadline: a stalled or silent peer is
    /// disconnected, never waited on forever.
    pub idle_timeout: Duration,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 16,
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// Monotonic ingest counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestServerStats {
    /// Sessions admitted and handled.
    pub sessions: u64,
    /// Sessions shed at admission with `ERR overloaded`.
    pub rejected: u64,
    /// Connections ended by a typed protocol error (bad magic, damaged
    /// frame, gap, bad node …).
    pub protocol_errors: u64,
}

struct Inner {
    live: Arc<LiveDb>,
    sessions: AtomicU64,
    protocol_errors: AtomicU64,
    /// Replication role, when this node is part of a replicated pair:
    /// replicas refuse pushes, fenced nodes refuse everything.
    role: Option<Arc<crate::repl::Role>>,
}

/// A running ingest server over a shared [`LiveDb`].
pub struct IngestServer {
    inner: Arc<Inner>,
    conns: ShutdownHandle,
}

impl IngestServer {
    pub fn start(live: Arc<LiveDb>, cfg: &IngestConfig) -> Result<IngestServer, DbError> {
        IngestServer::start_with_role(live, cfg, None)
    }

    /// [`IngestServer::start`] with a replication [`crate::repl::Role`]:
    /// pushes are refused on replicas (`readonly`) and on fenced nodes
    /// (`fenced`); `SYNC` sessions are served according to the role's
    /// fencing state.
    pub fn start_with_role(
        live: Arc<LiveDb>,
        cfg: &IngestConfig,
        role: Option<Arc<crate::repl::Role>>,
    ) -> Result<IngestServer, DbError> {
        let inner = Arc::new(Inner {
            live,
            sessions: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            role,
        });
        // Framed rejection: the client's frame reader parses it like any
        // other server reply.
        let mut shed = MAGIC.to_vec();
        shed.extend(uc_faultlog::durable::encode_frame(
            b"ERR overloaded: ingest admission queue full, retry later",
        ));
        let state = Arc::clone(&inner);
        let conns = crate::listener::start(
            &cfg.addr,
            cfg.workers,
            cfg.queue,
            cfg.idle_timeout,
            shed,
            move |conn, _| handle_session(&state, conn),
        )?;
        Ok(IngestServer { inner, conns })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    pub fn stats(&self) -> IngestServerStats {
        IngestServerStats {
            sessions: self.inner.sessions.load(Ordering::Relaxed),
            rejected: self.conns.rejected(),
            protocol_errors: self.inner.protocol_errors.load(Ordering::Relaxed),
        }
    }

    pub fn shutdown(&self) {
        self.conns.shutdown();
    }

    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.conns.clone()
    }

    pub fn join(self) -> IngestServerStats {
        self.conns.join();
        self.stats()
    }
}

/// Send one framed `ERR` and give up on the connection.
fn refuse(inner: &Inner, w: &mut impl Write, kind: &str, msg: &str) {
    inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = write_frame(w, format!("ERR {kind}: {msg}").as_bytes());
    let _ = w.flush();
}

fn ack(w: &mut impl Write, next_seq: u64) -> io::Result<()> {
    write_frame(w, format!("ACK {next_seq}").as_bytes())?;
    w.flush()
}

fn handle_session(inner: &Inner, stream: &TcpStream) {
    inner.sessions.fetch_add(1, Ordering::Relaxed);
    // Buffered, so the magic leaves with the first reply (an ACK, a
    // SYNCOK or a refusal); every reply flushes.
    let mut writer = BufWriter::new(stream);
    if writer.write_all(MAGIC).is_err() {
        return;
    }
    let mut reader = FrameReader::new(BufReader::new(stream));
    match reader.expect_magic() {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            refuse(
                inner,
                &mut writer,
                "badmagic",
                "stream does not open with UCSEG1",
            );
            return;
        }
    }

    let mut node: Option<NodeId> = None;
    // Records accepted since the last WAL flush on *this* connection.
    // On any exit — clean BYE, damaged frame, timeout — they are flushed
    // so a reconnecting client's HELLO cursor reflects them; without
    // this, the final ack the client never saw would also lose the
    // records behind it.
    let mut unflushed = false;
    macro_rules! flush_residue {
        () => {
            if unflushed {
                let _ = inner.live.flush();
            }
        };
    }
    loop {
        let event = match reader.next_frame() {
            Ok(ev) => ev,
            Err(_) => {
                flush_residue!();
                return;
            }
        };
        let payload = match event {
            FrameEvent::Eof => {
                flush_residue!();
                return;
            }
            FrameEvent::Damaged(damage) => {
                flush_residue!();
                refuse(inner, &mut writer, "badframe", &damage.to_string());
                return;
            }
            FrameEvent::Frame(p) => p,
        };
        let Ok(text) = std::str::from_utf8(&payload) else {
            flush_residue!();
            refuse(inner, &mut writer, "badframe", "payload is not UTF-8");
            return;
        };

        if let Some(rest) = text.strip_prefix("SYNC ") {
            // A replication session: hand the connection to the shipper.
            // It owns the wire from here; typed refusals come back as
            // errors for the usual framed ERR path.
            let rest = rest.to_string();
            if let Err(e) = crate::repl::serve_shipping(
                &inner.live,
                inner.role.as_deref(),
                &rest,
                &mut reader,
                &mut writer,
            ) {
                refuse(inner, &mut writer, e.kind(), &e.to_string());
            }
            return;
        }
        if let Some(name) = text.strip_prefix("HELLO ") {
            if let Some(role) = &inner.role {
                // Typed, fail-fast refusal before any state changes: a
                // client pushing at the wrong node learns *why* (and, for
                // readonly, where the primary is) instead of timing out.
                let refusal = if role.is_fenced() {
                    Some(DbError::Fenced {
                        local_epoch: inner.live.epoch(),
                        peer_epoch: 0,
                        detail: role
                            .fence_reason()
                            .unwrap_or_else(|| "this node is fenced".into()),
                    })
                } else if role.is_readonly() {
                    Some(DbError::ReadOnly {
                        upstream: role.upstream().unwrap_or_default(),
                    })
                } else {
                    None
                };
                if let Some(e) = refusal {
                    refuse(inner, &mut writer, e.kind(), &e.to_string());
                    return;
                }
            }
            let Some(id) = NodeId::from_name(name.trim()) else {
                refuse(
                    inner,
                    &mut writer,
                    "badnode",
                    &format!("unknown node {name}"),
                );
                return;
            };
            node = Some(id);
            if ack(&mut writer, inner.live.next_seq(id)).is_err() {
                return;
            }
            continue;
        }
        if let Some(rest) = text.strip_prefix("REC ") {
            let Some(id) = node else {
                refuse(inner, &mut writer, "badcmd", "REC before HELLO");
                return;
            };
            let Some((seq_s, line)) = rest.split_once(' ') else {
                refuse(inner, &mut writer, "badcmd", "REC needs <seq> <line>");
                return;
            };
            let Ok(seq) = seq_s.parse::<u64>() else {
                refuse(inner, &mut writer, "badcmd", "REC sequence is not a number");
                return;
            };
            match inner.live.ingest(id, seq, line) {
                Ok(IngestOutcome::Accepted) => unflushed = true,
                Ok(IngestOutcome::Duplicate) => {}
                Ok(IngestOutcome::Gap { expected }) => {
                    flush_residue!();
                    refuse(
                        inner,
                        &mut writer,
                        "gap",
                        &format!("expected sequence {expected}, got {seq}"),
                    );
                    return;
                }
                Err(e) => {
                    flush_residue!();
                    refuse(inner, &mut writer, e.kind(), &e.to_string());
                    return;
                }
            }
            continue;
        }
        match text {
            "FLUSH" | "BYE" | "SEAL" => {
                let Some(id) = node else {
                    refuse(
                        inner,
                        &mut writer,
                        "badcmd",
                        &format!("{text} before HELLO"),
                    );
                    return;
                };
                let result = if text == "SEAL" {
                    inner.live.seal().map(drop)
                } else {
                    inner.live.flush()
                };
                if let Err(e) = result {
                    refuse(inner, &mut writer, e.kind(), &e.to_string());
                    return;
                }
                unflushed = false;
                if ack(&mut writer, inner.live.next_seq(id)).is_err() {
                    return;
                }
                if text == "BYE" {
                    return;
                }
            }
            other => {
                flush_residue!();
                let head: String = other.chars().take(32).collect();
                refuse(
                    inner,
                    &mut writer,
                    "badcmd",
                    &format!("unknown command {head}"),
                );
                return;
            }
        }
    }
}

// ------------------------------------------------------------- client side

/// Transport selector for [`stream_lines`]: production TCP or the same
/// socket wrapped in the fault-injecting [`ChaosStream`].
pub enum Wire {
    Plain(TcpStream),
    Chaos(Box<ChaosStream<TcpStream>>),
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Wire::Plain(s) => s.read(buf),
            Wire::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Wire::Plain(s) => s.write(buf),
            Wire::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Wire::Plain(s) => s.flush(),
            Wire::Chaos(s) => s.flush(),
        }
    }
}

/// Client-side streaming knobs.
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Records per message group: each group is one write ending in
    /// `FLUSH` (the last in the parting command) and is acked once.
    pub batch: usize,
    /// Reconnect policy: `max_attempts` connection attempts with no
    /// cursor progress before giving up, with bounded exponential
    /// backoff (jittered per node/connect) between attempts. Progress
    /// (any ACK advancing the cursor) resets the budget — a lossy link
    /// that still moves forward eventually finishes.
    pub retry: RetryPolicy,
    /// Ask the server to seal a generation after the last record.
    pub seal_at_end: bool,
    /// Fault injection (None ⇒ plain TCP).
    pub chaos: Option<NetChaosConfig>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            batch: 64,
            retry: RetryPolicy {
                max_attempts: 10,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(100),
            },
            seal_at_end: false,
            chaos: None,
        }
    }
}

/// What a completed stream did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Records the server had written to its WAL by the final ACK.
    pub acked: u64,
    /// TCP connections opened (1 = no failure ever forced a retry).
    pub connects: u32,
    /// Soft failures survived (resets, injected drops, overload sheds).
    pub retries: u32,
}

enum AttemptEnd {
    /// Every record acked (and the final SEAL/BYE answered).
    Done,
    /// Connection lost / shed; reconnect and resume from the cursor.
    Soft(io::Error),
    /// The server rejected the session for a reason retrying cannot fix.
    Hard(DbError),
}

/// One server reply, read through the frame layer.
fn read_reply(wire: &mut Wire) -> io::Result<Result<u64, (String, String)>> {
    let event = FrameReader::new(&mut *wire).next_frame()?;
    let payload = match event {
        FrameEvent::Frame(p) => p,
        FrameEvent::Eof => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-reply",
            ))
        }
        FrameEvent::Damaged(d) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("damaged server frame: {d}"),
            ))
        }
    };
    let text = String::from_utf8_lossy(&payload).into_owned();
    if let Some(n) = text.strip_prefix("ACK ") {
        let next = n
            .trim()
            .parse::<u64>()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "unparseable ACK"))?;
        return Ok(Ok(next));
    }
    if let Some(rest) = text.strip_prefix("ERR ") {
        let (kind, msg) = rest.split_once(": ").unwrap_or((rest, ""));
        return Ok(Err((kind.to_string(), msg.to_string())));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparseable server reply: {text}"),
    ))
}

/// Stream `lines` (record `i` has sequence number `i`) for one node,
/// surviving disconnects, injected faults, and overload sheds by
/// reconnecting and resuming from the server's acked cursor. Returns
/// only once every record is acked, i.e. written to the server's WAL and
/// fsynced at its next seal (plus the final seal, if requested) — or a
/// hard, typed failure.
///
/// Each message group is one write: magic and `HELLO`, then each batch
/// of `REC` frames with its `FLUSH`. The final batch carries the parting
/// command (`BYE`, or `SEAL` under `seal_at_end`) in place of `FLUSH`,
/// and its ACK must equal the pushed end: a lower cursor reconnects and
/// resumes, a higher one is a hard error. A parting command with no
/// records before it accepts any ACK.
pub fn stream_lines(
    addr: SocketAddr,
    node: NodeId,
    lines: &[String],
    opts: &StreamOptions,
    tally: Option<Arc<NetChaosTally>>,
) -> Result<StreamReport, DbError> {
    let mut report = StreamReport::default();
    let mut cursor: u64 = 0;
    let mut attempts_without_progress: u32 = 0;
    loop {
        report.connects += 1;
        let before = cursor;
        let end = attempt(
            addr,
            node,
            lines,
            opts,
            &tally,
            &mut cursor,
            report.connects,
        );
        match end {
            AttemptEnd::Done => {
                report.acked = cursor;
                return Ok(report);
            }
            AttemptEnd::Hard(e) => return Err(e),
            AttemptEnd::Soft(e) => {
                report.retries += 1;
                if cursor > before {
                    attempts_without_progress = 0;
                } else {
                    attempts_without_progress += 1;
                    if attempts_without_progress >= opts.retry.max_attempts.max(1) {
                        return Err(DbError::io(
                            std::path::Path::new(&addr.to_string()),
                            io::Error::new(
                                e.kind(),
                                format!(
                                    "gave up after {} attempts without progress: {e}",
                                    attempts_without_progress
                                ),
                            ),
                        ));
                    }
                }
                // Jitter keyed by (node, connect): concurrent streamers
                // knocked over by the same fault desynchronize instead
                // of reconnecting in lockstep, deterministically.
                let key = (u64::from(node.0) << 32) | u64::from(report.connects);
                thread::sleep(
                    opts.retry
                        .delay_for_jittered(attempts_without_progress.max(1), key),
                );
            }
        }
    }
}

fn classify_err(kind: &str, msg: &str) -> AttemptEnd {
    if retryable(kind) {
        AttemptEnd::Soft(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("{kind}: {msg}"),
        ))
    } else {
        AttemptEnd::Hard(DbError::Query(format!(
            "server rejected stream: {kind}: {msg}"
        )))
    }
}

fn attempt(
    addr: SocketAddr,
    node: NodeId,
    lines: &[String],
    opts: &StreamOptions,
    tally: &Option<Arc<NetChaosTally>>,
    cursor: &mut u64,
    connect_index: u32,
) -> AttemptEnd {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return AttemptEnd::Soft(e),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut wire = match &opts.chaos {
        None => Wire::Plain(stream),
        Some(cfg) => {
            let tally = tally.clone().unwrap_or_default();
            // A fresh stream key per connection: each attempt draws its
            // own deterministic fault schedule instead of replaying the
            // last one (which could fail forever at the same byte).
            let key = (u64::from(node.0) << 32) | u64::from(connect_index);
            Wire::Chaos(Box::new(ChaosStream::new(stream, *cfg, key, tally)))
        }
    };

    macro_rules! soft {
        ($e:expr) => {
            return AttemptEnd::Soft($e)
        };
    }

    // Every message group is encoded into `out` and leaves in one write.
    let mut out = MAGIC.to_vec();
    push_frame(&mut out, format!("HELLO {node}").as_bytes());
    if let Err(e) = send(&mut wire, &out) {
        soft!(e);
    }
    match FrameReader::new(&mut wire).expect_magic() {
        Ok(true) => {}
        Ok(false) => soft!(io::Error::new(
            io::ErrorKind::InvalidData,
            "server did not open with UCSEG1"
        )),
        Err(e) => soft!(e),
    }
    match read_reply(&mut wire) {
        Ok(Ok(next)) => {
            // An empty line set is a control session (e.g. seal-only);
            // the server legitimately remembers records from earlier
            // sessions, so the collision check only applies when we
            // actually carry a corpus.
            if !lines.is_empty() && next > lines.len() as u64 {
                return AttemptEnd::Hard(DbError::Query(format!(
                    "server cursor {next} is past our {} records — node name collision?",
                    lines.len()
                )));
            }
            *cursor = (*cursor).max(next);
        }
        Ok(Err((kind, msg))) => return classify_err(&kind, &msg),
        Err(e) => soft!(e),
    }

    let batch = opts.batch.max(1);
    let parting: &[u8] = if opts.seal_at_end { b"SEAL" } else { b"BYE" };
    let mut i = *cursor as usize;
    loop {
        let upto = (i + batch).min(lines.len());
        // The final batch ends with the parting command instead of FLUSH,
        // so a session of up to `batch` lines costs two round trips.
        let last = upto == lines.len();
        out.clear();
        for (seq, line) in lines.iter().enumerate().take(upto).skip(i) {
            push_frame(&mut out, format!("REC {seq} {line}").as_bytes());
        }
        push_frame(&mut out, if last { parting } else { b"FLUSH" });
        if let Err(e) = send(&mut wire, &out) {
            soft!(e);
        }
        let next = match read_reply(&mut wire) {
            Ok(Ok(next)) => next,
            Ok(Err((kind, msg))) => return classify_err(&kind, &msg),
            Err(e) => soft!(e),
        };
        if i >= upto {
            // A parting command with no records (a control session, or
            // every record acked already) accepts any cursor.
            return AttemptEnd::Done;
        }
        if next < *cursor || next > upto as u64 {
            return AttemptEnd::Hard(DbError::Query(format!(
                "server cursor moved {} → {next}, outside the batch we pushed",
                *cursor
            )));
        }
        *cursor = next;
        if last {
            if next == upto as u64 {
                return AttemptEnd::Done;
            }
            // Not every record was acked: reconnect and resume from the
            // next HELLO's cursor.
            soft!(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("server acked {next} of {upto} records on the parting command"),
            ));
        }
        i = next as usize;
    }
}

/// Write one encoded message group: a single write call, so the server
/// wakes once per group rather than once per frame.
fn send(wire: &mut Wire, group: &[u8]) -> io::Result<()> {
    wire.write_all(group)?;
    wire.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::thread::JoinHandle;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-ing-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    /// Deterministic synthetic corpus for one node: a session with a burst
    /// of single-bit errors, shaped like the campaign's real logs.
    fn synthetic_lines(node: &str, records: usize) -> Vec<String> {
        let mut lines = Vec::with_capacity(records + 2);
        lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
        for k in 0..records {
            let vaddr = 0x400 + 0x100 * (k as u64);
            lines.push(format!(
                "ERROR t={t} node={node} vaddr=0x{vaddr:08x} page=0x{page:06x} \
                 expected=0xffffffff actual=0xfffffffe temp=33.0",
                t = 60 + 7200 * (k as i64),
                page = vaddr >> 12
            ));
        }
        lines.push(format!(
            "END t={t} node={node} temp=31.0",
            t = 7200 * records as i64 + 120
        ));
        lines
    }

    fn start_pair(dir: &Path, cfg: &IngestConfig) -> (Arc<LiveDb>, IngestServer) {
        let (live, _) = LiveDb::open(dir).unwrap();
        let live = Arc::new(live);
        let server = IngestServer::start(Arc::clone(&live), cfg).unwrap();
        (live, server)
    }

    #[test]
    fn clean_stream_is_acked_and_replay_is_idempotent() {
        let dir = tmpdir("clean");
        let (live, server) = start_pair(&dir, &IngestConfig::default());
        let lines = synthetic_lines("01-01", 10);
        let r = stream_lines(
            server.local_addr(),
            n("01-01"),
            &lines,
            &StreamOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(r.acked, 12);
        assert_eq!(r.connects, 1);
        // The whole stream again — every record is a duplicate; the
        // cursor from HELLO skips them all without a single re-append.
        let r2 = stream_lines(
            server.local_addr(),
            n("01-01"),
            &lines,
            &StreamOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(r2.acked, 12);
        assert_eq!(live.status().records, 12);
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_is_rejected_hard() {
        let dir = tmpdir("gap");
        let (_live, server) = start_pair(&dir, &IngestConfig::default());
        let addr = server.local_addr();
        let mut wire = Wire::Plain(TcpStream::connect(addr).unwrap());
        wire.write_all(MAGIC).unwrap();
        write_frame(&mut wire, b"HELLO 01-01").unwrap();
        wire.flush().unwrap();
        assert!(FrameReader::new(&mut wire).expect_magic().unwrap());
        assert_eq!(read_reply(&mut wire).unwrap(), Ok(0));
        write_frame(&mut wire, b"REC 7 skipped ahead").unwrap();
        write_frame(&mut wire, b"FLUSH").unwrap();
        wire.flush().unwrap();
        match read_reply(&mut wire).unwrap() {
            Err((kind, msg)) => {
                assert_eq!(kind, "gap");
                assert!(msg.contains("expected sequence 0"), "{msg}");
            }
            other => panic!("expected gap rejection, got {other:?}"),
        }
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_frame_gets_typed_badframe() {
        let dir = tmpdir("garbage");
        let (_live, server) = start_pair(&dir, &IngestConfig::default());
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(MAGIC).unwrap();
        s.write_all(&[0xFF; 64]).unwrap(); // not a frame
        s.flush().unwrap();
        let mut r = FrameReader::new(BufReader::new(s.try_clone().unwrap()));
        assert!(r.expect_magic().unwrap());
        match r.next_frame().unwrap() {
            FrameEvent::Frame(p) => {
                let text = String::from_utf8_lossy(&p).into_owned();
                assert!(text.starts_with("ERR badframe:"), "{text}");
            }
            other => panic!("expected framed error, got {other:?}"),
        }
        assert!(server.stats().protocol_errors >= 1);
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_node_name_is_rejected_hard() {
        let dir = tmpdir("badnode");
        let (_live, server) = start_pair(&dir, &IngestConfig::default());
        let lines = synthetic_lines("01-01", 2);
        let err = stream_lines(
            server.local_addr(),
            n("01-01"),
            &lines,
            &StreamOptions::default(),
            None,
        );
        assert!(err.is_ok());
        // Forge a HELLO with an off-topology name straight on the wire.
        let mut wire = Wire::Plain(TcpStream::connect(server.local_addr()).unwrap());
        wire.write_all(MAGIC).unwrap();
        write_frame(&mut wire, b"HELLO 99-99").unwrap();
        wire.flush().unwrap();
        assert!(FrameReader::new(&mut wire).expect_magic().unwrap());
        match read_reply(&mut wire).unwrap() {
            Err((kind, _)) => assert_eq!(kind, "badnode"),
            other => panic!("expected badnode, got {other:?}"),
        }
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overload_is_shed_framed_and_typed() {
        let dir = tmpdir("overload");
        let cfg = IngestConfig {
            workers: 1,
            queue: 1,
            idle_timeout: Duration::from_millis(400),
            ..IngestConfig::default()
        };
        let (_live, server) = start_pair(&dir, &cfg);
        let addr = server.local_addr();
        // Park a session in the worker and one in the queue.
        let parked = TcpStream::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        let _queued = TcpStream::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        let shed = TcpStream::connect(addr).unwrap();
        let mut r = FrameReader::new(BufReader::new(shed));
        assert!(r.expect_magic().unwrap());
        match r.next_frame().unwrap() {
            FrameEvent::Frame(p) => {
                let text = String::from_utf8_lossy(&p).into_owned();
                assert!(text.starts_with("ERR overloaded:"), "{text}");
            }
            other => panic!("expected overload frame, got {other:?}"),
        }
        drop(parked);
        assert!(server.stats().rejected >= 1);
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_does_not_wait_for_a_polling_replica() {
        // A replica PULLs every 25 ms, so its SYNC session never idles
        // out: join must end the session, not wait for the replica.
        let dir = tmpdir("replshutdown");
        let (_live, server) = start_pair(&dir.join("primary"), &IngestConfig::default());
        let (replica, _) = LiveDb::open(&dir.join("replica")).unwrap();
        let repl = crate::repl::Replication::start(
            Arc::new(replica),
            crate::repl::ReplicaConfig::new(&server.local_addr().to_string()),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.stats().sessions == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "replica never attached"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(server.join());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("join must not wait for a polling replica");
        repl.shutdown();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_stream_delivers_everything_exactly_once() {
        let dir = tmpdir("chaos");
        let (live, server) = start_pair(&dir, &IngestConfig::default());
        // A quiet second node keeps the chaos node under the flood
        // filter's 50% share, so its faults actually appear in queries.
        let quiet = synthetic_lines("01-02", 30);
        stream_lines(
            server.local_addr(),
            n("01-02"),
            &quiet,
            &StreamOptions::default(),
            None,
        )
        .unwrap();
        let lines = synthetic_lines("01-01", 30);
        let tally = Arc::new(NetChaosTally::default());
        let opts = StreamOptions {
            batch: 4,
            retry: RetryPolicy {
                max_attempts: 100,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(20),
            },
            seal_at_end: true,
            chaos: Some(NetChaosConfig::hostile(7)),
        };
        let r = stream_lines(
            server.local_addr(),
            n("01-01"),
            &lines,
            &opts,
            Some(Arc::clone(&tally)),
        )
        .unwrap();
        assert_eq!(r.acked, lines.len() as u64, "all records durable");
        assert_eq!(
            live.status().records,
            (lines.len() + quiet.len()) as u64,
            "no duplicates appended despite {} retries",
            r.retries
        );
        assert!(tally.total() > 0, "chaos actually fired");
        assert_eq!(live.handle().current().rows(), 60, "sealed and served");
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A bare listener standing in for the ingest server. Connection `c`
    /// answers its `HELLO` and each terminator (`FLUSH`, `BYE`, `SEAL`)
    /// with the next cursor of `acks[c]`, and closes when a command finds
    /// the script used up. The handle yields every frame each connection
    /// sent, `REC` frames cut to `REC <seq>`.
    fn scripted_server(acks: Vec<Vec<u64>>) -> (SocketAddr, JoinHandle<Vec<Vec<String>>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let handle = thread::spawn(move || {
            let mut sessions = Vec::new();
            for script in acks {
                // A client that never comes back ends the script.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                let stream = loop {
                    match listener.accept() {
                        Ok((s, _)) => break s,
                        Err(_) if std::time::Instant::now() < deadline => {
                            thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => return sessions,
                    }
                };
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut reader = FrameReader::new(BufReader::new(stream.try_clone().unwrap()));
                assert!(reader.expect_magic().unwrap());
                let mut writer = BufWriter::new(stream);
                writer.write_all(MAGIC).unwrap();
                let mut script = script.into_iter();
                let mut frames = Vec::new();
                while let Ok(FrameEvent::Frame(p)) = reader.next_frame() {
                    let text = String::from_utf8(p).unwrap();
                    let replies = text.starts_with("HELLO ")
                        || matches!(text.as_str(), "FLUSH" | "BYE" | "SEAL");
                    frames.push(match text.strip_prefix("REC ") {
                        Some(rest) => format!("REC {}", rest.split(' ').next().unwrap()),
                        None => text,
                    });
                    if replies {
                        let Some(next) = script.next() else { break };
                        ack(&mut writer, next).unwrap();
                    }
                }
                sessions.push(frames);
            }
            sessions
        });
        (addr, handle)
    }

    /// The frames a session sends: `HELLO`, `REC` for each of `seqs`,
    /// with `terminators` spliced in after the given record counts.
    fn frames(seqs: std::ops::Range<u64>, terminators: &[(u64, &str)]) -> Vec<String> {
        let mut out = vec!["HELLO 01-01".to_string()];
        for seq in seqs.clone() {
            out.push(format!("REC {seq}"));
            for (after, t) in terminators {
                if seq + 1 == *after {
                    out.push(t.to_string());
                }
            }
        }
        if seqs.is_empty() {
            out.extend(terminators.iter().map(|(_, t)| t.to_string()));
        }
        out
    }

    fn scripted_opts(batch: usize, seal_at_end: bool) -> StreamOptions {
        StreamOptions {
            batch,
            seal_at_end,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
            },
            chaos: None,
        }
    }

    #[test]
    fn a_session_of_up_to_batch_lines_is_two_round_trips() {
        for count in [1u64, 4] {
            let (addr, server) = scripted_server(vec![vec![0, count]]);
            let lines = &synthetic_lines("01-01", 4)[..count as usize];
            let r = stream_lines(addr, n("01-01"), lines, &scripted_opts(4, false), None).unwrap();
            assert_eq!((r.acked, r.connects), (count, 1));
            let sent = server.join().unwrap();
            assert_eq!(sent, vec![frames(0..count, &[(count, "BYE")])]);
        }
    }

    #[test]
    fn a_session_one_past_batch_flushes_once_then_parts() {
        let (addr, server) = scripted_server(vec![vec![0, 4, 5]]);
        let lines = synthetic_lines("01-01", 3);
        let r = stream_lines(addr, n("01-01"), &lines, &scripted_opts(4, false), None).unwrap();
        assert_eq!((r.acked, r.connects), (5, 1));
        assert_eq!(
            server.join().unwrap(),
            vec![frames(0..5, &[(4, "FLUSH"), (5, "BYE")])]
        );
    }

    #[test]
    fn seal_at_end_parts_with_seal() {
        let (addr, server) = scripted_server(vec![vec![0, 3]]);
        let lines = synthetic_lines("01-01", 1);
        let r = stream_lines(addr, n("01-01"), &lines, &scripted_opts(4, true), None).unwrap();
        assert_eq!((r.acked, r.connects), (3, 1));
        assert_eq!(server.join().unwrap(), vec![frames(0..3, &[(3, "SEAL")])]);

        // A control session: no records, so any cursor is accepted.
        let (addr, server) = scripted_server(vec![vec![9, 9]]);
        let r = stream_lines(addr, n("01-01"), &[], &scripted_opts(4, true), None).unwrap();
        assert_eq!(r.connects, 1);
        assert_eq!(server.join().unwrap(), vec![frames(0..0, &[(0, "SEAL")])]);
    }

    #[test]
    fn a_parting_ack_short_of_the_end_resumes_and_past_it_fails_hard() {
        let lines = synthetic_lines("01-01", 3);
        let (addr, server) = scripted_server(vec![vec![0, 2], vec![2, 5]]);
        let r = stream_lines(addr, n("01-01"), &lines, &scripted_opts(64, false), None).unwrap();
        assert_eq!((r.acked, r.connects), (5, 2));
        assert_eq!(
            server.join().unwrap(),
            vec![frames(0..5, &[(5, "BYE")]), frames(2..5, &[(5, "BYE")])]
        );

        let (addr, server) = scripted_server(vec![vec![0, 7]]);
        let err = stream_lines(addr, n("01-01"), &lines, &scripted_opts(64, false), None)
            .expect_err("a cursor past the pushed end must fail");
        assert!(err.to_string().contains("outside the batch"), "{err}");
        assert_eq!(
            server.join().unwrap().len(),
            1,
            "no reconnect after a hard error"
        );
    }

    #[test]
    fn the_flush_then_bye_ending_of_older_clients_is_still_acked() {
        let dir = tmpdir("oldclient");
        let (live, server) = start_pair(&dir, &IngestConfig::default());
        let lines = synthetic_lines("01-01", 1);
        let mut wire = Wire::Plain(TcpStream::connect(server.local_addr()).unwrap());
        wire.write_all(MAGIC).unwrap();
        write_frame(&mut wire, b"HELLO 01-01").unwrap();
        wire.flush().unwrap();
        assert!(FrameReader::new(&mut wire).expect_magic().unwrap());
        assert_eq!(read_reply(&mut wire).unwrap(), Ok(0));
        for (seq, line) in lines.iter().enumerate() {
            write_frame(&mut wire, format!("REC {seq} {line}").as_bytes()).unwrap();
        }
        write_frame(&mut wire, b"FLUSH").unwrap();
        wire.flush().unwrap();
        assert_eq!(read_reply(&mut wire).unwrap(), Ok(3));
        write_frame(&mut wire, b"BYE").unwrap();
        wire.flush().unwrap();
        assert_eq!(read_reply(&mut wire).unwrap(), Ok(3));
        assert_eq!(live.next_seq(n("01-01")), 3);
        server.shutdown();
        server.join();
        fs::remove_dir_all(&dir).unwrap();
    }
}
