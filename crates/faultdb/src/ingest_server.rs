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

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use uc_cluster::NodeId;
use uc_faultlog::chaos::{ChaosStream, NetChaosConfig, NetChaosTally};
use uc_faultlog::durable::{write_frame, FrameEvent, FrameReader, RetryPolicy, MAGIC};

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
    let mut writer = stream;
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
    /// Records pushed between FLUSH/ACK checkpoints.
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

    if let Err(e) = wire.write_all(MAGIC) {
        soft!(e);
    }
    if let Err(e) = write_frame(&mut wire, format!("HELLO {node}").as_bytes()) {
        soft!(e);
    }
    if let Err(e) = wire.flush() {
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
    let mut i = *cursor as usize;
    while i < lines.len() {
        let upto = (i + batch).min(lines.len());
        for (seq, line) in lines.iter().enumerate().take(upto).skip(i) {
            if let Err(e) = write_frame(&mut wire, format!("REC {seq} {line}").as_bytes()) {
                soft!(e);
            }
        }
        if let Err(e) = write_frame(&mut wire, b"FLUSH") {
            soft!(e);
        }
        if let Err(e) = wire.flush() {
            soft!(e);
        }
        match read_reply(&mut wire) {
            Ok(Ok(next)) => {
                if next < *cursor || next > upto as u64 {
                    return AttemptEnd::Hard(DbError::Query(format!(
                        "server cursor moved {} → {next}, outside the batch we pushed",
                        *cursor
                    )));
                }
                *cursor = next;
                i = next as usize;
            }
            Ok(Err((kind, msg))) => return classify_err(&kind, &msg),
            Err(e) => soft!(e),
        }
    }

    let parting: &[u8] = if opts.seal_at_end { b"SEAL" } else { b"BYE" };
    if let Err(e) = write_frame(&mut wire, parting) {
        soft!(e);
    }
    if let Err(e) = wire.flush() {
        soft!(e);
    }
    match read_reply(&mut wire) {
        Ok(Ok(_)) => AttemptEnd::Done,
        Ok(Err((kind, msg))) => classify_err(&kind, &msg),
        Err(e) => AttemptEnd::Soft(e),
    }
}

// --------------------------------------------------------------- selftest

/// What `uc serve --ingest --selftest N` reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestSelftestReport {
    pub clients: usize,
    pub records_sent: u64,
    pub records_acked: u64,
    pub reconnects: u64,
    pub chaos_events: u64,
    pub sheds: u64,
    /// Divergences between the live database and the batch oracle —
    /// zero or the selftest failed.
    pub mismatches: u64,
}

/// Deterministic synthetic corpus for one node: a session with a burst
/// of single-bit errors, shaped like the campaign's real logs.
fn synthetic_lines(node: &str, client: usize, records: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(records + 2);
    lines.push(format!("START t=0 node={node} alloc=3221225472 temp=30.0"));
    for k in 0..records {
        let vaddr = 0x400 + 0x100 * (k as u64) + ((client as u64) << 20);
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

/// End-to-end proof of the live path under fault injection: N chaos-
/// wrapped clients stream synthetic corpora into an *under-provisioned*
/// ingest server (so overload sheds happen) while a query client hammers
/// the live handle; afterwards the sealed generation must answer every
/// selftest query byte-identically to a batch-built oracle over the same
/// records — and the generation file itself must be byte-identical to
/// the oracle's database file.
pub fn ingest_selftest(
    live_dir: &std::path::Path,
    clients: usize,
    seed: u64,
) -> Result<IngestSelftestReport, DbError> {
    use crate::format::WriteOptions;
    use crate::server::{Client, Response, ServeConfig, Server, SELFTEST_QUERIES};

    let clients = clients.clamp(1, 16);
    let records_per_client = 40;
    let (live, _) = LiveDb::open(live_dir)?;
    let live = Arc::new(live);

    // Deliberately tight: 2 workers, queue of 2 — with more clients than
    // that, sheds are likely and the retry path gets exercised for real.
    let cfg = IngestConfig {
        workers: 2,
        queue: 2,
        ..IngestConfig::default()
    };
    let ingest = IngestServer::start(Arc::clone(&live), &cfg)?;
    let ingest_addr = ingest.local_addr();
    let query_server = Server::start(live.handle(), &ServeConfig::default())?;
    let query_addr = query_server.local_addr();

    // Queries run *while* ingest is in flight: every answer must come
    // from exactly one sealed generation (snapshot isolation), so the
    // only acceptable responses are clean answers or typed sheds.
    let query_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let query_thread = {
        let stop = Arc::clone(&query_stop);
        thread::spawn(move || -> u64 {
            let mut errors = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut c) = Client::connect(query_addr) {
                    match c.request("count") {
                        Ok(Response::Ok(lines)) => {
                            if lines.len() != 1 || lines[0].parse::<u64>().is_err() {
                                errors += 1;
                            }
                        }
                        Ok(Response::Err { kind, .. }) if kind == "overloaded" => {}
                        _ => errors += 1,
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
            errors
        })
    };

    let tally = Arc::new(NetChaosTally::default());
    let mut report = IngestSelftestReport {
        clients,
        ..IngestSelftestReport::default()
    };
    let streams: Vec<JoinHandle<Result<(StreamReport, u64), DbError>>> = (0..clients)
        .map(|c| {
            let name = format!("{:02}-{:02}", 1 + c / 8, 1 + c % 8);
            let lines = synthetic_lines(&name, c, records_per_client);
            let opts = StreamOptions {
                batch: 16,
                retry: RetryPolicy {
                    max_attempts: 50,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(50),
                },
                seal_at_end: false,
                chaos: Some(NetChaosConfig::hostile(
                    seed ^ (c as u64).wrapping_mul(0x9E37),
                )),
            };
            let tally = Arc::clone(&tally);
            thread::spawn(move || {
                let node = NodeId::from_name(&name).expect("selftest names are valid");
                let sent = lines.len() as u64;
                stream_lines(ingest_addr, node, &lines, &opts, Some(tally)).map(|r| (r, sent))
            })
        })
        .collect();
    for t in streams {
        match t.join() {
            Ok(Ok((r, sent))) => {
                report.records_sent += sent;
                report.records_acked += r.acked;
                report.reconnects += u64::from(r.connects.saturating_sub(1));
            }
            Ok(Err(_)) | Err(_) => report.mismatches += 1,
        }
    }
    report.chaos_events = tally.total();
    report.sheds = ingest.stats().rejected;

    // Seal the final generation and stop the churn.
    live.seal()?;
    query_stop.store(true, Ordering::Relaxed);
    report.mismatches += query_thread.join().unwrap_or(1);

    // Batch oracle: the same records as plain text log files.
    let oracle_dir = live_dir.join("selftest-oracle");
    let _ = std::fs::remove_dir_all(&oracle_dir);
    std::fs::create_dir_all(&oracle_dir).map_err(|e| DbError::io(&oracle_dir, e))?;
    for c in 0..clients {
        let name = format!("{:02}-{:02}", 1 + c / 8, 1 + c % 8);
        let lines = synthetic_lines(&name, c, records_per_client);
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(oracle_dir.join(format!("node-{name}.log")), text)
            .map_err(|e| DbError::io(&oracle_dir, e))?;
    }
    let oracle_db_path = live_dir.join("selftest-oracle.ucfdb");
    crate::build::build_db(&oracle_dir, &oracle_db_path, &WriteOptions::default())?;

    // Strongest possible equivalence: the served generation *file* is
    // byte-identical to the batch-built database.
    let status = live.status();
    let gen_path = live_dir.join(crate::catalog::gen_file_name(status.generation));
    let live_bytes = std::fs::read(&gen_path).map_err(|e| DbError::io(&gen_path, e))?;
    let oracle_bytes =
        std::fs::read(&oracle_db_path).map_err(|e| DbError::io(&oracle_db_path, e))?;
    if live_bytes != oracle_bytes {
        report.mismatches += 1;
    }

    // And the query layer agrees, over the wire.
    let oracle = crate::db::FaultDb::open(&oracle_db_path)?;
    if let Ok(mut c) = Client::connect(query_addr) {
        for q in SELFTEST_QUERIES {
            let expected = uc_parallel::with_thread_limit(1, || {
                oracle
                    .query(q, &crate::db::QueryOptions::default())
                    .map(|r| r.lines)
            })?;
            match c.request(q) {
                Ok(Response::Ok(lines)) if lines == expected => {}
                _ => report.mismatches += 1,
            }
        }
    } else {
        report.mismatches += 1;
    }

    ingest.shutdown();
    ingest.join();
    query_server.shutdown();
    query_server.join();
    let _ = std::fs::remove_dir_all(&oracle_dir);
    let _ = std::fs::remove_file(&oracle_db_path);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uc-ing-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n(name: &str) -> NodeId {
        NodeId::from_name(name).unwrap()
    }

    fn error_lines(node: &str, count: usize) -> Vec<String> {
        synthetic_lines(node, 0, count)
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
        let lines = error_lines("01-01", 10);
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
        let lines = error_lines("01-01", 2);
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
        let quiet = error_lines("01-02", 30);
        stream_lines(
            server.local_addr(),
            n("01-02"),
            &quiet,
            &StreamOptions::default(),
            None,
        )
        .unwrap();
        let lines = error_lines("01-01", 30);
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

    #[test]
    fn selftest_under_chaos_matches_batch_oracle_byte_for_byte() {
        let dir = tmpdir("selftest");
        let report = ingest_selftest(&dir, 3, 42).unwrap();
        assert_eq!(report.mismatches, 0, "{report:?}");
        assert_eq!(report.records_acked, report.records_sent, "{report:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
