//! Line-protocol TCP serving layer over an open [`FaultDb`](crate::FaultDb).
//!
//! One request is one line; one response is `OK <k>` followed by `k`
//! payload lines, or `ERR <kind>: <message>` (kinds are
//! [`DbError::kind`] plus `overloaded` and `badcmd`). Connections run on
//! the crate's connection runtime: a fixed worker pool behind a bounded
//! admission queue that sheds with a typed `ERR overloaded`, never a
//! hang. Each query runs under a per-request deadline, surfacing as
//! `ERR timeout` when the engine trips [`DbError::Timeout`]. `SHUTDOWN`
//! (or [`Server::shutdown`]) answers the requests already sent, then
//! stops; an idle client does not hold up [`Server::join`].

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::db::{DbHandle, QueryOptions};
use crate::error::DbError;
pub use crate::listener::ShutdownHandle;

/// Hard cap on one request line. A client that streams bytes without a
/// newline is answered with a typed `ERR line-too-long` and disconnected
/// instead of growing an unbounded buffer.
pub const MAX_REQUEST_LINE: usize = 8192;

/// Server tuning; `Default` suits tests.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling admitted connections.
    pub workers: usize,
    /// Admission queue capacity; connections beyond it are rejected.
    pub queue: usize,
    /// Per-request query deadline.
    pub request_timeout: Duration,
    /// Per-connection read timeout; an idle client is disconnected.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 16,
            request_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Monotonic serving counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (including `ERR` answers to bad queries).
    pub served: u64,
    /// Connections shed at admission with `ERR overloaded`.
    pub rejected: u64,
}

/// Node-level administration the query port exposes when the server
/// fronts a replicated [`crate::catalog::LiveDb`]: extra `STATS` lines
/// (role, epoch, lag) and the `PROMOTE` failover command. Plain static
/// servers run without one.
pub trait ServerAdmin: Send + Sync {
    /// Lines appended to the `STATS` response.
    fn stats_lines(&self) -> Vec<String>;
    /// Execute a failover promotion; returns the new epoch.
    fn promote(&self) -> Result<u64, DbError>;
}

struct Inner {
    db: DbHandle,
    cfg: ServeConfig,
    served: AtomicU64,
    admin: Option<Arc<dyn ServerAdmin>>,
}

impl Inner {
    fn stats(&self, conns: &ShutdownHandle) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            rejected: conns.rejected(),
        }
    }
}

/// A running server; drop without [`Server::join`] detaches the threads.
pub struct Server {
    inner: Arc<Inner>,
    conns: ShutdownHandle,
}

impl Server {
    /// Bind and start the acceptor and worker threads. Accepts either a
    /// plain `Arc<FaultDb>` (static serving) or a [`DbHandle`] from a
    /// [`crate::catalog::LiveDb`] — in the live case, generation seals
    /// become visible to new requests without a restart.
    pub fn start(db: impl Into<DbHandle>, cfg: &ServeConfig) -> Result<Server, DbError> {
        Server::start_with_admin(db, cfg, None)
    }

    /// [`Server::start`] plus a [`ServerAdmin`] that extends `STATS` and
    /// answers `PROMOTE` — the replicated-node entry point.
    pub fn start_with_admin(
        db: impl Into<DbHandle>,
        cfg: &ServeConfig,
        admin: Option<Arc<dyn ServerAdmin>>,
    ) -> Result<Server, DbError> {
        let inner = Arc::new(Inner {
            db: db.into(),
            cfg: cfg.clone(),
            served: AtomicU64::new(0),
            admin,
        });
        let state = Arc::clone(&inner);
        let conns = crate::listener::start(
            &cfg.addr,
            cfg.workers,
            cfg.queue,
            cfg.idle_timeout,
            b"ERR overloaded: admission queue full, retry later\n".to_vec(),
            move |conn, conns| handle_connection(&state, conns, conn),
        )?;
        Ok(Server { inner, conns })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    pub fn stats(&self) -> ServerStats {
        self.inner.stats(&self.conns)
    }

    /// Ask the server to stop; pair with [`Server::join`].
    pub fn shutdown(&self) {
        self.conns.shutdown();
    }

    /// A handle other threads can use to trigger the same shutdown.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.conns.clone()
    }

    /// Wait for the acceptor and all workers to exit.
    pub fn join(self) -> ServerStats {
        self.conns.join();
        self.stats()
    }
}

enum Outcome {
    /// Keep the connection open.
    Continue,
    /// `QUIT` — close this connection.
    Close,
    /// `SHUTDOWN` — close and stop the server.
    Shutdown,
}

/// Outcome of one bounded line read.
pub(crate) enum LineRead {
    Line(String),
    Eof,
    TooLong,
}

/// Read one `\n`-terminated line without ever buffering more than `cap`
/// bytes — the fix for the unbounded `read_line` a hostile client could
/// feed forever. A final unterminated line at EOF is still delivered.
pub(crate) fn read_bounded_line(reader: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > cap {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > cap {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

fn handle_connection(inner: &Inner, conns: &ShutdownHandle, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, MAX_REQUEST_LINE) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::TooLong) => {
                inner.served.fetch_add(1, Ordering::Relaxed);
                let e = DbError::LineTooLong {
                    limit: MAX_REQUEST_LINE,
                };
                let _ = writeln!(writer, "ERR {}: {}", e.kind(), e);
                let _ = writer.flush();
                return;
            }
        };
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        inner.served.fetch_add(1, Ordering::Relaxed);
        let outcome = respond(inner, conns, request, &mut writer);
        if writer.flush().is_err() {
            return;
        }
        match outcome {
            Outcome::Continue => {}
            Outcome::Close => return,
            Outcome::Shutdown => {
                conns.shutdown();
                return;
            }
        }
    }
}

/// Answer one request line. Write errors surface at the caller's flush.
fn respond(inner: &Inner, conns: &ShutdownHandle, request: &str, w: &mut impl Write) -> Outcome {
    match request {
        "QUIT" => {
            let _ = w.write_all(b"OK 0\n");
            return Outcome::Close;
        }
        "SHUTDOWN" => {
            let _ = w.write_all(b"OK 0\n");
            return Outcome::Shutdown;
        }
        "PING" => {
            let _ = w.write_all(b"OK 1\npong\n");
            return Outcome::Continue;
        }
        "STATS" => {
            let db = inner.db.current();
            let cache = db.cache_stats();
            let stats = inner.stats(conns);
            let mut lines = vec![
                format!("rows {}", db.rows()),
                format!("blocks {}", db.blocks()),
                format!("cache_hits {}", cache.hits),
                format!("cache_misses {}", cache.misses),
                format!("cache_evictions {}", cache.evictions),
                format!("cache_hit_rate {:.4}", cache.hit_rate()),
                format!("served {}", stats.served),
                format!("rejected {}", stats.rejected),
            ];
            // Sharded engines append topology and per-shard scan counts.
            lines.extend(db.stats_lines());
            if let Some(admin) = &inner.admin {
                lines.extend(admin.stats_lines());
            }
            let _ = writeln!(w, "OK {}", lines.len());
            for l in &lines {
                let _ = writeln!(w, "{l}");
            }
            return Outcome::Continue;
        }
        "PROMOTE" => {
            match &inner.admin {
                Some(admin) => match admin.promote() {
                    Ok(epoch) => {
                        let _ = writeln!(w, "OK 1\nepoch {epoch}");
                    }
                    Err(e) => {
                        let _ = writeln!(w, "ERR {}: {}", e.kind(), e);
                    }
                },
                None => {
                    let _ = w.write_all(b"ERR parse: this server has no replication admin\n");
                }
            }
            return Outcome::Continue;
        }
        _ => {}
    }

    let opts = QueryOptions {
        deadline: Some(Instant::now() + inner.cfg.request_timeout),
    };
    // One `current()` per request: the whole answer comes from a single
    // generation even if a seal lands mid-scan (snapshot isolation).
    match inner.db.current().query(request, &opts) {
        Ok(result) => {
            let _ = writeln!(w, "OK {}", result.lines.len());
            for l in &result.lines {
                let _ = writeln!(w, "{l}");
            }
        }
        Err(e) => {
            // The message is one line by construction (Display never
            // embeds newlines), so the framing stays parseable.
            let _ = writeln!(w, "ERR {}: {}", e.kind(), e);
        }
    }
    Outcome::Continue
}

// ------------------------------------------------------------- client side

/// One parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Ok(Vec<String>),
    Err { kind: String, message: String },
}

/// Minimal blocking client used by the CLI and tests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request line and read the full response.
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read a response without sending (for admission-time rejections).
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut head = String::new();
        if self.reader.read_line(&mut head)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let head = head.trim_end();
        if let Some(rest) = head.strip_prefix("OK ") {
            let count: usize = rest.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad OK header: {head}"))
            })?;
            let mut lines = Vec::with_capacity(count);
            for _ in 0..count {
                let mut l = String::new();
                if self.reader.read_line(&mut l)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated response body",
                    ));
                }
                lines.push(l.trim_end_matches('\n').to_string());
            }
            Ok(Response::Ok(lines))
        } else if let Some(rest) = head.strip_prefix("ERR ") {
            let (kind, message) = rest.split_once(": ").unwrap_or((rest, ""));
            Ok(Response::Err {
                kind: kind.to_string(),
                message: message.to_string(),
            })
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response header: {head}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::FaultDb;
    use crate::format::{write_db, WriteOptions};
    use crate::listener::Admission;
    use crate::shard::Engine;
    use crate::snapshot::Snapshot;
    use std::path::PathBuf;
    use std::thread;
    use uc_analysis::fault::Fault;
    use uc_cluster::NodeId;
    use uc_simclock::SimTime;

    fn test_db(tag: &str, n: usize) -> Arc<FaultDb> {
        let dir = std::env::temp_dir().join(format!("uc-faultdb-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join("t.fdb");
        let faults: Vec<Fault> = (0..n)
            .map(|i| Fault {
                node: NodeId((i % 45) as u32),
                time: SimTime::from_secs(i as i64 * 700),
                vaddr: 0x2000 + i as u64,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFFE,
                temp: None,
                raw_logs: 1,
            })
            .collect();
        let snap = Snapshot {
            faults,
            flood_nodes: vec![],
            stats: Default::default(),
            node_logs: 1,
            raw_records: n as u64,
            raw_errors: n as u64,
            day_volume: Default::default(),
        };
        write_db(
            &snap,
            &path,
            &WriteOptions {
                rows_per_block: 64,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        // The database holds its bytes in memory; the file can go.
        let db = Arc::new(FaultDb::open(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        db
    }

    #[test]
    fn protocol_ping_query_stats_quit() {
        let server = Server::start(test_db("proto", 300), &ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("PING").unwrap(),
            Response::Ok(vec!["pong".to_string()])
        );
        assert_eq!(
            c.request("count").unwrap(),
            Response::Ok(vec!["300".to_string()])
        );
        match c.request("definitely not a query").unwrap() {
            Response::Err { kind, .. } => assert_eq!(kind, "parse"),
            other => panic!("expected parse error, got {other:?}"),
        }
        match c.request("STATS").unwrap() {
            Response::Ok(lines) => {
                assert!(lines.iter().any(|l| l == "rows 300"), "{lines:?}");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(c.request("QUIT").unwrap(), Response::Ok(vec![]));
        server.shutdown();
        let stats = server.join();
        assert!(stats.served >= 5);
    }

    #[test]
    fn stats_surface_cache_and_shard_counters() {
        // Serve a sharded root and check that STATS exposes the block
        // cache and per-shard scan counters, and that they move when
        // queries run.
        let dir = std::env::temp_dir().join(format!("uc-faultdb-srv-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults: Vec<Fault> = (0..400)
            .map(|i| Fault {
                node: NodeId(((i * 31) % 1080) as u32),
                time: SimTime::from_secs(i as i64 * 700),
                vaddr: 0x2000 + i as u64,
                expected: 0xFFFF_FFFF,
                actual: 0xFFFF_FFFE,
                temp: None,
                raw_logs: 1,
            })
            .collect();
        let mut faults = faults;
        faults.sort_by_key(uc_analysis::extract::fault_sort_key);
        let snap = Snapshot {
            faults,
            flood_nodes: vec![],
            stats: Default::default(),
            node_logs: 1,
            raw_records: 400,
            raw_errors: 400,
            day_volume: Default::default(),
        };
        crate::shard::write_sharded(
            &snap,
            &dir,
            3,
            &WriteOptions {
                rows_per_block: 32,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        let engine = Engine::open_auto(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let server = Server::start(engine, &ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        let stat = |c: &mut Client, key: &str| -> u64 {
            match c.request("STATS").unwrap() {
                Response::Ok(lines) => lines
                    .iter()
                    .find_map(|l| l.strip_prefix(&format!("{key} ")))
                    .unwrap_or_else(|| panic!("STATS missing {key}"))
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .parse()
                    .unwrap(),
                other => panic!("expected stats, got {other:?}"),
            }
        };

        // Before any query: counters exist and sit at zero.
        assert!(stat(&mut c, "shards") > 1, "sharded engine reports shards");
        assert_eq!(stat(&mut c, "cache_misses"), 0);
        assert_eq!(stat(&mut c, "shard_scans shard-00000.ucfdb"), 0);

        assert!(matches!(
            c.request("count where raw>=1").unwrap(),
            Response::Ok(_)
        ));
        let misses_after_one = stat(&mut c, "cache_misses");
        assert!(
            misses_after_one > 0,
            "scan decodes blocks through the cache"
        );
        assert_eq!(stat(&mut c, "shard_scans shard-00000.ucfdb"), 1);

        // A repeat of the same query hits the warm cache.
        assert!(matches!(
            c.request("count where raw>=1").unwrap(),
            Response::Ok(_)
        ));
        assert_eq!(stat(&mut c, "cache_misses"), misses_after_one);
        assert!(stat(&mut c, "cache_hits") > 0);
        assert_eq!(stat(&mut c, "shard_scans shard-00000.ucfdb"), 2);

        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = Server::start(test_db("shutdown", 50), &ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.request("SHUTDOWN").unwrap(), Response::Ok(vec![]));
        server.join(); // must return, not hang
                       // New connections are now refused or answered with nothing.
        assert!(
            Client::connect(addr).is_err() || {
                let mut c2 = Client::connect(addr).unwrap();
                c2.request("PING").is_err()
            }
        );
    }

    #[test]
    fn shutdown_does_not_wait_for_an_idle_client() {
        // The client stays connected past shutdown, and the default idle
        // timeout is 30 s: join must not sit it out. A request already
        // sent when shutdown begins is still answered.
        let server = Server::start(test_db("idle", 10), &ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("PING").unwrap(),
            Response::Ok(vec!["pong".to_string()])
        );
        writeln!(c.writer, "count").unwrap();
        c.writer.flush().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(server.join());
        });
        assert_eq!(
            c.read_response().unwrap(),
            Response::Ok(vec!["10".to_string()])
        );
        let stats = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("join must not wait for an idle client");
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn overload_is_rejected_typed_not_hung() {
        // One worker, one queue slot; a connection parked in the worker
        // plus one queued means the third is shed immediately.
        let cfg = ServeConfig {
            workers: 1,
            queue: 1,
            // Short idle timeout so the parked connection frees its
            // worker quickly once the assertions are done.
            idle_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let server = Server::start(test_db("overload", 50), &cfg).unwrap();
        let addr = server.local_addr();
        // Occupy the only worker with an idle-but-open connection.
        let parked = Client::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        // Fill the queue slot.
        let _queued = Client::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        // This one must be rejected with a typed error, quickly.
        let mut shed = Client::connect(addr).unwrap();
        match shed.read_response() {
            Ok(Response::Err { kind, .. }) => assert_eq!(kind, "overloaded"),
            other => panic!("expected overloaded rejection, got {other:?}"),
        }
        drop(parked);
        assert!(server.stats().rejected >= 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn poisoned_admission_lock_still_admits_and_serves() {
        // The admission queue is the one std mutex every connection
        // crosses. A worker that panics while holding it must not
        // cascade the whole server down: every lock site recovers the
        // poisoned guard (the queue state is a plain VecDeque, valid at
        // every instruction boundary).
        let adm = Arc::new(Admission::new(4));
        let poisoner = Arc::clone(&adm);
        let _ = thread::spawn(move || {
            let _guard = poisoner.queue.lock().unwrap();
            panic!("worker dies while holding the admission lock");
        })
        .join();
        assert!(adm.queue.lock().is_err(), "lock should now be poisoned");

        // Admission still works end to end across the poisoned mutex.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        adm.try_push(stream)
            .expect("poisoned admission must still admit");
        assert!(adm.pop().is_some(), "poisoned admission must still pop");
        adm.stop();
        assert!(adm.pop().is_none(), "stop still drains after poison");

        // And a live server whose admission mutex gets poisoned keeps
        // answering queries.
        let server = Server::start(test_db("poison", 120), &ServeConfig::default()).unwrap();
        let poisoner = server.shutdown_handle();
        let _ = thread::spawn(move || {
            let _guard = poisoner.admission().queue.lock().unwrap();
            panic!("simulated worker crash mid-admission");
        })
        .join();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("count").unwrap(),
            Response::Ok(vec!["120".to_string()])
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_request_line_is_rejected_typed() {
        let server = Server::start(test_db("linecap", 10), &ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        // A newline-free flood past the cap must be answered (typed) and
        // disconnected, never buffered indefinitely.
        let flood = "a".repeat(MAX_REQUEST_LINE + 1000);
        match c.request(&flood).unwrap() {
            Response::Err { kind, .. } => assert_eq!(kind, "line-too-long"),
            other => panic!("expected line-too-long, got {other:?}"),
        }
        // A request exactly at the cap still works.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        let padded = format!("{}count", " ".repeat(MAX_REQUEST_LINE - 5));
        assert_eq!(
            c2.request(&padded).unwrap(),
            Response::Ok(vec!["10".to_string()])
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn live_handle_seal_becomes_visible_to_new_requests() {
        let dir = std::env::temp_dir().join(format!("uc-faultdb-srv-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (live, _) = crate::catalog::LiveDb::open(&dir).unwrap();
        let server = Server::start(live.handle(), &ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("count").unwrap(),
            Response::Ok(vec!["0".to_string()])
        );
        // Two nodes, or the flood filter (one node holding >50% of all
        // errors) would extract zero faults.
        for name in ["01-01", "01-02"] {
            live.ingest(
                NodeId::from_name(name).unwrap(),
                0,
                &format!(
                    "ERROR t=60 node={name} vaddr=0x00000400 page=0x000000 \
                     expected=0xffffffff actual=0xfffffffe temp=33.0"
                ),
            )
            .unwrap();
        }
        live.seal().unwrap();
        assert_eq!(
            c.request("count").unwrap(),
            Response::Ok(vec!["2".to_string()])
        );
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
