//! The connection runtime both TCP servers run on: bind, one acceptor,
//! bounded admission, a fixed worker pool, per-connection socket set-up
//! (read deadline, `TCP_NODELAY`) and shutdown. [`crate::server`] and
//! [`crate::ingest_server`] each start it with their own handler and
//! shed bytes, and keep only their protocol.
//!
//! A full queue is answered with the shed bytes (a typed `ERR
//! overloaded`) and closed, never a hang; a failed `accept` is retried
//! after a pause, not in a spin. Shutdown stops admission, shuts the read
//! side of every held connection and wakes `accept`: what a peer had
//! already sent is still read and answered, and `join` never waits on an
//! idle or polling peer.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::error::DbError;

/// Pause after a failed `accept`: errors such as `EMFILE` last until a
/// connection closes, so an immediate retry would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bounded admission: non-blocking push for the acceptor, blocking pop
/// for the workers (the vendored channel has no non-blocking send). Lock
/// sites recover a poisoned guard: the queue is valid at every step.
pub(crate) struct Admission {
    pub(crate) queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    cap: usize,
    stop: AtomicBool,
}

impl Admission {
    pub(crate) fn new(cap: usize) -> Admission {
        Admission {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cap.max(1),
            stop: AtomicBool::new(false),
        }
    }

    /// Admit or hand the stream back (queue full / stopping). `stop` sets
    /// its flag under this lock, so nothing is queued after workers left.
    pub(crate) fn try_push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if self.stopping() || q.len() >= self.cap {
            return Err(s);
        }
        q.push_back(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Next admitted connection; `None` once stopped *and* drained.
    pub(crate) fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.stopping() {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn stop(&self) {
        let _q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.stop.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

struct Shared {
    admission: Admission,
    addr: SocketAddr,
    rejected: AtomicU64,
    /// The connection each worker is serving, for shutdown to cut.
    held: Vec<parking_lot::Mutex<Option<Arc<TcpStream>>>>,
    threads: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

/// A cloneable remote control for a [`crate::Server`]'s or
/// [`crate::IngestServer`]'s shutdown: lets a signal watcher (or any
/// other thread) stop the server while the main thread is in its `join`.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Stop admitting, end every held connection's reads after what its
    /// peer already sent, and wake the acceptor; pair with `join`.
    pub fn shutdown(&self) {
        self.0.admission.stop();
        for conn in self.0.held.iter().filter_map(|slot| slot.lock().clone()) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.0.addr);
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Connections shed at admission so far.
    pub(crate) fn rejected(&self) -> u64 {
        self.0.rejected.load(Ordering::Relaxed)
    }

    /// Wait for the acceptor and every worker to exit.
    pub(crate) fn join(&self) {
        let threads = std::mem::take(&mut *self.0.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }

    #[cfg(test)]
    pub(crate) fn admission(&self) -> &Admission {
        &self.0.admission
    }
}

/// Bind `addr` (port 0 picks a free port) and serve it: `handler` runs
/// each admitted connection on one of `workers` threads; a connection
/// arriving with `queue` others waiting gets `shed` and is closed.
pub(crate) fn start(
    addr: &str,
    workers: usize,
    queue: usize,
    idle_timeout: Duration,
    shed: Vec<u8>,
    handler: impl Fn(&TcpStream, &ShutdownHandle) + Send + Sync + 'static,
) -> Result<ShutdownHandle, DbError> {
    let io_err = |e| DbError::io(Path::new(addr), e);
    let listener = TcpListener::bind(addr).map_err(io_err)?;
    let handle = ShutdownHandle(Arc::new(Shared {
        admission: Admission::new(queue),
        addr: listener.local_addr().map_err(io_err)?,
        rejected: AtomicU64::new(0),
        held: (0..workers.max(1)).map(|_| Default::default()).collect(),
        threads: Default::default(),
    }));
    let handler = Arc::new(handler);
    let mut threads: Vec<JoinHandle<()>> = (0..workers.max(1))
        .map(|w| {
            let (handle, handler) = (handle.clone(), Arc::clone(&handler));
            thread::spawn(move || {
                let shared = &handle.0;
                while let Some(conn) = shared.admission.pop() {
                    let _ = conn.set_read_timeout(Some(idle_timeout));
                    let _ = conn.set_nodelay(true);
                    let conn = Arc::new(conn);
                    *shared.held[w].lock() = Some(Arc::clone(&conn));
                    // Popped after shutdown swept the slots: cut it here.
                    if shared.admission.stopping() {
                        let _ = conn.shutdown(Shutdown::Read);
                    }
                    handler(&conn, &handle);
                    *shared.held[w].lock() = None;
                }
            })
        })
        .collect();

    let shared = Arc::clone(&handle.0);
    threads.push(thread::spawn(move || {
        for stream in listener.incoming() {
            if shared.admission.stopping() {
                break;
            }
            let Ok(stream) = stream else {
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            };
            if let Err(mut refused) = shared.admission.try_push(stream) {
                if shared.admission.stopping() {
                    break;
                }
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = refused.write_all(&shed);
                let _ = refused.flush();
            }
        }
    }));
    *handle.0.threads.lock() = threads;
    Ok(handle)
}
