//! Threaded TCP front-end for the line protocol.
//!
//! [`NetServer`] listens on a data-plane address (and optionally a separate
//! admin address), accepts connections on a bounded thread-per-connection
//! pool, and drives each one through [`serve_session_with`] — the exact
//! session loop the stdin pipe uses, so both transports are one code path
//! and every network answer is byte-identical to the pipe's.
//!
//! ## Planes
//!
//! Data-plane connections speak [`Transport::NetData`]: `rewrite` and
//! `quit` only. Admin connections ([`Transport::NetAdmin`]) additionally
//! get `batch`/`update`/`info` and the `shutdown` verb. Binding the admin
//! listener to a loopback/management address while the data plane faces
//! clients is the intended deployment shape.
//!
//! ## Lifecycle
//!
//! [`NetServer::serve`] runs the data accept loop on the calling thread and
//! the admin loop (when configured) on a helper thread. A shutdown —
//! triggered by the admin `shutdown` verb or programmatically via
//! [`ShutdownSignal::trigger`] — flips a flag and self-connects to each
//! listener to wake its blocked `accept`, then *drains*: no new connections
//! are accepted, in-flight sessions answer `bye\tdraining` at their next
//! request, and `serve` joins every handler thread before returning.
//!
//! Every connection gets a read timeout so a stalled peer frees its thread
//! (the session answers `err\tread timeout` and closes), and the pool bound
//! turns overload into an immediate `err\tserver busy` instead of unbounded
//! thread growth.

use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use crate::protocol::{serve_session_with, SessionOptions, Transport};
use crate::state::ServeState;

/// Monotonic counters shared by every connection of one server, surfaced
/// through the `info` verb as `net_*=value` fields.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted and handed to a handler thread (both planes).
    pub accepted: AtomicU64,
    /// Connections turned away with `err\tserver busy` (pool full).
    pub rejected: AtomicU64,
    /// Handler threads currently live.
    pub active: AtomicU64,
    /// Requests answered across all sessions (any response line).
    pub served: AtomicU64,
    /// Requests answered with an `err` response.
    pub errors: AtomicU64,
    /// Sessions closed because the peer stalled past the read timeout.
    pub timeouts: AtomicU64,
    /// Sessions that ended in an I/O error (peer vanished mid-request).
    pub disconnects: AtomicU64,
    /// Handler threads that died panicking (the server keeps serving).
    pub panicked: AtomicU64,
}

impl fmt::Display for ServerMetrics {
    /// Tab-separated `net_*=value` fields, spliceable into an `info` line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "net_accepted={}\tnet_active={}\tnet_rejected={}\tnet_served={}\
             \tnet_errors={}\tnet_timeouts={}\tnet_disconnects={}\tnet_panicked={}",
            self.accepted.load(Ordering::Relaxed),
            self.active.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.served.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.timeouts.load(Ordering::Relaxed),
            self.disconnects.load(Ordering::Relaxed),
            self.panicked.load(Ordering::Relaxed),
        )
    }
}

/// Cooperative shutdown flag plus the listener addresses to nudge awake.
///
/// `accept` has no portable timeout, so [`trigger`](ShutdownSignal::trigger)
/// stores the stop flag and then self-connects to each registered listener:
/// the accept call returns with the wake connection, re-checks the flag, and
/// exits its loop.
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    stop: AtomicBool,
    wake: Mutex<Vec<SocketAddr>>,
}

impl ShutdownSignal {
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    /// True once a shutdown has been requested; sessions answer
    /// `bye\tdraining` and close at their next request.
    pub fn is_draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Records a listener address to self-connect to on trigger.
    fn register(&self, addr: SocketAddr) {
        self.lock_wake().push(addr);
    }

    /// Requests shutdown and wakes every registered accept loop. Idempotent.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake order doesn't matter; a failed connect means the listener is
        // already gone, which is the goal state anyway.
        for addr in self.lock_wake().iter() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// The address list only ever grows by whole pushes — consistent across
    /// any panic point, so recover from poisoning.
    fn lock_wake(&self) -> std::sync::MutexGuard<'_, Vec<SocketAddr>> {
        self.wake.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Listener configuration for [`NetServer::bind`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Data-plane bind address. Port 0 picks an ephemeral port (query it
    /// back via [`NetServer::local_addr`]).
    pub addr: String,
    /// Optional admin-plane bind address; without it the server has no
    /// network path to `update`/`info`/`shutdown`.
    pub admin_addr: Option<String>,
    /// Data-plane handler-thread bound; excess connections are answered
    /// `err\tserver busy` and closed. Admin connections are not counted
    /// against it.
    pub max_connections: usize,
    /// Per-connection read timeout; `None` lets a silent peer pin its
    /// thread forever (only sensible in tests).
    pub read_timeout: Option<Duration>,
    /// Enables the test-only `debug-panic` verb on network sessions.
    pub debug_verbs: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: None,
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            debug_verbs: false,
        }
    }
}

/// A bound (not yet serving) threaded TCP server over one shared
/// [`ServeState`].
#[derive(Debug)]
pub struct NetServer {
    state: Arc<ServeState>,
    listener: TcpListener,
    admin: Option<TcpListener>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<ShutdownSignal>,
    config: NetConfig,
}

impl NetServer {
    /// Binds the data (and, if configured, admin) listener. Serving starts
    /// with [`serve`](NetServer::serve); until then connections queue in
    /// the OS backlog.
    pub fn bind(state: Arc<ServeState>, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let admin = match config.admin_addr.as_deref() {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let shutdown = Arc::new(ShutdownSignal::new());
        shutdown.register(listener.local_addr()?);
        if let Some(a) = admin.as_ref() {
            shutdown.register(a.local_addr()?);
        }
        Ok(NetServer {
            state,
            listener,
            admin,
            metrics: Arc::new(ServerMetrics::default()),
            shutdown,
            config,
        })
    }

    /// The bound data-plane address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound admin-plane address, when configured.
    pub fn admin_addr(&self) -> Option<io::Result<SocketAddr>> {
        self.admin.as_ref().map(|l| l.local_addr())
    }

    /// The server's shared counters (live; readable while serving).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Handle for requesting shutdown from outside the protocol.
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the accept loops until shutdown, then drains: joins every
    /// in-flight handler thread before returning.
    pub fn serve(self) -> io::Result<()> {
        let NetServer {
            state,
            listener,
            admin,
            metrics,
            shutdown,
            config,
        } = self;
        let handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let session = |transport| SessionOptions {
            transport,
            metrics: Some(Arc::clone(&metrics)),
            shutdown: Some(Arc::clone(&shutdown)),
            debug_verbs: config.debug_verbs,
        };

        let admin_join = admin.map(|admin_listener| {
            let loop_ = AcceptLoop {
                state: Arc::clone(&state),
                handles: Arc::clone(&handles),
                // The admin plane is a trusted management surface; bounding
                // it could lock an operator out of `shutdown` at the exact
                // moment the data plane is saturated.
                max_connections: usize::MAX,
                session: session(Transport::NetAdmin),
                read_timeout: config.read_timeout,
            };
            thread::Builder::new()
                .name("serve-admin-accept".to_string())
                .spawn(move || loop_.run(admin_listener))
                .expect("spawn admin accept thread")
        });

        let data_loop = AcceptLoop {
            state,
            handles: Arc::clone(&handles),
            max_connections: config.max_connections,
            session: session(Transport::NetData),
            read_timeout: config.read_timeout,
        };
        data_loop.run(listener);

        if let Some(j) = admin_join {
            let _ = j.join();
        }
        // Drain: in-flight sessions see the shutdown flag at their next
        // request and close; new handler threads cannot appear because both
        // accept loops have exited.
        let drained = std::mem::take(&mut *handles.lock().unwrap_or_else(PoisonError::into_inner));
        for h in drained {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One listener's accept loop: bound check, handler spawn, thread reaping.
struct AcceptLoop {
    state: Arc<ServeState>,
    handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    max_connections: usize,
    /// What every connection's session starts from: the listener's
    /// transport, the server's counters and shutdown signal.
    session: SessionOptions,
    read_timeout: Option<Duration>,
}

impl AcceptLoop {
    fn run(&self, listener: TcpListener) {
        let metrics = counters(&self.session);
        let shutdown = self.session.shutdown.as_deref();
        let draining = || shutdown.is_some_and(ShutdownSignal::is_draining);
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(_) if draining() => break,
                // Transient accept errors (EMFILE, aborted handshake) must
                // not kill the listener.
                Err(_) => continue,
            };
            // The wake connection from `trigger` lands here: drop it and
            // stop accepting.
            if draining() {
                break;
            }
            self.reap();
            if metrics.active.load(Ordering::Relaxed) >= self.max_connections as u64 {
                metrics.rejected.fetch_add(1, Ordering::Relaxed);
                // Best-effort refusal — the peer may already be gone.
                let mut stream = stream;
                let _ = writeln!(stream, "err\tserver busy\tconnection limit reached");
                continue;
            }
            metrics.accepted.fetch_add(1, Ordering::Relaxed);
            metrics.active.fetch_add(1, Ordering::Relaxed);
            let (state, opts) = (Arc::clone(&self.state), self.session.clone());
            let read_timeout = self.read_timeout;
            let spawned = thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || handle_connection(&state, stream, &opts, read_timeout));
            match spawned {
                Ok(handle) => self
                    .handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle),
                Err(_) => {
                    // Spawn failure (resource exhaustion): count the lost
                    // connection and keep the listener alive.
                    metrics.active.fetch_sub(1, Ordering::Relaxed);
                    metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Joins already-finished handler threads so the registry doesn't grow
    /// with every connection ever served.
    fn reap(&self) {
        let finished: Vec<_> = {
            let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
            let mut finished = Vec::new();
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    finished.push(handles.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            finished
        };
        for h in finished {
            let _ = h.join();
        }
    }
}

/// The server's counters, which every network session carries.
fn counters(opts: &SessionOptions) -> &ServerMetrics {
    opts.metrics
        .as_deref()
        .expect("network sessions carry the server's counters")
}

/// One accepted connection on its handler thread: socket setup plus the
/// shared session loop.
fn handle_connection(
    state: &ServeState,
    stream: TcpStream,
    opts: &SessionOptions,
    read_timeout: Option<Duration>,
) {
    let metrics = counters(opts);
    // Decrement `active` however this thread ends — including a panic
    // inside the session loop (the `debug-panic` verb, or a real bug).
    let _guard = ActiveGuard { metrics };
    // A `return` action here models the handler dying before its session
    // loop starts: this connection closes (counted as a disconnect), every
    // other connection and the listener live on.
    #[cfg(feature = "failpoints")]
    if let Some(_msg) = simrankpp_util::failpoint::eval("net-handler") {
        metrics.disconnects.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Every response line is already batched through the session's
    // BufWriter and flushed per request; Nagle would only add latency.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(read_timeout);
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => {
            metrics.disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    if serve_session_with(state, reader, stream, opts).is_err() {
        // The peer vanished mid-request (e.g. disconnected between sending
        // half a line and its newline). Session-local: the listener and
        // every other connection are unaffected.
        metrics.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drop guard keeping the `active` gauge truthful on every exit path.
struct ActiveGuard<'a> {
    metrics: &'a ServerMetrics,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.metrics.active.fetch_sub(1, Ordering::Relaxed);
        if thread::panicking() {
            self.metrics.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
}
