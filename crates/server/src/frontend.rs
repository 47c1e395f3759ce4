//! The network front end shared by `vdbd` and `vdb-router`: a fixed-size
//! worker pool over blocking sockets, behind a small [`Service`] trait.
//!
//! One acceptor thread hands connections to `workers` handler threads
//! through a queue; each worker owns one connection at a time and runs its
//! requests to completion (so the pool size bounds concurrent
//! connections — excess connections queue until a worker frees up).
//! Nothing here sleeps to poll for work:
//!
//! * the acceptor blocks in `accept()`; shutdown wakes it with one
//!   self-connect to the bound port (see [`ShutdownTrigger`]), which is
//!   dropped on the spot — never handed to a worker, never counted;
//! * idle workers block in `recv()` on the shared queue, and leave once
//!   the acceptor drops its end and the queue is empty.
//!
//! Blocking reads on a connection use a short socket timeout (the poll
//! interval), which is what makes idle timeouts and prompt graceful
//! shutdown possible without an async runtime:
//!
//! * a connection silent longer than `idle_timeout` is closed;
//! * a frame that starts but does not complete within `frame_timeout` is
//!   treated as torn and costs the client its connection;
//! * on shutdown (wire `shutdown` command, a handle's `trigger_shutdown`,
//!   or a signal through [`trigger_on_signal`]) the acceptor stops
//!   accepting, hands over what the OS backlog already holds, and every
//!   worker *drains*: requests already sent by clients are still read,
//!   executed, and answered for `drain_grace` before the connection
//!   closes — no in-flight request loses its reply.
//!
//! Protocol violations (oversized length prefix, torn frame) close only
//! the offending connection and are counted in [`ServerMetrics`]; they can
//! never take down a worker. Every request is counted before its reply
//! goes out, so a client holding a reply is guaranteed to be visible in
//! the metrics.

use crate::metrics::{CommandKind, ServerMetrics};
use crate::protocol::{encode_response, write_frame, FrameError};
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default socket poll granularity: how often a connection blocked in a
/// read wakes to check its idle and drain deadlines.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long the acceptor backs off after a hard `accept()` error (e.g.
/// out of file descriptors) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// One daemon's request handling; the frontend owns everything else.
pub trait Service: Send + Sync + 'static {
    /// Per-connection state, opened when a worker takes the connection
    /// and closed when it is done with it, however the connection ended.
    type Conn;

    /// The metrics the frontend counts connections, protocol errors and
    /// requests into.
    fn metrics(&self) -> &ServerMetrics;

    /// Open the state for a new connection.
    fn open(&self) -> Self::Conn;

    /// Execute one request payload; the error side becomes a `-` reply.
    /// A [`CommandKind::Quit`] reply closes the connection after it is
    /// sent.
    fn handle(
        &self,
        conn: &mut Self::Conn,
        payload: &[u8],
    ) -> (CommandKind, Result<String, String>);

    /// Release the connection's state.
    fn close(&self, conn: Self::Conn);
}

/// Per-connection limits, derived from a daemon's config.
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Close a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A frame whose first byte has arrived must complete within this.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Reject request frames larger than this.
    pub max_frame: usize,
    /// Socket poll granularity (shutdown/idle checks happen this often).
    pub poll_interval: Duration,
    /// After shutdown, keep reading already-sent requests for this long.
    pub drain_grace: Duration,
}

/// Stops a running frontend: sets the flag every connection loop checks
/// and wakes the acceptor out of `accept()` with one self-connect.
/// Cheap to clone; triggering twice is a no-op.
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<Trigger>);

struct Trigger {
    fired: AtomicBool,
    /// Where the wake-up connection dials: the bound address, with
    /// loopback in place of an unspecified IP.
    wake_to: SocketAddr,
    /// The wake-up connection's own address once it is made. Held locked
    /// from before `fired` is set until after it is filled in, so the
    /// acceptor can always recognise the wake-up.
    wake_from: Mutex<Option<SocketAddr>>,
    fired_cv: Condvar,
}

impl ShutdownTrigger {
    fn new(bound: SocketAddr) -> Self {
        let ip = match bound.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        ShutdownTrigger(Arc::new(Trigger {
            fired: AtomicBool::new(false),
            wake_to: SocketAddr::new(ip, bound.port()),
            wake_from: Mutex::new(None),
            fired_cv: Condvar::new(),
        }))
    }

    /// Begin graceful shutdown: stop accepting, drain in-flight requests.
    pub fn trigger(&self) {
        let mut wake_from = self.0.wake_from.lock().unwrap_or_else(|e| e.into_inner());
        if self.0.fired.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(wake) = TcpStream::connect(self.0.wake_to) {
            *wake_from = wake.local_addr().ok();
        }
        drop(wake_from);
        self.0.fired_cv.notify_all();
    }

    /// Whether shutdown has begun.
    pub fn is_triggered(&self) -> bool {
        self.0.fired.load(Ordering::SeqCst)
    }

    /// Wait up to `timeout` for shutdown; returns whether it has begun.
    /// Background loops use this as an interruptible pause.
    pub fn wait(&self, timeout: Duration) -> bool {
        let guard = self.0.wake_from.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = self
            .0
            .fired_cv
            .wait_timeout_while(guard, timeout, |_| !self.is_triggered())
            .unwrap_or_else(|e| e.into_inner());
        self.is_triggered()
    }

    /// Whether an accepted connection from `peer` is the wake-up.
    fn is_wake(&self, peer: SocketAddr) -> bool {
        self.is_triggered()
            && *self.0.wake_from.lock().unwrap_or_else(|e| e.into_inner()) == Some(peer)
    }
}

/// A bound-but-not-yet-serving front end.
pub struct Frontend {
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: ShutdownTrigger,
}

impl Frontend {
    /// Bind the listening socket (so the ephemeral port is known before
    /// any thread starts). On Unix std sets `SO_REUSEADDR`, so a restarted
    /// daemon reclaims its port despite `TIME_WAIT` pairs from its
    /// previous life.
    pub fn bind(addr: &str) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Frontend {
            listener,
            addr,
            shutdown: ShutdownTrigger::new(addr),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The trigger that stops this front end once it serves.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        self.shutdown.clone()
    }

    /// Start the acceptor (`<name>-accept`) and `workers` workers
    /// (`<name>-worker-<i>`) serving `service`. Returns immediately with
    /// their threads, which all exit once shutdown is triggered and the
    /// drain completes.
    pub fn serve<S: Service>(
        self,
        name: &str,
        workers: usize,
        limits: ConnLimits,
        service: Arc<S>,
    ) -> Vec<JoinHandle<()>> {
        let Frontend {
            listener, shutdown, ..
        } = self;
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shutdown = shutdown.clone();
            let name = name.to_string();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-accept"))
                    .spawn(move || accept_loop(listener, tx, shutdown, &name))
                    .expect("spawn acceptor"),
            );
        }
        for i in 0..workers.max(1) {
            let worker = Worker {
                service: Arc::clone(&service),
                shutdown: shutdown.clone(),
                limits,
            };
            let rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &worker))
                    .expect("spawn worker"),
            );
        }
        threads
    }
}

/// Stop `trigger` on SIGINT or SIGTERM (no-op off Unix). The signal
/// handler only sets a flag; a watcher thread turns it into a trigger and
/// exits once shutdown begins either way.
pub fn trigger_on_signal(trigger: ShutdownTrigger) {
    sig::install();
    std::thread::Builder::new()
        .name("signal-watch".into())
        .spawn(move || {
            while !trigger.wait(Duration::from_millis(100)) {
                if sig::pending() {
                    trigger.trigger();
                }
            }
        })
        .expect("spawn signal watcher");
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGNALED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn pending() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<TcpStream>,
    shutdown: ShutdownTrigger,
    name: &str,
) {
    let hand_over =
        |(stream, peer): (TcpStream, SocketAddr)| shutdown.is_wake(peer) || tx.send(stream).is_ok();
    while !shutdown.is_triggered() {
        match listener.accept() {
            Ok(accepted) => {
                if !hand_over(accepted) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("{name}: accept error: {e}");
                shutdown.wait(ACCEPT_BACKOFF);
            }
        }
    }
    // A client that finished its TCP handshake before shutdown may already
    // have sent a request, even if we have not accept()ed it yet. Drain
    // the backlog into the worker queue so those requests get their
    // replies too; only then drop `tx` (disconnecting the queue).
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        match listener.accept() {
            Ok(accepted) => {
                if !hand_over(accepted) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

struct Worker<S> {
    service: Arc<S>,
    shutdown: ShutdownTrigger,
    limits: ConnLimits,
}

fn worker_loop<S: Service>(rx: &Mutex<Receiver<TcpStream>>, worker: &Worker<S>) {
    loop {
        // Idle workers queue on the lock and the holder blocks in recv().
        // A `let` statement drops the guard before the connection is
        // served (a `while let` scrutinee would hold it for the body).
        // recv() fails only once the acceptor is gone and the queue is
        // empty.
        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match next {
            Ok(stream) => handle_connection(stream, worker),
            Err(_) => break,
        }
    }
}

/// Outcome of one deadline-aware frame read (see [`try_read_frame`]).
enum FrameRead {
    /// A complete frame.
    Frame(Vec<u8>),
    /// No bytes arrived within one poll interval.
    Idle,
    /// Clean end-of-stream at a frame boundary.
    Eof,
}

/// Read one frame with the stream's poll-interval read timeout. Returns
/// `Idle` if no byte arrived; once a frame has started it must complete
/// within `frame_timeout` or the frame counts as torn.
fn try_read_frame(
    stream: &mut TcpStream,
    max: usize,
    frame_timeout: Duration,
) -> Result<FrameRead, FrameError> {
    let mut header = [0u8; 4];
    let mut deadline: Option<Instant> = None;
    let mut fill = |buf: &mut [u8], deadline: &mut Option<Instant>| -> Result<bool, FrameError> {
        let mut got = 0;
        while got < buf.len() {
            match stream.read(&mut buf[got..]) {
                Ok(0) => {
                    return if got == 0 && deadline.is_none() {
                        Ok(false) // clean EOF before any frame byte
                    } else {
                        Err(FrameError::Torn)
                    };
                }
                Ok(n) => {
                    got += n;
                    if deadline.is_none() {
                        *deadline = Some(Instant::now() + frame_timeout);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    match *deadline {
                        None => return Ok(true), // still idle, caller re-polls
                        Some(d) if Instant::now() >= d => return Err(FrameError::Torn),
                        Some(_) => {}
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(true)
    };

    if !fill(&mut header, &mut deadline)? {
        return Ok(FrameRead::Eof);
    }
    if deadline.is_none() {
        return Ok(FrameRead::Idle);
    }
    let declared = u32::from_le_bytes(header);
    if declared as usize > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    if !payload.is_empty() && !fill(&mut payload, &mut deadline)? {
        return Err(FrameError::Torn);
    }
    Ok(FrameRead::Frame(payload))
}

fn handle_connection<S: Service>(mut stream: TcpStream, worker: &Worker<S>) {
    let limits = &worker.limits;
    let service = &*worker.service;
    let metrics = service.metrics();
    if stream.set_read_timeout(Some(limits.poll_interval)).is_err()
        || stream
            .set_write_timeout(Some(limits.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    metrics.connection_opened();
    let mut conn = service.open();
    let mut idle_deadline = Instant::now() + limits.idle_timeout;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if drain_deadline.is_none() && worker.shutdown.is_triggered() {
            drain_deadline = Some(Instant::now() + limits.drain_grace);
        }
        match try_read_frame(&mut stream, limits.max_frame, limits.frame_timeout) {
            Ok(FrameRead::Idle) => {
                let now = Instant::now();
                if let Some(d) = drain_deadline {
                    if now >= d {
                        break;
                    }
                } else if now >= idle_deadline {
                    break;
                }
            }
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Frame(payload)) => {
                idle_deadline = Instant::now() + limits.idle_timeout;
                let started = Instant::now();
                let bytes_in = 4 + payload.len() as u64;
                let (kind, result) = service.handle(&mut conn, &payload);
                let (ok, text) = match result {
                    Ok(text) => (true, text),
                    Err(text) => (false, text),
                };
                let response = encode_response(ok, &text);
                let bytes_out = 4 + response.len() as u64;
                metrics.record_request(kind, ok, bytes_in, bytes_out, started.elapsed());
                if write_frame(&mut stream, &response).is_err() || kind == CommandKind::Quit {
                    break;
                }
            }
            Err(e) => {
                // Protocol violation or socket failure: this connection is
                // done, the server is not. Oversized frames get a parting
                // error response (the declared length was read cleanly);
                // after a torn frame there is nothing sane to say.
                metrics.protocol_error();
                if matches!(e, FrameError::TooLarge { .. }) {
                    let _ = write_frame(&mut stream, &encode_response(false, &e.to_string()));
                }
                break;
            }
        }
    }
    service.close(conn);
    metrics.connection_closed();
}

#[cfg(test)]
mod tests {
    use crate::client::Client;
    use crate::server::{Server, ServerConfig, ServerStore};
    use std::io::Read;

    /// std's bind sets `SO_REUSEADDR`: after a client `quit` makes the
    /// server close first (leaving its side of the pair in `TIME_WAIT`),
    /// a new server binds the very same address.
    #[test]
    fn restart_rebinds_address_with_server_side_time_wait() {
        let server = Server::bind(ServerStore::memory(), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.expect_ok("quit").unwrap(), "bye");
        let mut raw = client.into_stream();
        let mut rest = Vec::new();
        assert_eq!(
            raw.read_to_end(&mut rest).unwrap(),
            0,
            "server closes first"
        );
        drop(raw);
        handle.shutdown().unwrap();

        let again = ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        };
        let server = Server::bind(ServerStore::memory(), again).expect("rebind the same port");
        assert_eq!(server.local_addr(), addr);
        server.serve().shutdown().unwrap();
    }
}
