//! `vdbd`'s request handling: the [`Server`] daemon, its store, and the
//! wire commands it executes. The network front end — acceptor, worker
//! pool, connection loop, shutdown — is [`crate::frontend`]; this module
//! plugs into it as a [`Service`].

use crate::frontend::{ConnLimits, Frontend, Service, ShutdownTrigger, DEFAULT_POLL_INTERVAL};
use crate::metrics::{CommandKind, MetricsSnapshot, ServerMetrics};
use crate::protocol::{decode_stream_request, is_stream_request, StreamRequest, DEFAULT_MAX_FRAME};
use crate::session::{SessionTable, StreamLimits, StreamStats};
use parking_lot::RwLock;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_obs::{global_tracer, TraceContext};
use vdb_store::backend::DbBackend;
use vdb_store::db::{DbError, VideoDatabase};
use vdb_store::journal::JournaledDatabase;
use vdb_store::shell::{self, Command};
use vdb_store::SharedDatabase;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (== max concurrent connections).
    pub workers: usize,
    /// Close a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A frame whose first byte has arrived must complete within this.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Reject request frames larger than this.
    pub max_frame: usize,
    /// How often connections check for idleness and, after shutdown, for
    /// the end of the drain, and how often the session reaper runs. Nothing
    /// on a request's path waits on it: streaming credit waits are woken by
    /// the session's pump.
    pub poll_interval: Duration,
    /// After shutdown, keep reading already-sent requests for this long.
    pub drain_grace: Duration,
    /// Emit a one-line metrics log to stderr this often (`None` = never).
    pub metrics_log_interval: Option<Duration>,
    /// Log any request that takes at least this long to stderr, with its
    /// full span tree when the request's trace was sampled (`None` =
    /// never). Over-threshold requests are also counted in
    /// [`ServerMetrics`] as `slow_requests`.
    pub slow_query_log: Option<Duration>,
    /// Maximum concurrently open streaming-ingest sessions; opens past
    /// the cap are rejected (admission control).
    pub max_sessions: usize,
    /// Frames the server buffers — and therefore credits — per streaming
    /// session (flow control; see [`crate::session`]).
    pub stream_credits: u32,
    /// Abort a streaming session with no traffic for this long (the
    /// reaper thread; independent of the connection `idle_timeout`).
    pub session_idle_timeout: Duration,
    /// Poison a streaming session if its analysis pump stays saturated
    /// this long while a frame waits to be buffered.
    pub stream_stall_timeout: Duration,
    /// Identity this server reports to the `shard-id` wire extra (the
    /// router's connect handshake verifies it against the ring slot).
    /// `None` answers `shard=?`, which the router tolerates.
    pub shard_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().max(2))
                .unwrap_or(4),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: DEFAULT_POLL_INTERVAL,
            drain_grace: Duration::from_millis(250),
            metrics_log_interval: None,
            slow_query_log: None,
            max_sessions: 64,
            stream_credits: 8,
            session_idle_timeout: Duration::from_secs(60),
            stream_stall_timeout: Duration::from_secs(10),
            shard_id: None,
        }
    }
}

/// The database a server serves: ephemeral in-memory, or durable behind a
/// journal (every `demo` ingest and `remove` tombstone is flushed before
/// its response goes out).
#[derive(Clone)]
pub enum ServerStore {
    /// Shared in-memory database.
    Memory(SharedDatabase),
    /// Journal-backed database.
    Journaled(Arc<RwLock<JournaledDatabase>>),
}

impl ServerStore {
    /// An empty in-memory store.
    pub fn memory() -> Self {
        ServerStore::Memory(SharedDatabase::new())
    }

    /// Wrap an existing shared database.
    pub fn from_shared(db: SharedDatabase) -> Self {
        ServerStore::Memory(db)
    }

    /// Open (or create) a journal-backed store.
    pub fn open_journal(path: impl Into<PathBuf>, config: AnalyzerConfig) -> Result<Self, DbError> {
        Ok(ServerStore::Journaled(Arc::new(RwLock::new(
            JournaledDatabase::open(path, config)?,
        ))))
    }

    /// Run a closure under a shared read lock.
    pub fn read<R>(&self, f: impl FnOnce(&VideoDatabase) -> R) -> R {
        match self {
            ServerStore::Memory(shared) => shared.read(f),
            ServerStore::Journaled(j) => f(j.read().db()),
        }
    }

    /// Run a closure under the exclusive write lock.
    pub fn write<R>(&self, f: impl FnOnce(&mut dyn DbBackend) -> R) -> R {
        match self {
            ServerStore::Memory(shared) => shared.write(|db| f(db)),
            ServerStore::Journaled(j) => f(&mut *j.write()),
        }
    }

    /// Flush any buffered journal bytes (no-op for the in-memory store).
    pub fn sync(&self) -> Result<(), DbError> {
        match self {
            ServerStore::Memory(_) => Ok(()),
            ServerStore::Journaled(j) => j.write().sync(),
        }
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    frontend: Frontend,
    store: ServerStore,
    config: ServerConfig,
}

impl Server {
    /// Bind the listening socket (so the ephemeral port is known before
    /// any thread starts).
    pub fn bind(store: ServerStore, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            frontend: Frontend::bind(&config.addr)?,
            store,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Start the acceptor, worker pool, and (if configured) the metrics
    /// logger. Returns immediately.
    pub fn serve(self) -> ServerHandle {
        let Server {
            frontend,
            store,
            config,
        } = self;
        let addr = frontend.local_addr();
        let shutdown = frontend.shutdown_trigger();
        let metrics = Arc::new(ServerMetrics::new());
        let sessions = Arc::new(SessionTable::new(
            StreamLimits {
                max_sessions: config.max_sessions.max(1),
                credit_window: config.stream_credits.max(1),
                idle_timeout: config.session_idle_timeout,
                stall_timeout: config.stream_stall_timeout,
                max_frame: config.max_frame,
            },
            store.clone(),
            Arc::clone(&metrics),
        ));
        let limits = ConnLimits {
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            write_timeout: config.write_timeout,
            max_frame: config.max_frame,
            poll_interval: config.poll_interval,
            drain_grace: config.drain_grace,
        };
        let workers = config.workers;
        let ctx = Arc::new(ServerCtx {
            store: store.clone(),
            metrics: Arc::clone(&metrics),
            sessions: Arc::clone(&sessions),
            shutdown: shutdown.clone(),
            config,
        });
        let mut threads = frontend.serve("vdbd", workers, limits, Arc::clone(&ctx));
        {
            // The session reaper: aborts streams idle past their timeout
            // so abandoned sessions release admission slots.
            let sessions = Arc::clone(&sessions);
            let shutdown = shutdown.clone();
            let poll = ctx.config.poll_interval.max(Duration::from_millis(20));
            threads.push(
                std::thread::Builder::new()
                    .name("vdbd-reaper".into())
                    .spawn(move || {
                        while !shutdown.wait(poll) {
                            sessions.reap_idle();
                        }
                    })
                    .expect("spawn session reaper"),
            );
        }
        if let Some(interval) = ctx.config.metrics_log_interval {
            let metrics = Arc::clone(&metrics);
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("vdbd-metrics".into())
                    .spawn(move || {
                        while !shutdown.wait(interval) {
                            eprintln!("vdbd: {}", metrics.snapshot().one_line());
                        }
                    })
                    .expect("spawn metrics logger"),
            );
        }
        ServerHandle {
            addr,
            shutdown,
            metrics,
            sessions,
            store,
            threads,
        }
    }
}

/// A running server: the address it listens on, its metrics, and the
/// shutdown controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: ShutdownTrigger,
    metrics: Arc<ServerMetrics>,
    sessions: Arc<SessionTable>,
    store: ServerStore,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Streaming-session statistics (open sessions, peak buffered
    /// frames, credit window).
    pub fn stream_stats(&self) -> StreamStats {
        self.sessions.stats()
    }

    /// The store being served (e.g. for pre-loading data in tests).
    pub fn store(&self) -> &ServerStore {
        &self.store
    }

    /// The server's shutdown trigger — firing it is equivalent to
    /// [`ServerHandle::trigger_shutdown`] (`vdbd` hands it to
    /// [`crate::frontend::trigger_on_signal`]).
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        self.shutdown.clone()
    }

    /// Begin graceful shutdown: stop accepting, drain in-flight requests.
    pub fn trigger_shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Wait for the server to finish (after a wire `shutdown`, a
    /// [`ServerHandle::trigger_shutdown`], or a signal), then sync the
    /// journal. Returns the final metrics.
    pub fn join(self) -> Result<MetricsSnapshot, DbError> {
        for t in self.threads {
            let _ = t.join();
        }
        // Workers have drained; any streaming session still open belongs
        // to a client that never committed — abort (do not commit) so no
        // partial video survives, then sync what did commit.
        self.sessions.abort_all();
        self.store.sync()?;
        Ok(self.metrics.snapshot())
    }

    /// Trigger shutdown and wait for the drain to complete.
    pub fn shutdown(self) -> Result<MetricsSnapshot, DbError> {
        self.trigger_shutdown();
        self.join()
    }
}

/// What a `vdbd` request executes against.
struct ServerCtx {
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
    sessions: Arc<SessionTable>,
    shutdown: ShutdownTrigger,
    config: ServerConfig,
}

/// Per-connection state is the session-table connection id: it scopes
/// streaming-session ownership, and closing it aborts the connection's
/// sessions (torn-disconnect cleanup).
impl Service for ServerCtx {
    type Conn = u64;

    fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    fn open(&self) -> u64 {
        self.sessions.register_conn()
    }

    fn handle(&self, conn: &mut u64, payload: &[u8]) -> (CommandKind, Result<String, String>) {
        let started = Instant::now();
        // Every request gets a (head-sampled) trace of its own; the
        // server.request span is the root the store and core spans hang
        // off, and what the slow-query log renders.
        let tracer = global_tracer();
        let root = tracer.trace_root();
        let mut rspan = tracer.span(&root, "server.request");
        let tctx = rspan.context();
        let (kind, result) = if is_stream_request(payload) {
            stream_dispatch(self, *conn, payload)
        } else {
            match std::str::from_utf8(payload) {
                Ok(line) => dispatch(self, line, &tctx),
                Err(_) => (
                    CommandKind::Other,
                    Err("request is not valid UTF-8".to_string()),
                ),
            }
        };
        if rspan.is_recording() {
            rspan.attr("cmd", kind.label());
            rspan.attr("ok", result.is_ok());
        }
        drop(rspan);
        if let Some(threshold) = self.config.slow_query_log {
            let elapsed = started.elapsed();
            if elapsed >= threshold {
                self.metrics.slow_request();
                eprintln!(
                    "vdbd: slow request: {} took {}us (threshold {}us)\n{}",
                    kind.label(),
                    elapsed.as_micros(),
                    threshold.as_micros(),
                    shell::render_trace(&root)
                );
            }
        }
        (kind, result)
    }

    fn close(&self, conn: u64) {
        self.sessions.close_conn(conn);
    }
}

/// Execute one binary stream message against the session table. Session
/// failures come back as `-` responses on this connection; they never
/// close it and never touch other sessions.
fn stream_dispatch(
    ctx: &ServerCtx,
    conn: u64,
    payload: &[u8],
) -> (CommandKind, Result<String, String>) {
    match decode_stream_request(payload) {
        Err(e) => {
            ctx.metrics.protocol_error();
            (CommandKind::Other, Err(format!("bad stream message: {e}")))
        }
        Ok(StreamRequest::Open {
            name,
            width,
            height,
            fps_milli,
        }) => (
            CommandKind::StreamOpen,
            ctx.sessions.open(conn, name, width, height, fps_milli),
        ),
        Ok(StreamRequest::Frame { session, seq, data }) => (
            CommandKind::StreamFrame,
            ctx.sessions.frame(conn, session, seq, data),
        ),
        Ok(StreamRequest::Commit { session }) => (
            CommandKind::StreamCommit,
            ctx.sessions.commit(conn, session),
        ),
        Ok(StreamRequest::Abort { session }) => {
            (CommandKind::StreamAbort, ctx.sessions.abort(conn, session))
        }
    }
}

/// Execute one request line, opening any store/core trace spans under
/// `tctx` (the per-request `server.request` span). The error side of the
/// result becomes a `-` status response.
fn dispatch(
    ctx: &ServerCtx,
    line: &str,
    tctx: &TraceContext,
) -> (CommandKind, Result<String, String>) {
    let trimmed = line.trim();
    match trimmed {
        "ping" => return (CommandKind::Ping, Ok("pong".to_string())),
        "shard-id" => {
            // The router's connect handshake: which shard is this?
            let id = ctx.config.shard_id.as_deref().unwrap_or("?");
            return (CommandKind::ShardId, Ok(format!("shard={id} proto=1")));
        }
        "xlist" => return (CommandKind::Xlist, Ok(xlist(ctx))),
        "metrics" => {
            // The server's own table, then the whole-stack sections: the
            // pipeline and store record into the process-global registry,
            // so one wire command reports every layer.
            let mut text = ctx.metrics.snapshot().render();
            let stack = vdb_obs::global().snapshot();
            for prefix in ["core", "store"] {
                if let Some(section) = stack.render_section(prefix) {
                    text.push_str(&section);
                }
            }
            return (CommandKind::Metrics, Ok(text));
        }
        "shutdown" => {
            ctx.shutdown.trigger();
            return (
                CommandKind::Shutdown,
                Ok("shutting down: draining connections".to_string()),
            );
        }
        _ => {}
    }
    if let Some(rest) = trimmed.strip_prefix("xquery ") {
        return (CommandKind::Xquery, xquery(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("export ") {
        return (CommandKind::Export, export(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("import ") {
        return (CommandKind::Import, import(ctx, rest, tctx));
    }
    let cmd = Command::parse(line);
    let kind = kind_of(&cmd);
    match &cmd {
        Command::Quit => (kind, Ok("bye".to_string())),
        Command::Unknown(word) => (
            kind,
            Err(format!(
                "unknown command '{word}' (try 'help'; wire extras: ping, metrics, shutdown, shard-id, xlist, xquery, export, import)"
            )),
        ),
        Command::Save(_) | Command::Load { .. } => (
            kind,
            Err(
                "save/load are not available over the wire; run vdbd with --journal for durability"
                    .to_string(),
            ),
        ),
        Command::Help => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly(db, &cmd))
                .expect("help is readonly");
            (
                kind,
                Ok(format!(
                    "{text}server commands:\n  ping              liveness probe\n  metrics           server counters and latency quantiles\n  shutdown          stop the server (drains in-flight requests)\n  shard-id          this server's shard identity (router handshake)\n  xlist / xquery    machine-readable catalog / query rows (router merge)\n  export / import   move one video's analysis between shards (rebalance)\nstreaming ingest uses binary frames on the same socket — see 'vdbc stream'\n"
                )),
            )
        }
        Command::Stats => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly(db, &cmd))
                .expect("stats is readonly");
            let snap = ctx.metrics.snapshot();
            let streams = ctx.sessions.stats();
            let stack = vdb_obs::global().snapshot();
            let frames = stack.counter("core.pipeline.frames").unwrap_or(0);
            let appends = stack.counter("store.journal.appends").unwrap_or(0);
            // Uniform whole-stack grammar past the db line: every line is
            // `  <dotted.key> <integer>` (the router appends `router.*`
            // lines in the same shape), pinned by a server test so
            // scripts can cut on whitespace.
            (
                kind,
                Ok(format!(
                    "{text}  server.requests {}\n  server.errors {}\n  server.connections {}\n  server.protocol_errors {}\n  server.stream.open {}\n  server.stream.committed {}\n  server.stream.buffered_peak {}\n  server.stream.credit_window {}\n  stack.frames_analyzed {}\n  stack.journal_appends {}\n",
                    snap.total_requests(),
                    snap.total_errors(),
                    snap.connections_opened,
                    snap.protocol_errors,
                    streams.open_sessions,
                    snap.stream.sessions_committed,
                    streams.buffered_peak,
                    streams.credit_window,
                    frames,
                    appends
                )),
            )
        }
        _ if cmd.is_readonly() => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly_traced(db, &cmd, tctx))
                .expect("readonly command");
            (kind, Ok(text))
        }
        _ if cmd.is_mutation() => {
            let text = ctx
                .store
                .write(|backend| {
                    let out = shell::execute_mutation_traced(backend, &cmd, tctx)
                        .expect("mutation command");
                    // Durable stores flush before the response leaves.
                    backend.sync().map(|()| out)
                })
                .unwrap_or_else(|e| format!("  journal sync failed: {e}\n"));
            (kind, Ok(text))
        }
        _ => (kind, Err("command not available over the wire".to_string())),
    }
}

/// `xlist`: machine-readable catalog rows for the router. Fixed-key
/// tokens first, the name last (names may contain spaces); `dur=` is the
/// full-precision bit pattern of the duration so a merged `list` renders
/// byte-identically to a single node.
fn xlist(ctx: &ServerCtx) -> String {
    ctx.store.read(|db| {
        use std::fmt::Write as _;
        let mut out = String::new();
        for meta in db.catalog().all() {
            let _ = writeln!(
                out,
                "video id={} frames={} dur={:016x} name={}",
                meta.id,
                meta.frame_count,
                meta.duration_secs().to_bits(),
                meta.name
            );
        }
        out
    })
}

/// `xquery <text>`: one shard's contribution to a distributed query —
/// a `mode=… kept=… k=… limit=…` header, then full-precision rows
/// (`d=`/`ba=`/`oa=` are f64 bit patterns) the router re-merges with the
/// exact `(distance, ShotKey)` tie-break the index uses.
fn xquery(ctx: &ServerCtx, text: &str) -> Result<String, String> {
    let sharded = ctx
        .store
        .read(|db| db.query_str_sharded(text))
        .map_err(|e| e.to_string())?;
    use std::fmt::Write as _;
    let dash = || "-".to_string();
    let mut out = format!(
        "mode={} kept={} k={} limit={}\n",
        if sharded.k.is_some() { "topk" } else { "range" },
        sharded.kept_total,
        sharded.k.map(|v| v.to_string()).unwrap_or_else(dash),
        sharded.limit.map(|v| v.to_string()).unwrap_or_else(dash),
    );
    for row in &sharded.rows {
        let a = &row.answer;
        let _ = writeln!(
            out,
            "row v={} s={} d={:016x} ba={:016x} oa={:016x} rep={} keep={} node={}",
            a.key.video,
            a.key.shot,
            a.distance.to_bits(),
            a.var_ba.to_bits(),
            a.var_oa.to_bits(),
            a.rep_frame,
            row.keep as u8,
            a.scene_name
        );
    }
    Ok(out)
}

/// `export <id>`: the video's transfer record (analysis + catalog
/// metadata, no pixels) as hex, for shard-to-shard rebalance moves.
fn export(ctx: &ServerCtx, rest: &str) -> Result<String, String> {
    let id: u64 = rest
        .trim()
        .parse()
        .map_err(|_| "usage: export <video-id>".to_string())?;
    let record = ctx
        .store
        .read(|db| vdb_store::transfer::ExportedVideo::from_db(db, id).and_then(|e| e.encode()))
        .map_err(|e| e.to_string())?;
    let hex = vdb_store::transfer::to_hex(&record);
    // The reply must fit the peer's frame cap (status byte + headroom).
    if hex.len() + 64 > ctx.config.max_frame {
        return Err(format!(
            "export of video {id} ({} bytes) exceeds the frame limit",
            record.len()
        ));
    }
    Ok(hex)
}

/// `import <hex>`: re-create an exported video through the streaming
/// ingest commit path; the reply mirrors a stream commit
/// (`video=… shots=… frames=… durable=…`).
fn import(ctx: &ServerCtx, rest: &str, tctx: &TraceContext) -> Result<String, String> {
    let bytes = vdb_store::transfer::from_hex(rest).map_err(|e| e.to_string())?;
    let exported = vdb_store::transfer::ExportedVideo::decode(&bytes).map_err(|e| e.to_string())?;
    let shots = exported.analysis.shots.len();
    let frames = exported.analysis.signs_ba.len();
    let (name, dims, fps, analysis, genres, forms) = exported.into_analysis();
    let (id, ticket) = ctx
        .store
        .write(|backend| backend.commit_stream(name, dims, fps, analysis, genres, forms))
        .map_err(|e| e.to_string())?;
    let durable = ticket.is_pending();
    // Wait outside the database lock so concurrent committers batch.
    ticket
        .wait_traced(tctx)
        .map_err(|e| format!("journal sync failed: {e}"))?;
    Ok(format!(
        "video={id} shots={shots} frames={frames} durable={durable}"
    ))
}

fn kind_of(cmd: &Command) -> CommandKind {
    match cmd {
        Command::Help => CommandKind::Help,
        Command::List => CommandKind::List,
        Command::Stats => CommandKind::Stats,
        Command::Query(_) => CommandKind::Query,
        Command::Explain(_) => CommandKind::Explain,
        Command::Trace(_) => CommandKind::Trace,
        Command::DebugDump => CommandKind::Debug,
        Command::Board(..) => CommandKind::Board,
        Command::Tree(_) => CommandKind::Tree,
        Command::Demo(_) => CommandKind::Demo,
        Command::Remove(_) => CommandKind::Remove,
        Command::Quit => CommandKind::Quit,
        Command::Empty
        | Command::Usage(_)
        | Command::Unknown(_)
        | Command::Save(_)
        | Command::Load { .. } => CommandKind::Other,
    }
}
