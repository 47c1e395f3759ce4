//! Server-side streaming-ingest sessions.
//!
//! A [`SessionTable`] tracks every live stream the daemon is ingesting.
//! Sessions are decoupled from the worker pool: the wire messages
//! (open/frame/commit/abort, see [`crate::protocol`]) are handled by
//! whichever worker owns the connection, but the per-frame analysis runs
//! on a dedicated *pump* thread per session, fed through a bounded
//! channel. The channel bound is the credit window — the server grants
//! `credit_window` in-flight frames at open, acks each frame only after it
//! is buffered, and holds (blocking the sending connection) rather than
//! buffer past the window — so a slow disk or an expensive analysis stage
//! pushes back on the client instead of growing an unbounded queue. A held
//! frame waits on the session's drain signal, which the pump raises each
//! time it frees a slot and once when it exits, so the frame is buffered
//! as soon as there is room rather than on a polling tick.
//!
//! Lifecycle and failure handling:
//!
//! * **admission** — at most `max_sessions` sessions exist at once; opens
//!   past the cap are rejected (counted as `sessions_rejected`);
//! * **poisoning** — a bad frame (wrong sequence number, wrong byte
//!   length, dimension mismatch, analyzer stall) marks the *session*
//!   failed and every later message on it gets the sticky error; the
//!   connection, its other requests, and every other session continue
//!   unharmed;
//! * **torn disconnect** — when a connection dies, its sessions are
//!   aborted: the pump is stopped and nothing is committed, so no partial
//!   video becomes visible;
//! * **idle reaping** — a session with no traffic for `idle_timeout` is
//!   aborted by the reaper thread so abandoned streams cannot hold
//!   admission slots forever.
//!
//! Commit finalizes the analysis on the pump thread (outside any database
//! lock), registers the video under a brief write lock, and waits for
//! durability on the journal's group-commit barrier — concurrent
//! committing sessions share one write barrier (see `vdb-store`'s journal
//! docs).

use crate::metrics::ServerMetrics;
use crate::server::ServerStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vdb_core::frame::FrameBuf;
use vdb_obs::global_tracer;
use vdb_store::session::StreamIngest;

/// Streaming limits, derived from `ServerConfig`.
#[derive(Debug, Clone)]
pub struct StreamLimits {
    /// Maximum concurrently open sessions (admission cap).
    pub max_sessions: usize,
    /// Frames the server buffers (and therefore credits) per session.
    pub credit_window: u32,
    /// Abort a session with no traffic for this long.
    pub idle_timeout: Duration,
    /// Give up enqueueing a frame if the pump stays saturated this long.
    pub stall_timeout: Duration,
    /// The wire frame cap — opens whose frames could not fit are rejected.
    pub max_frame: usize,
}

/// What a session pump reports back for a commit.
struct CommitOutcome {
    video: u64,
    shots: usize,
    frames: usize,
    durable: bool,
}

enum PumpMsg {
    Frame(FrameBuf),
    Commit(mpsc::Sender<Result<CommitOutcome, String>>),
}

/// One live streaming session.
struct StreamSession {
    id: u32,
    /// The connection that opened (and exclusively owns) the session.
    conn: u64,
    dims: (u32, u32),
    window: u32,
    /// Next expected frame sequence number.
    next_seq: AtomicU32,
    /// Frames buffered (enqueued, not yet analyzed).
    queued: AtomicU32,
    /// `true` once the pump has exited. Its lock pairs with `drained`.
    pump_exited: Mutex<bool>,
    /// Raised by the pump after every `queued` decrement and once when it
    /// exits; a frame held for credit waits on it.
    drained: Condvar,
    /// Last traffic, in ms since the table's epoch (for the reaper).
    last_active_ms: AtomicU64,
    /// Set on abort so the pump drains without analyzing.
    aborting: AtomicBool,
    /// Sticky session error; set once, reported on every later message.
    poisoned: Mutex<Option<String>>,
    /// Frame sender; `take`n on commit/abort, which closes the pump's
    /// channel.
    tx: Mutex<Option<SyncSender<PumpMsg>>>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl StreamSession {
    fn poison_message(&self) -> Option<String> {
        self.poisoned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn touch(&self, epoch: Instant) {
        self.last_active_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Pump side: one buffered frame has left the window. Notifying under
    /// the lock means a worker that saw the window full is either already
    /// waiting (and is woken) or has not yet re-checked (and sees room).
    fn release_credit(&self) {
        self.queued.fetch_sub(1, Ordering::AcqRel);
        let _guard = self.pump_exited.lock().unwrap_or_else(|e| e.into_inner());
        self.drained.notify_all();
    }
}

/// Marks the pump as exited and wakes a frame waiting for credit, when
/// the pump returns or unwinds.
struct PumpExit<'a>(&'a StreamSession);

impl Drop for PumpExit<'_> {
    fn drop(&mut self) {
        *self.0.pump_exited.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.0.drained.notify_all();
    }
}

/// Point-in-time streaming statistics (see [`SessionTable::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Currently open sessions.
    pub open_sessions: usize,
    /// The most frames any session ever had buffered at once — the
    /// flow-control invariant is `buffered_peak <= credit_window`.
    pub buffered_peak: u32,
    /// The per-session credit window.
    pub credit_window: u32,
}

/// The table of live streaming sessions, shared by all workers and the
/// reaper thread.
pub struct SessionTable {
    inner: Mutex<HashMap<u32, Arc<StreamSession>>>,
    next_id: AtomicU32,
    next_conn: AtomicU64,
    buffered_peak: AtomicU32,
    limits: StreamLimits,
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
    epoch: Instant,
}

impl SessionTable {
    pub(crate) fn new(
        limits: StreamLimits,
        store: ServerStore,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        SessionTable {
            inner: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            next_conn: AtomicU64::new(1),
            buffered_peak: AtomicU32::new(0),
            limits,
            store,
            metrics,
            epoch: Instant::now(),
        }
    }

    /// Register a connection; the returned id scopes session ownership.
    pub(crate) fn register_conn(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, HashMap<u32, Arc<StreamSession>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, id: u32) -> Option<Arc<StreamSession>> {
        self.lock_map().get(&id).cloned()
    }

    /// Record a session-scoped failure: sticky error + counters. The
    /// connection stays open; only this session is lost.
    fn poison(&self, sess: &StreamSession, msg: String) {
        let mut slot = sess.poisoned.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(msg);
            self.metrics.protocol_error();
            self.metrics.stream_session_error();
        }
    }

    /// Stop the pump and drop the session from the table. Blocks until
    /// the pump thread exits (bounded: it only drains its channel).
    fn teardown(&self, sess: &Arc<StreamSession>) {
        self.lock_map().remove(&sess.id);
        sess.aborting.store(true, Ordering::SeqCst);
        drop(sess.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        let pump = sess.pump.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = pump {
            let _ = handle.join();
        }
    }

    /// Handle a stream-open message: admission, validation, pump spawn.
    pub(crate) fn open(
        &self,
        conn: u64,
        name: &str,
        width: u32,
        height: u32,
        fps_milli: u32,
    ) -> Result<String, String> {
        if width == 0 || height == 0 {
            self.metrics.stream_rejected();
            return Err(format!("bad stream dimensions {width}x{height}"));
        }
        let frame_bytes = (width as u64) * (height as u64) * 3;
        let wire_bytes = frame_bytes + crate::protocol::STREAM_HEADER as u64;
        if wire_bytes > self.limits.max_frame as u64 {
            self.metrics.stream_rejected();
            return Err(format!(
                "{width}x{height} frames need {wire_bytes}-byte messages, over the {}-byte frame cap",
                self.limits.max_frame
            ));
        }
        if fps_milli == 0 {
            self.metrics.stream_rejected();
            return Err("frame rate must be positive".to_string());
        }
        let fps = f64::from(fps_milli) / 1000.0;
        let config = self.store.read(|db| db.config());
        let window = self.limits.credit_window.max(1);
        let mut map = self.lock_map();
        if map.len() >= self.limits.max_sessions {
            drop(map);
            self.metrics.stream_rejected();
            return Err(format!(
                "session limit reached ({} open); retry after a session closes",
                self.limits.max_sessions
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Frames (<= window) plus the commit message always fit: once the
        // credit wait in `frame` passes, the send has room.
        let (tx, rx) = mpsc::sync_channel::<PumpMsg>(window as usize + 1);
        let sess = Arc::new(StreamSession {
            id,
            conn,
            dims: (width, height),
            window,
            next_seq: AtomicU32::new(0),
            queued: AtomicU32::new(0),
            pump_exited: Mutex::new(false),
            drained: Condvar::new(),
            last_active_ms: AtomicU64::new(0),
            aborting: AtomicBool::new(false),
            poisoned: Mutex::new(None),
            tx: Mutex::new(Some(tx)),
            pump: Mutex::new(None),
        });
        sess.touch(self.epoch);
        let ingest = StreamIngest::new(name, (width, height), fps, config);
        let pump = {
            let sess = Arc::clone(&sess);
            let store = self.store.clone();
            let metrics = Arc::clone(&self.metrics);
            std::thread::Builder::new()
                .name(format!("vdbd-stream-{id}"))
                .spawn(move || pump_loop(sess, ingest, rx, store, metrics))
                .map_err(|e| format!("cannot spawn session pump: {e}"))?
        };
        *sess.pump.lock().unwrap_or_else(|e| e.into_inner()) = Some(pump);
        map.insert(id, Arc::clone(&sess));
        drop(map);
        self.metrics.stream_opened();
        Ok(format!("session={id} credits={window}"))
    }

    /// Handle a frame-push message: validate, buffer, ack with the free
    /// credit count.
    pub(crate) fn frame(
        &self,
        conn: u64,
        session: u32,
        seq: u32,
        data: &[u8],
    ) -> Result<String, String> {
        let sess = self
            .get(session)
            .ok_or_else(|| format!("unknown session {session}"))?;
        if sess.conn != conn {
            return Err(format!("session {session} belongs to another connection"));
        }
        if let Some(msg) = sess.poison_message() {
            return Err(format!("session failed: {msg}"));
        }
        sess.touch(self.epoch);
        let expected = sess.next_seq.load(Ordering::Acquire);
        if seq != expected {
            let msg = format!("out-of-order frame: expected seq {expected}, got {seq}");
            self.poison(&sess, msg.clone());
            return Err(format!("session failed: {msg}"));
        }
        let need = (sess.dims.0 as usize) * (sess.dims.1 as usize) * 3;
        if data.len() != need {
            let msg = format!(
                "frame {} has {} bytes, expected {} for {}x{}",
                seq,
                data.len(),
                need,
                sess.dims.0,
                sess.dims.1
            );
            self.poison(&sess, msg.clone());
            return Err(format!("session failed: {msg}"));
        }
        // Credit enforcement: never let more than `window` frames sit in
        // the pump queue. The client releases a credit when it reads our
        // ack, which happens before the pump has actually analyzed the
        // frame — so a full-window pipeline can legitimately arrive while
        // `queued` is still at the window. Backpressure here is blocking,
        // not fatal: hold the frame until the pump drains a slot, and only
        // poison if the pump makes no progress for the whole stall budget.
        // A pump that exits wakes the wait too; the send below then reports
        // why it stopped.
        let stall_deadline = Instant::now() + self.limits.stall_timeout;
        let mut exited = sess.pump_exited.lock().unwrap_or_else(|e| e.into_inner());
        while !*exited && sess.queued.load(Ordering::Acquire) >= sess.window {
            if let Some(msg) = sess.poison_message() {
                return Err(format!("session failed: {msg}"));
            }
            let now = Instant::now();
            if now >= stall_deadline {
                let msg = format!(
                    "session stalled: {} frames buffered against a window of {} and the \
                     analyzer made no progress",
                    sess.queued.load(Ordering::Acquire),
                    sess.window
                );
                self.poison(&sess, msg.clone());
                return Err(format!("session failed: {msg}"));
            }
            exited = sess
                .drained
                .wait_timeout(exited, stall_deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(exited);
        let frame = match FrameBuf::from_rgb24(sess.dims.0, sess.dims.1, data) {
            Ok(frame) => frame,
            Err(e) => {
                let msg = e.to_string();
                self.poison(&sess, msg.clone());
                return Err(format!("session failed: {msg}"));
            }
        };
        let tx = sess
            .tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .ok_or_else(|| "session is committing".to_string())?;
        let buffered = sess.queued.fetch_add(1, Ordering::AcqRel) + 1;
        self.buffered_peak.fetch_max(buffered, Ordering::AcqRel);
        // Only this connection sends frames, and at most `window` are
        // buffered, so the channel (capacity window+1) has room and the send
        // does not block; it fails only if the pump has gone.
        if tx.send(PumpMsg::Frame(frame)).is_err() {
            sess.queued.fetch_sub(1, Ordering::AcqRel);
            let text = sess
                .poison_message()
                .unwrap_or_else(|| "session pump stopped".to_string());
            self.poison(&sess, text.clone());
            return Err(format!("session failed: {text}"));
        }
        sess.next_seq.store(seq + 1, Ordering::Release);
        self.metrics.stream_frame(data.len() as u64);
        let free = sess.window - sess.queued.load(Ordering::Acquire).min(sess.window);
        Ok(format!("seq={seq} credits={free}"))
    }

    /// Handle a commit message: drain, finalize, register, wait durable.
    pub(crate) fn commit(&self, conn: u64, session: u32) -> Result<String, String> {
        let sess = self
            .get(session)
            .ok_or_else(|| format!("unknown session {session}"))?;
        if sess.conn != conn {
            return Err(format!("session {session} belongs to another connection"));
        }
        if let Some(msg) = sess.poison_message() {
            self.teardown(&sess);
            self.metrics.stream_aborted();
            return Err(format!("session failed: {msg}"));
        }
        sess.touch(self.epoch);
        let tx = sess
            .tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or_else(|| "commit already in progress".to_string())?;
        let (reply_tx, reply_rx) = mpsc::channel();
        // The channel holds at most `window` frames, so the commit slot
        // (capacity window+1) is always free — but if the pump died this
        // send fails, which the recv below reports.
        let _ = tx.send(PumpMsg::Commit(reply_tx));
        drop(tx);
        let outcome = reply_rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "session pump stopped before the commit finished".to_string())
            .and_then(|r| r);
        self.teardown(&sess);
        match outcome {
            Ok(done) => {
                self.metrics.stream_committed();
                Ok(format!(
                    "video={} shots={} frames={} durable={}",
                    done.video, done.shots, done.frames, done.durable
                ))
            }
            Err(msg) => {
                // Failures first surfacing at commit (empty stream, write
                // error) have not been counted yet; poisoned sessions were.
                if sess.poison_message().is_none() {
                    self.poison(&sess, msg.clone());
                }
                self.metrics.stream_aborted();
                Err(format!("session failed: {msg}"))
            }
        }
    }

    /// Handle an abort message: discard the session, commit nothing.
    pub(crate) fn abort(&self, conn: u64, session: u32) -> Result<String, String> {
        let sess = self
            .get(session)
            .ok_or_else(|| format!("unknown session {session}"))?;
        if sess.conn != conn {
            return Err(format!("session {session} belongs to another connection"));
        }
        self.teardown(&sess);
        self.metrics.stream_aborted();
        Ok("aborted".to_string())
    }

    /// Abort every session owned by a connection (torn-disconnect
    /// cleanup; also runs after a clean `quit`/EOF with sessions open).
    pub(crate) fn close_conn(&self, conn: u64) {
        let owned: Vec<Arc<StreamSession>> = self
            .lock_map()
            .values()
            .filter(|s| s.conn == conn)
            .cloned()
            .collect();
        for sess in owned {
            self.teardown(&sess);
            self.metrics.stream_aborted();
        }
    }

    /// Abort sessions idle longer than the limit (reaper thread).
    pub(crate) fn reap_idle(&self) {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let idle_ms = self.limits.idle_timeout.as_millis() as u64;
        let stale: Vec<Arc<StreamSession>> = self
            .lock_map()
            .values()
            .filter(|s| now_ms.saturating_sub(s.last_active_ms.load(Ordering::Relaxed)) > idle_ms)
            .cloned()
            .collect();
        for sess in stale {
            // Count first: teardown unlists the session before it joins
            // the pump, so an observer that sees the session gone must
            // already see it counted.
            self.metrics.stream_reaped();
            self.teardown(&sess);
        }
    }

    /// Abort everything (shutdown drain).
    pub(crate) fn abort_all(&self) {
        let all: Vec<Arc<StreamSession>> = self.lock_map().values().cloned().collect();
        for sess in all {
            self.teardown(&sess);
            self.metrics.stream_aborted();
        }
    }

    /// Current table statistics.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            open_sessions: self.lock_map().len(),
            buffered_peak: self.buffered_peak.load(Ordering::Acquire),
            credit_window: self.limits.credit_window.max(1),
        }
    }
}

/// The per-session pump: drains buffered frames into the analyzer and,
/// on commit, finalizes and registers the video. Analysis runs here — on
/// the session's own thread — never on a worker and never under the
/// database lock.
fn pump_loop(
    sess: Arc<StreamSession>,
    ingest: StreamIngest,
    rx: Receiver<PumpMsg>,
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
) {
    let _exit = PumpExit(&sess);
    // Declared after `_exit`, so the receiver drops first: a worker woken
    // by the exit signal finds the channel already disconnected.
    let rx = rx;
    let mut ingest = Some(ingest);
    while let Ok(msg) = rx.recv() {
        match msg {
            PumpMsg::Frame(frame) => {
                if sess.aborting.load(Ordering::SeqCst) {
                    sess.release_credit();
                    continue;
                }
                let outcome = match ingest.as_mut() {
                    Some(ingest) => ingest.push(&frame),
                    None => break,
                };
                sess.release_credit();
                if let Err(e) = outcome {
                    let mut slot = sess.poisoned.lock().unwrap_or_else(|p| p.into_inner());
                    if slot.is_none() {
                        *slot = Some(e.to_string());
                        metrics.protocol_error();
                        metrics.stream_session_error();
                    }
                    drop(slot);
                    // Closing the channel makes the worker's next send
                    // fail fast with the sticky error.
                    break;
                }
            }
            PumpMsg::Commit(reply) => {
                let result = commit_now(&sess, ingest.take(), &store);
                let _ = reply.send(result);
                break;
            }
        }
    }
}

fn commit_now(
    sess: &StreamSession,
    ingest: Option<StreamIngest>,
    store: &ServerStore,
) -> Result<CommitOutcome, String> {
    if let Some(msg) = sess.poison_message() {
        return Err(msg);
    }
    let ingest = ingest.ok_or_else(|| "session already finished".to_string())?;
    let tracer = global_tracer();
    let root = tracer.trace_root();
    let mut span = tracer.span(&root, "server.stream.commit");
    if span.is_recording() {
        span.attr("session", u64::from(sess.id));
        span.attr("frames", ingest.frame_count() as u64);
    }
    let ctx = span.context();
    // Finalize outside any lock: this is the expensive tail.
    let finished = ingest.finish().map_err(|e| e.to_string())?;
    let shots = finished.shots();
    let frames = finished.frames();
    // Brief write lock: register + stage journal records only. The
    // durability wait happens after the lock is gone, so concurrent
    // committers batch onto one group-commit barrier.
    let (video, ticket) = store
        .write(|backend| finished.commit(backend))
        .map_err(|e| e.to_string())?;
    let durable = ticket.is_pending();
    ticket.wait_traced(&ctx).map_err(|e| e.to_string())?;
    Ok(CommitOutcome {
        video,
        shots,
        frames,
        durable,
    })
}
