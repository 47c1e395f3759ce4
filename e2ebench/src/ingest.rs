//! `ingest`: in-process journaled ingest of paper-sized clips through
//! `JournaledDatabase::ingest`. Extraction, the cascade, the codec and
//! the journal do almost all the work; no index probing, server or
//! router is on the measured path.

use crate::inputs::{self, Clip, ReadKind, PAPER_DIMS};
use crate::layers;
use crate::stack;
use crate::stats::{Report, Samples, Scale, Windows};
use crate::RunConfig;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_obs::trace::Tracer;
use vdb_server::ServerStore;
use vdb_store::JournaledDatabase;

/// Clips already in the journal when the run opens it.
const BASE_CLIPS: usize = 64;
/// Ingested clips kept; older ones are removed so the corpus (and the
/// index every ingest merges into) stays the same size.
const WINDOW: usize = 48;

/// Clips the traced slice ingests at least (see its lock probe).
const PROBE_CLIPS: usize = 1100;

/// Frames per pool clip: 16 s of video at the paper's 3 fps.
const CLIP_FRAMES: usize = 48;

/// The ingest pool: four genres, shots of about six frames.
pub fn pool(seed: u64) -> Vec<Clip> {
    inputs::pool(seed, 4, CLIP_FRAMES, 6.0, PAPER_DIMS)
}

/// Write a journal holding `count` pool clips (committed from their
/// precomputed analyses, so no extraction runs here).
pub fn write_base_journal(path: &Path, pool: &[Clip], count: usize, tagged: bool) {
    let _ = std::fs::remove_file(path);
    let mut jdb = JournaledDatabase::open(path, AnalyzerConfig::default()).expect("base journal");
    for i in 0..count {
        let clip = &pool[i % pool.len()];
        let genres = if tagged {
            vec![clip.genre(jdb.db().taxonomy())]
        } else {
            Vec::new()
        };
        let (_, ticket) = jdb
            .commit_stream(
                format!("base-{i}"),
                clip.video.dims(),
                clip.video.fps(),
                clip.expected.clone(),
                genres,
                Vec::new(),
            )
            .expect("commit a base clip");
        ticket.wait().expect("base clip durable");
    }
    jdb.flush().expect("flush the base journal");
}

/// Open the journal `SETUPS` times (replay, catalogue and index build);
/// returns the last store and every set-up time.
pub fn open_setups(path: &Path) -> (ServerStore, Vec<f64>) {
    let mut setups = Vec::new();
    let mut store = None;
    for _ in 0..crate::SETUPS {
        drop(store.take());
        let started = Instant::now();
        let opened = ServerStore::open_journal(path, AnalyzerConfig::default()).expect("open");
        setups.push(started.elapsed().as_secs_f64());
        store = Some(opened);
    }
    (store.expect("at least one set-up"), setups)
}

struct Ingester<'a> {
    store: &'a ServerStore,
    pool: &'a [Clip],
    next: usize,
    window: VecDeque<u64>,
}

struct Slice {
    latency: Samples,
    windows: Windows,
    frames: u64,
    busy: Duration,
}

impl Ingester<'_> {
    /// Ingest clips back to back for `duration` and at least `min_clips`
    /// clips; time each `JournaledDatabase::ingest` call and check its
    /// boundaries.
    fn slice(
        &mut self,
        duration: Duration,
        min_clips: usize,
        tracer: Option<&Tracer>,
        rep: &mut Report,
    ) -> Slice {
        let ServerStore::Journaled(lock) = self.store else {
            unreachable!("the ingest store is journaled")
        };
        let start = Instant::now();
        let end = start + duration;
        let mut out = Slice {
            latency: Samples::new(),
            windows: Windows::new(start, crate::load::WINDOW, duration),
            frames: 0,
            busy: Duration::ZERO,
        };
        while Instant::now() < end || out.latency.len() < min_clips {
            let clip = &self.pool[self.next % self.pool.len()];
            let name = format!("clip-{}", self.next);
            self.next += 1;
            let mut jdb = lock.write();
            let genre = clip.genre(jdb.db().taxonomy());
            let started = Instant::now();
            let result = match tracer {
                Some(tr) => {
                    let root = tr.trace_root_forced();
                    let _span = tr.span(&root, "store.ingest");
                    jdb.ingest(name, &clip.video, vec![genre], Vec::new())
                }
                None => jdb.ingest(name, &clip.video, vec![genre], Vec::new()),
            };
            let took = started.elapsed();
            rep.attempted += 1;
            let id = match result {
                Ok(id) => id,
                Err(e) => {
                    rep.fail(format!("ingest: {e}"));
                    continue;
                }
            };
            match jdb.db().analysis(id) {
                Ok(a) if a.shots == clip.expected.segmentation.shots => {}
                _ => rep.fail(format!(
                    "clip {id}: boundaries differ from the streaming oracle"
                )),
            }
            drop(jdb);
            out.latency.push(took);
            out.windows
                .record(started + took, took, clip.frames() as f64);
            out.frames += clip.frames() as u64;
            out.busy += took;
            self.window.push_back(id);
            if self.window.len() > WINDOW {
                let oldest = self.window.pop_front().expect("non-empty window");
                if let Err(e) = lock.write().remove(oldest) {
                    rep.fail(format!("remove {oldest}: {e}"));
                }
            }
        }
        out
    }
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let pool = pool(cfg.seed);
    let path = cfg.dir.join("ingest.vdbj");
    write_base_journal(&path, &pool, BASE_CLIPS, true);
    let (store, setups) = open_setups(&path);
    let mut ingester = Ingester {
        store: &store,
        pool: &pool,
        next: 0,
        window: VecDeque::new(),
    };
    if !cfg.trace {
        let bytes_before = std::fs::metadata(&path).map_or(0, |m| m.len());
        let cpu = crate::CpuMeter::start();
        let mut s = ingester.slice(cfg.share(1.0), 0, None, rep);
        let cpu_per_frame = cpu.per_op_us(s.frames as f64);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) - bytes_before;
        let fps = s.frames as f64 / s.busy.as_secs_f64().max(1e-9);
        // Clips are ingested one at a time and all have CLIP_FRAMES
        // frames, so the gated throughput is a clip's frames over the
        // median clip time: a slow outlier clip moves a mean, not this.
        let typical_fps = CLIP_FRAMES as f64 / (s.windows.median_quantile_us(0.5) / 1e6);
        crate::end_to_end(rep, &setups, typical_fps, &mut s.windows, cpu_per_frame);
        rep.line(format!(
            "ingest_fps {fps:.1} frames/s over the run, {typical_fps:.1} at the median clip time ({} frames)",
            s.frames
        ));
        rep.quantile_line("commit_p50_ms", &mut s.latency, 0.5, Scale::Ms);
        rep.quantile_line("commit_p90_ms", &mut s.latency, 0.9, Scale::Ms);
        rep.line(format!(
            "store_bytes_per_frame {:.1} B/frame",
            bytes as f64 / s.frames.max(1) as f64
        ));
        return;
    }
    let tracer = crate::tracer();
    let mut untraced = ingester.slice(cfg.share(0.3), 0, None, rep);
    let stop = AtomicBool::new(false);
    let (mut traced, mut waits) = std::thread::scope(|s| {
        let probe = s.spawn(|| layers::lock_probe(&store, &stop));
        // A reader gets in only between ingests, about once per clip, so
        // this slice runs to PROBE_CLIPS clips for the probe's p99 to
        // have ten samples beyond it.
        let traced = ingester.slice(cfg.share(0.3), PROBE_CLIPS, Some(&tracer), rep);
        stop.store(true, Ordering::Relaxed);
        (traced, probe.join().expect("lock probe"))
    });
    // No open-loop reader runs beside ingest; the lateness is the ping
    // schedule's in the sweep.
    let mut late = sweep(cfg, &pool, &store, &tracer, rep);
    crate::slice_layers(
        rep,
        &mut untraced.latency,
        &mut traced.latency,
        &mut waits,
        &mut late,
    );
    layers::finish_trace(&tracer, &cfg.trace_out, rep);
}

/// The layers the ingest path does not exercise itself, measured over
/// this run's own store: reads, the front end, a stream, a small
/// cluster. Returns the ping schedule's lateness.
fn sweep(
    cfg: &RunConfig,
    pool: &[Clip],
    store: &ServerStore,
    tracer: &Tracer,
    rep: &mut Report,
) -> Samples {
    layers::core_layers(pool, 4, tracer, rep);
    layers::journal_layers(&cfg.dir, pool, 4, tracer, rep);
    let lines = store.read(|db| {
        let ids: Vec<u64> = db.catalog().all().iter().map(|m| m.id).collect();
        let features = inputs::catalogue_features(db);
        let raw = inputs::read_lines(cfg.seed, &ReadKind::ALL, 8, &features, &ids, "");
        let lines = inputs::with_expected(db, raw);
        layers::index_layers(db, &lines, 200, tracer, rep);
        layers::store_read_layers(db, &lines, 50, tracer, rep);
        lines
    });
    let handle = stack::serve(store.clone());
    let late = layers::server_layers(&handle, &lines, 2000, tracer, rep);
    layers::stream_layers(&handle, pool, 2, rep);
    stack::stop(handle);
    crate::cluster::router_sweep(cfg.seed, pool, tracer, rep);
    late
}
