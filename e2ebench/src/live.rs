//! `live`: one wire `0xF5` stream ingests 160×120 clips into a journaled
//! vdbd beside an open-loop reader at a fixed rate. After each commit
//! the oldest streamed clip is removed, so the corpus stays steady. One
//! store serves writes beside reads, so a change that speeds one at the
//! cost of the other shows.

use crate::ingest::write_base_journal;
use crate::inputs::{self, Clip, ReadKind, ReadLine, POOL_GENRES};
use crate::layers;
use crate::load::{self, LoadResult};
use crate::stack;
use crate::stats::{Report, Samples, Scale};
use crate::RunConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_obs::trace::Tracer;
use vdb_server::{ServerHandle, ServerStore};
use vdb_store::VideoDatabase;

/// Genre-tagged clips that are never removed; reads only ever see them.
const BASE_CLIPS: usize = 32;
/// Streamed clips kept before the oldest is removed.
const WINDOW: usize = 8;
/// Open-loop read rate, requests/s (one connection).
const RATE: f64 = 300.0;

/// The base corpus as a single node holds it: the oracle for reads.
fn base_oracle(pool: &[Clip]) -> VideoDatabase {
    let mut db = VideoDatabase::with_config(AnalyzerConfig::default());
    for i in 0..BASE_CLIPS {
        let clip = &pool[i % pool.len()];
        let genre = clip.genre(db.taxonomy());
        db.ingest_precomputed(
            format!("base-{i}"),
            clip.video.dims(),
            clip.video.fps(),
            clip.expected.clone(),
            vec![genre],
            Vec::new(),
        );
    }
    db
}

/// Reads whose replies cannot change while untagged clips stream in and
/// out: genre-filtered range queries, and trees and storyboards of base
/// clips. (A filtered top-k is ranked before it is filtered, so it would
/// see the streamed clips; it is left out.)
fn wire_mix(seed: u64, oracle: &VideoDatabase) -> Vec<ReadLine> {
    let ids: Vec<u64> = (0..BASE_CLIPS as u64).collect();
    let features = inputs::catalogue_features(oracle);
    let mut raw = Vec::new();
    for (g, (_, genre)) in POOL_GENRES.iter().enumerate() {
        raw.extend(inputs::read_lines(
            inputs::mix(seed, g as u64),
            &[ReadKind::Range, ReadKind::Example],
            10,
            &features,
            &ids,
            &format!("genre={genre}"),
        ));
    }
    raw.extend(inputs::read_lines(
        seed,
        &[ReadKind::Tree, ReadKind::Board],
        20,
        &features,
        &ids,
        "",
    ));
    let mut rng = vdb_synth::rng::Srng::new(inputs::mix(seed, 0x11FE));
    for i in (1..raw.len()).rev() {
        raw.swap(i, rng.below(i as u64 + 1) as usize);
    }
    inputs::with_expected(oracle, raw)
}

#[derive(Default)]
struct Writer {
    frames: u64,
    commit: Samples,
    acks: Samples,
    push_per_frame: Vec<f64>,
}

struct Streamer<'a> {
    handle: &'a ServerHandle,
    pool: &'a [Clip],
    next: usize,
    window: VecDeque<u64>,
}

impl Streamer<'_> {
    /// Stream clips back to back for `duration`, removing the oldest
    /// streamed clip once the window is full.
    fn slice(&mut self, duration: Duration, tracer: Option<&Tracer>, rep: &mut Report) -> Writer {
        let mut client = load::connect(self.handle.addr());
        let mut out = Writer::default();
        let end = Instant::now() + duration;
        while Instant::now() < end {
            let clip = &self.pool[self.next % self.pool.len()];
            let name = format!("live-{}", self.next);
            self.next += 1;
            rep.attempted += 1;
            let streamed = match tracer {
                Some(tr) => {
                    let root = tr.trace_root_forced();
                    let _span = tr.span(&root, "bench.stream");
                    stack::stream_clip(&mut client, &name, clip)
                }
                None => stack::stream_clip(&mut client, &name, clip),
            };
            let (commit, pushed, ack) = match streamed {
                Ok(ok) => ok,
                Err(e) => {
                    rep.fail(e);
                    client = load::connect(self.handle.addr());
                    continue;
                }
            };
            if let Err(e) = stack::check_commit(&commit, clip) {
                rep.fail(e);
            }
            let boundaries_ok = self.handle.store().read(|db| {
                db.analysis(commit.video)
                    .is_ok_and(|a| a.shots == clip.expected.segmentation.shots)
            });
            if !boundaries_ok || !commit.durable {
                rep.fail(format!("stream '{name}': not durable or boundaries differ"));
            }
            out.frames += commit.frames as u64;
            out.commit.push(pushed + ack);
            out.acks.push(ack);
            out.push_per_frame
                .push(pushed.as_secs_f64() * 1e6 / clip.frames() as f64);
            self.window.push_back(commit.video);
            if self.window.len() > WINDOW {
                let oldest = self.window.pop_front().expect("non-empty window");
                rep.attempted += 1;
                match client.request(&format!("remove {oldest}")) {
                    Ok(r) if r.ok => {}
                    Ok(r) => rep.fail(format!("remove {oldest}: {}", r.text.trim())),
                    Err(e) => {
                        rep.fail(format!("remove {oldest}: {e}"));
                        client = load::connect(self.handle.addr());
                    }
                }
            }
        }
        out
    }
}

/// One writer slice beside an open-loop reader.
fn slice(
    streamer: &mut Streamer,
    lines: &[ReadLine],
    duration: Duration,
    tracer: Option<&Tracer>,
    rep: &mut Report,
) -> (Writer, LoadResult) {
    let addr = streamer.handle.addr();
    std::thread::scope(|s| {
        let reader = s.spawn(|| load::open_loop(addr, 1, RATE, duration, lines, 0, tracer));
        let writer = streamer.slice(duration, tracer, rep);
        let reads = reader.join().expect("reader");
        rep.absorb(reads.attempted, reads.failed, reads.errors.clone());
        (writer, reads)
    })
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let pool = crate::ingest::pool(cfg.seed);
    let path = cfg.dir.join("live.vdbj");
    write_base_journal(&path, &pool, BASE_CLIPS, true);
    // Set-up: journal replay plus a bound server, each time.
    let mut setups = Vec::new();
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..crate::SETUPS {
        if let Some(h) = handle.take() {
            stack::stop(h);
        }
        let started = Instant::now();
        let store = ServerStore::open_journal(&path, AnalyzerConfig::default()).expect("open");
        let served = stack::serve(store);
        setups.push(started.elapsed().as_secs_f64());
        handle = Some(served);
    }
    let handle = handle.expect("at least one set-up");
    let oracle = base_oracle(&pool);
    let lines = wire_mix(cfg.seed, &oracle);
    for bad in inputs::index_oracle_mismatches(&oracle, &lines) {
        rep.fail(format!("'{bad}': index differs from the linear scan"));
    }
    let mut streamer = Streamer {
        handle: &handle,
        pool: &pool,
        next: 0,
        window: VecDeque::new(),
    };
    let bytes_before = std::fs::metadata(&path).map_or(0, |m| m.len());
    if !cfg.trace {
        let started = Instant::now();
        let cpu = crate::CpuMeter::start();
        let (mut w, mut reads) = slice(&mut streamer, &lines, cfg.share(1.0), None, rep);
        let cpu_per_frame = cpu.per_op_us(w.frames as f64);
        let wall = started.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) - bytes_before;
        let fps = w.frames as f64 / wall;
        crate::end_to_end(rep, &setups, fps, &mut reads.windows, cpu_per_frame);
        rep.line(format!(
            "ingest_fps {fps:.1} frames/s ({} frames)",
            w.frames
        ));
        rep.quantile_line("commit_p50_ms", &mut w.commit, 0.5, Scale::Ms);
        rep.quantile_line("commit_p90_ms", &mut w.commit, 0.9, Scale::Ms);
        crate::read_report(rep, &mut reads);
        rep.line(format!(
            "store_bytes_per_frame {:.1} B/frame",
            bytes as f64 / w.frames.max(1) as f64
        ));
        stack::stop(handle);
        return;
    }
    let tracer = crate::tracer();
    let (_, mut untraced) = slice(&mut streamer, &lines, cfg.share(0.3), None, rep);
    let stop = AtomicBool::new(false);
    let ((mut w, mut traced), mut waits) = std::thread::scope(|s| {
        let probe = s.spawn(|| layers::lock_probe(handle.store(), &stop));
        let out = slice(&mut streamer, &lines, cfg.share(0.3), Some(&tracer), rep);
        stop.store(true, Ordering::Relaxed);
        (out, probe.join().expect("lock probe"))
    });
    let mut late = untraced.late.clone();
    late.extend(&traced.late);
    crate::slice_layers(
        rep,
        &mut untraced.latency,
        &mut traced.latency,
        &mut waits,
        &mut late,
    );
    layers::stream_metrics(
        &w.push_per_frame,
        &mut w.acks,
        handle.stream_stats().buffered_peak,
        rep,
    );
    layers::server_layers(&handle, &lines, 2000, &tracer, rep);
    stack::stop(handle);
    // In-process layers over the base corpus, with every request kind.
    let ids: Vec<u64> = (0..BASE_CLIPS as u64).collect();
    let features = inputs::catalogue_features(&oracle);
    let all = inputs::with_expected(
        &oracle,
        inputs::read_lines(cfg.seed, &ReadKind::ALL, 8, &features, &ids, ""),
    );
    layers::index_layers(&oracle, &all, 200, &tracer, rep);
    layers::store_read_layers(&oracle, &all, 50, &tracer, rep);
    layers::core_layers(&pool, 4, &tracer, rep);
    layers::journal_layers(&cfg.dir, &pool, 4, &tracer, rep);
    crate::cluster::router_sweep(cfg.seed, &pool, &tracer, rep);
    layers::finish_trace(&tracer, &cfg.trace_out, rep);
}
