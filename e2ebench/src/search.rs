//! `search`: an open-loop browsing read mix over loopback against one
//! memory-backed vdbd whose catalogue holds about 10⁵ shots. The index,
//! the store's answer mapping and the server front end do the work;
//! nothing ingests, so an extraction change reads "no change" here.

use crate::inputs::{self, ReadKind, POOL_GENRES};
use crate::layers;
use crate::load;
use crate::stack;
use crate::stats::Report;
use crate::RunConfig;
use std::time::Instant;
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_server::ServerStore;
use vdb_store::VideoDatabase;
use vdb_synth::rng::Srng;

/// Shots in the catalogue (reached with whole videos, so a little more).
pub const TARGET_SHOTS: usize = 100_000;
/// Source videos: long, fast-cut clips rendered small (the search path
/// never touches pixels).
const SOURCES: usize = 4;
const SOURCE_FRAMES: usize = 480;
const SOURCE_DIMS: (u32, u32) = (64, 48);
/// Spread of the offset added to each copy's shot features (in
/// standard-deviation units; see [`inputs::jittered`]).
const JITTER: f64 = 12.0;
/// Open-loop read rate, requests/s.
const RATE: f64 = 400.0;

/// One catalogue video: its name, genre and (jittered) analysis.
#[derive(Clone)]
pub struct CatalogueVideo {
    name: String,
    genre: &'static str,
    dims: (u32, u32),
    fps: f64,
    analysis: VideoAnalysis,
}

/// Seeded jittered copies of real analyses until `target` shots.
pub fn catalogue(seed: u64, target: usize) -> Vec<CatalogueVideo> {
    let sources = inputs::pool(
        inputs::mix(seed, 0xCA7),
        SOURCES,
        SOURCE_FRAMES,
        4.0,
        SOURCE_DIMS,
    );
    let mut rng = Srng::new(inputs::mix(seed, 0x717));
    let mut copies = Vec::new();
    let mut shots = 0;
    while shots < target {
        let i = copies.len();
        let src = &sources[i % sources.len()];
        let analysis = inputs::jittered(&src.expected, &mut rng, JITTER);
        shots += analysis.features.len();
        copies.push(CatalogueVideo {
            name: format!("video-{i}"),
            genre: POOL_GENRES[rng.below(POOL_GENRES.len() as u64) as usize].1,
            dims: src.video.dims(),
            fps: src.video.fps(),
            analysis,
        });
    }
    copies
}

/// Catalogue and index build: every copy through `ingest_precomputed`.
pub fn build(copies: Vec<CatalogueVideo>) -> VideoDatabase {
    let mut db = VideoDatabase::with_config(AnalyzerConfig::default());
    for c in copies {
        let genre = db.taxonomy().genre(c.genre).expect("pool genre");
        db.ingest_precomputed(c.name, c.dims, c.fps, c.analysis, vec![genre], Vec::new());
    }
    db
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let copies = catalogue(cfg.seed, TARGET_SHOTS);
    // Set-up: build the catalogue and index, bind the server. The first
    // set-up's database is kept as the oracle; the last one serves.
    let mut setups = Vec::new();
    let mut oracle: Option<ServerStore> = None;
    let mut handle = None;
    for _ in 0..crate::SETUPS {
        let input = copies.clone();
        if let Some(h) = handle.take() {
            if oracle.is_none() {
                oracle = Some(vdb_server::ServerHandle::store(&h).clone());
            }
            stack::stop(h);
        }
        let started = Instant::now();
        let served = stack::serve_memory(build(input));
        setups.push(started.elapsed().as_secs_f64());
        handle = Some(served);
    }
    drop(copies);
    let handle = handle.expect("at least one set-up");
    let oracle = oracle.unwrap_or_else(|| handle.store().clone());
    let lines = oracle.read(|db| {
        let ids: Vec<u64> = (0..db.len() as u64).collect();
        let features = inputs::catalogue_features(db);
        let raw = inputs::read_lines(cfg.seed, &ReadKind::ALL, 40, &features, &ids, "");
        let lines = inputs::with_expected(db, raw);
        for bad in inputs::index_oracle_mismatches(db, &lines) {
            rep.fail(format!("'{bad}': index differs from the linear scan"));
        }
        let matches: Vec<f64> = lines
            .iter()
            .filter(|l| l.kind == ReadKind::Range)
            .filter_map(|l| l.line.strip_prefix("query "))
            .map(|text| {
                let spec = vdb_store::QuerySpec::parse(text, db.taxonomy()).expect("mix parses");
                db.index().query(&spec.variance).len() as f64
            })
            .collect();
        rep.line(format!(
            "catalogue: {} videos, {} shots; alpha=beta=1 range matches per query: median {}",
            db.len(),
            db.index().len(),
            crate::stats::median(&matches)
        ));
        lines
    });
    let addr = handle.addr();
    let conns = load::nproc();
    if !cfg.trace {
        let mut open = load::open_loop(addr, conns, RATE, cfg.share(0.6), &lines, 0, None);
        let cpu = crate::CpuMeter::start();
        let closed =
            load::closed_loop(addr, conns, cfg.share(0.4), &lines, open.attempted as usize);
        let cpu_per_op = cpu.per_op_us(closed.attempted as f64);
        rep.absorb(open.attempted, open.failed, open.errors.clone());
        rep.absorb(closed.attempted, closed.failed, closed.errors.clone());
        let qps = closed.windows.median_rate();
        crate::end_to_end(rep, &setups, qps, &mut open.windows, cpu_per_op);
        crate::read_report(rep, &mut open);
        rep.line(format!(
            "read_qps {:.1} req/s ({conns} connections)",
            closed.rate()
        ));
        stack::stop(handle);
        return;
    }
    let tracer = crate::tracer();
    crate::traced_read_slices(cfg, rep, addr, RATE, &lines, handle.store(), &tracer);
    oracle.read(|db| {
        layers::index_layers(db, &lines, 200, &tracer, rep);
        layers::store_read_layers(db, &lines, 20, &tracer, rep);
    });
    layers::server_layers(&handle, &lines, 2000, &tracer, rep);
    let pool = crate::ingest::pool(cfg.seed);
    layers::stream_layers(&handle, &pool, 2, rep);
    stack::stop(handle);
    layers::core_layers(&pool, 4, &tracer, rep);
    layers::journal_layers(&cfg.dir, &pool, 4, &tracer, rep);
    crate::cluster::router_sweep(cfg.seed, &pool, &tracer, rep);
    layers::finish_trace(&tracer, &cfg.trace_out, rep);
}
