//! The traced run's per-layer attribution.
//!
//! Every number here comes from timing calls into a module's public
//! functions from the benchmark's own code; nothing is added inside the
//! program. Each call is also wrapped in a span of the benchmark's own
//! [`Tracer`], written out as chrome-trace JSON at the end of the run
//! with a self-time table.

use crate::inputs::{Clip, ReadKind, ReadLine};
use crate::stats::{median, Report, Samples};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_core::features::{FeatureExtractor, ScratchBuffers};
use vdb_core::index::{PlanChoice, ShotIndex};
use vdb_core::{build_scene_tree, pipeline, AnalysisEngine, CameraTrackingDetector};
use vdb_obs::trace::{SpanEvent, SpanGuard, TraceContext, Tracer};
use vdb_router::RouterHandle;
use vdb_server::{ServerHandle, ServerStore};
use vdb_store::shell::{execute_readonly, Command};
use vdb_store::{JournaledDatabase, QuerySpec, VideoDatabase};

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.extract.ns_per_frame", "ns"),
    ("core.cascade.ns_per_frame", "ns"),
    ("core.scenetree.us_per_clip", "us"),
    ("core.analyze.ms_per_clip", "ms"),
    ("core.cascade.stage1_share", "share"),
    ("core.index.range_p50_us", "us"),
    ("core.index.topk_p50_us", "us"),
    ("core.index.candidates_per_match", "ratio"),
    ("core.index.plan_scan_share", "share"),
    ("core.index.build_ms", "ms"),
    ("store.ingest.ms_per_clip", "ms"),
    ("store.journal.fsync_mean_us", "us"),
    ("store.journal.fsyncs_per_commit", "ratio"),
    ("store.query.p50_us", "us"),
    ("store.shell.query.p50_us", "us"),
    ("store.shell.topk.p50_us", "us"),
    ("store.shell.tree.p50_us", "us"),
    ("store.shell.board.p50_us", "us"),
    ("store.lock_wait_p99_us", "us"),
    ("server.ping_rtt_p50_us", "us"),
    ("server.ping_rtt_p99_us", "us"),
    ("server.queue_wait_mean_us", "us"),
    ("server.stream.push_us_per_frame", "us"),
    ("server.stream.commit_ack_ms", "ms"),
    ("server.stream.buffered_peak", "count"),
    ("router.overhead_p50_us", "us"),
    ("router.overhead_p99_us", "us"),
    ("router.shard_rtt_mean_us", "us"),
    ("router.partials", "count"),
    ("router.hedges", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Look up a per-layer metric's unit (panics on an unknown name, which
/// is a bug in the benchmark).
pub fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"))
}

fn put(rep: &mut Report, name: &str, value: f64) {
    rep.metric(name, value, unit(name));
}

/// Open the root span one layer sweep's calls nest under; its self time
/// is the sweep's own bookkeeping.
fn sweep_span<'t>(tracer: &'t Tracer, name: &'static str) -> SpanGuard<'t> {
    tracer.span(&tracer.trace_root_forced(), name)
}

/// Time `f` under a span named `name`, a child of `ctx`.
fn timed<R>(
    tracer: &Tracer,
    ctx: &TraceContext,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let _span = tracer.span(ctx, name);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// `core`: extraction, the cascade, the scene tree and the whole
/// analysis, over the pool; the sign-stage share from the cascade
/// counters.
pub fn core_layers(pool: &[Clip], rounds: usize, tracer: &Tracer, rep: &mut Report) {
    let sweep = sweep_span(tracer, "sweep.core");
    let ctx = sweep.context();
    let cfg = AnalyzerConfig::default();
    let detector = CameraTrackingDetector::with_config(cfg.sbd);
    let mut scratch = ScratchBuffers::default();
    let mut engine = AnalysisEngine::new(cfg);
    let counters = ["sign_same", "signature_same", "tracking_same", "boundaries"];
    let read = || -> Vec<u64> {
        counters
            .iter()
            .map(|c| {
                vdb_obs::global()
                    .counter(&format!("core.cascade.{c}"))
                    .get()
            })
            .collect()
    };
    let (mut extract, mut cascade, mut tree, mut analyze) = (vec![], vec![], vec![], vec![]);
    let before = read();
    for _ in 0..rounds {
        for clip in pool {
            let (w, h) = clip.video.dims();
            let extractor = FeatureExtractor::with_simd(w, h, cfg.simd).expect("pool dims");
            let frames = clip.video.frames();
            let (features, t) = timed(tracer, &ctx, "core.extract", || {
                frames
                    .iter()
                    .map(|f| extractor.extract_with(f, &mut scratch).expect("extract"))
                    .collect::<Vec<_>>()
            });
            extract.push(t.as_nanos() as f64 / frames.len() as f64);
            let (seg, t) = timed(tracer, &ctx, "core.cascade", || {
                pipeline::segment_features(&detector, &features)
            });
            cascade.push(t.as_nanos() as f64 / frames.len() as f64);
            let signs: Vec<_> = features.iter().map(|f| f.sign_ba).collect();
            let (_, t) = timed(tracer, &ctx, "core.scenetree", || {
                build_scene_tree(&seg.shots, &signs)
            });
            tree.push(t.as_secs_f64() * 1e6);
            let (analysis, t) = timed(tracer, &ctx, "core.analyze", || {
                engine.analyze(&clip.video).expect("analyze")
            });
            analyze.push(t.as_secs_f64() * 1e3);
            if analysis.segmentation.shots != clip.expected.segmentation.shots
                || seg.shots != clip.expected.segmentation.shots
            {
                rep.fail("batch analysis boundaries differ from the streaming oracle");
            }
            rep.attempted += 1;
        }
    }
    let delta: Vec<u64> = read().iter().zip(&before).map(|(a, b)| a - b).collect();
    let pairs: u64 = delta.iter().sum();
    put(rep, "core.extract.ns_per_frame", median(&extract));
    put(rep, "core.cascade.ns_per_frame", median(&cascade));
    put(rep, "core.scenetree.us_per_clip", median(&tree));
    put(rep, "core.analyze.ms_per_clip", median(&analyze));
    put(
        rep,
        "core.cascade.stage1_share",
        delta[0] as f64 / pairs.max(1) as f64,
    );
}

fn query_specs(db: &VideoDatabase, lines: &[ReadLine]) -> Vec<QuerySpec> {
    lines
        .iter()
        .filter_map(|l| l.line.strip_prefix("query "))
        .map(|text| QuerySpec::parse(text, db.taxonomy()).expect("mix queries parse"))
        .collect()
}

/// `core.index`: planner-routed range and top-k probes on the mix's
/// queries, the planner's work accounting, and a full index build.
pub fn index_layers(
    db: &VideoDatabase,
    lines: &[ReadLine],
    min_samples: usize,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let sweep = sweep_span(tracer, "sweep.index");
    let ctx = sweep.context();
    let index = db.index();
    let specs = query_specs(db, lines);
    let (mut range, mut topk) = (Samples::new(), Samples::new());
    let mut rounds = 0;
    while rounds < 1000 && (range.len() < min_samples || topk.len() < min_samples) {
        rounds += 1;
        for spec in &specs {
            match spec.k {
                Some(k) => {
                    let (_, t) = timed(tracer, &ctx, "core.index.topk", || {
                        index.query_topk(&spec.variance, k)
                    });
                    topk.push(t);
                }
                None => {
                    let (_, t) = timed(tracer, &ctx, "core.index.range", || {
                        index.query(&spec.variance)
                    });
                    range.push(t);
                }
            }
        }
    }
    let (mut candidates, mut matches, mut scans) = (0usize, 0usize, 0usize);
    for spec in &specs {
        let (_, explain) = match spec.k {
            Some(k) => index.query_topk_explain(&spec.variance, k),
            None => index.query_explain(&spec.variance),
        };
        candidates += explain.probe.candidates;
        matches += explain.matches;
        scans += usize::from(explain.plan.choice == PlanChoice::Scan);
    }
    let mut builds = Vec::new();
    for _ in 0..3 {
        let entries = index.entries().to_vec();
        let (built, t) = timed(tracer, &ctx, "core.index.build", || {
            ShotIndex::from_entries(entries, index.params())
        });
        if built.fingerprint() != index.fingerprint() {
            rep.fail("rebuilt index differs from the served one");
        }
        rep.attempted += 1;
        builds.push(t.as_secs_f64() * 1e3);
    }
    put(rep, "core.index.range_p50_us", range.quantile_us(0.5));
    put(rep, "core.index.topk_p50_us", topk.quantile_us(0.5));
    put(
        rep,
        "core.index.candidates_per_match",
        candidates as f64 / matches.max(1) as f64,
    );
    put(
        rep,
        "core.index.plan_scan_share",
        scans as f64 / specs.len().max(1) as f64,
    );
    put(rep, "core.index.build_ms", median(&builds));
}

/// `store` read path: `query_str` minus the index probe it makes, and
/// the shell's rendering of each request kind.
pub fn store_read_layers(
    db: &VideoDatabase,
    lines: &[ReadLine],
    min_samples: usize,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let sweep = sweep_span(tracer, "sweep.store_read");
    let ctx = sweep.context();
    let index = db.index();
    let mut mapping = Vec::new();
    let mut shell: HashMap<&'static str, Samples> = HashMap::new();
    let label = |kind: ReadKind| match kind {
        ReadKind::Range | ReadKind::Example => "query",
        other => other.label(),
    };
    let mut rounds = 0;
    while rounds < 1000 && (rounds == 0 || shell.values().any(|s| s.len() < min_samples)) {
        rounds += 1;
        for l in lines {
            let cmd = Command::parse(&l.line);
            let (out, t) = timed(tracer, &ctx, "store.shell", || execute_readonly(db, &cmd));
            rep.attempted += 1;
            if out.as_deref() != Some(l.expected.as_str()) {
                rep.fail(format!(
                    "'{}': in-process shell differs from the oracle",
                    l.line
                ));
            }
            shell.entry(label(l.kind)).or_default().push(t);
            if let Some(text) = l.line.strip_prefix("query ") {
                let spec = QuerySpec::parse(text, db.taxonomy()).expect("mix queries parse");
                let (_, whole) = timed(tracer, &ctx, "store.query", || db.query_str(text));
                let (_, probe) = timed(tracer, &ctx, "core.index.probe", || match spec.k {
                    Some(k) => index.query_topk(&spec.variance, k).len(),
                    None => index.query(&spec.variance).len(),
                });
                mapping.push((whole.as_nanos() as f64 - probe.as_nanos() as f64) / 1e3);
            }
        }
    }
    put(rep, "store.query.p50_us", median(&mapping));
    for kind in ["query", "topk", "tree", "board"] {
        let value = shell.get_mut(kind).map_or(0.0, |s| s.quantile_us(0.5));
        let name = format!("store.shell.{kind}.p50_us");
        rep.metric(&name, value, "us");
    }
}

/// `store` write path: `JournaledDatabase::ingest` minus the analysis
/// it runs, and the journal's write barriers, on a scratch journal.
pub fn journal_layers(dir: &Path, pool: &[Clip], rounds: usize, tracer: &Tracer, rep: &mut Report) {
    let sweep = sweep_span(tracer, "sweep.journal");
    let ctx = sweep.context();
    let path = dir.join("layers.vdbj");
    let _ = std::fs::remove_file(&path);
    let mut jdb =
        JournaledDatabase::open(&path, AnalyzerConfig::default()).expect("scratch journal");
    let mut engine = AnalysisEngine::new(AnalyzerConfig::default());
    let fsync = vdb_obs::global().histogram("store.journal.fsync_us");
    let fsync_before = fsync.snapshot();
    let stats_before = jdb.journal_stats();
    let mut store_ms = Vec::new();
    let mut commits = 0u64;
    for round in 0..rounds {
        for (i, clip) in pool.iter().enumerate() {
            let genre = clip.genre(jdb.db().taxonomy());
            let name = format!("layers-{round}-{i}");
            let (id, whole) = timed(tracer, &ctx, "store.ingest", || {
                jdb.ingest(name, &clip.video, vec![genre], Vec::new())
            });
            let (_, analysis) = timed(tracer, &ctx, "core.analyze", || engine.analyze(&clip.video));
            commits += 1;
            rep.attempted += 1;
            match id.map(|id| jdb.db().analysis(id).map(|a| a.shots.clone())) {
                Ok(Ok(shots)) if shots == clip.expected.segmentation.shots => {}
                _ => rep.fail("journaled ingest boundaries differ from the streaming oracle"),
            }
            store_ms.push((whole.as_secs_f64() - analysis.as_secs_f64()) * 1e3);
        }
    }
    let fsync_after = fsync.snapshot();
    let stats_after = jdb.journal_stats();
    drop(jdb);
    let _ = std::fs::remove_file(&path);
    let barriers = fsync_after.count - fsync_before.count;
    put(rep, "store.ingest.ms_per_clip", median(&store_ms));
    put(
        rep,
        "store.journal.fsync_mean_us",
        (fsync_after.sum_us - fsync_before.sum_us) as f64 / barriers.max(1) as f64,
    );
    put(
        rep,
        "store.journal.fsyncs_per_commit",
        (stats_after.batches - stats_before.batches) as f64 / commits.max(1) as f64,
    );
}

/// Probe how long entering `ServerStore::read` takes, every 100 µs,
/// until `stop` is set. (Often enough that a writer holding the lock for
/// milliseconds still leaves over a thousand samples a few seconds.)
pub fn lock_probe(store: &ServerStore, stop: &AtomicBool) -> Samples {
    let mut waits = Samples::new();
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        let entered = store.read(|_| Instant::now());
        waits.push(entered - started);
        std::thread::sleep(Duration::from_micros(100));
    }
    waits
}

/// `server` front end: ping round trips on a fixed schedule (their
/// lateness is the load generator's), and the wire time of the read mix
/// left after the server's own handling time.
pub fn server_layers(
    handle: &ServerHandle,
    lines: &[ReadLine],
    pings: usize,
    tracer: &Tracer,
    rep: &mut Report,
) -> Samples {
    let sweep = sweep_span(tracer, "sweep.server");
    let ctx = sweep.context();
    let mut client = crate::load::connect(handle.addr());
    let (mut rtt, mut late) = (Samples::new(), Samples::new());
    let interval = Duration::from_micros(500);
    let start = Instant::now();
    for k in 0..pings {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (reply, t) = timed(tracer, &ctx, "server.ping", || client.request("ping"));
        rep.attempted += 1;
        if !matches!(reply, Ok(ref r) if r.ok) {
            rep.fail("ping failed");
            client = crate::load::connect(handle.addr());
        }
        late.push(sent - due);
        rtt.push(t);
    }
    let handled = |h: &ServerHandle| -> (u64, u64) {
        let snap = h.metrics();
        snap.commands.iter().fold((0, 0), |(n, us), c| {
            (n + c.latency.count, us + c.latency.sum_us)
        })
    };
    let (n0, us0) = handled(handle);
    let mut wire = Samples::new();
    for l in lines {
        let (result, t) = timed(tracer, &ctx, "server.read", || {
            crate::load::check(&mut client, l)
        });
        rep.attempted += 1;
        if let Err(e) = result {
            rep.fail(e);
            client = crate::load::connect(handle.addr());
        }
        wire.push(t);
    }
    let (n1, us1) = handled(handle);
    let handling_us = (us1 - us0) as f64 / (n1 - n0).max(1) as f64;
    put(rep, "server.ping_rtt_p50_us", rtt.quantile_us(0.5));
    put(rep, "server.ping_rtt_p99_us", rtt.quantile_us(0.99));
    put(
        rep,
        "server.queue_wait_mean_us",
        wire.mean_ns() / 1e3 - handling_us,
    );
    late
}

/// `server.stream`: push cost per frame, commit-to-ack time and the
/// session buffer peak, from streams the caller measured.
pub fn stream_metrics(
    push_per_frame_us: &[f64],
    commit_ack: &mut Samples,
    peak: u32,
    rep: &mut Report,
) {
    put(
        rep,
        "server.stream.push_us_per_frame",
        median(push_per_frame_us),
    );
    put(
        rep,
        "server.stream.commit_ack_ms",
        commit_ack.quantile_ms(0.5),
    );
    put(rep, "server.stream.buffered_peak", peak as f64);
}

/// Stream every pool clip `rounds` times into `handle` and report the
/// `server.stream` metrics.
pub fn stream_layers(handle: &ServerHandle, pool: &[Clip], rounds: usize, rep: &mut Report) {
    let mut client = crate::load::connect(handle.addr());
    let mut per_frame = Vec::new();
    let mut acks = Samples::new();
    for round in 0..rounds {
        for (i, clip) in pool.iter().enumerate() {
            rep.attempted += 1;
            match crate::stack::stream_clip(&mut client, &format!("stream-{round}-{i}"), clip) {
                Ok((commit, pushed, ack)) => {
                    if let Err(e) = crate::stack::check_commit(&commit, clip) {
                        rep.fail(e);
                    }
                    per_frame.push(pushed.as_secs_f64() * 1e6 / clip.frames() as f64);
                    acks.push(ack);
                }
                Err(e) => {
                    rep.fail(e);
                    client = crate::load::connect(handle.addr());
                }
            }
        }
    }
    stream_metrics(
        &per_frame,
        &mut acks,
        handle.stream_stats().buffered_peak,
        rep,
    );
}

/// `router`: the same query line through the router and straight to a
/// shard, alternating, until each side has `samples` round trips.
pub fn router_layers(
    router: &RouterHandle,
    shard: SocketAddr,
    lines: &[ReadLine],
    samples: usize,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let sweep = sweep_span(tracer, "sweep.router");
    let ctx = sweep.context();
    let queries: Vec<&ReadLine> = lines
        .iter()
        .filter(|l| l.line.starts_with("query "))
        .collect();
    let mut via_router = crate::load::connect(router.addr());
    let mut direct = crate::load::connect(shard);
    let (mut routed, mut straight) = (Samples::new(), Samples::new());
    for k in 0..samples {
        let l = queries[k % queries.len()];
        let (result, t) = timed(tracer, &ctx, "router.request", || {
            crate::load::check(&mut via_router, l)
        });
        rep.attempted += 1;
        if let Err(e) = result {
            rep.fail(e);
            via_router = crate::load::connect(router.addr());
        }
        routed.push(t);
        let (reply, t) = timed(tracer, &ctx, "router.shard_direct", || {
            direct.request(&l.line)
        });
        if !matches!(reply, Ok(ref r) if r.ok) {
            rep.fail(format!("'{}': shard error", l.line));
            direct = crate::load::connect(shard);
        }
        straight.push(t);
    }
    let obs = router.obs();
    let snap = obs.registry.snapshot();
    let (mut n, mut us) = (0u64, 0u64);
    for slot in 0..2 {
        if let Some(h) = snap.histogram(&format!("router.shard.{slot}.rtt_us")) {
            n += h.count;
            us += h.sum_us;
        }
    }
    put(
        rep,
        "router.overhead_p50_us",
        routed.quantile_us(0.5) - straight.quantile_us(0.5),
    );
    put(
        rep,
        "router.overhead_p99_us",
        routed.quantile_us(0.99) - straight.quantile_us(0.99),
    );
    put(rep, "router.shard_rtt_mean_us", us as f64 / n.max(1) as f64);
    put(rep, "router.partials", obs.partials.get() as f64);
    put(rep, "router.hedges", obs.hedges.get() as f64);
}

/// Self time per span name: each span's duration minus its recorded
/// children's, summed by name. Returns `(name, calls, total µs, self µs)`
/// sorted by self time.
pub fn self_times(events: &[SpanEvent]) -> Vec<(String, u64, u64, u64)> {
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if e.parent_id != 0 {
            *child_time.entry(e.parent_id).or_default() += e.dur_us;
        }
    }
    let mut by_name: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for e in events {
        let own = e
            .dur_us
            .saturating_sub(child_time.get(&e.span_id).copied().unwrap_or(0));
        let row = by_name.entry(e.name.as_str()).or_default();
        row.0 += 1;
        row.1 += e.dur_us;
        row.2 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (calls, total, own))| (name.to_string(), calls, total, own))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    rows
}

/// Write the benchmark's spans as chrome-trace JSON to `path` and add
/// the self-time table to the report.
pub fn finish_trace(tracer: &Tracer, path: &Path, rep: &mut Report) {
    let events = tracer.recorder().snapshot();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, vdb_obs::trace::to_chrome_json(&events)) {
        Ok(()) => rep.line(format!(
            "chrome trace: {} ({} spans)",
            path.display(),
            events.len()
        )),
        Err(e) => rep.line(format!("chrome trace not written: {e}")),
    }
    rep.line(format!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "calls", "total_us", "self_us"
    ));
    for (name, calls, total, own) in self_times(&events) {
        rep.line(format!("{name:<28} {calls:>8} {total:>12} {own:>12}"));
    }
}

/// The reconciliation the traced run checks: a read's client round trip
/// against the sum of its layers (the front end's ping round trip plus
/// the in-process shell time for the same line, both measured right
/// before it). Returns the medians `(client round trip µs, unexplained
/// µs)`, where "unexplained" is the round trip minus its two layers.
pub fn reconcile(
    handle: &ServerHandle,
    db: &VideoDatabase,
    lines: &[ReadLine],
    rounds: usize,
) -> (f64, f64) {
    let mut client = crate::load::connect(handle.addr());
    let (mut rtts, mut gaps) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for l in lines {
            let started = Instant::now();
            let _ = client.request("ping");
            let ping = started.elapsed();
            let cmd = Command::parse(&l.line);
            let started = Instant::now();
            let _ = execute_readonly(db, &cmd);
            let shell = started.elapsed();
            let started = Instant::now();
            let _ = client.request(&l.line);
            let rtt = started.elapsed().as_secs_f64() * 1e6;
            rtts.push(rtt);
            gaps.push(rtt - (ping + shell).as_secs_f64() * 1e6);
        }
    }
    (median(&rtts), median(&gaps))
}

/// The gap a reconciliation may leave unexplained: the larger of half
/// the client round trip and a fixed allowance for loopback jitter.
pub fn reconcile_ok(client_us: f64, unexplained_us: f64) -> bool {
    unexplained_us.abs() <= (0.5 * client_us).max(200.0)
}
