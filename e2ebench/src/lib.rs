//! End-to-end benchmark of the video database stack.
//!
//! One command runs a named workload from a seed, measures it for a
//! fixed number of seconds, checks every answer against an in-process
//! oracle, and prints its metrics as one JSON line. With `--trace 1` it
//! instead reports per-layer numbers, timed around calls into each
//! module's public functions from this crate's own code. See
//! `README.md` for the workloads and the metric-to-layer map.

pub mod cluster;
pub mod host;
pub mod ingest;
pub mod inputs;
pub mod layers;
pub mod live;
pub mod load;
pub mod search;
pub mod stack;
pub mod stats;

use stats::Report;
use std::path::PathBuf;
use std::time::Duration;
use vdb_obs::trace::Tracer;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Process CPU time per unit of throughput over a measured phase.
pub struct CpuMeter {
    started_ns: u64,
}

impl CpuMeter {
    pub fn start() -> Self {
        CpuMeter {
            started_ns: host::process_cpu_ns(),
        }
    }

    /// CPU µs per operation since `start`.
    pub fn per_op_us(&self, ops: f64) -> f64 {
        (host::process_cpu_ns() - self.started_ns) as f64 / 1e3 / ops.max(1.0)
    }
}

/// Every workload `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["ingest", "search", "live", "cluster"];

/// The workloads `BENCHMARK.json` gates on, in its order. `ingest` and
/// `search` are CPU-bound end to end, and on a shared 2-vCPU host their
/// figures followed the host's speed, which drifted by up to 2× between
/// runs minutes apart; they stay runnable, and every traced run still
/// measures their layers.
pub const GATED: [&str; 2] = ["live", "cluster"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Span-recorder capacity of the benchmark's own tracer.
const TRACE_CAPACITY: usize = 1 << 16;

/// One run's parameters.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals; removed after the run.
    pub dir: PathBuf,
    /// Where the traced run's chrome-trace JSON goes.
    pub trace_out: PathBuf,
}

impl RunConfig {
    /// A share of the measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// A fresh tracer for the benchmark's own spans.
pub fn tracer() -> Tracer {
    Tracer::new(TRACE_CAPACITY)
}

/// Record the end-to-end metrics shared by every workload: the median
/// set-up, and the throughput and latency quantiles as medians over the
/// measuring windows.
pub fn end_to_end(
    rep: &mut Report,
    setups: &[f64],
    throughput: f64,
    latency: &mut stats::Windows,
    cpu_us_per_op: f64,
) {
    let (p50, p90) = (
        latency.median_quantile_us(0.5),
        latency.median_quantile_us(0.9),
    );
    rep.metric("setup_s", stats::median(setups), "s");
    rep.metric("throughput_per_s", throughput, "1/s");
    rep.metric("latency_p50_us", p50, "us");
    rep.metric("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    rep.line(format!(
        "setup_s {:.6} s (median of {} set-ups: {:?})",
        stats::median(setups),
        setups.len(),
        setups
    ));
    rep.line(format!(
        "latency medians over {} windows of {} ms (fewest samples in a window: {}): p50 {p50:.3} us, p90 {p90:.3} us",
        latency.count(),
        load::WINDOW.as_millis(),
        latency.min_samples()
    ));
    let per: Vec<String> = latency
        .quantiles_us(0.5)
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    rep.line(format!("window latency p50s (us): {}", per.join(" ")));
    rep.line(format!("cpu_us_per_op {cpu_us_per_op:.3} us"));
    rep.line(format!("peak_rss_mib {:.1} MiB", stats::peak_rss_mib()));
}

/// Human lines for an open-loop reader: `read_p50_us`, `read_p99_us`,
/// and the same split by request kind.
pub fn read_report(rep: &mut Report, open: &mut load::LoadResult) {
    use stats::Scale;
    rep.quantile_line("read_p50_us", &mut open.latency, 0.5, Scale::Us);
    rep.quantile_line("read_p99_us", &mut open.latency, 0.99, Scale::Us);
    for (kind, samples) in &mut open.by_kind {
        let name = format!("read.{}", kind.label());
        rep.quantile_line(&format!("{name}.p50_us"), samples, 0.5, Scale::Us);
        rep.quantile_line(&format!("{name}.p90_us"), samples, 0.9, Scale::Us);
    }
}

/// The per-layer metrics a traced run takes from its two workload
/// slices: `trace.overhead_pct` (how much the traced slice's latency p50
/// exceeds the untraced one's), the lock-probe tail, and how late the
/// load generator sent.
pub fn slice_layers(
    rep: &mut Report,
    untraced: &mut stats::Samples,
    traced: &mut stats::Samples,
    lock_waits: &mut stats::Samples,
    late: &mut stats::Samples,
) {
    use stats::Scale;
    let (u, t) = (untraced.quantile_us(0.5), traced.quantile_us(0.5));
    rep.line(format!(
        "tracing: latency p50 {u:.3} us untraced (n={}) vs {t:.3} us traced (n={})",
        untraced.len(),
        traced.len()
    ));
    rep.metric("trace.overhead_pct", (t - u) / u.max(1e-9) * 100.0, "%");
    rep.quantile_line("store.lock_wait_p99_us", lock_waits, 0.99, Scale::Us);
    rep.metric("store.lock_wait_p99_us", lock_waits.quantile_us(0.99), "us");
    rep.quantile_line("loadgen.late_p99_us", late, 0.99, Scale::Us);
    rep.metric("loadgen.late_p99_us", late.quantile_us(0.99), "us");
}

/// The traced run's read slices: the open-loop mix untraced, then traced
/// with the lock probe entering `store` beside it.
pub fn traced_read_slices(
    cfg: &RunConfig,
    rep: &mut Report,
    addr: std::net::SocketAddr,
    rate: f64,
    lines: &[inputs::ReadLine],
    store: &vdb_server::ServerStore,
    tracer: &Tracer,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let conns = load::nproc();
    let mut untraced = load::open_loop(addr, conns, rate, cfg.share(0.3), lines, 0, None);
    let stop = AtomicBool::new(false);
    let (mut traced, mut waits) = std::thread::scope(|s| {
        let probe = s.spawn(|| layers::lock_probe(store, &stop));
        let traced = load::open_loop(addr, conns, rate, cfg.share(0.3), lines, 0, Some(tracer));
        stop.store(true, Ordering::Relaxed);
        (traced, probe.join().expect("lock probe"))
    });
    rep.absorb(untraced.attempted, untraced.failed, untraced.errors.clone());
    rep.absorb(traced.attempted, traced.failed, traced.errors.clone());
    let mut late = untraced.late.clone();
    late.extend(&traced.late);
    slice_layers(
        rep,
        &mut untraced.latency,
        &mut traced.latency,
        &mut waits,
        &mut late,
    );
}

/// Run one workload. Returns whether every metric the mode owes was
/// produced and every operation checked out, plus the report.
pub fn run(cfg: &RunConfig) -> Result<(bool, Report), String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("scratch dir: {e}"))?;
    let mut rep = Report::default();
    // Every thread the run creates inherits this placement: clients,
    // servers, shards and the router share one CPU, so no run differs
    // from another by where the scheduler put them.
    let cpu = host::bench_cpu();
    if host::pin_to(cpu) {
        rep.line(format!("pinned to cpu {cpu} of {}", cpu + 1));
    } else {
        rep.line("not pinned: the kernel refused the CPU mask");
    }
    match cfg.workload.as_str() {
        "ingest" => ingest::run(cfg, &mut rep),
        "search" => search::run(cfg, &mut rep),
        "live" => live::run(cfg, &mut rep),
        "cluster" => cluster::run(cfg, &mut rep),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            ))
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let owed: Vec<&str> = if cfg.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let got: Vec<&str> = rep.metrics.iter().map(|m| m.name.as_str()).collect();
    let complete = owed.iter().all(|n| got.contains(n)) && got.len() == owed.len();
    if !complete {
        return Err(format!("metric set mismatch: owed {owed:?}, got {got:?}"));
    }
    let correct = rep.failed == 0 && rep.attempted > 0;
    Ok((correct, rep))
}
