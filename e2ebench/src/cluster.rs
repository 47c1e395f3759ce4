//! `cluster`: the search read mix through `vdb-router` over two
//! in-process shards with a small catalogue. Router scatter, merge and
//! the shard pool dominate; every router answer must be byte-identical
//! to a single node holding the same clips.

use crate::inputs::{self, Clip, ReadKind, ReadLine};
use crate::layers;
use crate::load;
use crate::stack::{self, Cluster};
use crate::stats::Report;
use crate::RunConfig;
use std::time::Instant;
use vdb_obs::trace::Tracer;
use vdb_store::VideoDatabase;

/// Clips in the cluster's catalogue (cycled from the pool).
const CLIPS: usize = 16;
/// Open-loop read rate, requests/s.
const RATE: f64 = 400.0;
/// Router round trips per side in the router layer sweep.
const ROUTER_SAMPLES: usize = 1200;

fn names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("c-{i}")).collect()
}

/// The read mix over a single-node oracle, with expected replies.
fn mix(seed: u64, oracle: &VideoDatabase, per_kind: usize) -> Vec<ReadLine> {
    let ids: Vec<u64> = (0..oracle.len() as u64).collect();
    let features = inputs::catalogue_features(oracle);
    let raw = inputs::read_lines(seed, &ReadKind::ALL, per_kind, &features, &ids, "");
    inputs::with_expected(oracle, raw)
}

/// Stand up a small cluster over the pool and measure the router layer
/// (for workloads that do not run a router themselves).
pub fn router_sweep(seed: u64, pool: &[Clip], tracer: &Tracer, rep: &mut Report) {
    let names = names(pool.len() * 2);
    let cluster = match Cluster::start(pool, &names) {
        Ok(c) => c,
        Err(e) => panic!("router sweep cluster: {e}"),
    };
    let oracle = stack::stream_oracle(pool, &names);
    let lines = mix(seed, &oracle, 8);
    let shard = cluster.shards[0].addr();
    layers::router_layers(&cluster.router, shard, &lines, ROUTER_SAMPLES, tracer, rep);
    cluster.stop();
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let pool = crate::ingest::pool(cfg.seed);
    let names = names(CLIPS);
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..crate::SETUPS {
        if let Some(c) = cluster.take() {
            Cluster::stop(c);
        }
        let started = Instant::now();
        let started_cluster = Cluster::start(&pool, &names).expect("start the cluster");
        setups.push(started.elapsed().as_secs_f64());
        cluster = Some(started_cluster);
    }
    let cluster = cluster.expect("at least one set-up");
    let oracle = stack::stream_oracle(&pool, &names);
    let lines = mix(cfg.seed, &oracle, 40);
    for bad in inputs::index_oracle_mismatches(&oracle, &lines) {
        rep.fail(format!("'{bad}': index differs from the linear scan"));
    }
    let addr = cluster.router.addr();
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
        cluster.stop();
        return;
    }
    let tracer = crate::tracer();
    let shard_store = cluster.shards[0].store();
    crate::traced_read_slices(cfg, rep, addr, RATE, &lines, shard_store, &tracer);
    let shard = cluster.shards[0].addr();
    layers::router_layers(&cluster.router, shard, &lines, ROUTER_SAMPLES, &tracer, rep);
    cluster.stop();
    layers::core_layers(&pool, 4, &tracer, rep);
    layers::journal_layers(&cfg.dir, &pool, 4, &tracer, rep);
    layers::index_layers(&oracle, &lines, 200, &tracer, rep);
    layers::store_read_layers(&oracle, &lines, 50, &tracer, rep);
    // The front end measured on one node holding the whole catalogue,
    // so the mix's replies are known.
    let node = stack::serve_memory(stack::stream_oracle(&pool, &names));
    layers::server_layers(&node, &lines, 2000, &tracer, rep);
    layers::stream_layers(&node, &pool, 2, rep);
    stack::stop(node);
    layers::finish_trace(&tracer, &cfg.trace_out, rep);
}
