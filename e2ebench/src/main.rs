//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark and prints, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Human-readable detail (every quantile with its sample
//! count, per-workload names such as `ingest_fps` and `read_qps`, the
//! traced run's self-time table) goes to the lines before it.

use e2ebench::RunConfig;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        e2ebench::WORKLOADS.join("|")
    );
    exit(2);
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    // Scratch files and the trace artefact stay inside the working
    // directory (the checkout the benchmark runs from).
    let out = PathBuf::from(".bench_out");
    let cfg = RunConfig {
        dir: out.join(format!("{workload}-{}", std::process::id())),
        trace_out: out.join(format!("trace-{workload}.json")),
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
    };
    match e2ebench::run(&cfg) {
        Ok((correct, rep)) => {
            for line in &rep.lines {
                println!("{line}");
            }
            println!("failed/attempted {}/{}", rep.failed, rep.attempted);
            for e in &rep.errors {
                println!("FAILED: {e}");
            }
            println!("{}", rep.to_json(correct));
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            let _ = std::fs::remove_dir_all(&cfg.dir);
            exit(1);
        }
    }
}
