//! Client-side load generators over the wire: an open-loop reader timed
//! from each request's due time, and a closed-loop saturation reader.
//! Every reply is compared with the oracle's expected text; a mismatch,
//! a `-` reply, a `partial=` marker or a timeout is a failed operation.

use crate::inputs::{ReadKind, ReadLine};
use crate::stats::{Samples, Windows};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use vdb_obs::trace::Tracer;
use vdb_server::Client;

/// Socket timeout for one request; hitting it fails the operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Width of the windows the end-to-end medians are taken over.
pub const WINDOW: Duration = Duration::from_millis(500);

/// What a load generator measured.
#[derive(Debug)]
pub struct LoadResult {
    /// Reply latency per request, ns (open loop: from the due time).
    pub latency: Samples,
    /// The same latencies split by request kind.
    pub by_kind: Vec<(ReadKind, Samples)>,
    /// The same latencies (and one unit of work per reply) by window.
    pub windows: Windows,
    /// How late each request was sent after its due time, ns.
    pub late: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub elapsed: Duration,
}

impl LoadResult {
    fn new(start: Instant, span: Duration) -> Self {
        LoadResult {
            latency: Samples::new(),
            by_kind: Vec::new(),
            windows: Windows::new(start, WINDOW, span),
            late: Samples::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            elapsed: span,
        }
    }

    fn merge(&mut self, other: LoadResult) {
        self.latency.extend(&other.latency);
        for (kind, samples) in &other.by_kind {
            self.kind_samples(*kind).extend(samples);
        }
        self.windows.merge(&other.windows);
        self.late.extend(&other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    fn kind_samples(&mut self, kind: ReadKind) -> &mut Samples {
        let at = match self.by_kind.iter().position(|(k, _)| *k == kind) {
            Some(at) => at,
            None => {
                self.by_kind.push((kind, Samples::new()));
                self.by_kind.len() - 1
            }
        };
        &mut self.by_kind[at].1
    }

    fn outcome(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 16 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// Completed requests per second of wall time.
    pub fn rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Connect and make one round trip, so the server has picked the
/// connection up before anything is timed.
pub fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect to the benchmark's own server");
    client
        .set_timeout(Some(REQUEST_TIMEOUT))
        .expect("socket timeout");
    client.request("ping").expect("warm-up ping");
    client
}

/// Send one line and check the reply against the oracle. Returns the
/// failure description, if any.
pub fn check(client: &mut Client, line: &ReadLine) -> Result<(), String> {
    match client.request(&line.line) {
        Err(e) => Err(format!("'{}': {e}", line.line)),
        Ok(resp) if !resp.ok => Err(format!("'{}': error reply {}", line.line, resp.text.trim())),
        Ok(resp) if resp.text.contains("partial=") => {
            Err(format!("'{}': partial answer", line.line))
        }
        Ok(resp) if resp.text != line.expected => {
            Err(format!("'{}': reply differs from the oracle", line.line))
        }
        Ok(_) => Ok(()),
    }
}

/// Issue `lines` (cycled from `offset`) at `rate` requests/s in total,
/// spread over `conns` connections, for `duration`. Latency is measured
/// from each request's due time, so a stall also charges the requests
/// queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    duration: Duration,
    lines: &[ReadLine],
    offset: usize,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let clients: Vec<Client> = (0..conns).map(|_| connect(addr)).collect();
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + duration;
    let mut total = LoadResult::new(start, duration);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                s.spawn(move || {
                    let mut out = LoadResult::new(start, duration);
                    let phase = interval.mul_f64(t as f64 / conns as f64);
                    for k in 0u32.. {
                        let due = start + phase + interval * k;
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let line = &lines[(offset + k as usize * conns + t) % lines.len()];
                        let result = match tracer {
                            Some(tr) => {
                                let root = tr.trace_root_forced();
                                let _span = tr.span(&root, "bench.read");
                                check(&mut client, line)
                            }
                            None => check(&mut client, line),
                        };
                        let latency = Instant::now() - due;
                        out.late.push(sent - due);
                        out.latency.push(latency);
                        out.kind_samples(line.kind).push(latency);
                        out.windows.record(due, latency, 1.0);
                        if !out.outcome(result) {
                            client = connect(addr);
                        }
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("open-loop worker"));
        }
    });
    total
}

/// Drive `lines` back to back over `conns` connections for `duration`:
/// the saturation throughput.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    lines: &[ReadLine],
    offset: usize,
) -> LoadResult {
    let clients: Vec<Client> = (0..conns).map(|_| connect(addr)).collect();
    let start = Instant::now();
    let end = start + duration;
    let mut total = LoadResult::new(start, duration);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                s.spawn(move || {
                    let mut out = LoadResult::new(start, duration);
                    let mut k = 0usize;
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let line = &lines[(offset + k * conns + t) % lines.len()];
                        k += 1;
                        let result = check(&mut client, line);
                        let done = Instant::now();
                        out.latency.push(done - sent);
                        if result.is_ok() {
                            out.windows.record(done, done - sent, 1.0);
                        }
                        if !out.outcome(result) {
                            client = connect(addr);
                        }
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("closed-loop worker"));
        }
    });
    total
}

/// The number of load-generator connections: the host's cores, capped
/// at two so every host offers the same load.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 1)
}
