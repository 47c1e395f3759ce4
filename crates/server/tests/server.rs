//! Loopback integration tests for `vdbd`'s serving core: concurrency,
//! protocol robustness, graceful shutdown, journal-backed durability, and
//! wire-level streaming ingest.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;
use vdb_core::frame::Video;
use vdb_server::client::Client;
use vdb_server::protocol::{
    decode_response, encode_stream_request, read_frame, write_frame, StreamRequest,
};
use vdb_server::server::{Server, ServerConfig, ServerHandle, ServerStore};

fn test_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        idle_timeout: Duration::from_secs(20),
        frame_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        drain_grace: Duration::from_millis(150),
        ..ServerConfig::default()
    }
}

fn start_memory_server(workers: usize, demo_clips: usize) -> ServerHandle {
    let store = ServerStore::memory();
    if demo_clips > 0 {
        use vdb_store::shell::{execute_mutation, Command};
        store.write(|backend| {
            execute_mutation(backend, &Command::Demo(demo_clips)).expect("demo is a mutation")
        });
    }
    Server::bind(store, test_config(workers))
        .expect("bind loopback")
        .serve()
}

/// The acceptance-criteria test: 16 concurrent clients, every response
/// parses, the metrics request count equals the number of requests sent,
/// and graceful shutdown answers every request that was already sent.
#[test]
fn sixteen_concurrent_clients_then_graceful_drain() {
    const CLIENTS: usize = 16;
    const REQUESTS_PER_CLIENT: usize = 10;
    let handle = start_memory_server(4, 2);
    let addr = handle.addr();
    let sent = AtomicUsize::new(0);

    // Phase A: 16 clients hammer a mix of commands over persistent
    // connections (only 4 workers — connections queue and still finish).
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let sent = &sent;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let line = match (c + i) % 5 {
                        0 => "list".to_string(),
                        1 => "stats".to_string(),
                        2 => format!("query ba=0.{i} oa=1{i} alpha=4 beta=4"),
                        3 => "tree 0".to_string(),
                        _ => "board 1 4".to_string(),
                    };
                    let resp = client.request(&line).expect("response");
                    sent.fetch_add(1, Ordering::Relaxed);
                    assert!(resp.ok, "'{line}' failed: {}", resp.text);
                    match (c + i) % 5 {
                        0 => assert!(resp.text.contains("demo-movie")),
                        1 => assert!(resp.text.contains("videos 2")),
                        2 => assert!(resp.text.contains("answers")),
                        3 => assert!(resp.text.contains("SN_")),
                        _ => assert!(resp.text.contains("rep frame")),
                    }
                }
            });
        }
    });
    let total_sent = sent.load(Ordering::Relaxed) as u64;
    assert_eq!(total_sent, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    let snap = handle.metrics();
    assert_eq!(
        snap.total_requests(),
        total_sent,
        "metrics must count every request"
    );
    assert_eq!(snap.total_errors(), 0);
    assert_eq!(snap.protocol_errors, 0);

    // Phase B: 16 fresh clients each send one request and do NOT read the
    // reply yet; shutdown is then triggered with most of those requests
    // still queued behind the 4 workers. Graceful drain must answer every
    // one of them.
    let mut streams: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream
        })
        .collect();
    for stream in &mut streams {
        write_frame(stream, b"stats").expect("send request");
    }
    handle.trigger_shutdown();
    for stream in &mut streams {
        let payload = read_frame(stream, 1 << 20)
            .expect("drained response frame")
            .expect("reply must not be dropped by shutdown");
        let resp = decode_response(&payload).expect("well-formed response");
        assert!(resp.ok, "drained stats failed: {}", resp.text);
        assert!(resp.text.contains("videos 2"));
    }
    let final_snap = handle.join().expect("clean join");
    assert_eq!(
        final_snap.total_requests(),
        total_sent + CLIENTS as u64,
        "drained requests are counted too"
    );

    // The listener is gone after shutdown.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// A malformed or oversized frame costs the sender its connection —
/// counted in the metrics — and nothing else.
#[test]
fn malformed_frames_close_only_that_connection() {
    let handle = start_memory_server(2, 1);
    let addr = handle.addr();

    // Oversized declared length: error response, then the connection dies.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        let resp = decode_response(&payload).unwrap();
        assert!(!resp.ok);
        assert!(resp.text.contains("exceeds"), "got: {}", resp.text);
        let mut rest = Vec::new();
        assert_eq!(
            stream.read_to_end(&mut rest).unwrap(),
            0,
            "server must close after an oversized frame"
        );
    }

    // Torn frame (declared 100 bytes, sent 10, then hung up): silently
    // closed, counted.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[7u8; 10]).unwrap();
    }

    // Malformed `trace` / `debug` requests are per-request usage errors,
    // and an oversized frame afterwards still costs only that connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for line in [
            "trace",
            "trace quit",
            "trace save x.vdbs",
            "debug",
            "debug everything",
        ] {
            write_frame(&mut stream, line.as_bytes()).unwrap();
            let resp =
                decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
            assert!(resp.ok, "'{line}' should answer, not drop: {}", resp.text);
            assert!(
                resp.text.contains("usage") || resp.text.contains("trace wraps"),
                "'{line}': {}",
                resp.text
            );
        }
        // A working trace request on the same connection...
        write_frame(&mut stream, b"trace list").unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(resp.ok && resp.text.contains("trace "), "{}", resp.text);
        // ...then an oversized frame: parting error, connection closed.
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        assert!(!decode_response(&payload).unwrap().ok);
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // Non-UTF-8 request: an error *response* (the frame itself was valid),
    // and the connection keeps working.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &[0xff, 0xfe, 0x00]).unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(!resp.ok);
        assert!(resp.text.contains("UTF-8"));
        write_frame(&mut stream, b"ping").unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(resp.ok && resp.text == "pong");
    }

    // The server is still fully alive for new clients.
    let mut client = Client::connect(addr).unwrap();
    let text = client.expect_ok("stats").unwrap();
    assert!(text.contains("videos 1"));

    // Give the torn-frame close a moment to be recorded, then check the
    // counters: three violations, no command errors charged.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let snap = handle.metrics();
        if snap.protocol_errors >= 3 {
            assert_eq!(snap.protocol_errors, 3);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "protocol errors never counted: {}",
            snap.protocol_errors
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// Satellite stress test: reader threads issue mixed `query`/`tree`/
/// `board` while an ingest thread pushes clips through `demo` — no
/// deadlocks, every response well-formed.
#[test]
fn stress_mixed_reads_with_concurrent_ingest() {
    const READERS: usize = 6;
    const REQUESTS: usize = 25;
    const INGESTS: usize = 4;
    let handle = start_memory_server(READERS + 2, 2);
    let addr = handle.addr();
    let barrier = Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        for r in 0..READERS {
            let barrier = &barrier;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for i in 0..REQUESTS {
                    let line = match (r + i) % 3 {
                        0 => format!("query ba=0.{r} oa=1{i} alpha=3 beta=3"),
                        1 => "tree 0".to_string(),
                        _ => "board 0 5".to_string(),
                    };
                    let resp = client.request(&line).expect("response");
                    assert!(resp.ok, "'{line}' failed: {}", resp.text);
                    assert!(!resp.text.is_empty());
                }
            });
        }
        let barrier = &barrier;
        s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect ingester");
            barrier.wait();
            for _ in 0..INGESTS {
                let text = client.expect_ok("demo 1").expect("ingest over wire");
                assert!(text.contains("ingested video"));
            }
        });
    });

    let snap = handle.metrics();
    assert_eq!(snap.total_requests(), (READERS * REQUESTS + INGESTS) as u64);
    assert_eq!(snap.total_errors(), 0);
    let mut client = Client::connect(addr).unwrap();
    let stats = client.expect_ok("stats").unwrap();
    assert!(
        stats.contains(&format!("videos {}", 2 + INGESTS)),
        "{stats}"
    );
    drop(client);
    handle.shutdown().unwrap();
}

/// The wire surface stays in parity with the REPL: the same commands
/// produce byte-identical output on both.
#[test]
fn wire_output_matches_shell_output() {
    use vdb_store::shell::{Shell, ShellOutcome};

    let commands = [
        "demo 2",
        "list",
        "stats",
        "query ba=0.3 oa=14 alpha=4 beta=4 limit=5",
        "query ba=0.3 oa=14 k=3",
        "tree 1",
        "board 0 3",
        "remove 0",
        "list",
    ];
    let mut shell = Shell::new();
    let handle = start_memory_server(2, 0);
    let mut client = Client::connect(handle.addr()).unwrap();
    for line in commands {
        let local = match shell.run(line) {
            ShellOutcome::Continue(out) => out,
            ShellOutcome::Quit => unreachable!(),
        };
        let wire = client.request(line).expect("response");
        assert!(wire.ok, "'{line}': {}", wire.text);
        // `stats` appends a server summary over the wire; compare the
        // shared prefix.
        if line == "stats" {
            assert!(wire.text.starts_with(&local), "'{line}' diverged");
        } else {
            assert_eq!(wire.text, local, "'{line}' diverged");
        }
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// The planner-routed top-k path works over the wire: `k=<n>` returns
/// exactly `n` nearest shots (the demo corpus has far more than `n`),
/// and `k` composes with `limit`.
#[test]
fn topk_query_over_the_wire() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("query ba=0.5 oa=12 k=3").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("3 answers"), "got: {}", resp.text);
    let resp = client.request("query ba=0.5 oa=12 k=5 limit=2").unwrap();
    assert!(resp.ok);
    assert!(resp.text.contains("2 answers"), "got: {}", resp.text);
    // Malformed k is a clean per-request error, not a dropped connection.
    let resp = client.request("query ba=0.5 oa=12 k=lots").unwrap();
    assert!(resp.text.contains("needs a number"), "got: {}", resp.text);
    let resp = client.request("stats").unwrap();
    assert!(resp.ok);
    drop(client);
    handle.shutdown().unwrap();
}

/// Journal-backed serving: mutations that were acknowledged over the wire
/// survive a server restart, including `remove` tombstones.
#[test]
fn journal_mode_survives_restart() {
    let dir = std::env::temp_dir().join(format!("vdb-server-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.vdbj");

    {
        let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
            .expect("open journal");
        let handle = Server::bind(store, test_config(2)).unwrap().serve();
        let mut client = Client::connect(handle.addr()).unwrap();
        let out = client.expect_ok("demo 3").unwrap();
        assert!(out.contains("ingested video 2"));
        client.expect_ok("remove 1").unwrap();
        // Shutdown over the wire; the handle drains and syncs.
        let resp = client.request("shutdown").expect("shutdown response");
        assert!(resp.ok && resp.text.contains("shutting down"));
        handle.join().unwrap();
    }

    // A fresh server over the same journal sees exactly the acknowledged
    // state.
    let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
        .expect("reopen journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.expect_ok("stats").unwrap();
    assert!(stats.contains("videos 2"), "{stats}");
    let list = client.expect_ok("list").unwrap();
    assert!(list.contains("demo-movie-9000") && list.contains("demo-movie-9002"));
    assert!(!list.contains("demo-movie-9001"), "tombstone must hold");
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `quit` closes one connection; unknown commands and rejected shell-only
/// commands answer with an error status but keep the server healthy.
#[test]
fn per_connection_commands_and_rejections() {
    let handle = start_memory_server(2, 1);
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.request("frobnicate").unwrap();
    assert!(!resp.ok && resp.text.contains("unknown command"));
    let resp = client.request("save /tmp/x.vdbs").unwrap();
    assert!(!resp.ok && resp.text.contains("not available over the wire"));
    let resp = client.request("load /tmp/x.vdbs").unwrap();
    assert!(!resp.ok);
    let resp = client.request("board").unwrap();
    assert!(resp.ok && resp.text.contains("usage"), "{}", resp.text);
    let resp = client.request("quit").unwrap();
    assert!(resp.ok && resp.text == "bye");
    // The server closed this connection after `bye`...
    let mut stream = client.into_stream();
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    // ...but keeps serving new ones, and `metrics` reports the traffic.
    let mut client = Client::connect(addr).unwrap();
    let metrics = client.expect_ok("metrics").unwrap();
    assert!(metrics.contains("quit"), "{metrics}");
    assert!(metrics.contains("total:"), "{metrics}");
    drop(client);
    handle.shutdown().unwrap();
}

/// The `metrics` wire command reports the whole stack: after a demo
/// ingest over the wire, the pipeline's `core.*` section from the
/// process-global registry appears below the server's own table, and
/// `stats` carries the one-line stack summary.
#[test]
fn metrics_reports_core_pipeline_sections() {
    let handle = start_memory_server(2, 0);
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let out = client.expect_ok("demo 1").unwrap();
    assert!(out.contains("ingested"), "{out}");

    let metrics = client.expect_ok("metrics").unwrap();
    assert!(metrics.contains("total:"), "server table first:\n{metrics}");
    assert!(
        metrics.contains("core:"),
        "core section present:\n{metrics}"
    );
    assert!(
        metrics.contains("core.pipeline.frames"),
        "pipeline counters listed:\n{metrics}"
    );
    assert!(
        metrics.contains("core.cascade.sign_same"),
        "cascade stage-hit counters listed:\n{metrics}"
    );

    let stats = client.expect_ok("stats").unwrap();
    assert!(
        stats.contains("stack.frames_analyzed") && stats.contains("stack.journal_appends"),
        "{stats}"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// Every `stats` line after the database summary follows one grammar —
/// `  <dotted.key> <integer>` — so scripts (and the router's merge) can
/// cut on whitespace without per-line special cases.
#[test]
fn stats_lines_follow_the_dotted_key_grammar() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.expect_ok("stats").unwrap();

    let mut lines = stats.lines();
    let db_line = lines.next().expect("db summary line");
    assert!(db_line.contains("videos"), "{db_line}");
    let mut seen = 0usize;
    for line in lines {
        let mut parts = line.split_whitespace();
        let (key, value, extra) = (parts.next(), parts.next(), parts.next());
        assert_eq!(extra, None, "more than two fields: '{line}'");
        let key = key.unwrap_or_default();
        assert!(
            key.contains('.') && !key.ends_with('.'),
            "key '{key}' is not dotted: '{line}'"
        );
        assert!(
            value.is_some_and(|v| v.parse::<u64>().is_ok()),
            "value is not an integer: '{line}'"
        );
        seen += 1;
    }
    for key in [
        "server.requests",
        "server.stream.open",
        "stack.frames_analyzed",
    ] {
        assert!(stats.contains(key), "stats missing '{key}':\n{stats}");
    }
    assert!(
        seen >= 8,
        "expected the full counter table, got {seen} lines"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// The router-facing wire extras: `shard-id` answers the configured
/// identity, `xlist`/`xquery` emit machine rows, and `export`/`import`
/// move one video's finished analysis between two live servers.
#[test]
fn wire_extras_identify_enumerate_and_transfer() {
    let src = Server::bind(
        ServerStore::memory(),
        ServerConfig {
            shard_id: Some("7".to_string()),
            ..test_config(2)
        },
    )
    .unwrap()
    .serve();
    let dst = start_memory_server(2, 0);
    let mut from = Client::connect(src.addr()).unwrap();
    let mut to = Client::connect(dst.addr()).unwrap();

    assert_eq!(from.expect_ok("shard-id").unwrap(), "shard=7 proto=1");
    assert_eq!(to.expect_ok("shard-id").unwrap(), "shard=? proto=1");

    from.expect_ok("demo 2").unwrap();
    let listing = from.expect_ok("xlist").unwrap();
    assert_eq!(listing.lines().count(), 2, "{listing}");
    assert!(
        listing.lines().all(|l| l.starts_with("video id=")),
        "{listing}"
    );
    let rows = from.expect_ok("xquery ba=0.4 oa=20").unwrap();
    assert!(rows.starts_with("mode="), "{rows}");

    // Transfer video 1 and confirm the copy answers queries on its own.
    let hex = from.expect_ok("export 1").unwrap();
    let imported = to.expect_ok(&format!("import {}", hex.trim())).unwrap();
    assert!(imported.contains("video=0"), "{imported}");
    let moved = to.expect_ok("xlist").unwrap();
    assert_eq!(moved.lines().count(), 1, "{moved}");
    let original = from.expect_ok("xlist").unwrap();
    let name = |s: &str| {
        s.lines()
            .map(|l| l.split(" name=").nth(1).unwrap_or_default().to_string())
            .collect::<Vec<_>>()
    };
    assert!(
        name(&original).contains(&name(&moved)[0]),
        "{original} vs {moved}"
    );

    drop((from, to));
    src.shutdown().unwrap();
    dst.shutdown().unwrap();
}

/// `explain` over the wire reports the planner's chosen plan with
/// estimated vs. actual candidate counts, alongside the query's answers.
#[test]
fn explain_over_the_wire_reports_plan_and_candidates() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request("explain ba=0.3 oa=14 alpha=4 beta=4")
        .unwrap();
    assert!(resp.ok, "{}", resp.text);
    for key in [
        "plan=",
        "est_candidates=",
        "actual_candidates=",
        "window=[",
        "answers",
    ] {
        assert!(resp.text.contains(key), "missing {key} in: {}", resp.text);
    }
    // Top-k queries explain too, and the redundant `query` word is
    // tolerated.
    let resp = client.request("explain query ba=0.3 oa=14 k=3").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(
        resp.text.contains("plan=") && resp.text.contains("3 answers"),
        "{}",
        resp.text
    );
    // A parse error stays a per-request diagnostic.
    let resp = client.request("explain nonsense").unwrap();
    assert!(
        resp.ok && resp.text.contains("expected key=value"),
        "{}",
        resp.text
    );
    // `explain` traffic is metered under its own command kind.
    let snap = handle.metrics();
    let explain_reqs = snap
        .commands
        .iter()
        .find(|c| c.kind == vdb_server::metrics::CommandKind::Explain)
        .expect("explain row")
        .requests;
    assert_eq!(explain_reqs, 3);
    drop(client);
    handle.shutdown().unwrap();
}

/// `debug dump` over the wire returns valid chrome://tracing JSON whose
/// span tree covers the core, store, and server layers (journaled store,
/// so journal append spans show up too).
#[test]
fn debug_dump_is_chrome_trace_json_spanning_the_stack() {
    let dir = std::env::temp_dir().join(format!("vdb-server-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = ServerStore::open_journal(
        dir.join("dump.vdbj"),
        vdb_core::analyzer::AnalyzerConfig::default(),
    )
    .expect("open journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.expect_ok("demo 1").unwrap();
    client
        .expect_ok("query ba=0.4 oa=13 alpha=3 beta=3")
        .unwrap();
    let dump = client.expect_ok("debug dump").unwrap();

    // Structurally valid chrome://tracing JSON...
    let json = serde_json::parse(dump.trim()).expect("dump must parse as JSON");
    let events = match json.get("traceEvents") {
        Some(serde::Value::Array(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert!(!events.is_empty(), "dump must not be empty");
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
        assert_eq!(ev.get("ph"), Some(&serde::Value::Str("X".into())));
    }
    // ...with span names from every layer of the stack.
    for name in [
        "server.request",
        "store.ingest",
        "store.query",
        "store.journal.append",
        "core.pipeline.analyze",
        "core.index.probe",
    ] {
        assert!(dump.contains(name), "dump missing {name} span");
    }
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `trace <command>` over the wire appends the request's span tree to the
/// wrapped command's normal output.
#[test]
fn trace_over_the_wire_appends_the_span_tree() {
    let handle = start_memory_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request("trace query ba=0.3 oa=14 alpha=3 beta=3")
        .unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("answers"), "{}", resp.text);
    assert!(resp.text.contains("trace "), "{}", resp.text);
    assert!(resp.text.contains("store.query"), "{}", resp.text);
    assert!(resp.text.contains("core.index.probe"), "{}", resp.text);
    let resp = client.request("trace demo 1").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("ingested video"), "{}", resp.text);
    assert!(resp.text.contains("store.ingest"), "{}", resp.text);
    drop(client);
    handle.shutdown().unwrap();
}

/// The slow-query log triggers exactly at the configured threshold: a
/// zero threshold counts every request as slow, an unreachable one counts
/// none.
#[test]
fn slow_query_log_triggers_exactly_at_threshold() {
    let zero = ServerConfig {
        slow_query_log: Some(Duration::ZERO),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), zero).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client.expect_ok("stats").unwrap();
    }
    drop(client);
    let snap = handle.shutdown().unwrap();
    assert_eq!(
        snap.slow_requests, 3,
        "zero threshold must count every request"
    );

    let unreachable = ServerConfig {
        slow_query_log: Some(Duration::from_secs(3600)),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), unreachable)
        .unwrap()
        .serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client.expect_ok("stats").unwrap();
    }
    drop(client);
    let snap = handle.shutdown().unwrap();
    assert_eq!(snap.slow_requests, 0, "unreachable threshold counts none");
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

/// A small deterministic clip for streaming tests.
fn stream_clip(seed: u64) -> Video {
    let script = vdb_synth::build_script(vdb_synth::Genre::Drama, 3, Some(8.0), (32, 24), seed);
    vdb_synth::generate(&script).video
}

/// Pull `key=<value>` out of a response text.
fn reply_field(text: &str, key: &str) -> String {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in reply '{text}'"))
        .to_string()
}

/// The streaming acceptance test: 8 concurrent wire streams into one
/// server, every one commits, the committed analyses are bit-identical to
/// running the in-process [`vdb_core::streaming::StreamingAnalyzer`] on
/// the same frames, and flow control never buffered more frames than the
/// granted credit window.
#[test]
fn eight_concurrent_wire_streams_commit_bit_identical() {
    const STREAMS: usize = 8;
    let handle = start_memory_server(STREAMS, 0);
    let addr = handle.addr();

    let committed: Vec<(u64, u64)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..STREAMS)
            .map(|c| {
                s.spawn(move || {
                    let seed = 100 + c as u64;
                    let clip = stream_clip(seed);
                    let (width, height) = clip.dims();
                    let mut client = Client::connect(addr).expect("connect");
                    let mut stream = client
                        .open_stream(&format!("live-{c}"), width, height, clip.fps())
                        .expect("open stream");
                    assert!(stream.credits() >= 1);
                    for frame in clip.frames() {
                        stream.push(frame).expect("push frame");
                    }
                    let commit = stream.commit().expect("commit");
                    assert_eq!(commit.frames, clip.frames().len());
                    assert!(commit.shots >= 1);
                    assert!(!commit.durable, "memory servers have nothing to sync");
                    (seed, commit.video)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    // Bit-identical to the in-process streaming analyzer on the same
    // frames (the server's memory store uses the default config).
    for (seed, video) in committed {
        let clip = stream_clip(seed);
        let mut local = vdb_core::streaming::StreamingAnalyzer::new(
            vdb_core::analyzer::AnalyzerConfig::default(),
        );
        for frame in clip.frames() {
            local.push(frame).expect("local push");
        }
        let expected = local.finish().expect("local finish");
        let stored = handle
            .store()
            .read(|db| db.analysis(video).cloned())
            .expect("committed video must be queryable");
        assert_eq!(stored.shots, expected.segmentation.shots, "shots diverged");
        assert_eq!(stored.features, expected.features, "features diverged");
        assert_eq!(stored.signs_ba, expected.signs_ba, "BA signs diverged");
        assert_eq!(stored.signs_oa, expected.signs_oa, "OA signs diverged");
    }

    // Flow control held: nobody ever buffered past the credit window.
    let stats = handle.stream_stats();
    assert!(stats.buffered_peak <= stats.credit_window, "{stats:?}");
    assert_eq!(stats.open_sessions, 0, "all sessions closed");

    let snap = handle.metrics();
    assert_eq!(snap.stream.sessions_opened, STREAMS as u64);
    assert_eq!(snap.stream.sessions_committed, STREAMS as u64);
    assert_eq!(snap.stream.session_errors, 0);
    assert_eq!(snap.protocol_errors, 0);
    handle.shutdown().unwrap();
}

/// A bad frame poisons exactly one session: the sticky error repeats on
/// every later message, the connection itself stays healthy, and a
/// parallel session on another connection commits untouched.
#[test]
fn stream_errors_poison_only_that_session() {
    let handle = start_memory_server(4, 0);
    let addr = handle.addr();
    let clip = stream_clip(9);
    let (width, height) = clip.dims();
    let frame_bytes = clip.frames()[0].to_rgb24();

    let mut bad = Client::connect(addr).unwrap().into_stream();
    bad.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let ask = |stream: &mut TcpStream, req: &StreamRequest<'_>| {
        write_frame(stream, &encode_stream_request(req)).unwrap();
        decode_response(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
    };
    let open = ask(
        &mut bad,
        &StreamRequest::Open {
            name: "poisoned",
            width,
            height,
            fps_milli: 30_000,
        },
    );
    assert!(open.ok, "{}", open.text);
    let session: u32 = reply_field(&open.text, "session").parse().unwrap();

    // A healthy session on a second connection, mid-flight.
    let mut good_client = Client::connect(addr).unwrap();
    let mut good = good_client
        .open_stream("healthy", width, height, clip.fps())
        .unwrap();
    good.push(&clip.frames()[0]).unwrap();

    // Wrong byte count for the declared dimensions → poison.
    let resp = ask(
        &mut bad,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &[1, 2, 3],
        },
    );
    assert!(
        !resp.ok && resp.text.contains("session failed"),
        "{}",
        resp.text
    );
    // The error is sticky: a now-correct frame is still rejected...
    let resp = ask(
        &mut bad,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &frame_bytes,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("session failed"),
        "{}",
        resp.text
    );
    // ...and so is commit — nothing of this session is ever visible.
    let resp = ask(&mut bad, &StreamRequest::Commit { session });
    assert!(!resp.ok, "{}", resp.text);
    // The connection survives its poisoned session.
    write_frame(&mut bad, b"ping").unwrap();
    let resp = decode_response(&read_frame(&mut bad, 1 << 20).unwrap().unwrap()).unwrap();
    assert!(resp.ok && resp.text == "pong");

    // The parallel session never noticed.
    for frame in &clip.frames()[1..] {
        good.push(frame).unwrap();
    }
    let commit = good.commit().expect("healthy session commits");
    assert_eq!(commit.frames, clip.frames().len());
    assert_eq!(
        handle.store().read(|db| db.len()),
        1,
        "only the healthy video"
    );

    let snap = handle.metrics();
    assert_eq!(snap.stream.session_errors, 1);
    assert_eq!(snap.stream.sessions_committed, 1);
    assert_eq!(snap.protocol_errors, 1, "poison counts as a protocol error");
    drop(good_client);
    handle.shutdown().unwrap();
}

/// Sequence gaps poison the session (the server never silently reorders
/// or drops frames), and a session cannot be driven from a connection
/// that does not own it.
#[test]
fn out_of_order_frames_and_foreign_connections_are_rejected() {
    let handle = start_memory_server(4, 0);
    let addr = handle.addr();
    let clip = stream_clip(11);
    let (width, height) = clip.dims();
    let data = clip.frames()[0].to_rgb24();

    let mut s1 = Client::connect(addr).unwrap().into_stream();
    s1.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let ask = |stream: &mut TcpStream, req: &StreamRequest<'_>| {
        write_frame(stream, &encode_stream_request(req)).unwrap();
        decode_response(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
    };
    let open = ask(
        &mut s1,
        &StreamRequest::Open {
            name: "gappy",
            width,
            height,
            fps_milli: 30_000,
        },
    );
    let session: u32 = reply_field(&open.text, "session").parse().unwrap();
    let resp = ask(
        &mut s1,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &data,
        },
    );
    assert!(resp.ok, "{}", resp.text);

    // Another connection may not push into this session.
    let mut s2 = Client::connect(addr).unwrap().into_stream();
    s2.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let resp = ask(
        &mut s2,
        &StreamRequest::Frame {
            session,
            seq: 1,
            data: &data,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("another connection"),
        "{}",
        resp.text
    );

    // A gap (seq 2 after 0) poisons the session.
    let resp = ask(
        &mut s1,
        &StreamRequest::Frame {
            session,
            seq: 2,
            data: &data,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("expected seq 1"),
        "{}",
        resp.text
    );
    let resp = ask(&mut s1, &StreamRequest::Commit { session });
    assert!(!resp.ok, "poisoned session cannot commit: {}", resp.text);
    assert_eq!(handle.store().read(|db| db.len()), 0);
    handle.shutdown().unwrap();
}

/// Admission control: opens past `max_sessions` are rejected, and slots
/// come back when a session aborts or its connection dies mid-stream.
#[test]
fn session_cap_rejects_then_reclaims_slots() {
    let config = ServerConfig {
        max_sessions: 2,
        ..test_config(4)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let addr = handle.addr();
    let clip = stream_clip(13);
    let (width, height) = clip.dims();

    let mut c1 = Client::connect(addr).unwrap();
    let s1 = c1.open_stream("one", width, height, 30.0).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    let mut s2 = c2.open_stream("two", width, height, 30.0).unwrap();
    s2.push(&clip.frames()[0]).unwrap();

    // Third open: rejected, with the cap in the error.
    let mut c3 = Client::connect(addr).unwrap();
    match c3.open_stream("three", width, height, 30.0) {
        Ok(_) => panic!("cap must reject the third session"),
        Err(e) => assert!(e.to_string().contains("session limit"), "{e}"),
    }

    // A clean abort frees one slot...
    s1.abort().unwrap();
    let s3 = c3.open_stream("three", width, height, 30.0).unwrap();
    // ...and a torn disconnect (client dies mid-stream, no commit) frees
    // the other without committing anything. Discard the stream handle —
    // no abort message, the socket just goes away.
    let _ = s2;
    drop(c2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c4 = Client::connect(addr).unwrap();
    let s4 = loop {
        match c4.open_stream("four", width, height, 30.0) {
            Ok(s) => break s,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "torn session never reclaimed: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    s4.abort().unwrap();
    s3.abort().unwrap();
    assert_eq!(handle.store().read(|db| db.len()), 0, "nothing committed");
    let snap = handle.metrics();
    assert_eq!(snap.stream.sessions_rejected, 1);
    assert!(snap.stream.sessions_aborted >= 3, "{:?}", snap.stream);
    drop(c1);
    handle.shutdown().unwrap();
}

/// The reaper aborts sessions with no traffic past the idle timeout, so
/// abandoned streams cannot hold admission slots.
#[test]
fn idle_streaming_sessions_are_reaped() {
    let config = ServerConfig {
        session_idle_timeout: Duration::from_millis(100),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stream = client.open_stream("sleeper", 32, 24, 30.0).unwrap();
    assert_eq!(handle.stream_stats().open_sessions, 1);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.stream_stats().open_sessions > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle session never reaped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.metrics().stream.sessions_reaped, 1);
    // The session id is gone; a commit attempt reports that cleanly.
    let err = stream.commit().expect_err("reaped session cannot commit");
    assert!(err.to_string().contains("unknown session"), "{err}");
    assert_eq!(handle.store().read(|db| db.len()), 0);
    drop(client);
    handle.shutdown().unwrap();
}

/// Shutdown with live uncommitted sessions drains cleanly: the server
/// aborts them (no partial video) and join() does not hang on the pumps.
#[test]
fn shutdown_aborts_live_sessions_without_committing() {
    let handle = start_memory_server(2, 0);
    let clip = stream_clip(17);
    let (width, height) = clip.dims();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stream = client
        .open_stream("interrupted", width, height, clip.fps())
        .unwrap();
    for frame in &clip.frames()[..4] {
        stream.push(frame).unwrap();
    }
    handle.trigger_shutdown();
    let snap = handle.join().expect("drain with a live session");
    assert_eq!(snap.stream.sessions_opened, 1);
    assert_eq!(snap.stream.sessions_committed, 0);
    assert_eq!(
        snap.stream.sessions_aborted, 1,
        "live session must be aborted, not committed"
    );
}

/// Journal-backed streaming: a committed stream survives a daemon
/// restart; a torn mid-stream disconnect leaves nothing behind.
#[test]
fn journaled_stream_commit_survives_restart_and_torn_stream_does_not() {
    let dir = std::env::temp_dir().join(format!("vdb-server-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streams.vdbj");
    let clip = stream_clip(19);
    let (width, height) = clip.dims();

    {
        let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
            .expect("open journal");
        let handle = Server::bind(store, test_config(4)).unwrap().serve();
        let addr = handle.addr();

        // Stream A commits; the ack promises durability.
        let mut c1 = Client::connect(addr).unwrap();
        let mut s1 = c1
            .open_stream("committed", width, height, clip.fps())
            .unwrap();
        for frame in clip.frames() {
            s1.push(frame).unwrap();
        }
        let commit = s1.commit().unwrap();
        assert!(commit.durable, "journaled commits must wait for the disk");

        // Stream B dies mid-flight: connection dropped, no commit.
        let mut c2 = Client::connect(addr).unwrap();
        let mut s2 = c2.open_stream("torn", width, height, clip.fps()).unwrap();
        for frame in &clip.frames()[..3] {
            s2.push(frame).unwrap();
        }
        let _ = s2;
        drop(c2);

        drop(c1);
        handle.shutdown().unwrap();
    }

    // Restart: the committed stream is fully queryable, the torn one left
    // no trace — not even a catalog row.
    let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
        .expect("reopen journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let list = client.expect_ok("list").unwrap();
    assert!(list.contains("committed"), "{list}");
    assert!(
        !list.contains("torn"),
        "torn stream must not survive: {list}"
    );
    assert_eq!(handle.store().read(|db| db.len()), 1);
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Analyze `frames` with the in-process streaming analyzer and assert the
/// committed `video` on the server holds the bit-identical analysis.
fn assert_matches_local_analysis(
    handle: &ServerHandle,
    video: u64,
    frames: &[vdb_core::frame::FrameBuf],
) {
    let mut local =
        vdb_core::streaming::StreamingAnalyzer::new(vdb_core::analyzer::AnalyzerConfig::default());
    for frame in frames {
        local.push(frame).expect("local push");
    }
    let expected = local.finish().expect("local finish");
    let stored = handle
        .store()
        .read(|db| db.analysis(video).cloned())
        .expect("committed video must be queryable");
    assert_eq!(stored.shots, expected.segmentation.shots, "shots diverged");
    assert_eq!(stored.features, expected.features, "features diverged");
    assert_eq!(stored.signs_ba, expected.signs_ba, "BA signs diverged");
    assert_eq!(stored.signs_oa, expected.signs_oa, "OA signs diverged");
}

/// A frame held for credit is released by the pump draining a slot, not
/// by a timer: with a one-frame window most frames find the window full,
/// yet a 48-frame stream commits inside one
/// `poll_interval`, and the window is never exceeded.
#[test]
fn credit_wait_is_woken_by_the_pump_not_a_timer() {
    let poll = Duration::from_secs(1);
    let config = ServerConfig {
        stream_credits: 1,
        poll_interval: poll,
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let clip = stream_clip(21);
    let frames: Vec<_> = clip.frames().iter().cycle().take(48).cloned().collect();
    let (width, height) = clip.dims();

    let mut client = Client::connect(handle.addr()).unwrap();
    let started = std::time::Instant::now();
    let mut stream = client
        .open_stream("one-credit", width, height, clip.fps())
        .unwrap();
    assert_eq!(stream.credits(), 1);
    for frame in &frames {
        stream.push(frame).unwrap();
    }
    let commit = stream.commit().unwrap();
    let elapsed = started.elapsed();
    assert_eq!(commit.frames, frames.len());
    // One timer-driven wake-up alone would cost a whole `poll`.
    assert!(
        elapsed < poll,
        "48 frames under a one-frame window took {elapsed:?}"
    );
    let stats = handle.stream_stats();
    assert!(stats.buffered_peak <= 1, "{stats:?}");
    assert_matches_local_analysis(&handle, commit.video, &frames);
    drop(client);
    handle.shutdown().unwrap();
}

/// A frame whose dimensions are the declared ones transposed has the
/// right byte count, so only the client can catch it: `push` refuses it
/// before sending anything, and the session carries on unharmed.
#[test]
fn transposed_frame_is_rejected_before_sending() {
    let handle = start_memory_server(2, 0);
    let clip = stream_clip(23);
    let (width, height) = clip.dims();
    assert_ne!(width, height, "the test needs a non-square clip");
    let first = &clip.frames()[0];
    let transposed = vdb_core::frame::FrameBuf::from_fn(height, width, |x, y| first.get(y, x));

    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stream = client
        .open_stream("transposed", width, height, clip.fps())
        .unwrap();
    match stream.push(&transposed) {
        Err(vdb_server::ClientError::Protocol(e)) => {
            assert!(e.to_string().contains("dimensions"), "{e}")
        }
        other => panic!("a transposed frame must be refused client-side: {other:?}"),
    }
    assert_eq!(stream.pushed(), 0, "nothing went out");
    for frame in clip.frames() {
        stream.push(frame).unwrap();
    }
    let commit = stream.commit().unwrap();
    assert_eq!(commit.frames, clip.frames().len());
    assert_matches_local_analysis(&handle, commit.video, clip.frames());
    let snap = handle.metrics();
    assert_eq!(snap.stream.session_errors, 0);
    assert_eq!(snap.protocol_errors, 0);
    drop(client);
    handle.shutdown().unwrap();
}
