//! The router's network front end: frame abuse costs only the offending
//! connection, and shutdown wakes an idle acceptor without its wake-up
//! connection ever being counted — for `vdb-router` and `vdbd` alike,
//! since both run the same `vdb_server::frontend`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vdb_router::{Router, RouterConfig, RouterHandle};
use vdb_server::client::Client;
use vdb_server::protocol::{decode_response, read_frame, write_frame, Response};
use vdb_server::{Server, ServerConfig, ServerHandle, ServerStore};

fn shard() -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        shard_id: Some("0".to_string()),
        ..ServerConfig::default()
    };
    Server::bind(ServerStore::memory(), config)
        .expect("bind shard")
        .serve()
}

fn router_over(shard: &ServerHandle) -> RouterHandle {
    let config = RouterConfig {
        shards: vec![shard.addr().to_string()],
        workers: 2,
        ..RouterConfig::default()
    };
    Router::bind(config).expect("bind router").serve()
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn reply(stream: &mut TcpStream) -> Response {
    decode_response(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
}

fn assert_closed(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "router must close"
    );
}

/// Wait until the router has counted `n` protocol errors, then check it
/// counted no more.
fn await_protocol_errors(router: &RouterHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let seen = router.metrics().protocol_errors;
        if seen >= n {
            assert_eq!(seen, n);
            return;
        }
        assert!(Instant::now() < deadline, "protocol errors: {seen} of {n}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn malformed_frames_close_only_that_connection() {
    let shard = shard();
    let router = router_over(&shard);
    let addr = router.addr();

    // A healthy connection opened first must outlive every abuse below.
    let mut healthy = Client::connect(addr).unwrap();
    assert_eq!(healthy.expect_ok("ping").unwrap(), "pong");

    // Oversized declared length: a `-` parting reply, then the close.
    {
        let mut stream = connect(addr);
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let resp = reply(&mut stream);
        assert!(!resp.ok);
        assert!(resp.text.contains("exceeds"), "got: {}", resp.text);
        assert_closed(&mut stream);
    }
    await_protocol_errors(&router, 1);

    // Torn frame (declared 100 bytes, sent 10, then hung up): closed
    // without a reply, counted.
    {
        let mut stream = connect(addr);
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[7u8; 10]).unwrap();
    }
    await_protocol_errors(&router, 2);

    // Non-UTF-8 request: the frame itself is valid, so it earns a `-`
    // reply and costs nothing — that connection keeps working, as on
    // `vdbd`, and no protocol error is charged.
    {
        let mut stream = connect(addr);
        write_frame(&mut stream, &[0xff, 0xfe, 0x00]).unwrap();
        let resp = reply(&mut stream);
        assert!(!resp.ok);
        assert!(resp.text.contains("UTF-8"), "got: {}", resp.text);
        write_frame(&mut stream, b"ping").unwrap();
        let resp = reply(&mut stream);
        assert!(resp.ok && resp.text == "pong");
    }
    await_protocol_errors(&router, 2);

    // The first connection never noticed, and new clients still get in.
    assert_eq!(healthy.expect_ok("ping").unwrap(), "pong");
    let mut fresh = Client::connect(addr).unwrap();
    assert!(fresh.expect_ok("ring").unwrap().contains("active 1"));
    drop((healthy, fresh));

    let snap = router.shutdown();
    assert_eq!(snap.protocol_errors, 2);
    assert_eq!(snap.connections_opened, 5);
    assert_eq!(snap.connections_closed, 5);
    shard.shutdown().unwrap();
}

/// Trigger shutdown on a daemon nobody ever connected to: the acceptor
/// blocked in `accept()` must wake and `join()` return, and the wake-up
/// self-connect must not show up as a connection.
#[test]
fn trigger_shutdown_wakes_idle_server_and_router_uncounted() {
    let shard = shard();
    let router = router_over(&shard);

    router.trigger_shutdown();
    let snap = router.join();
    assert_eq!(snap.connections_opened, 0);
    assert_eq!(snap.total_requests(), 0);

    shard.trigger_shutdown();
    let snap = shard.join().unwrap();
    assert_eq!(snap.connections_opened, 0);
    assert_eq!(snap.total_requests(), 0);
}
