//! The traced run's layers add up: a read's client round trip is the
//! front end's round trip (a `ping`) plus the in-process shell time for
//! the same line, within the gap [`e2ebench::layers::reconcile_ok`]
//! allows (half the round trip or 200 µs, whichever is larger).

use e2ebench::inputs::{self, ReadKind};
use e2ebench::{layers, load, stack};

#[test]
fn layer_times_reconcile_with_client_round_trips() {
    let pool = inputs::pool(5, 4, 24, 4.0, (64, 48));
    let names: Vec<String> = (0..8).map(|i| format!("clip-{i}")).collect();
    let oracle = stack::stream_oracle(&pool, &names);
    let ids: Vec<u64> = (0..names.len() as u64).collect();
    let features = inputs::catalogue_features(&oracle);
    let raw = inputs::read_lines(5, &ReadKind::ALL, 4, &features, &ids, "");
    let lines = inputs::with_expected(&oracle, raw);
    let handle = stack::serve_memory(stack::stream_oracle(&pool, &names));

    // The served answers are the oracle's, so the times below are of
    // the same work.
    let mut client = load::connect(handle.addr());
    for line in &lines {
        load::check(&mut client, line).expect("served reply equals the oracle");
    }

    let (client_us, gap_us) = layers::reconcile(&handle, &oracle, &lines, 20);
    stack::stop(handle);
    assert!(
        layers::reconcile_ok(client_us, gap_us),
        "client round trip p50 {client_us:.1} us, unexplained p50 {gap_us:.1} us"
    );
}

#[test]
fn self_times_subtract_children() {
    let tracer = e2ebench::tracer();
    {
        let root = tracer.trace_root_forced();
        let parent = tracer.span(&root, "parent");
        let ctx = parent.context();
        for _ in 0..2 {
            let _child = tracer.span(&ctx, "child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let rows = layers::self_times(&tracer.recorder().snapshot());
    let row = |name: &str| rows.iter().find(|r| r.0 == name).cloned().expect(name);
    let (_, calls, total, own) = row("parent");
    let (_, child_calls, child_total, _) = row("child");
    assert_eq!((calls, child_calls), (1, 2));
    assert_eq!(own, total - child_total);
}
