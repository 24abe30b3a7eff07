//! The `lcs_server` daemon over a real loopback socket: happy-path ops,
//! the structured 4xx error contract, concurrent clients on one warm
//! session, and the mutation→query differential — results served over
//! HTTP after `reassign_parts` must be bit-identical to a session freshly
//! built on the mutated partition (the same oracle as the churn
//! differential in `tests/session.rs`).

use lcs_server::client::Client;
use lcs_server::{Server, ServerConfig, ServerHandle};
use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::facade::{Session, SessionConfig, SessionPartwiseOps};
use low_congestion_shortcuts::graph::{gen, NodeId};
use serde::{Serialize, Value};
use std::time::Duration;

fn start() -> ServerHandle {
    Server::start(ServerConfig {
        workers: 4,
        max_body: 64 * 1024,
        io_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port")
}

fn grid_spec(rows: u64, cols: u64) -> Value {
    Value::object([(
        "graph",
        Value::object([
            ("family", Value::Str("grid".to_string())),
            ("rows", Value::U64(rows)),
            ("cols", Value::U64(cols)),
        ]),
    )])
}

fn create(client: &mut Client, spec: &Value) -> String {
    let r = client.post("/sessions", spec).expect("create session");
    assert_eq!(
        r.status,
        200,
        "create: {}",
        lcs_server::json::render(&r.body)
    );
    match r.field("id") {
        Some(Value::Str(id)) => id.clone(),
        other => panic!("create response has no id: {other:?}"),
    }
}

fn get_u64(v: &Value, name: &str) -> u64 {
    match lcs_server::json::lookup(v, name) {
        Some(Value::U64(x)) => *x,
        other => panic!("field `{name}` missing or mistyped: {other:?}"),
    }
}

fn result_values(r: &lcs_server::client::Response) -> Vec<Option<u64>> {
    let result = r.field("result").expect("op result");
    let Some(Value::Arr(items)) = lcs_server::json::lookup(result, "results") else {
        panic!("no results array in {}", lcs_server::json::render(&r.body));
    };
    items
        .iter()
        .map(|v| match v {
            Value::U64(x) => Some(*x),
            Value::Null => None,
            other => panic!("unexpected result entry {other:?}"),
        })
        .collect()
}

/// Op responses carry `truncated`: `true` when the session's round cap
/// cut the run short (still a 200 — the typed error is a later step),
/// `false` on a finished run.
#[test]
fn op_responses_report_truncated_runs() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let body = Value::object([
        ("values", Value::Arr(vec![Value::U64(1); 36])),
        ("op", Value::Str("sum".to_string())),
    ]);
    for (max_rounds, expected) in [(2, true), (1_000_000, false)] {
        let config = SessionConfig {
            sim: SimConfig {
                max_rounds,
                ..SimConfig::default()
            },
            ..SessionConfig::default()
        };
        let mut spec = grid_spec(6, 6);
        if let Value::Obj(fields) = &mut spec {
            fields.push(("config".to_string(), config.to_value()));
        }
        let id = create(&mut client, &spec);
        let agg = client
            .post(&format!("/sessions/{id}/aggregate"), &body)
            .expect("aggregate");
        assert_eq!(agg.status, 200);
        assert_eq!(
            agg.field("truncated"),
            Some(&Value::Bool(expected)),
            "max_rounds = {max_rounds}"
        );
    }
    handle.shutdown();
}

/// All six ops answer 200 over the socket with values matching the
/// in-process session facade.
#[test]
fn happy_path_ops_over_loopback() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let (rows, cols) = (5u64, 5u64);
    let id = create(&mut client, &grid_spec(rows, cols));
    let n = (rows * cols) as usize;
    let values: Vec<u64> = (0..n as u64).collect();

    // Aggregate: row parts of the grid, sum of 0..n per row.
    let body = Value::object([
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::U64(v)).collect()),
        ),
        ("op", Value::Str("sum".to_string())),
    ]);
    let agg = client
        .post(&format!("/sessions/{id}/aggregate"), &body)
        .expect("aggregate");
    assert_eq!(agg.status, 200);
    let served = result_values(&agg);
    let expected: Vec<Option<u64>> = (0..rows)
        .map(|r| Some((r * cols..(r + 1) * cols).sum()))
        .collect();
    assert_eq!(served, expected, "row sums of the 6×6 grid");
    assert!(
        get_u64(&agg.body, "rounds") > 0,
        "ops bill simulated rounds"
    );

    // Gossip min per row.
    let body = Value::object([
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::U64(v)).collect()),
        ),
        ("op", Value::Str("min".to_string())),
    ]);
    let gossip = client
        .post(&format!("/sessions/{id}/gossip"), &body)
        .expect("gossip");
    assert_eq!(gossip.status, 200);
    let served = result_values(&gossip);
    let expected: Vec<Option<u64>> = (0..rows).map(|r| Some(r * cols)).collect();
    assert_eq!(served, expected, "row minima of the 6×6 grid");

    // Unicast corner to corner.
    let body = Value::object([(
        "demands",
        Value::Arr(vec![Value::Arr(vec![
            Value::U64(0),
            Value::U64(n as u64 - 1),
        ])]),
    )]);
    let unicast = client
        .post(&format!("/sessions/{id}/unicast"), &body)
        .expect("unicast");
    assert_eq!(unicast.status, 200);
    let result = unicast.field("result").expect("unicast result");
    assert_eq!(get_u64(result, "delivered"), 1);

    // MST with unit weights: a spanning tree has n − 1 edges.
    let g = gen::grid(rows as usize, cols as usize);
    let body = Value::object([(
        "weights",
        Value::Arr((0..g.num_edges()).map(|_| Value::U64(1)).collect()),
    )]);
    let mst = client
        .post(&format!("/sessions/{id}/mst"), &body)
        .expect("mst");
    assert_eq!(mst.status, 200);
    let result = mst.field("result").expect("mst result");
    assert_eq!(get_u64(result, "total_weight"), n as u64 - 1);

    // Components: the grid is connected.
    let comps = client
        .post_raw(&format!("/sessions/{id}/components"), b"")
        .expect("components");
    assert_eq!(comps.status, 200);
    assert_eq!(get_u64(comps.field("result").expect("result"), "count"), 1);

    // Mincut: a grid corner has degree 2, so the 1-respecting estimate is
    // a small positive upper bound.
    let mincut = client
        .post_raw(&format!("/sessions/{id}/mincut"), b"")
        .expect("mincut");
    assert_eq!(mincut.status, 200);
    let estimate = get_u64(mincut.field("result").expect("result"), "estimate");
    assert!((1..=4).contains(&estimate), "estimate was {estimate}");

    // Quality of the served shortcut.
    let quality = client
        .post_raw(&format!("/sessions/{id}/quality"), b"")
        .expect("quality");
    assert_eq!(quality.status, 200);
    assert!(get_u64(&quality.body, "quality") > 0);
    assert_eq!(quality.field("all_connected"), Some(&Value::Bool(true)));

    handle.shutdown();
}

/// A declarative partition source in the session spec: the server
/// resolves `{"kind": "separator", ...}` on the graph, serves ops over the
/// dissection parts, and answers results matching the in-process facade
/// on the same resolved partition.
#[test]
fn separator_source_partitions_are_served_over_the_wire() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let mut spec = grid_spec(6, 6);
    if let Value::Obj(fields) = &mut spec {
        fields.push((
            "partition".to_string(),
            Value::object([
                ("kind", Value::Str("separator".to_string())),
                ("level", Value::U64(2)),
                ("min_region", Value::U64(4)),
            ]),
        ));
    }
    let id = create(&mut client, &spec);
    let values: Vec<u64> = (0..36).collect();
    let body = Value::object([
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::U64(v)).collect()),
        ),
        ("op", Value::Str("max".to_string())),
    ]);
    let agg = client
        .post(&format!("/sessions/{id}/aggregate"), &body)
        .expect("aggregate");
    assert_eq!(agg.status, 200);

    // Oracle: the same source resolved in process.
    let g = gen::grid(6, 6);
    let src = low_congestion_shortcuts::facade::PartitionSource::Separator {
        level: 2,
        min_region: 4,
    };
    let mut session = Session::on(&g).partition(src.resolve(&g)).build().unwrap();
    let expected: Vec<Option<u64>> = session.aggregate(&values, AggOp::Max).result.results;
    assert_eq!(result_values(&agg), expected);
    handle.shutdown();
}

/// The structured error contract: each failure class maps to its status
/// and stable machine-readable code, and the keep-alive worker survives
/// every one of them on a single connection.
#[test]
fn structured_errors_do_not_kill_the_worker() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let id = create(&mut client, &grid_spec(4, 4));

    let expect = |r: &lcs_server::client::Response, status: u16, code: &str| {
        assert_eq!(
            (r.status, r.field("error")),
            (status, Some(&Value::Str(code.to_string()))),
            "body: {}",
            lcs_server::json::render(&r.body)
        );
    };

    let r = client
        .post_raw("/sessions", b"{definitely not json")
        .unwrap();
    expect(&r, 400, "malformed_json");

    let r = client
        .post_raw("/sessions/s999/aggregate", b"{\"values\": []}")
        .unwrap();
    expect(&r, 404, "not_found");

    let r = client.post_raw("/nope", b"").unwrap();
    expect(&r, 404, "not_found");

    let r = client.request("DELETE", "/health", b"").unwrap();
    expect(&r, 405, "method_not_allowed");

    // Mutations that fail validation are 409s and leave the session alone.
    let r = client
        .post_raw(
            &format!("/sessions/{id}/reassign_parts"),
            b"{\"moves\": [[0, 400]]}",
        )
        .unwrap();
    expect(&r, 409, "invalid_mutation");

    // Weight updates out of range are 422s (satellite contract of the
    // typed `EdgeWeights::update` error).
    let r = client
        .post_raw(
            &format!("/sessions/{id}/update_weights"),
            b"{\"changes\": [[999, 1]]}",
        )
        .unwrap();
    expect(&r, 422, "bad_args");

    let r = client
        .post_raw(
            &format!("/sessions/{id}/aggregate"),
            b"{\"values\": [1, 2]}",
        )
        .unwrap();
    expect(&r, 422, "bad_args"); // one value per node required

    let r = client
        .post_raw(&format!("/sessions/{id}/aggregate"), b"{}")
        .unwrap();
    expect(&r, 422, "bad_args"); // missing required field

    let oversized = vec![b'x'; 80 * 1024];
    let r = client
        .post_raw(&format!("/sessions/{id}/aggregate"), &oversized)
        .unwrap();
    expect(&r, 413, "body_too_large");

    // Partition validation failures carry the PartitionError variant as
    // their machine-readable code: a disconnected part…
    let mut bad = grid_spec(4, 4);
    if let Value::Obj(fields) = &mut bad {
        fields.push((
            "partition".to_string(),
            Value::Arr(vec![Value::Arr(vec![Value::U64(0), Value::U64(15)])]),
        ));
    }
    let r = client.post("/sessions", &bad).unwrap();
    expect(&r, 422, "partition_disconnected");

    // …is distinct from a source that leaves nodes unassigned.
    let mut uncovered = grid_spec(4, 4);
    if let Value::Obj(fields) = &mut uncovered {
        fields.push((
            "partition".to_string(),
            Value::object([
                ("kind", Value::Str("rows".to_string())),
                ("rows", Value::U64(2)),
                ("cols", Value::U64(4)),
            ]),
        ));
    }
    let r = client.post("/sessions", &uncovered).unwrap();
    expect(&r, 422, "partition_uncovered");

    // The same connection (reconnected after the 413 close) still serves.
    let r = client.get("/health").unwrap();
    assert_eq!(r.status, 200);
    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);

    handle.shutdown();
}

/// Re-POSTing an identical spec returns the warm session; a different
/// spec builds a new one.
#[test]
fn identical_specs_hit_the_warm_session() {
    let handle = start();
    let mut client = Client::new(handle.addr());

    let first = client.post("/sessions", &grid_spec(5, 5)).unwrap();
    assert_eq!(first.field("created"), Some(&Value::Bool(true)));
    let second = client.post("/sessions", &grid_spec(5, 5)).unwrap();
    assert_eq!(second.field("created"), Some(&Value::Bool(false)));
    assert_eq!(first.field("id"), second.field("id"));

    let other = client.post("/sessions", &grid_spec(5, 6)).unwrap();
    assert_eq!(other.field("created"), Some(&Value::Bool(true)));
    assert_ne!(first.field("id"), other.field("id"));

    let metrics = client.get("/metrics").unwrap();
    let registry = lcs_server::json::lookup(&metrics.body, "registry").expect("registry");
    assert_eq!(get_u64(registry, "hits"), 1);
    assert_eq!(get_u64(registry, "misses"), 2);

    handle.shutdown();
}

/// Concurrent clients hammer one warm session; every request succeeds and
/// every served aggregate is the same correct value.
#[test]
fn concurrent_clients_share_one_session() {
    let handle = start();
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = create(&mut client, &grid_spec(4, 4));
    let expected: Vec<Option<u64>> = (0..4u64)
        .map(|r| Some((r * 4..(r + 1) * 4).sum()))
        .collect();

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let id = id.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for _ in 0..10 {
                    let body = Value::object([
                        ("values", Value::Arr((0..16u64).map(Value::U64).collect())),
                        ("op", Value::Str("sum".to_string())),
                    ]);
                    let r = client
                        .post(&format!("/sessions/{id}/aggregate"), &body)
                        .expect("concurrent aggregate");
                    assert_eq!(r.status, 200);
                    assert_eq!(result_values(&r), expected);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let metrics = client.get("/metrics").unwrap();
    let server_stats = lcs_server::json::lookup(&metrics.body, "server").expect("server stats");
    assert_eq!(get_u64(server_stats, "worker_panics"), 0);
    assert!(get_u64(server_stats, "requests") >= 41);

    handle.shutdown();
}

/// The mutation→query differential over the wire: after a served
/// `reassign_parts`, the served aggregate is bit-identical to a fresh
/// session built in-process on the same mutated partition.
#[test]
fn served_mutation_matches_fresh_build() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let (rows, cols) = (5usize, 5usize);
    let id = create(&mut client, &grid_spec(rows as u64, cols as u64));
    let values: Vec<u64> = (0..(rows * cols) as u64).collect();

    // Churn: move the first node of row r to row r − 1's part and back,
    // across several ticks (the bench_churn mover pattern).
    let mut parts = gen::rows_of_grid(rows, cols);
    for tick in 0..3 {
        let row = 1 + 2 * (tick % 2); // rows 1 and 3
        let target = if tick < 2 { row - 1 } else { row };
        let node = (row * cols) as u32;
        let body = Value::object([(
            "moves",
            Value::Arr(vec![Value::Arr(vec![
                Value::U64(u64::from(node)),
                Value::U64(target as u64),
            ])]),
        )]);
        let r = client
            .post(&format!("/sessions/{id}/reassign_parts"), &body)
            .expect("reassign_parts");
        assert_eq!(
            r.status,
            200,
            "tick {tick}: {}",
            lcs_server::json::render(&r.body)
        );

        // Mirror the move on the in-process oracle partition.
        for p in parts.iter_mut() {
            p.retain(|&v| v != NodeId(node));
        }
        parts[target].push(NodeId(node));

        let body = Value::object([
            (
                "values",
                Value::Arr(values.iter().map(|&v| Value::U64(v)).collect()),
            ),
            ("op", Value::Str("sum".to_string())),
        ]);
        let served = client
            .post(&format!("/sessions/{id}/aggregate"), &body)
            .expect("aggregate after mutation");
        assert_eq!(served.status, 200);

        let g = gen::grid(rows, cols);
        let mut fresh = Session::on(&g)
            .partition(parts.clone())
            .build()
            .expect("mutated rows stay valid parts");
        let oracle = fresh.aggregate(&values, AggOp::Sum);
        assert_eq!(
            result_values(&served),
            oracle.result.results,
            "tick {tick}: served results must be bit-identical to a fresh build"
        );
    }

    handle.shutdown();
}

/// `POST /shutdown` answers 200 and the worker pool drains.
#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = start();
    let mut client = Client::new(handle.addr());
    let r = client.post_raw("/shutdown", b"").expect("shutdown");
    assert_eq!(r.status, 200);
    // wait() returns once the workers notice the flag and exit.
    handle.wait();
}
